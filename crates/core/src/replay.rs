//! Experience replay — the alternative exploration memory the paper
//! considers and rejects in favour of MCTS (§4.5).
//!
//! Replay buffers improve sample efficiency by training on random past
//! transitions, but they "break the correlation between states": unlike
//! the search tree, they carry no structure about which design prefixes
//! lead where. This module implements the replay approach so the trade-off
//! can be measured (see the `exp_ablation_search` experiment binary).

use crate::env::Environment;
use crate::policy::{Episode, PolicyAgent};
use rand::prelude::*;
use rand::rngs::StdRng;
use rlnoc_nn::loss;
use rlnoc_nn::Tensor;
use std::collections::VecDeque;

/// One stored transition: the pre-action state, the encoded action, and
/// the observed discounted return from that point.
#[derive(Debug, Clone)]
pub struct Transition {
    /// State tensor before the action.
    pub state: Tensor,
    /// The four categorical head indices of the action taken.
    pub coords: [usize; 4],
    /// The action's binary flag (loop direction).
    pub flag: bool,
    /// Discounted return `G_t` observed from this state.
    pub ret: f64,
}

/// A bounded FIFO of past transitions with uniform random sampling.
#[derive(Debug)]
pub struct ReplayBuffer {
    items: VecDeque<Transition>,
    capacity: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReplayBuffer {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(t);
    }

    /// Records a whole episode with its discounted returns.
    pub fn push_episode<E: Environment>(
        &mut self,
        env: &E,
        episode: &Episode<E::Action>,
        gamma: f64,
    ) {
        let returns = episode.returns(gamma);
        for (step, &g) in episode.steps.iter().zip(&returns) {
            let (coords, flag) = env.encode_action(step.action);
            self.push(Transition {
                state: step.state.clone(),
                coords,
                flag,
                ret: g,
            });
        }
    }

    /// Uniformly samples `batch` transitions (with replacement when the
    /// buffer is smaller than the batch). Returns an empty vec when the
    /// buffer is empty.
    pub fn sample(&self, batch: usize, rng: &mut StdRng) -> Vec<&Transition> {
        if self.items.is_empty() {
            return Vec::new();
        }
        (0..batch)
            .map(|_| &self.items[rng.gen_range(0..self.items.len())])
            .collect()
    }
}

/// One gradient update from a sampled replay batch: standard advantage
/// actor-critic on uncorrelated transitions. Clips and steps the
/// optimizer; returns the mean value loss for monitoring.
pub fn train_on_replay(
    agent: &mut PolicyAgent,
    buffer: &ReplayBuffer,
    batch: usize,
    rng: &mut StdRng,
) -> f32 {
    let samples = buffer.sample(batch, rng);
    if samples.is_empty() {
        return 0.0;
    }
    let n = agent.net().config().n;
    let value_coeff = agent.train_config().value_coeff;
    let mut value_loss = 0.0f32;
    let count = samples.len();
    for t in samples {
        agent.net_mut().train_pass(&t.state, |out, grad| {
            let v = out.value.as_slice()[0];
            let advantage = (t.ret - f64::from(v)) as f32;
            let logits = out.coord_logits.as_slice();
            for h in 0..4 {
                // Out-of-range head indices (rectangular grids) train
                // nothing for that head.
                if t.coords[h] < n {
                    let head = h * n..(h + 1) * n;
                    let (_, g) =
                        loss::policy_head_grad(&logits[head.clone()], t.coords[h], advantage);
                    grad.coord_logits[head].copy_from_slice(&g);
                }
            }
            let (_, dg) = loss::direction_head_grad(out.dir.as_slice()[0], t.flag, advantage);
            let (vl, vg) = loss::value_head_grad(v, t.ret as f32);
            value_loss += vl;
            grad.dir[0] = dg;
            grad.value[0] = vg * value_coeff;
        });
    }
    agent.step_optimizer();
    value_loss / count as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Step, TrainConfig};
    use crate::routerless::{LoopAction, RouterlessEnv};
    use rlnoc_topology::{Direction, Grid};

    fn transition(ret: f64) -> Transition {
        Transition {
            state: Tensor::zeros(&[1, 1, 4, 4]),
            coords: [0, 0, 1, 1],
            flag: true,
            ret,
        }
    }

    #[test]
    fn buffer_evicts_fifo() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(transition(i as f64));
        }
        assert_eq!(b.len(), 3);
        // Oldest two evicted: remaining returns are 2, 3, 4.
        let mut rng = StdRng::seed_from_u64(0);
        let rets: Vec<f64> = b.sample(50, &mut rng).iter().map(|t| t.ret).collect();
        assert!(rets.iter().all(|&r| r >= 2.0));
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let b = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(b.sample(8, &mut rng).is_empty());
    }

    #[test]
    fn push_episode_stores_returns() {
        let env = RouterlessEnv::new(Grid::square(2).unwrap(), 2);
        let action = LoopAction::new(0, 0, 1, 1, Direction::Clockwise);
        let ep = Episode {
            steps: vec![Step {
                state: env.state_tensor(),
                action,
                reward: 0.0,
            }],
            final_return: 1.5,
        };
        let mut b = ReplayBuffer::new(8);
        b.push_episode(&env, &ep, 0.9);
        assert_eq!(b.len(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(b.sample(1, &mut rng)[0].ret, 1.5);
    }

    #[test]
    fn replay_training_moves_value_toward_return() {
        let env = RouterlessEnv::new(Grid::square(2).unwrap(), 2);
        let mut agent = PolicyAgent::for_env(&env, TrainConfig::default(), 3);
        let mut b = ReplayBuffer::new(16);
        let state = env.state_tensor();
        b.push(Transition {
            state: state.clone(),
            coords: [0, 0, 1, 1],
            flag: true,
            ret: -1.0,
        });
        let mut rng = StdRng::seed_from_u64(1);
        let before = agent.evaluate(&state).value;
        for _ in 0..40 {
            train_on_replay(&mut agent, &b, 4, &mut rng);
        }
        let after = agent.evaluate(&state).value;
        assert!(
            (after - (-1.0)).abs() < (before - (-1.0)).abs(),
            "value should move toward the return: {before} → {after}"
        );
    }
}
