//! The learning agent: a [`PolicyValueNet`] plus the advantage actor-critic
//! update of the paper's Equations 15–20.

use crate::env::Environment;
use rand::prelude::*;
use rand::rngs::StdRng;
use rlnoc_nn::loss;
use rlnoc_nn::optim::{clip_global_norm, Adam};
use rlnoc_nn::{PolicyValueConfig, PolicyValueNet, PolicyValueOutput, Tensor};

/// Hyperparameters for actor-critic training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Discount factor γ (≤ 1) of Equation 2.
    pub gamma: f64,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Weight of the value-head loss relative to the policy loss (the `c`
    /// constant of Equation 20).
    pub value_coeff: f32,
    /// Global gradient-norm clip applied before each optimizer step.
    pub clip_norm: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            gamma: 0.95,
            learning_rate: 1e-3,
            value_coeff: 0.5,
            clip_norm: 5.0,
        }
    }
}

/// One environment transition recorded during an exploration cycle.
#[derive(Debug, Clone)]
pub struct Step<A> {
    /// State tensor *before* the action.
    pub state: Tensor,
    /// The action taken.
    pub action: A,
    /// Immediate reward received.
    pub reward: f64,
}

/// A full exploration cycle's trajectory.
#[derive(Debug, Clone)]
pub struct Episode<A> {
    /// The recorded transitions, in order.
    pub steps: Vec<Step<A>>,
    /// The terminal bonus (mesh hop count − achieved hop count for
    /// routerless NoCs), added to the last step's reward when computing
    /// returns.
    pub final_return: f64,
}

impl<A> Episode<A> {
    /// Discounted returns `G_t = Σ_{t′ ≥ t} γ^{t′−t} r_{t′}`, with
    /// [`Episode::final_return`] folded into the last reward (Equation 16's
    /// future-trajectory term).
    pub fn returns(&self, gamma: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.steps.len()];
        let mut run = 0.0;
        for (i, step) in self.steps.iter().enumerate().rev() {
            let r = if i + 1 == self.steps.len() {
                step.reward + self.final_return
            } else {
                step.reward
            };
            run = r + gamma * run;
            out[i] = run;
        }
        out
    }
}

/// Summary statistics from one training update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Mean policy loss across steps.
    pub policy_loss: f32,
    /// Mean value loss across steps.
    pub value_loss: f32,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
    /// Mean coordinate-head policy entropy (nats per head). Diagnostic
    /// only — computed from the forward-pass logits without touching the
    /// gradients, so recording it cannot perturb training.
    pub entropy: f32,
    /// Number of steps trained on.
    pub steps: usize,
}

/// The DNN-backed agent: action sampling, prior/value evaluation for MCTS,
/// and actor-critic training.
#[derive(Debug)]
pub struct PolicyAgent {
    net: PolicyValueNet,
    optim: Adam,
    config: TrainConfig,
    /// Bumped on every optimizer step; evaluation caches key on
    /// `(state_key, generation)` so stale entries are never served.
    generation: u64,
    /// Grow-only storage for the stacked state batch of
    /// [`PolicyAgent::evaluate_batch`] and
    /// [`PolicyAgent::accumulate_episode`].
    staging: Vec<f32>,
}

/// A policy evaluation at one state: per-head probability tables, the
/// clockwise probability, and the value estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// `probs[h]` is the softmax distribution of head `h` (h = x1, y1, x2,
    /// y2), each of length `N`.
    pub probs: [Vec<f32>; 4],
    /// Probability that the direction flag is set (clockwise).
    pub p_clockwise: f32,
    /// Value-head estimate of the discounted return from this state.
    pub value: f64,
}

impl Evaluation {
    /// The prior probability π(a; s) of a specific action: the product of
    /// its four head probabilities and the direction probability.
    pub fn action_prior(&self, coords: [usize; 4], flag: bool) -> f32 {
        let mut p = if flag {
            self.p_clockwise
        } else {
            1.0 - self.p_clockwise
        };
        for (h, &c) in coords.iter().enumerate() {
            p *= self.probs[h].get(c).copied().unwrap_or(0.0);
        }
        p
    }
}

impl PolicyAgent {
    /// Creates an agent whose network has head cardinality `n` and a state
    /// input of `side × side`.
    pub fn new(net_config: PolicyValueConfig, train_config: TrainConfig, seed: u64) -> Self {
        let lr = train_config.learning_rate;
        PolicyAgent {
            net: PolicyValueNet::new(net_config, seed),
            optim: Adam::new(lr),
            config: train_config,
            generation: 0,
            staging: Vec::new(),
        }
    }

    /// Convenience constructor sized for `env`.
    pub fn for_env<E: Environment>(env: &E, train_config: TrainConfig, seed: u64) -> Self {
        let mut cfg = PolicyValueConfig::small(env.head_cardinality());
        cfg.input_side = env.state_side();
        PolicyAgent::new(cfg, train_config, seed)
    }

    /// The training configuration.
    pub fn train_config(&self) -> &TrainConfig {
        &self.config
    }

    /// Immutable access to the underlying network.
    pub fn net(&self) -> &PolicyValueNet {
        &self.net
    }

    /// Mutable access to the underlying network (parameter exchange in the
    /// multi-threaded framework).
    pub fn net_mut(&mut self) -> &mut PolicyValueNet {
        &mut self.net
    }

    /// The current parameter generation (bumped by
    /// [`PolicyAgent::step_optimizer`]). Evaluation caches key on this to
    /// invalidate entries whenever the network changes.
    pub fn param_generation(&self) -> u64 {
        self.generation
    }

    /// Overrides the parameter generation. Used by the multi-threaded
    /// framework when a child replica loads the parent's parameter
    /// snapshot: the child's cached evaluations must be tagged with the
    /// parent's generation, not the child's local step count.
    pub fn set_param_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Evaluates the policy and value heads at `state` (inference mode).
    pub fn evaluate(&mut self, state: &Tensor) -> Evaluation {
        let out = self.net.forward(state);
        let mut evals = split_output(self.net.config().n, &out);
        assert_eq!(evals.len(), 1, "evaluate expects a single-sample state");
        evals.remove(0)
    }

    /// Evaluates a batch of single-sample states with **one** network
    /// forward, returning one [`Evaluation`] per state in order.
    ///
    /// Inference-mode batch normalization uses running statistics, so each
    /// sample is evaluated independently: this is numerically identical to
    /// calling [`PolicyAgent::evaluate`] per state, just one GEMM-friendly
    /// pass instead of `batch` small ones.
    ///
    /// # Panics
    ///
    /// Panics if any state is not a single `side × side` sample.
    pub fn evaluate_batch(&mut self, states: &[Tensor]) -> Vec<Evaluation> {
        if states.is_empty() {
            return Vec::new();
        }
        let batch = self.stack(states.iter());
        let out = self.net.forward(&batch);
        self.staging = batch.into_vec();
        split_output(self.net.config().n, &out)
    }

    /// Stacks single-sample states into one `[count, 1, side, side]`
    /// batch, built in the staging buffer; hand the buffer back with
    /// `self.staging = batch.into_vec()`.
    ///
    /// # Panics
    ///
    /// Panics if any state is not a single `side × side` sample.
    fn stack<'a>(&mut self, states: impl ExactSizeIterator<Item = &'a Tensor>) -> Tensor {
        let side = self.net.config().input_side;
        let count = states.len();
        let mut data = std::mem::take(&mut self.staging);
        data.clear();
        for s in states {
            assert_eq!(
                s.as_slice().len(),
                side * side,
                "states must be single [1, 1, {side}, {side}] samples"
            );
            data.extend_from_slice(s.as_slice());
        }
        Tensor::from_vec(data, &[count, 1, side, side]).expect("sized above")
    }

    /// Samples an action from the policy at the environment's current
    /// state. The sample may be invalid or illegal — the paper relies on
    /// the reward taxonomy, not masking, to teach constraints.
    pub fn sample_action<E: Environment>(&mut self, env: &E, rng: &mut StdRng) -> E::Action {
        let eval = self.evaluate(&env.state_tensor());
        Self::sample_from_eval(&eval, env, rng)
    }

    /// Samples an action from an existing [`Evaluation`] of the
    /// environment's current state — the cached-evaluation path of the
    /// explorer, which avoids re-running the network when the evaluation is
    /// already known.
    pub fn sample_from_eval<E: Environment>(
        eval: &Evaluation,
        env: &E,
        rng: &mut StdRng,
    ) -> E::Action {
        let mut coords = [0usize; 4];
        for (h, c) in coords.iter_mut().enumerate() {
            *c = sample_categorical(&eval.probs[h], rng);
        }
        let flag = rng.gen_bool(f64::from(eval.p_clockwise.clamp(0.0, 1.0)));
        env.decode_action(coords, flag)
    }

    /// Accumulates actor-critic gradients for `episode` into the network
    /// (without stepping the optimizer). Returns the per-episode stats.
    ///
    /// Every driver's cycle body calls this, then commits the gradients:
    /// the serial driver with [`PolicyAgent::try_step_optimizer`], a child
    /// thread of the paper's §4.6 exchange by pushing them to the parent.
    ///
    /// The whole trajectory is stacked into a single `[steps, 1, side,
    /// side]` batch: one forward and one backward per episode instead of
    /// one per step, so the heavy kernels run at GEMM-friendly batch
    /// sizes. Parameter gradients sum over the batch exactly as the old
    /// per-step accumulation did; the only numerical difference is that
    /// train-mode batch normalization now normalizes over the episode
    /// batch rather than each step alone.
    pub fn accumulate_episode<E: Environment>(
        &mut self,
        env: &E,
        episode: &Episode<E::Action>,
    ) -> TrainStats {
        let steps = episode.steps.len();
        if steps == 0 {
            return TrainStats {
                policy_loss: 0.0,
                value_loss: 0.0,
                grad_norm: 0.0,
                entropy: 0.0,
                steps: 0,
            };
        }
        let returns = episode.returns(self.config.gamma);
        let n = self.net.config().n;
        let value_coeff = self.config.value_coeff;
        let batch = self.stack(episode.steps.iter().map(|step| &step.state));
        let mut policy_loss = 0.0f32;
        let mut value_loss = 0.0f32;
        let mut entropy = 0.0f32;
        self.net.train_pass(&batch, |out, grad| {
            let logits = out.coord_logits.as_slice();
            let dirs = out.dir.as_slice();
            let values = out.value.as_slice();
            for (i, (step, &g_t)) in episode.steps.iter().zip(&returns).enumerate() {
                let v = values[i];
                let advantage = (g_t - f64::from(v)) as f32;
                let (coords, flag) = env.encode_action(step.action);
                for (h, &coord) in coords.iter().enumerate() {
                    let base = (i * 4 + h) * n;
                    entropy += softmax_entropy(&logits[base..base + n]);
                    let (l, g) = loss::policy_head_grad(&logits[base..base + n], coord, advantage);
                    policy_loss += l;
                    grad.coord_logits[base..base + n].copy_from_slice(&g);
                }
                let (dl, dg) = loss::direction_head_grad(dirs[i], flag, advantage);
                policy_loss += dl;
                grad.dir[i] = dg;
                let (vl, vg) = loss::value_head_grad(v, g_t as f32);
                value_loss += vl;
                grad.value[i] = vg * value_coeff;
            }
        });
        self.staging = batch.into_vec();
        TrainStats {
            policy_loss: policy_loss / steps as f32,
            value_loss: value_loss / steps as f32,
            grad_norm: 0.0,
            entropy: entropy / (steps * 4) as f32,
            steps,
        }
    }

    /// Clips accumulated gradients and applies one optimizer step,
    /// returning the pre-clip gradient norm.
    pub fn step_optimizer(&mut self) -> f32 {
        let clip = self.config.clip_norm;
        let mut params = self.net.params_mut();
        let norm = clip_global_norm(&mut params, clip);
        self.optim.step(&mut params);
        self.generation += 1;
        norm
    }

    /// [`PolicyAgent::step_optimizer`] that refuses a non-finite pre-clip
    /// norm (the sum of squares can overflow though every gradient is
    /// finite): the gradients are zeroed, parameters, optimizer and
    /// generation stay untouched, and the norm comes back as `Err`.
    pub fn try_step_optimizer(&mut self) -> Result<f32, f32> {
        let clip = self.config.clip_norm;
        let mut params = self.net.params_mut();
        let norm = clip_global_norm(&mut params, clip);
        if !norm.is_finite() {
            self.net.zero_grad();
            return Err(norm);
        }
        self.optim.step(&mut params);
        self.generation += 1;
        Ok(norm)
    }

    /// Adam's step count and moment estimates, for checkpointing.
    /// Parameters are snapshotted separately; without the moments a resumed
    /// run restarts bias correction and every subsequent step diverges from
    /// the uninterrupted run.
    pub fn optimizer_snapshot(&self) -> (u64, Vec<Tensor>, Vec<Tensor>) {
        let (t, m, v) = self.optim.state();
        (t, m.to_vec(), v.to_vec())
    }

    /// Restores state captured by [`PolicyAgent::optimizer_snapshot`].
    pub fn restore_optimizer(&mut self, t: u64, m: Vec<Tensor>, v: Vec<Tensor>) {
        self.optim.restore_state(t, m, v);
    }
}

/// Converts raw network outputs of a head cardinality `n` network into
/// per-sample [`Evaluation`]s.
fn split_output(n: usize, out: &PolicyValueOutput) -> Vec<Evaluation> {
    let batch = out.value.shape()[0];
    let logits = out.coord_logits.as_slice();
    let dirs = out.dir.as_slice();
    let values = out.value.as_slice();
    (0..batch)
        .map(|i| {
            let l = &logits[i * 4 * n..(i + 1) * 4 * n];
            Evaluation {
                probs: [
                    loss::softmax(&l[0..n]),
                    loss::softmax(&l[n..2 * n]),
                    loss::softmax(&l[2 * n..3 * n]),
                    loss::softmax(&l[3 * n..4 * n]),
                ],
                p_clockwise: (1.0 + dirs[i]) / 2.0,
                value: f64::from(values[i]),
            }
        })
        .collect()
}

/// Shannon entropy (nats) of the softmax distribution over `logits`,
/// computed with the usual max-shift for numerical stability.
fn softmax_entropy(logits: &[f32]) -> f32 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return 0.0;
    }
    let mut z = 0.0f32;
    let mut weighted = 0.0f32;
    for &l in logits {
        let e = (l - max).exp();
        z += e;
        weighted += e * (l - max);
    }
    if z <= 0.0 {
        return 0.0;
    }
    // H = ln Z - Σ softmax(l) * (l - max)  (shift cancels).
    (z.ln() - weighted / z).max(0.0)
}

/// Samples an index from an unnormalized probability table.
fn sample_categorical(probs: &[f32], rng: &mut StdRng) -> usize {
    let total: f32 = probs.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..probs.len().max(1));
    }
    let mut draw = rng.gen_range(0.0..total);
    for (i, &p) in probs.iter().enumerate() {
        if draw < p {
            return i;
        }
        draw -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routerless::{LoopAction, RouterlessEnv};
    use rlnoc_topology::{Direction, Grid};

    fn tiny_env() -> RouterlessEnv {
        RouterlessEnv::new(Grid::square(2).unwrap(), 2)
    }

    fn agent_for(env: &RouterlessEnv, seed: u64) -> PolicyAgent {
        PolicyAgent::for_env(env, TrainConfig::default(), seed)
    }

    #[test]
    fn returns_discounting() {
        let ep = Episode {
            steps: vec![
                Step {
                    state: Tensor::zeros(&[1]),
                    action: 0u8,
                    reward: 1.0,
                },
                Step {
                    state: Tensor::zeros(&[1]),
                    action: 0u8,
                    reward: -1.0,
                },
            ],
            final_return: 2.0,
        };
        let g = ep.returns(0.5);
        // Last step: -1 + 2 = 1. First: 1 + 0.5 * 1 = 1.5.
        assert_eq!(g, vec![1.5, 1.0]);
    }

    #[test]
    fn returns_empty_episode() {
        let ep: Episode<u8> = Episode {
            steps: vec![],
            final_return: 3.0,
        };
        assert!(ep.returns(0.9).is_empty());
    }

    #[test]
    fn evaluation_priors_form_distribution() {
        let env = tiny_env();
        let mut agent = agent_for(&env, 0);
        let eval = agent.evaluate(&env.state_tensor());
        for h in 0..4 {
            let sum: f32 = eval.probs[h].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "head {h} sums to {sum}");
        }
        assert!((0.0..=1.0).contains(&eval.p_clockwise));
        // Priors over all (coords, flag) combinations sum to 1.
        let n = env.head_cardinality();
        let mut total = 0.0f32;
        for x1 in 0..n {
            for y1 in 0..n {
                for x2 in 0..n {
                    for y2 in 0..n {
                        for flag in [false, true] {
                            total += eval.action_prior([x1, y1, x2, y2], flag);
                        }
                    }
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-4, "priors total {total}");
    }

    #[test]
    fn sampled_actions_decode_in_range() {
        let env = RouterlessEnv::new(Grid::square(4).unwrap(), 6);
        let mut agent = agent_for(&env, 1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let a = agent.sample_action(&env, &mut rng);
            assert!(a.x1 < 4 && a.y1 < 4 && a.x2 < 4 && a.y2 < 4);
        }
    }

    #[test]
    fn training_on_positive_episode_raises_action_prior() {
        let env = tiny_env();
        let mut agent = agent_for(&env, 3);
        let action = LoopAction::new(0, 0, 1, 1, Direction::Clockwise);
        let state = env.state_tensor();
        let before = agent
            .evaluate(&state)
            .action_prior(action.head_indices().0, true);
        let episode = Episode {
            steps: vec![Step {
                state: state.clone(),
                action,
                reward: 0.0,
            }],
            final_return: 1.0,
        };
        for _ in 0..15 {
            agent.accumulate_episode(&env, &episode);
            agent.step_optimizer();
        }
        let after = agent
            .evaluate(&state)
            .action_prior(action.head_indices().0, true);
        assert!(after > before, "prior should rise: {before} → {after}");
    }

    #[test]
    fn value_head_tracks_return() {
        let env = tiny_env();
        let mut agent = agent_for(&env, 4);
        let state = env.state_tensor();
        let action = LoopAction::new(0, 0, 1, 1, Direction::Clockwise);
        let episode = Episode {
            steps: vec![Step {
                state: state.clone(),
                action,
                reward: 0.0,
            }],
            final_return: -2.0,
        };
        for _ in 0..80 {
            agent.accumulate_episode(&env, &episode);
            agent.step_optimizer();
        }
        let v = agent.evaluate(&state).value;
        assert!((v - (-2.0)).abs() < 0.7, "value {v} should approach -2");
    }

    #[test]
    fn evaluate_batch_matches_per_sample_evaluate() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let mut agent = agent_for(&env, 6);
        // Collect several distinct states along a sampled trajectory.
        let mut e = env.clone();
        let mut rng = StdRng::seed_from_u64(2);
        let mut states = vec![e.state_tensor()];
        for _ in 0..4 {
            let a = agent.sample_action(&e, &mut rng);
            e.apply(a);
            states.push(e.state_tensor());
        }
        let batched = agent.evaluate_batch(&states);
        assert_eq!(batched.len(), states.len());
        // Eval-mode batch norm uses running statistics, so the batched
        // forward is exactly per-sample evaluation — bit-identical.
        for (s, b) in states.iter().zip(&batched) {
            assert_eq!(&agent.evaluate(s), b);
        }
        assert!(agent.evaluate_batch(&[]).is_empty());
    }

    #[test]
    fn generation_tracks_optimizer_steps() {
        let env = tiny_env();
        let mut agent = agent_for(&env, 0);
        assert_eq!(agent.param_generation(), 0);
        agent.step_optimizer();
        assert_eq!(agent.param_generation(), 1);
        agent.set_param_generation(7);
        assert_eq!(agent.param_generation(), 7);
    }

    #[test]
    fn accumulate_handles_multi_step_and_empty_episodes() {
        let env = tiny_env();
        let mut agent = agent_for(&env, 5);
        let empty: Episode<LoopAction> = Episode {
            steps: vec![],
            final_return: 0.0,
        };
        let stats = agent.accumulate_episode(&env, &empty);
        assert_eq!(stats.steps, 0);

        let action = LoopAction::new(0, 0, 1, 1, Direction::Clockwise);
        let state = env.state_tensor();
        let episode = Episode {
            steps: (0..3)
                .map(|_| Step {
                    state: state.clone(),
                    action,
                    reward: 0.5,
                })
                .collect(),
            final_return: 1.0,
        };
        let stats = agent.accumulate_episode(&env, &episode);
        assert_eq!(stats.steps, 3);
        assert!(stats.policy_loss.is_finite() && stats.value_loss.is_finite());
        assert!(agent.step_optimizer() > 0.0, "gradients should be nonzero");
    }

    #[test]
    fn checked_step_matches_plain_step() {
        let env = tiny_env();
        let mut a = agent_for(&env, 9);
        let mut b = agent_for(&env, 9);
        let action = LoopAction::new(0, 0, 1, 1, Direction::Clockwise);
        let episode = Episode {
            steps: vec![Step {
                state: env.state_tensor(),
                action,
                reward: 1.0,
            }],
            final_return: 0.5,
        };
        for _ in 0..3 {
            a.accumulate_episode(&env, &episode);
            let na = a.step_optimizer();
            b.accumulate_episode(&env, &episode);
            let nb = b.try_step_optimizer().expect("finite gradients step");
            assert_eq!(na, nb);
        }
        assert_eq!(a.net.param_snapshot(), b.net.param_snapshot());
        assert_eq!(a.param_generation(), b.param_generation());
    }

    #[test]
    fn checked_step_rejects_non_finite_norm_without_mutating() {
        let env = tiny_env();
        let mut agent = agent_for(&env, 10);
        let before = agent.net.param_snapshot();
        let generation = agent.param_generation();
        // Poison one gradient directly.
        agent.net.params_mut()[0].grad.as_mut_slice()[0] = f32::NAN;
        let norm = agent.try_step_optimizer().unwrap_err();
        assert!(norm.is_nan());
        assert_eq!(agent.net.param_snapshot(), before, "params untouched");
        assert_eq!(agent.param_generation(), generation, "generation untouched");
        assert!(
            agent
                .net
                .params_mut()
                .iter()
                .all(|p| p.grad.as_slice().iter().all(|&g| g == 0.0)),
            "poisoned gradients zeroed"
        );
    }

    #[test]
    fn sample_categorical_degenerate() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_categorical(&[0.0, 0.0, 1.0], &mut rng), 2);
        // All-zero table falls back to uniform without panicking.
        let i = sample_categorical(&[0.0, 0.0], &mut rng);
        assert!(i < 2);
    }
}
