//! The exploration loop of the paper's Figure 4: DNN-guided, MCTS-refined
//! design cycles with actor-critic learning after each cycle.

use crate::cache::{CacheStats, EvalCache, EvalCacheHandle};
use crate::env::Environment;
use crate::mcts::{Mcts, MctsConfig};
use crate::parallel::{AnomalyKind, AnomalyReport, ExploreError, SupervisedReport};
use crate::policy::{Episode, Evaluation, PolicyAgent, Step, TrainConfig, TrainStats};
use rand::prelude::*;
use rand::rngs::StdRng;
use rlnoc_telemetry::{Recorder, TelemetrySink};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// After this many consecutive penalized actions the explorer forces a
/// greedy action to restore progress.
const INVALID_STREAK_LIMIT: usize = 8;

/// Maximum number of edges added per node expansion (the legal actions
/// with the highest priors).
const EXPANSION_CANDIDATES: usize = 64;

/// Tunables for the exploration loop.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// The ε of the ε-greedy override: with this probability a step is
    /// taken by the environment's deterministic greedy heuristic
    /// (Algorithm 1) instead of Equation 21. Table 1 sweeps this knob.
    pub epsilon: f64,
    /// Tree-search constants.
    pub mcts: MctsConfig,
    /// Actor-critic training constants.
    pub train: TrainConfig,
    /// Length of the DNN/MCTS exploration prefix: the paper's cycle takes
    /// an initial DNN action then "several actions … by following MCTS"
    /// before handing over to the completion phase, so this should be a
    /// modest fraction of the design's total loop budget. Also guards
    /// against degenerate policies that only propose penalized actions.
    pub max_steps: usize,
    /// After the DNN/MCTS phase, finish incomplete designs with greedy
    /// actions — the paper's "additional actions can be taken, if
    /// necessary, to complete the design" (Figure 4). The completion steps
    /// are recorded and trained on like any others.
    pub complete_designs: bool,
    /// Capacity of the evaluation cache keyed on `(state_key, parameter
    /// generation)`; 0 disables caching. MCTS revisits make this a large
    /// win — see [`crate::cache`].
    pub eval_cache_capacity: usize,
    /// Telemetry sink for run instrumentation (losses, search-depth and
    /// visit distributions, cache activity, kernel timings). The default
    /// disabled sink compiles the probes down to a branch — exploration
    /// results are bit-identical either way.
    pub telemetry: TelemetrySink,
    /// Deterministic fault injector for chaos tests, honored by every
    /// driver (its hooks sit in the cycle body both share); `None` (the
    /// default) costs one branch per hook site.
    pub chaos: Option<crate::chaos::ChaosInjector>,
}

impl ExplorerConfig {
    /// A laptop-friendly configuration: small network, short episodes.
    pub fn fast() -> Self {
        ExplorerConfig {
            epsilon: 0.1,
            mcts: MctsConfig::default(),
            train: TrainConfig::default(),
            max_steps: 8,
            complete_designs: true,
            eval_cache_capacity: 4096,
            telemetry: TelemetrySink::disabled(),
            chaos: None,
        }
    }
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig::fast()
    }
}

/// The final state of one exploration cycle.
#[derive(Debug, Clone)]
pub struct DesignResult<E> {
    /// The environment at episode end (for routerless NoCs, carries the
    /// completed [`rlnoc_topology::Topology`]).
    pub env: E,
    /// The terminal return (mesh hop count − achieved hop count).
    pub final_return: f64,
    /// Index of the cycle that produced this design.
    pub cycle: usize,
    /// Number of actions taken.
    pub steps: usize,
    /// Whether the design meets the environment's success criterion (full
    /// connectivity for routerless NoCs).
    pub successful: bool,
}

// Manual serde impls: the vendored derive does not handle generic types.
impl<E: Serialize> Serialize for DesignResult<E> {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            (String::from("env"), self.env.serialize()),
            (String::from("final_return"), self.final_return.serialize()),
            (String::from("cycle"), self.cycle.serialize()),
            (String::from("steps"), self.steps.serialize()),
            (String::from("successful"), self.successful.serialize()),
        ])
    }
}

impl<E: Deserialize> Deserialize for DesignResult<E> {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                SerdeError::custom(format!("missing field `{name}` in DesignResult"))
            })
        };
        Ok(DesignResult {
            env: E::deserialize(field("env")?)?,
            final_return: f64::deserialize(field("final_return")?)?,
            cycle: usize::deserialize(field("cycle")?)?,
            steps: usize::deserialize(field("steps")?)?,
            successful: bool::deserialize(field("successful")?)?,
        })
    }
}

/// Outcome of a whole exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport<E> {
    /// One result per cycle, in order.
    pub designs: Vec<DesignResult<E>>,
    /// Per-cycle training statistics.
    pub train_history: Vec<TrainStats>,
    /// Number of cycles completed.
    pub cycles_run: usize,
    /// Evaluation-cache hit/miss counters over the run (all zero when the
    /// cache is disabled).
    pub cache_stats: CacheStats,
}

impl<E> ExploreReport<E> {
    /// The best *successful* design by final return, if any.
    pub fn best(&self) -> Option<&DesignResult<E>> {
        self.designs
            .iter()
            .filter(|d| d.successful)
            .max_by(|a, b| a.final_return.total_cmp(&b.final_return))
    }

    /// Number of successful (e.g. fully connected) designs found.
    pub fn successful_count(&self) -> usize {
        self.designs.iter().filter(|d| d.successful).count()
    }
}

/// Mediates tree access so the same episode runner serves both the local
/// single-threaded tree and the shared tree of the multi-threaded framework.
pub trait TreeHandle<A> {
    /// Whether the state has outgoing edges.
    fn is_expanded(&mut self, state: u64) -> bool;
    /// Adds prior-weighted edges to a state.
    fn expand(&mut self, state: u64, priors: &[(A, f32)]);
    /// Equation 21 selection.
    fn select(&mut self, state: u64) -> Option<A>;
    /// Propagates returns along a trajectory.
    fn backup(&mut self, path: &[(u64, A)], returns: &[f64]);
}

impl<A: Copy + Eq + std::hash::Hash + std::fmt::Debug> TreeHandle<A> for Mcts<A> {
    fn is_expanded(&mut self, state: u64) -> bool {
        Mcts::is_expanded(self, state)
    }
    fn expand(&mut self, state: u64, priors: &[(A, f32)]) {
        Mcts::expand(self, state, priors);
    }
    fn select(&mut self, state: u64) -> Option<A> {
        Mcts::select(self, state)
    }
    fn backup(&mut self, path: &[(u64, A)], returns: &[f64]) {
        Mcts::backup(self, path, returns);
    }
}

/// Evaluates `state` through the cache: a hit returns the stored
/// [`Evaluation`] (bit-identical to a fresh forward, since entries are
/// keyed on the parameter generation); a miss runs the network and stores
/// the result.
fn cached_evaluate<C: EvalCacheHandle>(
    agent: &mut PolicyAgent,
    cache: &mut C,
    key: u64,
    state: &rlnoc_nn::Tensor,
) -> Evaluation {
    let generation = agent.param_generation();
    if let Some(eval) = cache.lookup(key, generation) {
        return eval;
    }
    let eval = agent.evaluate(state);
    cache.store(key, generation, &eval);
    eval
}

/// Re-evaluates the states an episode visited in one batched forward and
/// stores the results under the agent's current parameter generation.
///
/// Called after an optimizer step, this warms the cache for the *new*
/// parameters: the next cycle starts from the same reset state and revisits
/// much of the same tree, so its expansion and root-sampling evaluations
/// hit instead of running single-state forwards. Batched evaluation is
/// bit-identical to per-sample evaluation (eval-mode BatchNorm uses running
/// statistics), so warmed entries never change search results.
///
/// At most `limit` states are evaluated (the DNN/MCTS prefix; greedy
/// completion tails can be long and are rarely revisited).
fn warm_cache<A>(
    agent: &mut PolicyAgent,
    cache: &mut impl EvalCacheHandle,
    episode: &Episode<A>,
    path: &[(u64, A)],
    limit: usize,
) {
    let warm = episode.steps.len().min(path.len()).min(limit);
    if warm == 0 {
        return;
    }
    let states: Vec<rlnoc_nn::Tensor> = episode.steps[..warm]
        .iter()
        .map(|s| s.state.clone())
        .collect();
    let evals = agent.evaluate_batch(&states);
    let generation = agent.param_generation();
    for ((key, _), eval) in path[..warm].iter().zip(&evals) {
        cache.store(*key, generation, eval);
    }
}

/// A recorded episode plus its `(state_key, action)` search path, as
/// returned by [`run_episode`]; the path is what [`Mcts::backup`] consumes.
pub type EpisodeTrace<A> = (Episode<A>, Vec<(u64, A)>);

/// Runs one exploration cycle (Figure 4's inner loop): DNN initial action,
/// then MCTS/ε-greedy actions until the design is complete, recording the
/// trajectory. Returns the episode and the `(state, action)` path for
/// backup.
///
/// Network evaluations go through `cache` (pass [`crate::NoCache`] to
/// disable); within one episode the expansion and the initial-action
/// sampling reuse the same evaluation, and across episodes MCTS revisits
/// hit the cache until an optimizer step bumps the parameter generation.
pub fn run_episode<E: Environment>(
    env: &mut E,
    agent: &mut PolicyAgent,
    tree: &mut impl TreeHandle<E::Action>,
    cache: &mut impl EvalCacheHandle,
    config: &ExplorerConfig,
    rng: &mut StdRng,
) -> EpisodeTrace<E::Action> {
    env.reset();
    let mut steps: Vec<Step<E::Action>> = Vec::new();
    let mut path: Vec<(u64, E::Action)> = Vec::new();
    let mut invalid_streak = 0usize;

    for t in 0..config.max_steps {
        if env.is_terminal() {
            break;
        }
        let key = env.state_key();
        let state = env.state_tensor();

        if !tree.is_expanded(key) {
            let eval = cached_evaluate(agent, cache, key, &state);
            let mut priors: Vec<(E::Action, f32)> = env
                .legal_actions()
                .into_iter()
                .map(|a| {
                    let (coords, flag) = env.encode_action(a);
                    (a, eval.action_prior(coords, flag))
                })
                .collect();
            priors.sort_by(|a, b| b.1.total_cmp(&a.1));
            priors.truncate(EXPANSION_CANDIDATES);
            tree.expand(key, &priors);
        }

        let action = if invalid_streak >= INVALID_STREAK_LIMIT {
            // Restore progress deterministically.
            match env.greedy_action() {
                Some(a) => a,
                None => break,
            }
        } else if t == 0 {
            // The DNN picks the initial action, directing search to a
            // region of the design space (Figure 4, "DNN" box).
            let eval = cached_evaluate(agent, cache, key, &state);
            PolicyAgent::sample_from_eval(&eval, env, rng)
        } else if rng.gen_bool(config.epsilon) {
            match env.greedy_action() {
                Some(a) => a,
                None => break,
            }
        } else {
            match tree.select(key) {
                Some(a) => a,
                None => {
                    let eval = cached_evaluate(agent, cache, key, &state);
                    PolicyAgent::sample_from_eval(&eval, env, rng)
                }
            }
        };

        let reward = env.apply(action);
        invalid_streak = if reward < 0.0 { invalid_streak + 1 } else { 0 };
        steps.push(Step {
            state,
            action,
            reward,
        });
        path.push((key, action));
    }

    // Completion phase (Figure 4): "additional actions can be taken, if
    // necessary, to complete the design". Greedy actions drive the design
    // to full connectivity (or wiring exhaustion) within a bounded number
    // of extra steps, all recorded for learning.
    if config.complete_designs {
        // Safety bound only: greedy completion ends naturally when the
        // design succeeds or the wiring budget is exhausted.
        let completion_cap = 1024;
        let mut extra = 0;
        while !env.is_successful() && extra < completion_cap {
            let Some(action) = env.completion_action() else {
                break;
            };
            let key = env.state_key();
            let state = env.state_tensor();
            let reward = env.apply(action);
            steps.push(Step {
                state,
                action,
                reward,
            });
            path.push((key, action));
            extra += 1;
        }
    }

    let episode = Episode {
        steps,
        final_return: env.final_return(),
    };
    (episode, path)
}

/// One exploration cycle, the body every driver runs (Figures 4 and 8):
/// the episode ([`run_episode`]), its actor-critic gradients, the NaN/Inf
/// checks, the caller's `commit`, the tree backup, the cache warm-up under
/// the committed parameters, and the cycle's telemetry. The
/// [`crate::chaos`] hooks fire here, keyed on `cycle`.
///
/// `commit` applies the agent's accumulated gradients and returns the
/// pre-clip gradient norm, or returns a non-finite norm as `Err` having
/// applied nothing. The serial driver passes
/// [`PolicyAgent::try_step_optimizer`]; a parallel worker pushes the
/// gradients to the parent and pulls back the stepped parameters.
///
/// A non-finite loss, gradient or norm stops the cycle before anything
/// commits: on `Err` the agent's gradients are zeroed, its parameters,
/// Adam state and generation are untouched, and neither the tree backup
/// nor the warm-up has happened.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cycle<E: Environment, C: EvalCacheHandle>(
    env: &mut E,
    agent: &mut PolicyAgent,
    tree: &mut impl TreeHandle<E::Action>,
    cache: &mut C,
    config: &ExplorerConfig,
    rng: &mut StdRng,
    cycle: usize,
    rec: &mut Recorder,
    commit: impl FnOnce(&mut PolicyAgent) -> Result<f32, f32>,
) -> Result<(DesignResult<E>, TrainStats), AnomalyKind> {
    let timer = rec.timer();
    if let Some(injector) = &config.chaos {
        injector.on_cycle_start(cycle);
    }
    let (episode, path) = run_episode(env, agent, tree, cache, config, rng);
    let mut stats = agent.accumulate_episode(env, &episode);
    let committed = check_update(agent, &stats, config, cycle)
        .and_then(|()| commit(agent).map_err(|norm| AnomalyKind::NonFiniteGradNorm { norm }));
    match committed {
        Ok(norm) => stats.grad_norm = norm,
        Err(kind) => {
            agent.net_mut().zero_grad();
            rec.incr(kind.counter(), 1);
            rec.incr("anomaly.total", 1);
            return Err(kind);
        }
    }
    tree.backup(&path, &episode.returns(config.train.gamma));
    if config.eval_cache_capacity > 0 {
        warm_cache(agent, cache, &episode, &path, config.max_steps);
    }
    let successful = env.is_successful();
    if rec.is_enabled() {
        rec.incr("explore.cycles", 1);
        if successful {
            rec.incr("explore.designs_successful", 1);
        }
        rec.record("explore.steps", episode.steps.len() as u64);
        rec.record("mcts.path_depth", path.len() as u64);
        rec.gauge("train.policy_loss", f64::from(stats.policy_loss));
        rec.gauge("train.value_loss", f64::from(stats.value_loss));
        rec.gauge("train.grad_norm", f64::from(stats.grad_norm));
        rec.gauge("train.entropy", f64::from(stats.entropy));
        rec.observe_timer("explore.cycle_us", timer);
    }
    let design = DesignResult {
        successful,
        env: env.clone(),
        final_return: episode.final_return,
        cycle,
        steps: episode.steps.len(),
    };
    Ok((design, stats))
}

/// Fires the chaos gradient hook on the agent's own gradients, then checks
/// the episode's losses and those gradients for NaN/Inf.
fn check_update(
    agent: &mut PolicyAgent,
    stats: &TrainStats,
    config: &ExplorerConfig,
    cycle: usize,
) -> Result<(), AnomalyKind> {
    let mut params = agent.net_mut().params_mut();
    if let Some(injector) = &config.chaos {
        injector.corrupt_grads(cycle, params.iter_mut().map(|p| &mut p.grad));
    }
    if !stats.policy_loss.is_finite() || !stats.value_loss.is_finite() {
        return Err(AnomalyKind::NonFiniteLoss {
            policy_loss: stats.policy_loss,
            value_loss: stats.value_loss,
        });
    }
    match params.iter().position(|p| !p.grad.all_finite()) {
        Some(tensor) => Err(AnomalyKind::NonFiniteGrad { tensor }),
        None => Ok(()),
    }
}

/// Publishes a run's end-of-run telemetry: the cache hits and misses it
/// made, the tree size and edge-visit distribution, and the parameter
/// generation reached. No-op on a disabled recorder.
pub(crate) fn record_run_end<A: Copy + Eq + std::hash::Hash + std::fmt::Debug>(
    rec: &mut Recorder,
    tree: &Mcts<A>,
    cache: CacheStats,
    generation: u64,
) {
    if !rec.is_enabled() {
        return;
    }
    rec.incr("cache.hits", cache.hits);
    rec.incr("cache.misses", cache.misses);
    rec.gauge("mcts.nodes", tree.len() as f64);
    for v in tree.edge_visit_counts() {
        rec.record("mcts.edge_visits", u64::from(v));
    }
    rec.gauge("train.param_generation", generation as f64);
    rec.flush();
}

/// The single-threaded exploration driver: repeats exploration cycles
/// (`run_cycle`), updating the tree and training the DNN after each
/// (Figure 4).
#[derive(Debug)]
pub struct Explorer<E: Environment> {
    env: E,
    agent: PolicyAgent,
    mcts: Mcts<E::Action>,
    cache: EvalCache,
    config: ExplorerConfig,
    rng: StdRng,
    recorder: Recorder,
}

impl<E: Environment> Explorer<E> {
    /// Creates an explorer over `env` with deterministic seeding.
    pub fn new(env: E, config: ExplorerConfig, seed: u64) -> Self {
        let agent = PolicyAgent::for_env(&env, config.train.clone(), seed);
        let mcts = Mcts::new(config.mcts);
        let cache = EvalCache::new(config.eval_cache_capacity);
        let recorder = config.telemetry.recorder("explorer");
        Explorer {
            env,
            agent,
            mcts,
            cache,
            config,
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
            recorder,
        }
    }

    /// The search tree accumulated so far.
    pub fn tree(&self) -> &Mcts<E::Action> {
        &self.mcts
    }

    /// Evaluation-cache hit/miss counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The learning agent.
    pub fn agent_mut(&mut self) -> &mut PolicyAgent {
        &mut self.agent
    }

    /// Runs `cycles` exploration cycles (callable repeatedly; the tree,
    /// cache, RNG stream and network persist across calls, and each call
    /// numbers its cycles from 0).
    ///
    /// # Panics
    ///
    /// Panics with the [`ExploreError::Numerical`] message that
    /// [`crate::explore_parallel`] uses (as worker 0) if an update holds a
    /// non-finite loss, gradient or gradient norm. The stop comes before
    /// the update commits: parameters, Adam state and parameter generation
    /// stay as the last clean cycle left them (batch-norm running
    /// statistics have seen the stopped episode).
    pub fn run_cycles(&mut self, cycles: usize) -> ExploreReport<E> {
        let traced = self.recorder.is_enabled();
        let prev_nn = if traced {
            rlnoc_nn::instrument::install(self.config.telemetry.recorder("nn:explorer"))
        } else {
            None
        };
        let cache_start = self.cache.stats();
        let mut designs = Vec::with_capacity(cycles);
        let mut train_history = Vec::with_capacity(cycles);
        let mut stop = None;
        for cycle in 0..cycles {
            let outcome = run_cycle(
                &mut self.env,
                &mut self.agent,
                &mut self.mcts,
                &mut self.cache,
                &self.config,
                &mut self.rng,
                cycle,
                &mut self.recorder,
                PolicyAgent::try_step_optimizer,
            );
            match outcome {
                Ok((design, stats)) => {
                    designs.push(design);
                    train_history.push(stats);
                }
                Err(kind) => {
                    stop = Some(AnomalyReport {
                        kind,
                        worker: 0,
                        cycle,
                    });
                    break;
                }
            }
        }
        let cache_stats = self.cache.stats();
        if traced {
            let run = CacheStats {
                hits: cache_stats.hits - cache_start.hits,
                misses: cache_stats.misses - cache_start.misses,
            };
            let generation = self.agent.param_generation();
            record_run_end(&mut self.recorder, &self.mcts, run, generation);
            drop(rlnoc_nn::instrument::take());
            if let Some(p) = prev_nn {
                rlnoc_nn::instrument::install(p);
            }
        }
        let report = ExploreReport {
            cycles_run: designs.len(),
            designs,
            train_history,
            cache_stats,
        };
        match stop {
            None => report,
            Some(anomaly) => {
                let error = ExploreError::Numerical {
                    report: anomaly,
                    partial: Box::new(SupervisedReport {
                        report,
                        resumed_from: 0,
                    }),
                    requested: cycles,
                };
                panic!("{error}")
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::routerless::RouterlessEnv;
    use rlnoc_topology::Grid;

    fn quick_config() -> ExplorerConfig {
        let mut c = ExplorerConfig::fast();
        c.max_steps = 40;
        c
    }

    #[test]
    fn explorer_completes_cycles() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let mut ex = Explorer::new(env, quick_config(), 1);
        let report = ex.run_cycles(3);
        assert_eq!(report.cycles_run, 3);
        assert_eq!(report.designs.len(), 3);
        assert_eq!(report.train_history.len(), 3);
        assert!(!ex.tree().is_empty(), "tree should record explored states");
    }

    #[test]
    fn explorer_finds_connected_designs_on_small_grid() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 6);
        // Seed chosen to converge within the quick budget under the
        // workspace PRNG stream (most seeds do; see vendor/rand).
        let mut ex = Explorer::new(env, quick_config(), 1);
        let report = ex.run_cycles(5);
        assert!(
            report.successful_count() > 0,
            "3x3 at cap 6 should connect within 5 cycles (greedy fallback guarantees progress)"
        );
        let best = report.best().expect("at least one successful design");
        assert!(best.env.is_fully_connected());
    }

    #[test]
    fn explorer_is_deterministic_per_seed() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let a = Explorer::new(env.clone(), quick_config(), 11).run_cycles(2);
        let b = Explorer::new(env, quick_config(), 11).run_cycles(2);
        let ra: Vec<f64> = a.designs.iter().map(|d| d.final_return).collect();
        let rb: Vec<f64> = b.designs.iter().map(|d| d.final_return).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn explorer_reports_cache_activity() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let mut ex = Explorer::new(env, quick_config(), 1);
        let report = ex.run_cycles(2);
        let stats = report.cache_stats;
        // First cycle evaluates the root once for expansion and reuses it
        // for the initial DNN action — at least one guaranteed hit.
        assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
        assert!(stats.misses > 0, "fresh states must miss, got {stats:?}");
        assert_eq!(ex.cache_stats(), stats);
    }

    #[test]
    fn episodes_respect_max_steps() {
        let env = RouterlessEnv::new(Grid::square(4).unwrap(), 8);
        let mut cfg = quick_config();
        cfg.max_steps = 5;
        cfg.complete_designs = false;
        let mut ex = Explorer::new(env, cfg, 3);
        let report = ex.run_cycles(1);
        assert!(report.designs[0].steps <= 5);
    }

    #[test]
    fn completion_phase_drives_validity() {
        // With the Figure 4 completion phase, even a tiny exploration
        // budget yields fully connected designs (the greedy tail finishes
        // what the DNN/MCTS started); without it, a 2-step budget cannot.
        let env = RouterlessEnv::new(Grid::square(4).unwrap(), 10);
        let mut with = quick_config();
        with.max_steps = 6;
        with.complete_designs = true;
        let report = Explorer::new(env.clone(), with, 9).run_cycles(2);
        assert!(
            report.successful_count() > 0,
            "completion should finish designs"
        );

        let mut without = quick_config();
        without.max_steps = 2;
        without.complete_designs = false;
        let report = Explorer::new(env, without, 9).run_cycles(1);
        assert_eq!(report.successful_count(), 0);
    }

    #[test]
    fn epsilon_one_is_pure_greedy() {
        // With ε = 1 every non-initial action is Algorithm 1, which always
        // proposes legal loops, so only the first (DNN-sampled) action can
        // be penalized.
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let mut cfg = quick_config();
        cfg.epsilon = 1.0;
        let mut ex = Explorer::new(env, cfg, 5);
        let report = ex.run_cycles(1);
        assert!(report.designs[0].steps > 0);
    }

    #[test]
    fn explorer_outcomes_are_pinned() {
        // Golden outcomes of the serial driver on 4x4 at cap 6, run as two
        // `run_cycles` calls so that the RNG stream, tree and cache carried
        // between calls are pinned too, down to the final parameters and
        // Adam state: any change to what a cycle commits shows here.
        let env = RouterlessEnv::new(Grid::square(4).unwrap(), 6);
        let mut ex = Explorer::new(env, quick_config(), 5);
        let first = ex.run_cycles(6);
        let second = ex.run_cycles(4);
        let got: Vec<_> = first
            .designs
            .iter()
            .chain(&second.designs)
            .map(|d| (d.cycle, d.steps, d.successful, d.final_return.to_bits()))
            .collect();
        let history = history_digest(first.train_history.iter().chain(&second.train_history));
        let state = learner_digest(ex.agent_mut());
        let want = vec![
            (0, 17, false, 0xc024_3333_3333_3334),
            (1, 16, false, 0xc023_0888_8888_8889),
            (2, 13, false, 0xc01b_cccc_cccc_ccce),
            (3, 11, false, 0xc00a_cccc_cccc_cccd),
            (4, 12, false, 0xc010_d555_5555_5556),
            (5, 10, false, 0xc003_4444_4444_4445),
            (0, 10, false, 0xc007_8888_8888_8889),
            (1, 12, false, 0xc006_aaaa_aaaa_aaab),
            (2, 11, false, 0xc010_cccc_cccc_cccc),
            (3, 11, false, 0xc012_0000_0000_0000),
        ];
        assert_eq!(got, want, "per-cycle outcomes");
        assert_eq!(history, 0x05be_2557_a6c8_05bb, "train_history digest");
        assert_eq!(state, 0xbc0a_1c3b_8665_6f38, "params + Adam state digest");
    }

    #[test]
    fn nan_grad_stops_before_the_update_commits() {
        // A NaN gradient at cycle 1 stops the serial driver with the
        // parallel drivers' typed message, and the agent keeps exactly the
        // parameters, Adam state and generation of a clean 1-cycle run.
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let mut clean = Explorer::new(env.clone(), quick_config(), 11);
        clean.run_cycles(1);
        let mut cfg = quick_config();
        cfg.chaos = Some(crate::chaos::ChaosInjector::new(crate::chaos::ChaosPlan {
            nan_grad_cycles: vec![1],
            ..Default::default()
        }));
        let mut ex = Explorer::new(env, cfg, 11);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.run_cycles(3)))
            .expect_err("a NaN gradient must stop the run");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(
                "numerical anomaly after 1 of 3 cycles: \
                 worker 0 cycle 1: non-finite gradient in tensor 0"
            )
        );
        assert_eq!(
            ex.agent_mut().param_generation(),
            clean.agent_mut().param_generation()
        );
        assert_eq!(
            learner_digest(ex.agent_mut()),
            learner_digest(clean.agent_mut())
        );
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv(hash: u64, values: &[f32]) -> u64 {
        values
            .iter()
            .fold(hash, |h, v| fnv_bytes(h, &v.to_bits().to_le_bytes()))
    }

    /// FNV-1a digest of each cycle's policy loss, value loss and gradient
    /// norm.
    pub(crate) fn history_digest<'a>(history: impl IntoIterator<Item = &'a TrainStats>) -> u64 {
        history.into_iter().fold(FNV_OFFSET, |h, s| {
            fnv(h, &[s.policy_loss, s.value_loss, s.grad_norm])
        })
    }

    /// FNV-1a digest of the agent's parameters and Adam `t`, `m` and `v`.
    pub(crate) fn learner_digest(agent: &mut PolicyAgent) -> u64 {
        let learner = crate::checkpoint::LearnerState::capture(agent);
        let mut state = fnv_bytes(FNV_OFFSET, &learner.adam_t.to_le_bytes());
        for t in agent
            .net_mut()
            .param_snapshot()
            .iter()
            .chain(&learner.adam_m)
            .chain(&learner.adam_v)
        {
            state = fnv(state, t.as_slice());
        }
        state
    }
}
