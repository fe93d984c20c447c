//! Multi-threaded exploration (paper §4.6, Figure 8): a parent parameter
//! server plus child threads that explore independently, sharing one search
//! tree and exchanging parameters/gradients.
//!
//! Children copy the parent's network parameters before each cycle, then
//! run the cycle body the serial [`crate::Explorer`] runs
//! (`explorer::run_cycle`) against the shared tree, with a commit
//! step that pushes their accumulated actor-critic gradients back; the
//! parent applies incoming gradients one optimizer step each. Convergence is stabilized by the global-norm
//! clipping inside [`PolicyAgent::step_optimizer`], matching the paper's
//! note that averaging "both large gradients and small gradients" steadies
//! training.
//!
//! # Failure handling
//!
//! Every driver here runs the same worker loop over that shared cycle
//! body, and a run stops at its first failure with a typed
//! [`ExploreError`] that carries every cycle completed before it. Each worker runs under one [`std::panic::catch_unwind`], so a
//! worker panic becomes [`ExploreError::Panicked`]. A non-finite loss,
//! gradient or gradient norm is caught by the cycle body before the parent
//! step commits anything and becomes [`ExploreError::Numerical`] (the
//! serial driver panics with the same error's message). Either way, no worker
//! claims another cycle. Nothing is retried: a retry would replay the same
//! inputs and meet the same fault. [`explore_parallel`] is the panicking
//! convenience wrapper; [`explore_parallel_checkpointed`] additionally
//! snapshots the parent network and best design to disk after every batch
//! that completes, so a killed or stopped run replays exactly where the last
//! clean batch left off.

use crate::cache::{CacheStats, EvalCache, EvalCacheHandle};
use crate::checkpoint::{CheckpointConfig, CheckpointError, CheckpointSource, ExploreCheckpoint};
use crate::env::Environment;
use crate::explorer::{
    record_run_end, run_cycle, DesignResult, ExploreReport, ExplorerConfig, TreeHandle,
};
use crate::mcts::Mcts;
use crate::policy::{Evaluation, PolicyAgent, TrainStats};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlnoc_telemetry::Recorder;
use serde::{Deserialize, Serialize};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// A [`TreeHandle`] that serializes access to a tree shared across child
/// threads (the parent's "query queue" in Figure 8).
#[derive(Debug)]
pub struct SharedTree<A>(Arc<Mutex<Mcts<A>>>);

impl<A> Clone for SharedTree<A> {
    fn clone(&self) -> Self {
        SharedTree(Arc::clone(&self.0))
    }
}

impl<A: Copy + Eq + std::hash::Hash + std::fmt::Debug> SharedTree<A> {
    /// Wraps a tree for shared access.
    pub fn new(tree: Mcts<A>) -> Self {
        SharedTree(Arc::new(Mutex::new(tree)))
    }
}

impl<A: Copy + Eq + std::hash::Hash + std::fmt::Debug> TreeHandle<A> for SharedTree<A> {
    fn is_expanded(&mut self, state: u64) -> bool {
        self.0.lock().is_expanded(state)
    }
    fn expand(&mut self, state: u64, priors: &[(A, f32)]) {
        self.0.lock().expand(state, priors);
    }
    fn select(&mut self, state: u64) -> Option<A> {
        self.0.lock().select(state)
    }
    fn backup(&mut self, path: &[(u64, A)], returns: &[f64]) {
        self.0.lock().backup(path, returns);
    }
}

/// An [`EvalCacheHandle`] over one [`EvalCache`] shared by all child
/// threads. Entries are keyed on the parent's parameter generation, so a
/// worker never serves an evaluation computed under parameters it has not
/// loaded.
#[derive(Debug)]
pub struct SharedEvalCache(Arc<Mutex<EvalCache>>);

impl Clone for SharedEvalCache {
    fn clone(&self) -> Self {
        SharedEvalCache(Arc::clone(&self.0))
    }
}

impl SharedEvalCache {
    /// Wraps a cache for shared access.
    pub fn new(cache: EvalCache) -> Self {
        SharedEvalCache(Arc::new(Mutex::new(cache)))
    }

    /// Hit/miss counters accumulated so far (lock-and-read; usable while
    /// other handles are alive).
    pub fn stats(&self) -> CacheStats {
        self.0.lock().stats()
    }
}

impl EvalCacheHandle for SharedEvalCache {
    fn lookup(&mut self, state_key: u64, generation: u64) -> Option<Evaluation> {
        self.0.lock().lookup(state_key, generation)
    }
    fn store(&mut self, state_key: u64, generation: u64, eval: &Evaluation) {
        self.0.lock().store(state_key, generation, eval);
    }
}

/// The outcome of the typed-error drivers: the merged report plus where a
/// resumed run picked up.
#[derive(Debug, Clone)]
pub struct SupervisedReport<E> {
    /// The merged exploration report (cycles run in *this* process).
    pub report: ExploreReport<E>,
    /// Cycles already completed by a previous run when resuming from a
    /// checkpoint (0 unless [`explore_parallel_checkpointed`] resumed).
    pub resumed_from: usize,
}

/// A non-finite value caught in a worker's update before the parent step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnomalyKind {
    /// The episode's policy or value loss came back NaN/Inf.
    NonFiniteLoss {
        /// Mean policy loss of the poisoned episode.
        policy_loss: f32,
        /// Mean value loss of the poisoned episode.
        value_loss: f32,
    },
    /// A gradient tensor contained a NaN/Inf.
    NonFiniteGrad {
        /// Index of the first offending tensor in the parameter list.
        tensor: usize,
    },
    /// The global gradient norm was NaN/Inf (the sum of squares overflowed
    /// though no single element was non-finite).
    NonFiniteGradNorm {
        /// The computed pre-clip norm.
        norm: f32,
    },
}

impl AnomalyKind {
    /// The telemetry counter this anomaly increments.
    pub fn counter(&self) -> &'static str {
        match self {
            AnomalyKind::NonFiniteLoss { .. } => "anomaly.nonfinite_loss",
            AnomalyKind::NonFiniteGrad { .. } => "anomaly.nonfinite_grad",
            AnomalyKind::NonFiniteGradNorm { .. } => "anomaly.nonfinite_grad_norm",
        }
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnomalyKind::NonFiniteLoss {
                policy_loss,
                value_loss,
            } => write!(
                f,
                "non-finite loss (policy {policy_loss}, value {value_loss})"
            ),
            AnomalyKind::NonFiniteGrad { tensor } => {
                write!(f, "non-finite gradient in tensor {tensor}")
            }
            AnomalyKind::NonFiniteGradNorm { norm } => {
                write!(f, "non-finite global gradient norm ({norm})")
            }
        }
    }
}

/// The anomaly that stopped a run, located in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyReport {
    /// What was detected.
    pub kind: AnomalyKind,
    /// The worker whose update tripped the check.
    pub worker: usize,
    /// The global cycle index whose update was discarded.
    pub cycle: usize,
}

impl std::fmt::Display for AnomalyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} cycle {}: {}",
            self.worker, self.cycle, self.kind
        )
    }
}

/// Typed failure modes of the supervised exploration drivers.
#[derive(Debug)]
pub enum ExploreError<E> {
    /// `threads` was zero.
    ZeroThreads,
    /// Saving or loading a checkpoint failed
    /// (only from [`explore_parallel_checkpointed`]).
    Checkpoint(CheckpointError),
    /// A worker's update held a non-finite value. It was caught before the
    /// parent step, the pool stopped claiming cycles, and the partial
    /// results (all of them produced by clean updates) are preserved.
    Numerical {
        /// The first anomaly detected.
        report: AnomalyReport,
        /// Everything that completed before the pool stopped.
        partial: Box<SupervisedReport<E>>,
        /// The cycle count originally requested.
        requested: usize,
    },
    /// A worker panicked. The pool stopped claiming cycles, and the partial
    /// results hold every cycle that completed; the panicked cycle is not
    /// among them.
    Panicked {
        /// The worker that panicked.
        worker: usize,
        /// The global cycle index it was running.
        cycle: usize,
        /// The panic payload as text.
        message: String,
        /// Everything that completed before the pool stopped.
        partial: Box<SupervisedReport<E>>,
        /// The cycle count originally requested.
        requested: usize,
    },
}

impl<E> std::fmt::Display for ExploreError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::ZeroThreads => write!(f, "need at least one thread"),
            ExploreError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            ExploreError::Numerical {
                report,
                partial,
                requested,
            } => write!(
                f,
                "numerical anomaly after {} of {} cycles: {report}",
                partial.report.cycles_run, requested
            ),
            ExploreError::Panicked {
                worker,
                cycle,
                message,
                partial,
                requested,
            } => write!(
                f,
                "worker {worker} panicked at cycle {cycle} after {} of {} cycles: {message}",
                partial.report.cycles_run, requested
            ),
        }
    }
}

impl<E: std::fmt::Debug> std::error::Error for ExploreError<E> {}

impl<E> From<CheckpointError> for ExploreError<E> {
    fn from(e: CheckpointError) -> Self {
        ExploreError::Checkpoint(e)
    }
}

/// The first failure of a batch, recorded by the worker that met it.
#[derive(Debug)]
enum Stop {
    Numerical(AnomalyReport),
    Panicked {
        worker: usize,
        cycle: usize,
        message: String,
    },
}

impl Stop {
    fn into_error<E>(self, partial: SupervisedReport<E>, requested: usize) -> ExploreError<E> {
        let partial = Box::new(partial);
        match self {
            Stop::Numerical(report) => ExploreError::Numerical {
                report,
                partial,
                requested,
            },
            Stop::Panicked {
                worker,
                cycle,
                message,
            } => ExploreError::Panicked {
                worker,
                cycle,
                message,
                partial,
                requested,
            },
        }
    }
}

/// A panic payload as text (`panic!` with a message yields `&str` or
/// `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The RNG stream of worker `t`.
fn worker_rng(seed: u64, t: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_add(1 + t as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Builds the telemetry recorder for worker `t` and installs the matching
/// nn-kernel recorder on the calling thread. When telemetry is off this
/// returns a disabled recorder without allocating, keeping the worker loop
/// on the zero-overhead path.
fn worker_recorder(config: &ExplorerConfig, t: usize) -> Recorder {
    if !config.telemetry.is_enabled() {
        return Recorder::disabled();
    }
    let _ = rlnoc_nn::instrument::install(config.telemetry.recorder(&format!("nn:worker{t}")));
    config.telemetry.recorder(&format!("worker{t}"))
}

/// A parameter snapshot tagged with its generation.
type Params = (Vec<rlnoc_nn::Tensor>, u64);

fn snapshot(agent: &mut PolicyAgent) -> Params {
    (agent.net_mut().param_snapshot(), agent.param_generation())
}

/// Loads `params` into a child, tagged with the parent's generation so its
/// cached evaluations stay consistent.
fn adopt(local: &mut PolicyAgent, (params, generation): Params) {
    local.net_mut().load_params(&params);
    local.set_param_generation(generation);
}

/// A worker's commit step, dθ: child → parent. The parent adds the child's
/// gradients and steps; with the cache on, the child then loads the stepped
/// parameters so that its warm-up evaluates under them.
fn push(parent: &Mutex<PolicyAgent>, local: &mut PolicyAgent, reload: bool) -> Result<f32, f32> {
    let grads = local.net_mut().grad_snapshot();
    let (norm, stepped) = {
        let mut p = parent.lock();
        p.net_mut().accumulate_grads(&grads);
        let norm = p.try_step_optimizer()?;
        (norm, reload.then(|| snapshot(&mut p)))
    };
    if let Some(params) = stepped {
        adopt(local, params);
    }
    Ok(norm)
}

/// Runs `total_cycles` exploration cycles split across `threads` child
/// agents with a shared tree and parent parameter server, returning the
/// merged report (designs tagged with global cycle indices, sorted by
/// cycle).
///
/// This is [`explore_parallel_supervised`] with its typed error turned into
/// a panic. Its workers run the same cycle body as [`crate::Explorer`], but
/// their RNG streams and parent/child parameter split differ, so even at
/// one thread the two drivers explore different trajectories.
///
/// # Panics
///
/// Panics with the [`ExploreError`]'s message if `threads` is zero or the
/// run stops: a worker panicked, or an update held a non-finite loss,
/// gradient or gradient norm.
pub fn explore_parallel<E>(
    env: &E,
    config: &ExplorerConfig,
    threads: usize,
    total_cycles: usize,
    seed: u64,
) -> ExploreReport<E>
where
    E: Environment + Send + Sync,
    E::Action: Send + Sync,
{
    match explore_parallel_supervised(env, config, threads, total_cycles, seed) {
        Ok(out) => out.report,
        Err(e) => panic!("{e}"),
    }
}

/// Multi-threaded exploration that returns its failures as typed errors.
///
/// The run stops at the first worker panic ([`ExploreError::Panicked`]) or
/// the first update holding a NaN/Inf ([`ExploreError::Numerical`]); either
/// error carries every cycle that completed before the stop.
pub fn explore_parallel_supervised<E>(
    env: &E,
    config: &ExplorerConfig,
    threads: usize,
    total_cycles: usize,
    seed: u64,
) -> Result<SupervisedReport<E>, ExploreError<E>>
where
    E: Environment + Send + Sync,
    E::Action: Send + Sync,
{
    let parent = Mutex::new(PolicyAgent::for_env(env, config.train.clone(), seed));
    explore_supervised_inner(env, config, threads, total_cycles, seed, 0, &parent)
}

/// [`explore_parallel_supervised`] with periodic checkpointing: the run is
/// executed in *batches* of [`CheckpointConfig::every`] cycles, and after
/// each batch the parent network, its parameter generation, and the best
/// design so far are written atomically to [`CheckpointConfig::path`]; if
/// that file already exists the run resumes from it (restored parameters,
/// remaining batches only).
///
/// Each batch starts from a fresh search tree and evaluation cache with a
/// batch-derived RNG stream (`seed` for the first batch, a cycle-salted
/// mix thereafter), and workers join at batch boundaries. Because every
/// batch's inputs are a pure function of `(seed, cycles_done, checkpointed
/// parameters)`, a resumed run replays the remaining batches *identically*
/// to the uninterrupted run — best design, per-cycle results, and parameter
/// generation all match (asserted by `tests/checkpoint_resume.rs`). The
/// checkpoint's `best` field tracks the best design across all runs,
/// including ones before a restart. A batch that stops with an error is
/// never saved: the checkpoint keeps the last batch that completed.
pub fn explore_parallel_checkpointed<E>(
    env: &E,
    config: &ExplorerConfig,
    threads: usize,
    total_cycles: usize,
    seed: u64,
    ckpt: &CheckpointConfig,
) -> Result<SupervisedReport<E>, ExploreError<E>>
where
    E: Environment + Send + Sync + Serialize + Deserialize,
    E::Action: Send + Sync,
{
    let mut rec = config.telemetry.recorder("checkpoint");
    let (resumed_from, restored_params, restored_learner, restored_best) =
        match ExploreCheckpoint::<E>::try_resume(&ckpt.path)? {
            Some((cp, source)) => {
                if source == CheckpointSource::Previous {
                    // The primary was torn or corrupt; we recovered from the
                    // rotated `.prev` generation.
                    rec.incr("checkpoint.recovered_prev", 1);
                }
                (
                    cp.cycles_done,
                    Some((cp.params, cp.param_generation)),
                    cp.learner,
                    cp.best,
                )
            }
            None => (0, None, None, None),
        };
    let every = ckpt.every.max(1);
    let mut parent_agent = PolicyAgent::for_env(env, config.train.clone(), seed);
    if let Some((params, generation)) = &restored_params {
        parent_agent.net_mut().load_params(params);
        parent_agent.set_param_generation(*generation);
    }
    if let Some(learner) = &restored_learner {
        // Without the Adam moments a resumed run restarts bias correction
        // and drifts from the uninterrupted one on its very next step.
        learner.restore_into(&mut parent_agent);
    }
    let parent = Mutex::new(parent_agent);

    let mut done = resumed_from;
    let mut best = restored_best;
    let mut run = SupervisedReport {
        report: ExploreReport {
            designs: Vec::new(),
            train_history: Vec::new(),
            cycles_run: 0,
            cache_stats: CacheStats::default(),
        },
        resumed_from,
    };
    while done < total_cycles {
        let batch = every.min(total_cycles - done);
        // Batch RNG stream: plain `seed` for the first batch (so an
        // un-resumed single-batch run matches `explore_parallel_supervised`
        // exactly), cycle-salted thereafter.
        let batch_seed = if done == 0 {
            seed
        } else {
            seed ^ (done as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let r = explore_supervised_inner(env, config, threads, batch, batch_seed, done, &parent);
        let mut r = match r {
            Ok(r) => r,
            Err(mut e) => {
                // Partial-result errors: fold the failed batch into the
                // cumulative report so the caller sees the whole run so
                // far, not just the final batch.
                if let ExploreError::Numerical {
                    partial, requested, ..
                }
                | ExploreError::Panicked {
                    partial, requested, ..
                } = &mut e
                {
                    run.absorb(partial);
                    **partial = run;
                    *requested = total_cycles;
                }
                return Err(e);
            }
        };
        for d in &r.report.designs {
            let better = d.successful
                && best
                    .as_ref()
                    .is_none_or(|b| d.final_return > b.final_return);
            if better {
                best = Some(d.clone());
            }
        }
        run.absorb(&mut r);
        done += batch;
        let timer = rec.timer();
        let (params, param_generation, learner) = {
            let mut p = parent.lock();
            (
                p.net_mut().param_snapshot(),
                p.param_generation(),
                crate::checkpoint::LearnerState::capture(&p),
            )
        };
        ExploreCheckpoint {
            cycles_done: done,
            seed,
            param_generation,
            params,
            learner: Some(learner),
            best: best.clone(),
        }
        .save(&ckpt.path)?;
        if rec.is_enabled() {
            rec.incr("checkpoint.saves", 1);
            rec.observe_timer("checkpoint.save_us", timer);
            rec.gauge("checkpoint.cycles_done", done as f64);
            rec.flush();
        }
    }
    Ok(run)
}

impl<E> SupervisedReport<E> {
    /// Appends a later batch's results, draining `batch`. Batches run in
    /// cycle order, so the designs stay sorted by cycle.
    fn absorb(&mut self, batch: &mut SupervisedReport<E>) {
        let report = &mut self.report;
        report.designs.append(&mut batch.report.designs);
        report.train_history.append(&mut batch.report.train_history);
        report.cycles_run = report.designs.len();
        report.cache_stats.merge(batch.report.cache_stats);
    }
}

/// The worker loop behind every driver: one batch of `total_cycles`
/// cycles against a caller-owned `parent` parameter server, with a fresh
/// shared tree and evaluation cache. Designs are tagged with
/// `cycle_offset + local_cycle` so multi-batch callers
/// ([`explore_parallel_checkpointed`]) report global indices.
///
/// A worker cycle is the parameter pull, then [`run_cycle`] with [`push`]
/// as its commit. Each worker runs its whole claim loop under one
/// `catch_unwind`. The first failure, a numerical anomaly caught before the
/// parent step or a panic, is recorded, no worker claims another cycle,
/// and the batch ends in the matching [`ExploreError`].
fn explore_supervised_inner<E>(
    env: &E,
    config: &ExplorerConfig,
    threads: usize,
    total_cycles: usize,
    seed: u64,
    cycle_offset: usize,
    parent: &Mutex<PolicyAgent>,
) -> Result<SupervisedReport<E>, ExploreError<E>>
where
    E: Environment + Send + Sync,
    E::Action: Send + Sync,
{
    if threads == 0 {
        return Err(ExploreError::ZeroThreads);
    }
    let tree = SharedTree::new(Mcts::new(config.mcts));
    let cache = SharedEvalCache::new(EvalCache::new(config.eval_cache_capacity));
    let results: Mutex<Vec<DesignResult<E>>> = Mutex::new(Vec::new());
    let stats_log: Mutex<Vec<TrainStats>> = Mutex::new(Vec::new());
    let cycle_counter = Mutex::new(0usize);
    // The first failure; once set, no worker claims a cycle.
    let fatal: Mutex<Option<Stop>> = Mutex::new(None);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let mut tree = tree.clone();
                let mut cache = cache.clone();
                let results = &results;
                let stats_log = &stats_log;
                let cycle_counter = &cycle_counter;
                let fatal = &fatal;
                let config = config.clone();
                scope.spawn(move || {
                    let claim = || -> Option<usize> {
                        if fatal.lock().is_some() {
                            return None;
                        }
                        let mut c = cycle_counter.lock();
                        if *c >= total_cycles {
                            return None;
                        }
                        let mine = *c;
                        *c += 1;
                        Some(cycle_offset + mine)
                    };
                    let mut rec = worker_recorder(&config, t);
                    let mut env = env.clone();
                    let mut local = PolicyAgent::for_env(&env, config.train.clone(), seed);
                    let mut rng = worker_rng(seed, t);
                    let reload = config.eval_cache_capacity > 0;
                    // `claim` cannot panic, so a caught panic belongs to the
                    // cycle claimed last.
                    let mut cycle = cycle_offset;
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        while let Some(claimed) = claim() {
                            cycle = claimed;
                            // θ: parent → child.
                            let params = snapshot(&mut parent.lock());
                            adopt(&mut local, params);
                            local.net_mut().zero_grad();
                            let outcome = run_cycle(
                                &mut env,
                                &mut local,
                                &mut tree,
                                &mut cache,
                                &config,
                                &mut rng,
                                cycle,
                                &mut rec,
                                |local| push(parent, local, reload),
                            );
                            match outcome {
                                Ok((design, stats)) => {
                                    stats_log.lock().push(stats);
                                    results.lock().push(design);
                                }
                                Err(kind) => {
                                    let report = AnomalyReport {
                                        kind,
                                        worker: t,
                                        cycle,
                                    };
                                    fatal.lock().get_or_insert(Stop::Numerical(report));
                                    return;
                                }
                            }
                        }
                    }));
                    if let Err(payload) = outcome {
                        rec.incr("worker.panics", 1);
                        fatal.lock().get_or_insert(Stop::Panicked {
                            worker: t,
                            cycle,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                    drop(rlnoc_nn::instrument::take());
                })
            })
            .collect();
        // Join explicitly: the scope alone waits only for the closures, so
        // threads still tearing down would make the next batch's workers
        // open fresh allocator arenas (peak RSS grows over repeated short
        // batches). A panic outside `catch_unwind` is a bug in this loop,
        // not a worker stop, and propagates.
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut designs = std::mem::take(&mut *results.lock());
    designs.sort_by_key(|d| d.cycle);
    let train_history = std::mem::take(&mut *stats_log.lock());
    let cache_stats = cache.stats();
    record_run_end(
        &mut config.telemetry.recorder("supervisor"),
        &tree.0.lock(),
        cache_stats,
        parent.lock().param_generation(),
    );
    let out = SupervisedReport {
        report: ExploreReport {
            cycles_run: designs.len(),
            designs,
            train_history,
            cache_stats,
        },
        resumed_from: cycle_offset,
    };
    match fatal.into_inner() {
        Some(stop) => Err(stop.into_error(out, cycle_offset + total_cycles)),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::tests::{history_digest, learner_digest};
    use crate::routerless::RouterlessEnv;
    use rlnoc_topology::Grid;

    fn quick_config() -> ExplorerConfig {
        let mut c = ExplorerConfig::fast();
        c.max_steps = 30;
        c
    }

    #[test]
    fn parallel_runs_requested_cycles() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let report = explore_parallel(&env, &quick_config(), 3, 6, 9);
        assert_eq!(report.cycles_run, 6);
        assert_eq!(report.designs.len(), 6);
        // Cycles are globally unique and complete.
        let mut cycles: Vec<_> = report.designs.iter().map(|d| d.cycle).collect();
        cycles.sort_unstable();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn parallel_single_thread_works() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let report = explore_parallel(&env, &quick_config(), 1, 2, 1);
        assert_eq!(report.cycles_run, 2);
    }

    #[test]
    fn parallel_finds_valid_designs() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 6);
        let report = explore_parallel(&env, &quick_config(), 2, 6, 5);
        assert!(
            report.successful_count() > 0,
            "parallel search should find connected 3x3 designs"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let _ = explore_parallel(&env, &quick_config(), 0, 1, 0);
    }

    #[test]
    fn supervised_zero_threads_is_typed_error() {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let err = explore_parallel_supervised(&env, &quick_config(), 0, 1, 0).unwrap_err();
        assert!(matches!(err, ExploreError::ZeroThreads));
    }

    fn outcomes(report: &ExploreReport<RouterlessEnv>) -> Vec<(usize, usize, bool, f64)> {
        report
            .designs
            .iter()
            .map(|d| (d.cycle, d.steps, d.successful, d.final_return))
            .collect()
    }

    #[test]
    fn cache_does_not_change_single_thread_results() {
        // With one worker the exploration is fully deterministic, and a
        // cached evaluation is bit-identical to a fresh forward (entries
        // are keyed on the parameter generation), so enabling the cache
        // must not change the search trajectory at all.
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let mut with_cache = quick_config();
        with_cache.eval_cache_capacity = 4096;
        let mut without = quick_config();
        without.eval_cache_capacity = 0;

        let cached = explore_parallel(&env, &with_cache, 1, 3, 13);
        let uncached = explore_parallel(&env, &without, 1, 3, 13);
        assert_eq!(outcomes(&cached), outcomes(&uncached));
        assert!(
            cached.cache_stats.hits > 0,
            "expand + initial sampling of the same root state must hit"
        );
        assert_eq!(uncached.cache_stats, crate::cache::CacheStats::default());
    }

    #[test]
    fn results_invariant_to_matmul_thread_count() {
        // An 8x8 NoC (64x64 state matrix) pushes the training passes'
        // convolutions past the parallel threshold, so this exercises the
        // batch-split conv passes (and the row-banded matmul of the larger
        // `Linear` GEMMs) end to end: the search outcome and the final
        // parameters must be bit-identical whatever the thread budget.
        let env = RouterlessEnv::new(Grid::square(8).unwrap(), 14);
        let mut cfg = quick_config();
        cfg.max_steps = 4;
        cfg.complete_designs = false;
        let run = |mm_threads: usize| {
            let previous = rlnoc_nn::kernels::matmul_threads();
            rlnoc_nn::kernels::set_matmul_threads(mm_threads);
            let parent = Mutex::new(PolicyAgent::for_env(&env, cfg.train.clone(), 21));
            let out =
                explore_supervised_inner(&env, &cfg, 1, 2, 21, 0, &parent).expect("clean run");
            rlnoc_nn::kernels::set_matmul_threads(previous);
            let params: Vec<Vec<u32>> = parent
                .into_inner()
                .net_mut()
                .param_snapshot()
                .iter()
                .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect();
            (outcomes(&out.report), params)
        };
        let serial = run(1);
        for mm_threads in [2, 3] {
            assert!(
                run(mm_threads) == serial,
                "matmul threads {mm_threads} changed the search or the parameters"
            );
        }
    }

    #[test]
    fn parallel_checkpointed_resumes_and_completes() {
        let path =
            std::env::temp_dir().join(format!("rlnoc_parallel_ckpt_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ckpt = CheckpointConfig::new(&path, 2);
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);

        // First "process" runs 3 of 6 cycles, then dies (we just ask for 3).
        let first = explore_parallel_checkpointed(&env, &quick_config(), 2, 3, 17, &ckpt).unwrap();
        assert_eq!(first.resumed_from, 0);
        assert_eq!(first.report.cycles_run, 3);
        let cp = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap();
        assert_eq!(cp.cycles_done, 3, "final save reflects exact completion");

        // Second process resumes and finishes the remaining cycles.
        let second = explore_parallel_checkpointed(&env, &quick_config(), 2, 6, 17, &ckpt).unwrap();
        assert_eq!(second.resumed_from, 3);
        assert_eq!(second.report.cycles_run, 3);
        let cycles: Vec<_> = second.report.designs.iter().map(|d| d.cycle).collect();
        assert!(
            cycles.iter().all(|&c| (3..6).contains(&c)),
            "resumed cycles carry global indices, got {cycles:?}"
        );
        let cp = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap();
        assert_eq!(cp.cycles_done, 6);
        assert!(
            cp.best.is_some(),
            "a 3x3 run at cap 4 finds at least one successful design"
        );

        // A finished checkpoint leaves nothing to do.
        let third = explore_parallel_checkpointed(&env, &quick_config(), 2, 6, 17, &ckpt).unwrap();
        assert_eq!(third.resumed_from, 6);
        assert_eq!(third.report.cycles_run, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_thread_outcomes_are_pinned() {
        // Golden outcomes of a 1-thread run, recorded before
        // `explore_parallel` was folded into the supervised loop: pins the
        // worker RNG stream and the cycle body across refactors.
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        let report = explore_parallel(&env, &quick_config(), 1, 3, 13);
        let got: Vec<_> = report
            .designs
            .iter()
            .map(|d| (d.cycle, d.steps, d.successful, d.final_return.to_bits()))
            .collect();
        let want = vec![
            (0, 5, true, 0xbfd1_c71c_71c7_1c70), // -0.2777…
            (1, 5, true, 0xbfda_aaaa_aaaa_aaa8), // -0.4166…
            (2, 5, true, 0xbfdc_71c7_1c71_c720), // -0.4444…
        ];
        assert_eq!(got, want);

        // A longer 4x4 run, pinned down to the parent's final parameters
        // and Adam state: every optimizer step of the worker loop lands in
        // the digest, so any change to what a cycle commits shows here.
        let env = RouterlessEnv::new(Grid::square(4).unwrap(), 6);
        let cfg = quick_config();
        let parent = Mutex::new(PolicyAgent::for_env(&env, cfg.train.clone(), 5));
        let out = explore_supervised_inner(&env, &cfg, 1, 20, 5, 0, &parent).expect("clean run");
        let got: Vec<_> = out
            .report
            .designs
            .iter()
            .map(|d| (d.steps, d.successful, d.final_return.to_bits()))
            .collect();
        let history = history_digest(&out.report.train_history);
        let state = learner_digest(&mut parent.into_inner());
        let want = vec![
            (17, false, 0xc024_3333_3333_3334),
            (16, false, 0xc023_0888_8888_8889),
            (11, false, 0xc01d_bbbb_bbbb_bbbc),
            (16, false, 0xc00a_eeee_eeee_eeef),
            (12, false, 0xc002_1111_1111_1111),
            (11, false, 0xbffb_3333_3333_3332),
            (12, false, 0xc00f_4444_4444_4445),
            (11, false, 0xc011_1111_1111_1112),
            (11, false, 0xc00e_eeee_eeee_eeef),
            (10, false, 0xc009_1111_1111_1111),
            (13, false, 0xc01a_6666_6666_6668),
            (11, false, 0xc007_cccc_cccc_cccd),
            (12, false, 0xc008_1111_1111_1111),
            (11, false, 0xc008_9999_9999_9999),
            (14, false, 0xbffa_aaaa_aaaa_aaaa),
            (13, false, 0xbff8_8888_8888_888a),
            (12, false, 0xbfff_dddd_dddd_ddde),
            (12, false, 0xc008_1111_1111_1111),
            (11, false, 0xc009_4444_4444_4445),
            (12, false, 0xc006_aaaa_aaaa_aaab),
        ];
        assert_eq!(got, want, "per-cycle outcomes");
        assert_eq!(history, 0xb8b3_79ac_7ea8_cfdd, "train_history digest");
        assert_eq!(
            state, 0x9f3f_ebbe_671c_1943,
            "parent params + Adam state digest"
        );
    }
}
