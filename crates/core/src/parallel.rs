//! Multi-threaded exploration (paper §4.6, Figure 8): a parent parameter
//! server plus child threads that explore independently, sharing one search
//! tree and exchanging parameters/gradients.
//!
//! Children copy the parent's network parameters before each cycle, run an
//! exploration cycle against the shared tree, then push their accumulated
//! actor-critic gradients back; the parent averages incoming gradients into
//! one optimizer step each. Convergence is stabilized by the global-norm
//! clipping inside [`PolicyAgent::step_optimizer`], matching the paper's
//! note that averaging "both large gradients and small gradients" steadies
//! training.
//!
//! # Fault tolerance
//!
//! Every driver runs the same supervised worker loop: each worker cycle
//! executes under [`std::panic::catch_unwind`], a panicking worker is
//! respawned in place (up to [`SupervisionConfig::max_respawns_per_worker`]
//! times), the cycle it was running is requeued, and exhausted workers
//! surface as [`ExploreError::WorkersExhausted`] carrying the partial
//! results. [`explore_parallel`] is the panicking convenience wrapper;
//! [`explore_parallel_checkpointed`] additionally snapshots the parent
//! network and best design to disk so a killed run replays exactly where it
//! left off.

use crate::cache::{CacheStats, EvalCache, EvalCacheHandle};
use crate::chaos::ChaosInjector;
use crate::checkpoint::{CheckpointConfig, CheckpointError, CheckpointSource, ExploreCheckpoint};
use crate::env::Environment;
use crate::explorer::{new_agent, DesignResult, ExploreReport, ExplorerConfig, TreeHandle};
use crate::mcts::Mcts;
use crate::policy::{Evaluation, PolicyAgent, TrainStats};
use crate::resilience::{first_non_finite, AnomalyKind, AnomalyPolicy, AnomalyReport};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlnoc_telemetry::Recorder;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

    /// Number of stored nodes (lock-and-read; usable while other handles
    /// are alive).
    pub fn len(&self) -> usize {
        self.0.lock().len()
    }

    /// Whether the shared tree has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.0.lock().is_empty()
    }

    /// Visit counts of every stored edge (see [`Mcts::edge_visit_counts`]).
    pub fn edge_visit_counts(&self) -> Vec<u32> {
        self.0.lock().edge_visit_counts()
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

/// Supervision knobs for [`explore_parallel_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// How many times a panicked worker is restarted in place (with a fresh
    /// environment and local network replica, resuming its escrowed RNG
    /// stream) before it is written off. The cycle a panicking worker had claimed is always
    /// requeued for any surviving worker to pick up.
    pub max_respawns_per_worker: usize,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            max_respawns_per_worker: 3,
        }
    }
}

/// What the supervisor observed over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Worker panics caught (each is also a requeued cycle).
    pub panics: u64,
    /// In-place worker restarts performed.
    pub respawns: u64,
    /// Workers that exhausted their respawn budget and were written off.
    pub workers_lost: usize,
    /// Numerical anomalies detected (each one is a discarded update and a
    /// retried cycle; per-kind breakdown in [`SupervisedReport`]'s log and
    /// the `anomaly.*` telemetry counters).
    pub anomalies: u64,
    /// Anomalies whose handling rolled the parent parameters back to the
    /// pre-step snapshot (post-step NaN/Inf detections).
    pub rollbacks: u64,
    /// Workers quarantined after exceeding
    /// [`crate::resilience::AnomalyPolicy::max_retries`] consecutive
    /// anomalies.
    pub quarantined: usize,
}

/// A supervised exploration outcome: the merged report plus what the
/// supervisor had to do to produce it.
#[derive(Debug, Clone)]
pub struct SupervisedReport<E> {
    /// The merged exploration report (cycles run in *this* process).
    pub report: ExploreReport<E>,
    /// Panic/respawn/anomaly accounting.
    pub supervision: SupervisionReport,
    /// Cycles already completed by a previous run when resuming from a
    /// checkpoint (0 unless [`explore_parallel_checkpointed`] resumed).
    pub resumed_from: usize,
    /// Every numerical anomaly detected and survived, in detection order.
    pub anomaly_log: Vec<AnomalyReport>,
}

/// Typed failure modes of the supervised exploration drivers.
#[derive(Debug)]
pub enum ExploreError<E> {
    /// `threads` was zero.
    ZeroThreads,
    /// Every worker exhausted its respawn budget before all requested
    /// cycles completed. The partial results are preserved.
    WorkersExhausted {
        /// Everything that completed before the pool died.
        partial: Box<SupervisedReport<E>>,
        /// The cycle count originally requested.
        requested: usize,
    },
    /// Saving or loading a checkpoint failed
    /// (only from [`explore_parallel_checkpointed`]).
    Checkpoint(CheckpointError),
    /// A persistent numerical anomaly survived every rollback/retry and
    /// quarantined enough workers that the run could not finish. The
    /// partial results (all of them produced by *accepted* updates) are
    /// preserved.
    Numerical {
        /// The anomaly that quarantined the last worker.
        report: AnomalyReport,
        /// Everything that completed before the pool was quarantined.
        partial: Box<SupervisedReport<E>>,
        /// The cycle count originally requested.
        requested: usize,
    },
}

impl<E> std::fmt::Display for ExploreError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::ZeroThreads => write!(f, "need at least one thread"),
            ExploreError::WorkersExhausted { partial, requested } => write!(
                f,
                "all workers exhausted their respawn budgets after {} of {} cycles \
                 ({} panics)",
                partial.report.cycles_run, requested, partial.supervision.panics
            ),
            ExploreError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            ExploreError::Numerical {
                report,
                partial,
                requested,
            } => write!(
                f,
                "persistent numerical anomaly after {} of {} cycles ({} anomalies, \
                 {} workers quarantined): {report}",
                partial.report.cycles_run,
                requested,
                partial.supervision.anomalies,
                partial.supervision.quarantined
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

/// The worker RNG for incarnation `respawns` of worker `t`. Only
/// incarnation 0 is used in practice: a respawn resumes the escrowed stream
/// of the incarnation it replaces.
fn worker_rng(seed: u64, t: usize, threads: usize, respawns: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_add(1 + t as u64 + (threads as u64) * (respawns as u64))
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

/// Publishes the parent-side end-of-run summary (cache totals, tree size,
/// edge-visit distribution, parameter generation, and panic/respawn/anomaly
/// accounting). No-op with telemetry disabled.
fn publish_run_summary<A>(
    config: &ExplorerConfig,
    tree: &SharedTree<A>,
    cache_stats: CacheStats,
    param_generation: u64,
    s: &SupervisionReport,
) where
    A: Copy + Eq + std::hash::Hash + std::fmt::Debug,
{
    if !config.telemetry.is_enabled() {
        return;
    }
    let mut rec = config.telemetry.recorder("supervisor");
    rec.incr("cache.hits", cache_stats.hits);
    rec.incr("cache.misses", cache_stats.misses);
    rec.gauge("mcts.nodes", tree.len() as f64);
    for v in tree.edge_visit_counts() {
        rec.record("mcts.edge_visits", u64::from(v));
    }
    rec.gauge("train.param_generation", param_generation as f64);
    rec.incr("worker.panics", s.panics);
    rec.incr("worker.respawns", s.respawns);
    rec.incr("worker.lost", s.workers_lost as u64);
    rec.incr("anomaly.total", s.anomalies);
    rec.incr("anomaly.rollbacks", s.rollbacks);
    rec.incr("worker.quarantined", s.quarantined as u64);
}

/// One complete worker cycle: pull parameters, run an episode against the
/// shared tree, push gradients, warm the cache, record the result.
///
/// The cycle is *transactional* with respect to numerical anomalies: the
/// episode runs, its gradients are validated, and the parent optimizer
/// step is guarded — all **before** the tree backup and result push. On
/// `Err` nothing observable has committed except tree expansions and
/// cache stores (both re-derived bit-identically by a retry under the same
/// parameters) and the local replica's batch-norm running statistics; a
/// caller that restores its RNG *and* the local net's norm snapshot and
/// retries reproduces the clean run exactly. With `policy.enabled` false
/// and no injector this is the historical unguarded cycle.
#[allow(clippy::too_many_arguments)]
fn run_worker_cycle<E: Environment>(
    env: &mut E,
    local: &mut PolicyAgent,
    tree: &mut SharedTree<E::Action>,
    cache: &mut SharedEvalCache,
    parent: &Mutex<PolicyAgent>,
    config: &ExplorerConfig,
    rng: &mut StdRng,
    cycle: usize,
    results: &Mutex<Vec<DesignResult<E>>>,
    stats_log: &Mutex<Vec<TrainStats>>,
    rec: &mut Recorder,
    policy: &AnomalyPolicy,
    chaos: Option<&ChaosInjector>,
) -> Result<(), AnomalyKind> {
    let timer = rec.timer();
    // θ: parent → child, tagged with the parent's generation so cached
    // evaluations stay consistent.
    let (snapshot, generation) = {
        let mut p = parent.lock();
        (p.net_mut().param_snapshot(), p.param_generation())
    };
    local.net_mut().load_params(&snapshot);
    local.set_param_generation(generation);
    local.net_mut().zero_grad();

    let (episode, path) = crate::explorer::run_episode(env, local, tree, cache, config, rng);
    let returns = episode.returns(config.train.gamma);

    // dθ: child → parent, validated before anything commits.
    let mut stats = local.accumulate_episode(env, &episode);
    let mut grads = local.net_mut().grad_snapshot();
    if let Some(injector) = chaos {
        injector.corrupt_grads(cycle, &mut grads);
    }
    if policy.enabled {
        if !stats.policy_loss.is_finite() || !stats.value_loss.is_finite() {
            return Err(AnomalyKind::NonFiniteLoss {
                policy_loss: stats.policy_loss,
                value_loss: stats.value_loss,
            });
        }
        if let Some(tensor) = first_non_finite(&grads) {
            return Err(AnomalyKind::NonFiniteGrad { tensor });
        }
    }
    let stepped = {
        let mut p = parent.lock();
        let pre_step = if policy.enabled {
            Some(p.capture_step_state())
        } else {
            None
        };
        p.net_mut().accumulate_grads(&grads);
        stats.grad_norm = p.step_optimizer_guarded(policy)?;
        if let Some(injector) = chaos {
            if injector.take_param_corruption(cycle) {
                p.net_mut().params_mut()[0].value.as_mut_slice()[0] = f32::NAN;
            }
        }
        if let Some(pre_step) = &pre_step {
            if let Some(tensor) = p.first_non_finite_param() {
                p.restore_step_state(pre_step);
                return Err(AnomalyKind::NonFiniteParam { tensor });
            }
        }
        if config.eval_cache_capacity > 0 {
            Some((p.net_mut().param_snapshot(), p.param_generation()))
        } else {
            None
        }
    };
    // Commit point: the parent accepted the update, so the episode's tree
    // statistics become visible. (Backup after the step keeps aborted
    // cycles free of observable side effects; at one thread the ordering
    // relative to the step is indistinguishable, and across threads the
    // interleaving was never deterministic.)
    tree.backup(&path, &returns);
    // Warm the shared cache under the new parameters: one batched forward
    // over this episode's visited states, so the next cycle's root
    // expansion (any worker) hits.
    if let Some((snapshot, generation)) = stepped {
        local.net_mut().load_params(&snapshot);
        local.set_param_generation(generation);
        crate::explorer::warm_cache(local, cache, &episode, &path, config.max_steps);
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
    stats_log.lock().push(stats);
    results.lock().push(DesignResult {
        successful,
        env: env.clone(),
        final_return: episode.final_return,
        cycle,
        steps: episode.steps.len(),
    });
    Ok(())
}

/// Runs `total_cycles` exploration cycles split across `threads` child
/// agents with a shared tree and parent parameter server, returning the
/// merged report (designs tagged with global cycle indices, sorted by
/// cycle).
///
/// This is [`explore_parallel_supervised`] with the default
/// [`SupervisionConfig`]: a panicking worker is respawned and its cycle
/// requeued. Its worker RNG streams and parent/child parameter split differ
/// from [`crate::Explorer`]'s, so even at one thread the two drivers explore
/// different trajectories.
///
/// # Panics
///
/// Panics with the [`ExploreError`]'s message if `threads` is zero or the
/// run fails (every worker exhausted its respawn budget or was quarantined).
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
    let supervision = SupervisionConfig::default();
    match explore_parallel_supervised(env, config, threads, total_cycles, seed, supervision) {
        Ok(out) => out.report,
        Err(e) => panic!("{e}"),
    }
}

/// Multi-threaded exploration hardened for long runs: every worker cycle
/// executes under `catch_unwind`, panicked workers are respawned in place
/// (bounded by [`SupervisionConfig::max_respawns_per_worker`]) with the lost
/// cycle requeued, and failures are returned as typed errors.
///
/// On success the [`SupervisedReport`] carries the merged exploration
/// report plus panic/respawn accounting. If every worker dies permanently
/// before the requested cycles complete, the partial results are returned
/// inside [`ExploreError::WorkersExhausted`].
///
/// # Caveats
///
/// A worker that panics *while holding the parent lock mid-optimizer-step*
/// can leave the parent parameters mid-update; `parking_lot` mutexes do not
/// poison, so the run continues from those parameters. This trades strict
/// transactionality for availability, which is the right call for a
/// stochastic learner.
pub fn explore_parallel_supervised<E>(
    env: &E,
    config: &ExplorerConfig,
    threads: usize,
    total_cycles: usize,
    seed: u64,
    supervision: SupervisionConfig,
) -> Result<SupervisedReport<E>, ExploreError<E>>
where
    E: Environment + Send + Sync,
    E::Action: Send + Sync,
{
    let parent = Mutex::new(new_agent(env, config, seed));
    explore_supervised_inner(
        env,
        config,
        threads,
        total_cycles,
        seed,
        supervision,
        0,
        &parent,
    )
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
/// including ones before a restart.
pub fn explore_parallel_checkpointed<E>(
    env: &E,
    config: &ExplorerConfig,
    threads: usize,
    total_cycles: usize,
    seed: u64,
    supervision: SupervisionConfig,
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
    let mut parent_agent = new_agent(env, config, seed);
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
        supervision: SupervisionReport::default(),
        resumed_from,
        anomaly_log: Vec::new(),
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
        let r = explore_supervised_inner(
            env,
            config,
            threads,
            batch,
            batch_seed,
            supervision,
            done,
            &parent,
        );
        let mut r = match r {
            Ok(r) => r,
            Err(mut e) => {
                // Partial-result errors: fold the failed batch into the
                // cumulative report so the caller sees the whole run so
                // far, not just the final batch.
                if let ExploreError::WorkersExhausted { partial, requested }
                | ExploreError::Numerical {
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
    /// Appends a later batch's results and accounting, draining `batch`.
    /// Batches run in cycle order, so the designs stay sorted by cycle.
    fn absorb(&mut self, batch: &mut SupervisedReport<E>) {
        let report = &mut self.report;
        report.designs.append(&mut batch.report.designs);
        report.train_history.append(&mut batch.report.train_history);
        report.cycles_run = report.designs.len();
        report.cache_stats.merge(batch.report.cache_stats);
        self.anomaly_log.append(&mut batch.anomaly_log);
        let (total, b) = (&mut self.supervision, batch.supervision);
        total.panics += b.panics;
        total.respawns += b.respawns;
        total.workers_lost += b.workers_lost;
        total.anomalies += b.anomalies;
        total.rollbacks += b.rollbacks;
        total.quarantined += b.quarantined;
    }
}

/// The worker loop behind every driver: one batch of `total_cycles`
/// cycles against a caller-owned `parent` parameter server, with a fresh
/// shared tree and evaluation cache. Designs are tagged with
/// `cycle_offset + local_cycle` so multi-batch callers
/// ([`explore_parallel_checkpointed`]) report global indices.
///
/// # Resilience mechanics
///
/// Per worker and cycle: the worker's RNG is cloned before each attempt;
/// a rejected update (see [`run_worker_cycle`]) restores the clone, backs
/// off exponentially, and retries — so a transient anomaly's recovery is
/// bit-identical to the never-faulted run. A worker whose *consecutive*
/// anomaly count exceeds [`crate::resilience::AnomalyPolicy::max_retries`]
/// is quarantined: its cycle is requeued for surviving workers and the
/// run ends in [`ExploreError::Numerical`] if nobody else can finish.
/// Worker panics take the same escrow: the RNG clone survives outside
/// `catch_unwind`, so the respawned incarnation resumes the exact stream
/// (falling back to the respawn-salted stream only if the escrow is
/// somehow empty).
#[allow(clippy::too_many_arguments)]
fn explore_supervised_inner<E>(
    env: &E,
    config: &ExplorerConfig,
    threads: usize,
    total_cycles: usize,
    seed: u64,
    supervision: SupervisionConfig,
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
    // Cycles reclaimed from panicked or quarantined workers, served before
    // fresh ones.
    let lost: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let anomaly_log: Mutex<Vec<AnomalyReport>> = Mutex::new(Vec::new());
    let panics = AtomicU64::new(0);
    let respawns = AtomicU64::new(0);
    let workers_lost = AtomicUsize::new(0);
    let anomalies = AtomicU64::new(0);
    let rollbacks = AtomicU64::new(0);
    let quarantined = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let mut tree = tree.clone();
                let mut cache = cache.clone();
                let results = &results;
                let stats_log = &stats_log;
                let cycle_counter = &cycle_counter;
                let lost = &lost;
                let anomaly_log = &anomaly_log;
                let panics = &panics;
                let respawns = &respawns;
                let workers_lost = &workers_lost;
                let anomalies = &anomalies;
                let rollbacks = &rollbacks;
                let quarantined = &quarantined;
                let proto = env.clone();
                let config = config.clone();
                scope.spawn(move || {
                    let claim = || -> Option<usize> {
                        if let Some(c) = lost.lock().pop() {
                            return Some(c);
                        }
                        let mut c = cycle_counter.lock();
                        if *c >= total_cycles {
                            return None;
                        }
                        let mine = *c;
                        *c += 1;
                        Some(mine)
                    };
                    // In-flight cycle of the current incarnation, visible
                    // to the supervisor below so a panic or quarantine can
                    // requeue it.
                    let in_flight: Cell<Option<usize>> = Cell::new(None);
                    // Escrow: the worker RNG plus the local replica's
                    // batch-norm running statistics, updated at every cycle
                    // boundary and read by the next incarnation — so a
                    // respawn resumes the exact stream *and* forward-pass
                    // state the panicked incarnation was on. (Parameter
                    // snapshots deliberately exclude running statistics, so
                    // without the escrow a respawned replica would evaluate
                    // states slightly differently.)
                    let escrow: Cell<Option<(StdRng, Vec<f32>)>> = Cell::new(None);
                    let policy = config.resilience.anomaly;
                    let chaos = config.resilience.chaos.clone();
                    let mut incarnation = 0usize;
                    let mut rec = worker_recorder(&config, t);
                    loop {
                        // Fresh incarnation state: environment clone, local
                        // DNN replica, escrowed (or respawn-salted) RNG.
                        let mut env = proto.clone();
                        let mut local = new_agent(&env, &config, seed);
                        let mut rng = match escrow.take() {
                            Some((rng, norm)) => {
                                local.net_mut().load_norm_snapshot(&norm);
                                rng
                            }
                            None => worker_rng(seed, t, threads, incarnation),
                        };
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> bool {
                            let mut consecutive = 0usize;
                            while let Some(cycle) = claim() {
                                in_flight.set(Some(cycle));
                                escrow.set(Some((rng.clone(), local.net_mut().norm_snapshot())));
                                if let Some(injector) = &chaos {
                                    injector.on_cycle_start(cycle_offset + cycle);
                                }
                                loop {
                                    // Transactional attempt state: worker
                                    // RNG and the local replica's batch-norm
                                    // running statistics (which the training
                                    // forward advances even when the update
                                    // is later rejected).
                                    let attempt_rng = rng.clone();
                                    let attempt_norm =
                                        policy.enabled.then(|| local.net_mut().norm_snapshot());
                                    let attempt = run_worker_cycle(
                                        &mut env,
                                        &mut local,
                                        &mut tree,
                                        &mut cache,
                                        parent,
                                        &config,
                                        &mut rng,
                                        cycle_offset + cycle,
                                        results,
                                        stats_log,
                                        &mut rec,
                                        &policy,
                                        chaos.as_ref(),
                                    );
                                    match attempt {
                                        Ok(()) => {
                                            consecutive = 0;
                                            break;
                                        }
                                        Err(kind) => {
                                            // Rewind the stream and forward
                                            // state so the retry replays the
                                            // clean cycle bit-identically.
                                            rng = attempt_rng;
                                            if let Some(norm) = &attempt_norm {
                                                local.net_mut().load_norm_snapshot(norm);
                                            }
                                            consecutive += 1;
                                            anomalies.fetch_add(1, Ordering::Relaxed);
                                            if kind.rolled_back() {
                                                rollbacks.fetch_add(1, Ordering::Relaxed);
                                            }
                                            rec.incr(kind.counter(), 1);
                                            anomaly_log.lock().push(AnomalyReport {
                                                kind,
                                                worker: t,
                                                cycle: cycle_offset + cycle,
                                                consecutive,
                                            });
                                            if consecutive > policy.max_retries {
                                                return false; // quarantine
                                            }
                                            let backoff = policy.backoff(consecutive);
                                            if !backoff.is_zero() {
                                                std::thread::sleep(backoff);
                                            }
                                        }
                                    }
                                }
                                in_flight.set(None);
                                escrow.set(Some((rng.clone(), local.net_mut().norm_snapshot())));
                            }
                            true
                        }));
                        match outcome {
                            Ok(true) => break,
                            Ok(false) => {
                                // Quarantined: hand the cycle back and stop
                                // claiming work.
                                quarantined.fetch_add(1, Ordering::Relaxed);
                                if let Some(cycle) = in_flight.take() {
                                    lost.lock().push(cycle);
                                }
                                break;
                            }
                            Err(_) => {
                                panics.fetch_add(1, Ordering::Relaxed);
                                if let Some(cycle) = in_flight.take() {
                                    lost.lock().push(cycle);
                                }
                                incarnation += 1;
                                if incarnation > supervision.max_respawns_per_worker {
                                    workers_lost.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                respawns.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    drop(rlnoc_nn::instrument::take());
                })
            })
            .collect();
        // Workers never unwind (everything runs under catch_unwind); a
        // stray panic outside it is swallowed here and surfaces as missing
        // cycles, i.e. a typed error, instead of escaping the scope.
        for w in workers {
            let _ = w.join();
        }
    });

    let mut designs = std::mem::take(&mut *results.lock());
    designs.sort_by_key(|d| d.cycle);
    let train_history = std::mem::take(&mut *stats_log.lock());
    let anomaly_log = std::mem::take(&mut *anomaly_log.lock());
    let cache_stats = cache.stats();
    let completed = designs.len();
    let supervision_report = SupervisionReport {
        panics: panics.load(Ordering::Relaxed),
        respawns: respawns.load(Ordering::Relaxed),
        workers_lost: workers_lost.load(Ordering::Relaxed),
        anomalies: anomalies.load(Ordering::Relaxed),
        rollbacks: rollbacks.load(Ordering::Relaxed),
        quarantined: quarantined.load(Ordering::Relaxed),
    };
    publish_run_summary(
        config,
        &tree,
        cache_stats,
        parent.lock().param_generation(),
        &supervision_report,
    );
    let last_anomaly = anomaly_log.last().copied();
    let out = SupervisedReport {
        report: ExploreReport {
            cycles_run: completed,
            designs,
            train_history,
            cache_stats,
        },
        supervision: supervision_report,
        resumed_from: cycle_offset,
        anomaly_log,
    };
    if completed < total_cycles {
        if supervision_report.quarantined > 0 {
            let report = last_anomaly.expect("quarantine implies a recorded anomaly");
            return Err(ExploreError::Numerical {
                report,
                partial: Box::new(out),
                requested: cycle_offset + total_cycles,
            });
        }
        return Err(ExploreError::WorkersExhausted {
            partial: Box::new(out),
            requested: cycle_offset + total_cycles,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routerless::{LoopAction, RouterlessEnv};
    use rlnoc_topology::Grid;
    use std::sync::atomic::AtomicUsize;

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
        let err = explore_parallel_supervised(
            &env,
            &quick_config(),
            0,
            1,
            0,
            SupervisionConfig::default(),
        )
        .unwrap_err();
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
            let parent = Mutex::new(new_agent(&env, &cfg, 21));
            let supervision = SupervisionConfig::default();
            let out = explore_supervised_inner(&env, &cfg, 1, 2, 21, supervision, 0, &parent)
                .expect("clean run");
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

    /// An environment whose `reset` panics while the shared fuse holds
    /// charges — the deliberate fault injector for supervision tests.
    #[derive(Debug, Clone)]
    struct PanickyEnv {
        inner: RouterlessEnv,
        remaining_panics: Arc<AtomicUsize>,
    }

    impl PanickyEnv {
        fn new(inner: RouterlessEnv, panics: usize) -> Self {
            PanickyEnv {
                inner,
                remaining_panics: Arc::new(AtomicUsize::new(panics)),
            }
        }
    }

    impl Environment for PanickyEnv {
        type Action = LoopAction;
        fn reset(&mut self) {
            let fired = self
                .remaining_panics
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok();
            if fired {
                panic!("injected worker fault");
            }
            self.inner.reset();
        }
        fn state_key(&self) -> u64 {
            self.inner.state_key()
        }
        fn state_tensor(&self) -> rlnoc_nn::Tensor {
            self.inner.state_tensor()
        }
        fn state_side(&self) -> usize {
            self.inner.state_side()
        }
        fn apply(&mut self, action: LoopAction) -> f64 {
            self.inner.apply(action)
        }
        fn is_terminal(&self) -> bool {
            self.inner.is_terminal()
        }
        fn final_return(&self) -> f64 {
            self.inner.final_return()
        }
        fn legal_actions(&self) -> Vec<LoopAction> {
            self.inner.legal_actions()
        }
        fn head_cardinality(&self) -> usize {
            self.inner.head_cardinality()
        }
        fn encode_action(&self, action: LoopAction) -> ([usize; 4], bool) {
            self.inner.encode_action(action)
        }
        fn decode_action(&self, coords: [usize; 4], flag: bool) -> LoopAction {
            self.inner.decode_action(coords, flag)
        }
        fn is_successful(&self) -> bool {
            self.inner.is_successful()
        }
        fn greedy_action(&self) -> Option<LoopAction> {
            self.inner.greedy_action()
        }
        fn completion_action(&self) -> Option<LoopAction> {
            self.inner.completion_action()
        }
    }

    #[test]
    fn supervision_recovers_from_worker_panic() {
        // One charge on the fuse: exactly one worker incarnation panics in
        // `reset`, is respawned, and the run still completes every cycle.
        let env = PanickyEnv::new(RouterlessEnv::new(Grid::square(3).unwrap(), 4), 1);
        let out = explore_parallel_supervised(
            &env,
            &quick_config(),
            2,
            6,
            9,
            SupervisionConfig::default(),
        )
        .expect("supervision must absorb a single panic");
        assert_eq!(out.report.cycles_run, 6);
        let mut cycles: Vec<_> = out.report.designs.iter().map(|d| d.cycle).collect();
        cycles.sort_unstable();
        assert_eq!(
            cycles,
            vec![0, 1, 2, 3, 4, 5],
            "lost cycle must be requeued"
        );
        assert_eq!(out.supervision.panics, 1);
        assert_eq!(out.supervision.respawns, 1);
        assert_eq!(out.supervision.workers_lost, 0);
    }

    #[test]
    fn explore_parallel_respawns_a_panicking_worker() {
        // The convenience driver runs the supervised loop too: a worker
        // panic is absorbed and every cycle is still returned, instead of
        // propagating at the scope join.
        let env = PanickyEnv::new(RouterlessEnv::new(Grid::square(3).unwrap(), 4), 1);
        let report = explore_parallel(&env, &quick_config(), 2, 6, 9);
        assert_eq!(report.cycles_run, 6);
        let cycles: Vec<_> = report.designs.iter().map(|d| d.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn supervision_returns_partial_results_when_workers_exhausted() {
        // An inexhaustible fuse: every incarnation panics immediately, so
        // the single worker burns its respawn budget and the run returns a
        // typed error with (empty) partial results instead of aborting.
        let env = PanickyEnv::new(RouterlessEnv::new(Grid::square(3).unwrap(), 4), usize::MAX);
        let supervision = SupervisionConfig {
            max_respawns_per_worker: 2,
        };
        let err =
            explore_parallel_supervised(&env, &quick_config(), 1, 4, 9, supervision).unwrap_err();
        match err {
            ExploreError::WorkersExhausted { partial, requested } => {
                assert_eq!(requested, 4);
                assert_eq!(partial.report.cycles_run, 0);
                assert_eq!(partial.supervision.panics, 3, "initial run + 2 respawns");
                assert_eq!(partial.supervision.workers_lost, 1);
            }
            other => panic!("expected WorkersExhausted, got {other:?}"),
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
        let first = explore_parallel_checkpointed(
            &env,
            &quick_config(),
            2,
            3,
            17,
            SupervisionConfig::default(),
            &ckpt,
        )
        .unwrap();
        assert_eq!(first.resumed_from, 0);
        assert_eq!(first.report.cycles_run, 3);
        let cp = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap();
        assert_eq!(cp.cycles_done, 3, "final save reflects exact completion");

        // Second process resumes and finishes the remaining cycles.
        let second = explore_parallel_checkpointed(
            &env,
            &quick_config(),
            2,
            6,
            17,
            SupervisionConfig::default(),
            &ckpt,
        )
        .unwrap();
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
        let third = explore_parallel_checkpointed(
            &env,
            &quick_config(),
            2,
            6,
            17,
            SupervisionConfig::default(),
            &ckpt,
        )
        .unwrap();
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
    }
}
