//! The DNN+MCTS learner workloads: `learn-8x8` (one explorer thread,
//! `Explorer::run_cycles`) and `learn-4x4-2t` (`explore_parallel`, two
//! workers).

use crate::probe::{Layer, Probes, TimedCache, TimedEnv, TimedTree, ENV_LAYERS};
use crate::report::{catch, peak_rss_mb, per_op, set_overhead, Outcome, Setups};
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlnoc_core::cache::{EvalCache, EvalCacheHandle};
use rlnoc_core::explorer::{run_episode, DesignResult, Explorer, ExplorerConfig};
use rlnoc_core::policy::{Episode, PolicyAgent, TrainStats};
use rlnoc_core::routerless::{LoopAction, RouterlessEnv};
use rlnoc_core::{explore_parallel, Environment, Mcts};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::Grid;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `exp_multithread`'s settings for an `n`x`n` grid at cap `2(n−1)`.
fn setting(n: usize) -> (RouterlessEnv, ExplorerConfig) {
    let grid = Grid::square(n).expect("square grid");
    let env = RouterlessEnv::new(grid, 2 * (n as u32 - 1));
    let mut config = ExplorerConfig::fast();
    config.max_steps = (grid.len() / 8).max(4);
    config.epsilon = 0.3;
    (env, config)
}

/// What the fidelity check compares per cycle.
type CycleKey = (u64, usize, bool);

fn cycle_key<E>(d: &DesignResult<E>) -> CycleKey {
    (d.final_return.to_bits(), d.steps, d.successful)
}

/// Output check of one exploration cycle: the design respects the overlap
/// cap, and a design reported successful is fully connected.
fn check_design(env: &RouterlessEnv, successful: bool) -> Option<String> {
    let topo = env.topology();
    if topo.max_overlap() > env.overlap_cap() {
        return Some(format!(
            "design overlap {} exceeds cap {}",
            topo.max_overlap(),
            env.overlap_cap()
        ));
    }
    if successful && !topo.is_fully_connected() {
        return Some("design reported successful is not fully connected".into());
    }
    None
}

fn valid_frac(successful: &[bool]) -> f64 {
    successful.iter().filter(|&&s| s).count() as f64 / successful.len().max(1) as f64
}

/// `nn.*` per-operation metrics from the kernel-timing hook's histograms.
fn set_nn(out: &mut Outcome, sink: &TelemetrySink, ops: usize) {
    for (hist, calls, us) in [
        ("nn.gemm_us", "nn.gemm.calls", "nn.gemm.us"),
        ("nn.conv_us", "nn.conv.calls", "nn.conv.us"),
        ("nn.forward_us", "nn.forward.calls", "nn.forward.us"),
    ] {
        let h = sink.hist_total(hist).unwrap_or_default();
        out.set(calls, per_op(h.count() as f64, ops));
        out.set(us, per_op(h.sum() as f64, ops));
    }
}

/// Per-operation metrics of the environment wrapper.
fn set_env(out: &mut Outcome, p: &Probes, ops: usize) {
    let calls = |l| per_op(p.calls(l) as f64, ops);
    let us = |l| per_op(p.us(l), ops);
    out.set("core.routerless.apply.calls", calls(Layer::Apply));
    out.set("core.routerless.apply.us", us(Layer::Apply));
    out.set(
        "core.routerless.legal_actions.calls",
        calls(Layer::LegalActions),
    );
    out.set("core.routerless.legal_actions.us", us(Layer::LegalActions));
    out.set("core.routerless.is_terminal.us", us(Layer::IsTerminal));
    out.set("core.routerless.state_tensor.us", us(Layer::StateTensor));
    out.set("core.routerless.state_key.us", us(Layer::StateKey));
    out.set(
        "core.greedy.greedy_action.calls",
        calls(Layer::GreedyAction),
    );
    out.set("core.greedy.greedy_action.us", us(Layer::GreedyAction));
    out.set(
        "core.greedy.completion_action.calls",
        calls(Layer::CompletionAction),
    );
    out.set(
        "core.greedy.completion_action.us",
        us(Layer::CompletionAction),
    );
}

fn mean_batch(history: &[TrainStats]) -> f64 {
    history.iter().map(|s| s.steps as f64).sum::<f64>() / history.len().max(1) as f64
}

/// Explorers `learn-8x8` runs side by side, so one run averages several
/// search trajectories instead of following one seed's.
const EXPLORERS: u64 = 4;

fn explorer_seeds(seed: u64) -> Vec<u64> {
    (0..EXPLORERS)
        .map(|i| crate::report::splitmix64(seed ^ i))
        .collect()
}

/// `learn-8x8`: [`EXPLORERS`] explorers seeded from `--seed`, each taking
/// one `Explorer::run_cycles` cycle in turn, in whole rounds until the time
/// is up. Traced, the same cycles are then replayed from the public pieces
/// of a cycle with every layer timed, and must match.
pub fn run_8x8(args: &Args) -> Outcome {
    rlnoc_nn::kernels::set_matmul_threads(2);
    let mut out = Outcome::default();
    let (env, config) = setting(8);
    let seeds = explorer_seeds(args.seed);
    // Set-up: the explorers (network initialisation) and one evaluation of
    // the blank design on each, which finishes lazy allocation.
    let set_up = || {
        let blank = env.state_tensor();
        seeds
            .iter()
            .map(|&seed| {
                let mut explorer = Explorer::new(env.clone(), config.clone(), seed);
                std::hint::black_box(explorer.agent_mut().evaluate(&blank));
                explorer
            })
            .collect::<Vec<_>>()
    };
    let mut setups = Setups::default();
    let mut explorers = setups.run(set_up);

    let mut keys = vec![Vec::new(); explorers.len()];
    let mut successful = Vec::new();
    let mut steps = 0usize;
    let start = Instant::now();
    'rounds: while start.elapsed() < args.seconds {
        for (explorer, keys) in explorers.iter_mut().zip(&mut keys) {
            match catch(|| explorer.run_cycles(1)) {
                Ok(report) => {
                    let d = &report.designs[0];
                    keys.push(cycle_key(d));
                    successful.push(d.successful);
                    steps += d.steps;
                    out.op(check_design(&d.env, d.successful));
                }
                Err(e) => {
                    // The explorer's state is unknown after a panic.
                    out.op(Some(e));
                    break 'rounds;
                }
            }
        }
    }
    let elapsed = start.elapsed();
    setups.run(set_up);
    let cycles = successful.len();
    println!(
        "learn-8x8 seed {}: {cycles} cycles of {EXPLORERS} explorers in {:.2} s, \
         {steps} env steps, valid {}/{cycles}",
        args.seed,
        elapsed.as_secs_f64(),
        successful.iter().filter(|&&s| s).count()
    );
    out.set("setup_s", setups.median());
    out.set("bench.ops_per_s", cycles as f64 / elapsed.as_secs_f64());
    out.set("work_per_s", steps as f64 / elapsed.as_secs_f64());
    out.set("learn.valid_frac", valid_frac(&successful));
    if args.trace && out.failed == 0 {
        replay_8x8(&mut out, &seeds, &keys, elapsed);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// One explorer rebuilt from public pieces, with the same construction and
/// seeding as `Explorer::new`.
struct Replica {
    env: TimedEnv<RouterlessEnv>,
    agent: PolicyAgent,
    mcts: Mcts<LoopAction>,
    cache: EvalCache,
    rng: StdRng,
}

impl Replica {
    fn new(seed: u64, probes: &Arc<Probes>) -> Self {
        let (env, config) = setting(8);
        Replica {
            agent: PolicyAgent::for_env(&env, config.train.clone(), seed),
            env: TimedEnv::new(env, Arc::clone(probes)),
            mcts: Mcts::new(config.mcts),
            cache: EvalCache::new(config.eval_cache_capacity),
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// `Explorer::run_cycles`' cycle from its public pieces — `run_episode`,
    /// `Mcts::backup`, `accumulate_episode`, `step_optimizer` and the
    /// batched cache warm-up — with each timed.
    fn cycle(&mut self, config: &ExplorerConfig, probes: &Probes) -> (CycleKey, TrainStats) {
        let mut tree = TimedTree {
            tree: &mut self.mcts,
            probes,
        };
        let mut cache = TimedCache {
            cache: &mut self.cache,
            probes,
            missed_at: None,
        };
        let (episode, path) = run_episode(
            &mut self.env,
            &mut self.agent,
            &mut tree,
            &mut cache,
            config,
            &mut self.rng,
        );
        let returns = episode.returns(config.train.gamma);
        probes.time(Layer::MctsBackup, || self.mcts.backup(&path, &returns));
        let mut stats = probes.time(Layer::AccumulateEpisode, || {
            self.agent.accumulate_episode(&self.env, &episode)
        });
        stats.grad_norm = probes.time(Layer::StepOptimizer, || self.agent.step_optimizer());
        if self.cache.is_enabled() {
            probes.time(Layer::WarmBatch, || {
                warm_cache(
                    &mut self.agent,
                    &mut self.cache,
                    &episode,
                    &path,
                    config.max_steps,
                )
            });
        }
        let successful = self.env.is_successful();
        let key = (
            episode.final_return.to_bits(),
            episode.steps.len(),
            successful,
        );
        (key, stats)
    }
}

/// Replays every explorer's cycles in the same rounds through [`Replica`]s.
fn replay_8x8(out: &mut Outcome, seeds: &[u64], reference: &[Vec<CycleKey>], untraced: Duration) {
    let (_, config) = setting(8);
    let probes = Arc::new(Probes::default());
    let mut replicas: Vec<Replica> = seeds.iter().map(|&s| Replica::new(s, &probes)).collect();
    let sink = TelemetrySink::enabled();
    let nn_hook = rlnoc_nn::instrument::install_scoped(sink.recorder("nn"));

    let rounds = reference[0].len();
    let mut history = Vec::new();
    let mut cache = rlnoc_core::CacheStats::default();
    let start = Instant::now();
    for round in 0..rounds {
        for (i, (replica, keys)) in replicas.iter_mut().zip(reference).enumerate() {
            let (got, stats) = replica.cycle(&config, &probes);
            let want = keys[round];
            out.check(got == want, || {
                format!("explorer {i} cycle {round}: replay gave {got:?}, run_cycles {want:?}")
            });
            history.push(stats);
        }
    }
    let traced = start.elapsed();
    drop(nn_hook);
    for replica in &replicas {
        cache.merge(replica.cache.stats());
    }

    let ops = history.len();
    set_env(out, &probes, ops);
    set_nn(out, &sink, ops);
    out.set("core.cache.hit_ratio", cache.hit_rate());
    out.set("core.policy.train_batch_steps", mean_batch(&history));
    let per = |l| per_op(probes.us(l), ops);
    out.set("core.mcts.expand.us", per(Layer::MctsExpand));
    out.set("core.mcts.select.us", per(Layer::MctsSelect));
    out.set("core.mcts.backup.us", per(Layer::MctsBackup));
    out.set(
        "core.policy.evaluate.calls",
        per_op(probes.calls(Layer::Evaluate) as f64, ops),
    );
    out.set("core.policy.evaluate.us", per(Layer::Evaluate));
    out.set(
        "core.policy.accumulate_episode.us",
        per(Layer::AccumulateEpisode),
    );
    out.set("core.policy.step_optimizer.us", per(Layer::StepOptimizer));
    out.set("core.policy.warm_batch.us", per(Layer::WarmBatch));
    let top_level = probes.us_sum(&ENV_LAYERS)
        + probes.us_sum(&[
            Layer::MctsIsExpanded,
            Layer::MctsExpand,
            Layer::MctsSelect,
            Layer::MctsBackup,
            Layer::Evaluate,
            Layer::AccumulateEpisode,
            Layer::StepOptimizer,
            Layer::WarmBatch,
        ]);
    let other = traced.as_secs_f64() * 1e6 - top_level;
    out.check(other >= 0.0, || {
        format!(
            "layer times exceed the cycle wall-clock by {:.0} us",
            -other
        )
    });
    out.set("learn.cycle.other_us", per_op(other, ops));
    set_overhead(out, ops, untraced, traced);
}

/// The explorer's post-step cache warm-up: one batched forward over the
/// episode's first `limit` states, stored under the new generation.
fn warm_cache(
    agent: &mut PolicyAgent,
    cache: &mut EvalCache,
    episode: &Episode<LoopAction>,
    path: &[(u64, LoopAction)],
    limit: usize,
) {
    let warm = episode.steps.len().min(path.len()).min(limit);
    if warm == 0 {
        return;
    }
    let states: Vec<_> = episode.steps[..warm]
        .iter()
        .map(|s| s.state.clone())
        .collect();
    let evals = agent.evaluate_batch(&states);
    let generation = agent.param_generation();
    for ((key, _), eval) in path[..warm].iter().zip(&evals) {
        cache.store(*key, generation, eval);
    }
}

/// Cycles per `explore_parallel` call of `learn-4x4-2t`.
const BLOCK_CYCLES: usize = 60;
const WORKERS: usize = 2;

fn block_seed(seed: u64, block: usize) -> u64 {
    crate::report::splitmix64(seed ^ block as u64)
}

/// Output check of one `explore_parallel` block: every cycle returned a
/// design, and each design passes [`check_design`].
fn check_block<'a>(
    out: &mut Outcome,
    designs: impl ExactSizeIterator<Item = (&'a RouterlessEnv, bool)>,
) {
    if designs.len() != BLOCK_CYCLES {
        let msg = format!("{} of {BLOCK_CYCLES} cycles returned", designs.len());
        (0..BLOCK_CYCLES).for_each(|_| out.op(Some(msg.clone())));
        return;
    }
    for (env, successful) in designs {
        out.op(check_design(env, successful));
    }
}

/// `learn-4x4-2t`: `explore_parallel` with two workers, in blocks of
/// [`BLOCK_CYCLES`] cycles until the time is up. Traced, the same blocks
/// run again with the environment wrapped and the kernel hook live.
pub fn run_4x4(args: &Args) -> Outcome {
    rlnoc_nn::kernels::set_matmul_threads(1);
    let mut out = Outcome::default();
    let (env, config) = setting(4);
    // Set-up: the inputs plus a short warm-up block (thread start, first
    // allocations), discarded.
    let set_up = || {
        let (env, config) = setting(4);
        explore_parallel(&env, &config, WORKERS, 2, args.seed)
    };
    let mut setups = Setups::default();
    setups.run(set_up);

    let mut blocks = 0usize;
    let mut steps = 0usize;
    let mut successful = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let seed = block_seed(args.seed, blocks);
        blocks += 1;
        match catch(|| explore_parallel(&env, &config, WORKERS, BLOCK_CYCLES, seed)) {
            Ok(report) => {
                check_block(
                    &mut out,
                    report.designs.iter().map(|d| (&d.env, d.successful)),
                );
                steps += report.designs.iter().map(|d| d.steps).sum::<usize>();
                successful.extend(report.designs.iter().map(|d| d.successful));
            }
            Err(e) => (0..BLOCK_CYCLES).for_each(|_| out.op(Some(e.clone()))),
        }
    }
    let elapsed = start.elapsed();
    setups.run(set_up);
    let cycles = blocks * BLOCK_CYCLES;
    println!(
        "learn-4x4-2t seed {}: {blocks} blocks of {BLOCK_CYCLES} cycles in {:.2} s, \
         {steps} env steps, valid {}/{cycles}",
        args.seed,
        elapsed.as_secs_f64(),
        successful.iter().filter(|&&s| s).count()
    );
    out.set("setup_s", setups.median());
    out.set("bench.ops_per_s", cycles as f64 / elapsed.as_secs_f64());
    out.set("work_per_s", steps as f64 / elapsed.as_secs_f64());
    out.set("learn.valid_frac", valid_frac(&successful));
    if args.trace {
        trace_4x4(args, &mut out, blocks, elapsed);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

fn trace_4x4(args: &Args, out: &mut Outcome, blocks: usize, untraced: Duration) {
    let (env, mut config) = setting(4);
    let probes = Arc::new(Probes::default());
    let env = TimedEnv::new(env, Arc::clone(&probes));
    let sink = TelemetrySink::enabled();
    config.telemetry = sink.clone();
    let mut history = Vec::new();
    let mut cache = rlnoc_core::CacheStats::default();
    let mut checks = Outcome::default();
    let start = Instant::now();
    for block in 0..blocks {
        let report = explore_parallel(
            &env,
            &config,
            WORKERS,
            BLOCK_CYCLES,
            block_seed(args.seed, block),
        );
        check_block(
            &mut checks,
            report.designs.iter().map(|d| (d.env.inner(), d.successful)),
        );
        cache.merge(report.cache_stats);
        history.extend(report.train_history);
    }
    let traced = start.elapsed();
    out.check(checks.failed == 0, || {
        format!("{} traced cycles failed their output check", checks.failed)
    });
    let ops = blocks * BLOCK_CYCLES;
    set_env(out, &probes, ops);
    set_nn(out, &sink, ops);
    out.set("core.cache.hit_ratio", cache.hit_rate());
    out.set("core.policy.train_batch_steps", mean_batch(&history));
    set_overhead(out, ops, untraced, traced);
}
