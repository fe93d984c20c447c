//! Chaos harness experiment: the resilience layer under injected faults.
//!
//! Runs the supervised parallel learner through a scenario matrix — one
//! scenario per fault class (NaN gradients, exploding norms, NaN
//! parameters, worker panics) plus a fixed and a seed-scheduled mix — at
//! 1 and 8 threads, and verifies the resilience contract dynamically:
//!
//! - **1 thread**: recovery is asserted as *bit identity* — the per-cycle
//!   outcomes and training history of every faulted run must equal the
//!   clean run's exactly.
//! - **8 threads**: interleaving is nondeterministic even without faults,
//!   so the assertion is completion (every requested cycle finishes) plus
//!   fault accounting (each injected fault was detected and survived).
//!
//! `--smoke` shortens the runs for CI. Anomaly-counter telemetry goes to
//! `results/exp_chaos.telemetry.jsonl`.

use rlnoc_bench::{print_table, s, write_telemetry};
use rlnoc_core::parallel::explore_parallel_supervised;
use rlnoc_core::{ChaosInjector, ChaosPlan, ExplorerConfig, RouterlessEnv, SupervisionConfig};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::Grid;

const SEED: u64 = 11;

fn env3() -> RouterlessEnv {
    RouterlessEnv::new(Grid::square(3).expect("3x3 grid is within bounds"), 4)
}

/// One named fault scenario: the plan to inject and the policy tweaks it
/// needs (the exploding-norm scenarios arm the EWMA sentinel early).
struct Scenario {
    name: &'static str,
    plan: fn(usize) -> ChaosPlan,
    tweak: fn(&mut ExplorerConfig),
    /// Whether single-thread recovery is asserted as bit identity. True
    /// for every deterministic injection; false only for the seeded
    /// schedule, where an explosion can land before the sentinel's warmup
    /// and be (correctly) clipped rather than rejected.
    bit_exact: bool,
}

fn no_tweak(_: &mut ExplorerConfig) {}

fn arm_sentinel(c: &mut ExplorerConfig) {
    // Warmup 0 arms the sentinel before the first step, so detection does
    // not depend on which cycle a worker happens to step first at 8
    // threads. The floor-based threshold (ewma_mult x ewma_floor = 1e3)
    // sits far above sane pre-clip norms and far below the 1e12-scaled
    // injection.
    c.resilience.anomaly.ewma_warmup = 0;
    c.resilience.anomaly.ewma_mult = 1e3;
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "nan_grad",
            plan: |_| {
                let mut p = ChaosPlan::none();
                p.nan_grad_cycles = vec![1];
                p
            },
            tweak: no_tweak,
            bit_exact: true,
        },
        Scenario {
            name: "explode_grad",
            plan: |_| {
                let mut p = ChaosPlan::none();
                p.explode_grad_cycles = vec![2];
                p
            },
            tweak: arm_sentinel,
            bit_exact: true,
        },
        Scenario {
            name: "nan_param",
            plan: |_| {
                let mut p = ChaosPlan::none();
                p.nan_param_cycles = vec![1];
                p
            },
            tweak: no_tweak,
            bit_exact: true,
        },
        Scenario {
            name: "worker_panic",
            plan: |_| {
                let mut p = ChaosPlan::none();
                p.panic_cycles = vec![1];
                p
            },
            tweak: no_tweak,
            bit_exact: true,
        },
        Scenario {
            // Every fault class in one run, on a fixed schedule.
            name: "mixed",
            plan: |_| {
                let mut p = ChaosPlan::none();
                p.panic_cycles = vec![1];
                p.nan_grad_cycles = vec![1];
                p.explode_grad_cycles = vec![2];
                p.nan_param_cycles = vec![3];
                p
            },
            tweak: arm_sentinel,
            bit_exact: true,
        },
        Scenario {
            // The seed-scheduled round-robin of the chaos suite.
            name: "seeded",
            plan: |cycles| ChaosPlan::seeded(23, cycles, 4),
            tweak: no_tweak,
            bit_exact: false,
        },
    ]
}

fn base_config(sink: &TelemetrySink, tweak: fn(&mut ExplorerConfig)) -> ExplorerConfig {
    let mut c = ExplorerConfig::fast();
    c.max_steps = 30;
    c.telemetry = sink.clone();
    tweak(&mut c);
    c
}

/// Per-cycle outcome signature used for the 1-thread bit-identity check.
fn sig(report: &rlnoc_core::ExploreReport<RouterlessEnv>) -> Vec<(usize, usize, bool, f64)> {
    report
        .designs
        .iter()
        .map(|d| (d.cycle, d.steps, d.successful, d.final_return))
        .collect()
}

fn run(
    config: &ExplorerConfig,
    threads: usize,
    cycles: usize,
) -> rlnoc_core::SupervisedReport<RouterlessEnv> {
    explore_parallel_supervised(
        &env3(),
        config,
        threads,
        cycles,
        SEED,
        SupervisionConfig::default(),
    )
    .expect("every scenario must recover, not fail the run")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cycles = if smoke { 4 } else { 8 };
    let sink = TelemetrySink::enabled();

    let mut rows = Vec::new();
    for threads in [1usize, 8] {
        for sc in scenarios() {
            // The clean baseline this faulted run must replay exactly:
            // same policy tweaks, no chaos. Guards against false trips
            // (an armed sentinel rejecting a sane norm) at the same time.
            let baseline = run(&base_config(&sink, sc.tweak), threads, cycles);
            assert_eq!(
                baseline.supervision.anomalies, 0,
                "{} at {threads} threads: a fault-free run must not trip the checks",
                sc.name
            );

            let mut cfg = base_config(&sink, sc.tweak);
            cfg.resilience.chaos = Some(ChaosInjector::new((sc.plan)(cycles)));
            let chaotic = run(&cfg, threads, cycles);
            let s_ = &chaotic.supervision;

            assert_eq!(
                chaotic.report.cycles_run, cycles,
                "{} at {threads} threads: every requested cycle must finish",
                sc.name
            );
            let fired = s_.anomalies + s_.panics;
            assert!(
                fired > 0,
                "{} at {threads} threads: the injected fault never fired",
                sc.name
            );
            let identical = sig(&chaotic.report) == sig(&baseline.report)
                && chaotic.report.train_history == baseline.report.train_history;
            if threads == 1 && sc.bit_exact {
                assert!(
                    identical,
                    "{} at 1 thread: recovery must be bit-identical to the clean run",
                    sc.name
                );
            }
            rows.push(vec![
                s(sc.name),
                s(threads),
                s(cycles),
                s(s_.anomalies),
                s(s_.rollbacks),
                s(s_.panics),
                s(s_.respawns),
                s(s_.quarantined),
                s(identical),
            ]);
        }
    }

    print_table(
        "Chaos scenario matrix (recovered runs)",
        &[
            "scenario",
            "threads",
            "cycles",
            "anomalies",
            "rollbacks",
            "panics",
            "respawns",
            "quarantined",
            "bit_identical",
        ],
        &rows,
    );
    write_telemetry("exp_chaos", &sink);
    let health = rlnoc_telemetry::report::resilience_summary(&sink.events());
    assert!(
        !health.clean(),
        "the injected faults must show up in telemetry"
    );
    println!(
        "resilience counters: {} anomalies ({} rollbacks), {} panics ({} respawned), \
         {} quarantined, {} workers lost",
        health.anomalies,
        health.rollbacks,
        health.panics,
        health.respawns,
        health.quarantined,
        health.workers_lost
    );
    println!("chaos matrix OK: every scenario recovered at 1 and 8 threads");
}
