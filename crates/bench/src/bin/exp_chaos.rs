//! Chaos harness experiment: the supervised learner under injected faults.
//!
//! Runs the supervised parallel learner through a scenario matrix — a
//! worker panic, a seed-scheduled set of panics, and a NaN gradient — at
//! 1 and 8 threads, and verifies the supervision contract dynamically:
//!
//! - **Panics are absorbed**: every requested cycle finishes. At 1 thread
//!   the per-cycle outcomes and training history must equal the clean
//!   run's exactly; at 8 threads interleaving is nondeterministic even
//!   without faults, so completion is what is asserted.
//! - **A NaN gradient stops the run** with `ExploreError::Numerical`. At
//!   1 thread the partial results must be exactly the clean run's cycles
//!   before the faulted one.
//!
//! `--smoke` shortens the runs for CI. Anomaly and panic counters go to
//! `results/exp_chaos.telemetry.jsonl`.

use rlnoc_bench::{print_table, s, write_telemetry};
use rlnoc_core::parallel::explore_parallel_supervised;
use rlnoc_core::{
    ChaosInjector, ChaosPlan, ExploreError, ExplorerConfig, RouterlessEnv, SupervisedReport,
    SupervisionConfig,
};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::Grid;

const SEED: u64 = 11;
/// The cycle the `nan_grad` scenario poisons.
const NAN_CYCLE: usize = 1;

fn env3() -> RouterlessEnv {
    RouterlessEnv::new(Grid::square(3).expect("3x3 grid is within bounds"), 4)
}

/// One named fault scenario: the plan to inject and whether it must stop
/// the run (rather than be recovered).
struct Scenario {
    name: &'static str,
    plan: fn(usize) -> ChaosPlan,
    stops: bool,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "worker_panic",
            plan: |_| ChaosPlan {
                panic_cycles: vec![1],
                ..ChaosPlan::default()
            },
            stops: false,
        },
        Scenario {
            // The seed-scheduled panics of the chaos suite.
            name: "seeded",
            plan: |cycles| ChaosPlan::seeded(23, cycles, 2),
            stops: false,
        },
        Scenario {
            name: "nan_grad",
            plan: |_| ChaosPlan {
                nan_grad_cycles: vec![NAN_CYCLE],
                ..ChaosPlan::default()
            },
            stops: true,
        },
    ]
}

fn base_config(sink: &TelemetrySink) -> ExplorerConfig {
    let mut c = ExplorerConfig::fast();
    c.max_steps = 30;
    c.telemetry = sink.clone();
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
) -> Result<SupervisedReport<RouterlessEnv>, ExploreError<RouterlessEnv>> {
    explore_parallel_supervised(
        &env3(),
        config,
        threads,
        cycles,
        SEED,
        SupervisionConfig::default(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cycles = if smoke { 4 } else { 8 };
    let sink = TelemetrySink::enabled();

    let mut rows = Vec::new();
    for threads in [1usize, 8] {
        // The clean run every faulted run is compared with.
        let baseline = run(&base_config(&sink), threads, cycles)
            .unwrap_or_else(|e| panic!("the clean run at {threads} threads failed: {e}"));
        for sc in scenarios() {
            let injector = ChaosInjector::new((sc.plan)(cycles));
            let mut cfg = base_config(&sink);
            cfg.chaos = Some(injector.clone());
            let (outcome, out) = match (sc.stops, run(&cfg, threads, cycles)) {
                (false, Ok(out)) => {
                    assert_eq!(
                        out.report.cycles_run, cycles,
                        "{} at {threads} threads: every requested cycle must finish",
                        sc.name
                    );
                    ("recovered", out)
                }
                (
                    true,
                    Err(ExploreError::Numerical {
                        report, partial, ..
                    }),
                ) => {
                    assert_eq!(
                        report.cycle, NAN_CYCLE,
                        "{} at {threads} threads: the stop names the poisoned cycle",
                        sc.name
                    );
                    ("stopped", *partial)
                }
                (_, Ok(_)) => panic!("{} at {threads} threads: the run must stop", sc.name),
                (_, Err(e)) => panic!("{} at {threads} threads: unexpected error: {e}", sc.name),
            };
            assert!(
                injector.injected() > 0,
                "{} at {threads} threads: the injected fault never fired",
                sc.name
            );
            let kept = if sc.stops { NAN_CYCLE } else { cycles };
            let identical = sig(&out.report) == sig(&baseline.report)[..kept]
                && out.report.train_history == baseline.report.train_history[..kept];
            if threads == 1 {
                assert!(
                    identical,
                    "{} at 1 thread: the kept cycles must be bit-identical to the clean run",
                    sc.name
                );
            }
            let sup = &out.supervision;
            rows.push(vec![
                s(sc.name),
                s(threads),
                s(cycles),
                s(outcome),
                s(out.report.cycles_run),
                s(sup.panics),
                s(sup.respawns),
                s(identical),
            ]);
        }
    }

    print_table(
        "Chaos scenario matrix",
        &[
            "scenario",
            "threads",
            "cycles",
            "outcome",
            "completed",
            "panics",
            "respawns",
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
        "resilience counters: {} anomalies, {} panics ({} respawned), {} workers lost",
        health.anomalies, health.panics, health.respawns, health.workers_lost
    );
    println!("chaos matrix OK: panics recovered and NaN gradients stopped at 1 and 8 threads");
}
