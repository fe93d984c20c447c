//! Chaos harness experiment: the parallel learner under injected faults.
//!
//! Runs the parallel learner through two fault scenarios, a worker panic
//! and a NaN gradient, at 1 and 8 threads, and verifies the stop contract
//! dynamically:
//!
//! - **A worker panic stops the run** with `ExploreError::Panicked`, naming
//!   the panicked cycle.
//! - **A NaN gradient stops the run** with `ExploreError::Numerical`,
//!   naming the poisoned cycle.
//! - At 1 thread the partial results of either stop must be exactly the
//!   clean run's cycles before the faulted one (outcomes and training
//!   history). At 8 threads interleaving is nondeterministic even without
//!   faults, so the typed stop is what is asserted.
//!
//! `--smoke` shortens the runs for CI. Anomaly and panic counters go to
//! `results/exp_chaos.telemetry.jsonl`.

use rlnoc_bench::{print_table, s, write_telemetry};
use rlnoc_core::parallel::explore_parallel_supervised;
use rlnoc_core::{
    ChaosInjector, ChaosPlan, ExploreError, ExplorerConfig, RouterlessEnv, SupervisedReport,
};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::Grid;

const SEED: u64 = 11;
/// The cycle every scenario faults.
const FAULT_CYCLE: usize = 1;

fn env3() -> RouterlessEnv {
    RouterlessEnv::new(Grid::square(3).expect("3x3 grid is within bounds"), 4)
}

/// One named fault scenario: the plan to inject and the stop it must end
/// in.
struct Scenario {
    name: &'static str,
    plan: ChaosPlan,
    cause: &'static str,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "worker_panic",
            plan: ChaosPlan {
                panic_cycles: vec![FAULT_CYCLE],
                ..ChaosPlan::default()
            },
            cause: "panicked",
        },
        Scenario {
            name: "nan_grad",
            plan: ChaosPlan {
                nan_grad_cycles: vec![FAULT_CYCLE],
                ..ChaosPlan::default()
            },
            cause: "numerical",
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

/// The stop's cause, its cycle and its partial results.
fn stop_of(
    err: ExploreError<RouterlessEnv>,
) -> (&'static str, usize, SupervisedReport<RouterlessEnv>) {
    match err {
        ExploreError::Panicked { cycle, partial, .. } => ("panicked", cycle, *partial),
        ExploreError::Numerical {
            report, partial, ..
        } => ("numerical", report.cycle, *partial),
        other => panic!("expected a typed stop, got: {other}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cycles = if smoke { 4 } else { 8 };
    let sink = TelemetrySink::enabled();

    let mut rows = Vec::new();
    for threads in [1usize, 8] {
        // The clean run every faulted run is compared with.
        let baseline =
            explore_parallel_supervised(&env3(), &base_config(&sink), threads, cycles, SEED)
                .unwrap_or_else(|e| panic!("the clean run at {threads} threads failed: {e}"));
        for sc in scenarios() {
            let mut cfg = base_config(&sink);
            cfg.chaos = Some(ChaosInjector::new(sc.plan));
            let err = explore_parallel_supervised(&env3(), &cfg, threads, cycles, SEED)
                .err()
                .unwrap_or_else(|| panic!("{} at {threads} threads: the run must stop", sc.name));
            let (cause, cycle, partial) = stop_of(err);
            assert_eq!(
                (cause, cycle),
                (sc.cause, FAULT_CYCLE),
                "{} at {threads} threads: the stop names its cause and the faulted cycle",
                sc.name
            );
            assert!(
                partial
                    .report
                    .designs
                    .iter()
                    .all(|d| d.cycle != FAULT_CYCLE),
                "{} at {threads} threads: the faulted cycle must not be reported",
                sc.name
            );
            let identical = sig(&partial.report) == sig(&baseline.report)[..FAULT_CYCLE]
                && partial.report.train_history == baseline.report.train_history[..FAULT_CYCLE];
            if threads == 1 {
                assert!(
                    identical,
                    "{} at 1 thread: the kept cycles must be bit-identical to the clean run",
                    sc.name
                );
            }
            rows.push(vec![
                s(sc.name),
                s(threads),
                s(cycles),
                s(cause),
                s(cycle),
                s(partial.report.cycles_run),
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
            "stop_cause",
            "stop_cycle",
            "completed",
            "bit_identical_prefix",
        ],
        &rows,
    );
    write_telemetry("exp_chaos", &sink);
    let health = rlnoc_telemetry::report::resilience_summary(&sink.events());
    // One stop per scenario per thread count, each counted by its worker.
    assert_eq!(
        (health.anomalies, health.panics),
        (2, 2),
        "every injected fault must show up in telemetry exactly once"
    );
    println!(
        "resilience counters: {} anomalies, {} panics",
        health.anomalies, health.panics
    );
    println!(
        "chaos matrix OK: panics and NaN gradients stopped with typed errors at 1 and 8 threads"
    );
}
