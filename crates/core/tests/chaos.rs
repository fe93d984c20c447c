//! The deterministic chaos harness: every injected fault scenario must
//! either end in the expected typed error or, for a damaged checkpoint,
//! recover to the bit-identical clean-run result — never a hang, never a
//! silent wrong answer.
//!
//! Single-thread runs are fully deterministic, so a stop there is asserted
//! as *bit identity* of its partial results with the clean run's earlier
//! cycles (per-cycle outcomes and the training history). Multi-thread runs
//! interleave nondeterministically even without faults, so at 8 threads the
//! suite asserts the typed stop and liveness instead.

use rlnoc_core::checkpoint::prev_path;
use rlnoc_core::parallel::{
    explore_parallel, explore_parallel_checkpointed, explore_parallel_supervised,
};
use rlnoc_core::{
    AnomalyKind, AnomalyReport, ChaosInjector, ChaosPlan, CheckpointConfig, ExploreCheckpoint,
    ExploreError, ExploreReport, ExplorerConfig, RouterlessEnv, SupervisedReport,
};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::Grid;

fn env3() -> RouterlessEnv {
    RouterlessEnv::new(Grid::square(3).unwrap(), 4)
}

fn quick_config() -> ExplorerConfig {
    let mut c = ExplorerConfig::fast();
    c.max_steps = 30;
    c
}

/// Config with `plan` armed (and any other tweaks applied by `tweak`).
fn chaos_config(plan: ChaosPlan, tweak: impl FnOnce(&mut ExplorerConfig)) -> ExplorerConfig {
    let mut c = quick_config();
    c.chaos = Some(ChaosInjector::new(plan));
    tweak(&mut c);
    c
}

/// A plan that panics at each of `cycles`.
fn panic_plan(cycles: Vec<usize>) -> ChaosPlan {
    ChaosPlan {
        panic_cycles: cycles,
        ..ChaosPlan::default()
    }
}

/// The full per-cycle outcome signature used for bit-identity assertions.
fn sig(report: &ExploreReport<RouterlessEnv>) -> Vec<(usize, usize, bool, f64)> {
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
    seed: u64,
) -> SupervisedReport<RouterlessEnv> {
    explore_parallel_supervised(&env3(), config, threads, cycles, seed)
        .expect("a clean run must complete")
}

#[test]
fn worker_panic_stops_with_typed_error() {
    // At one thread the run is deterministic: a panic at cycle k stops it
    // with exactly the clean run's cycles < k, and the panicking worker
    // counts it once.
    let clean = run(&quick_config(), 1, 4, 11);
    let telemetry = TelemetrySink::enabled();
    let cfg = chaos_config(panic_plan(vec![2]), |c| c.telemetry = telemetry.clone());
    let err = explore_parallel_supervised(&env3(), &cfg, 1, 4, 11)
        .expect_err("a worker panic must stop the run");
    match err {
        ExploreError::Panicked {
            worker,
            cycle,
            message,
            partial,
            requested,
        } => {
            assert_eq!((worker, cycle, requested), (0, 2, 4));
            assert_eq!(message, "chaos: injected worker panic at cycle 2");
            assert_eq!(sig(&partial.report), sig(&clean.report)[..2]);
            assert_eq!(
                partial.report.train_history,
                clean.report.train_history[..2]
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert_eq!(telemetry.counter_total("worker.panics"), 1);
}

#[test]
fn worker_panic_stops_8_threads_without_hanging() {
    // Eight workers race for the cycles. The first panic recorded stops the
    // pool (a worker that already claimed a later panic cycle may panic
    // too, but only one stop is reported), the run returns, and no design
    // carries a panicked cycle.
    let cfg = chaos_config(panic_plan(vec![2, 5, 9]), |_| {});
    let err = explore_parallel_supervised(&env3(), &cfg, 8, 12, 29)
        .expect_err("a worker panic must stop the run");
    match err {
        ExploreError::Panicked {
            cycle,
            partial,
            requested,
            ..
        } => {
            assert_eq!(requested, 12);
            assert!(
                [2, 5, 9].contains(&cycle),
                "stop names a panic cycle, got {cycle}"
            );
            assert!(partial.report.cycles_run < 12);
            assert_eq!(partial.report.cycles_run, partial.report.designs.len());
            assert!(
                partial
                    .report
                    .designs
                    .iter()
                    .all(|d| ![2, 5, 9].contains(&d.cycle)),
                "a panicked cycle must not be reported"
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
#[should_panic(
    expected = "panicked at cycle 1 after 1 of 3 cycles: chaos: injected worker panic at cycle 1"
)]
fn explore_parallel_panics_with_the_stop_message() {
    let cfg = chaos_config(panic_plan(vec![1]), |_| {});
    let _ = explore_parallel(&env3(), &cfg, 1, 3, 11);
}

#[test]
fn failed_batch_never_reaches_disk() {
    // Checkpoint every 2 cycles and panic at cycle 2, the first cycle of the
    // second batch: the stop must leave the batch-1 checkpoint in place, and
    // a clean resume must replay the uninterrupted run.
    let base = std::env::temp_dir().join(format!("rlnoc_chaos_stop_{}", std::process::id()));
    let stopped = base.with_extension("stopped.json");
    let clean = base.with_extension("clean.json");
    for p in [&stopped, &clean] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(prev_path(p));
    }
    let env = env3();
    let full = explore_parallel_checkpointed(
        &env,
        &quick_config(),
        1,
        6,
        17,
        &CheckpointConfig::new(&clean, 2),
    )
    .unwrap();

    let ckpt = CheckpointConfig::new(&stopped, 2);
    let cfg = chaos_config(panic_plan(vec![2]), |_| {});
    let err = explore_parallel_checkpointed(&env, &cfg, 1, 6, 17, &ckpt)
        .expect_err("a worker panic must stop the run");
    match err {
        ExploreError::Panicked {
            cycle,
            partial,
            requested,
            ..
        } => {
            assert_eq!((cycle, requested), (2, 6));
            assert_eq!(sig(&partial.report), sig(&full.report)[..2]);
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let cp = ExploreCheckpoint::<RouterlessEnv>::load(&stopped).unwrap();
    assert_eq!(cp.cycles_done, 2, "the stopped batch must not be saved");

    let resumed = explore_parallel_checkpointed(&env, &quick_config(), 1, 6, 17, &ckpt).unwrap();
    assert_eq!(resumed.resumed_from, 2);
    assert_eq!(sig(&resumed.report), sig(&full.report)[2..]);
    assert_eq!(resumed.report.train_history, full.report.train_history[2..]);

    for p in [&stopped, &clean] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(prev_path(p));
    }
}

#[test]
fn nan_grad_stops_with_typed_error() {
    // At one thread the run is deterministic: a NaN gradient at cycle k
    // stops it with exactly the clean run's cycles < k.
    let clean = run(&quick_config(), 1, 4, 11);
    let telemetry = TelemetrySink::enabled();
    let plan = ChaosPlan {
        nan_grad_cycles: vec![2],
        ..ChaosPlan::default()
    };
    let cfg = chaos_config(plan.clone(), |c| c.telemetry = telemetry.clone());
    let err = explore_parallel_supervised(&env3(), &cfg, 1, 4, 11)
        .expect_err("a NaN gradient must stop the run");
    match err {
        ExploreError::Numerical {
            report,
            partial,
            requested,
        } => {
            assert_eq!(requested, 4);
            assert_eq!(
                report,
                AnomalyReport {
                    kind: AnomalyKind::NonFiniteGrad { tensor: 0 },
                    worker: 0,
                    cycle: 2,
                }
            );
            assert_eq!(sig(&partial.report), sig(&clean.report)[..2]);
            assert_eq!(
                partial.report.train_history,
                clean.report.train_history[..2]
            );
        }
        other => panic!("expected Numerical, got {other:?}"),
    }
    assert_eq!(telemetry.counter_total("anomaly.nonfinite_grad"), 1);
    assert_eq!(telemetry.counter_total("anomaly.total"), 1);

    // At two and eight threads the interleaving is free, but the pool
    // still stops with the typed error instead of hanging or finishing,
    // and the one poisoned update is counted once.
    for threads in [2, 8] {
        let telemetry = TelemetrySink::enabled();
        let cfg = chaos_config(plan.clone(), |c| c.telemetry = telemetry.clone());
        let err = explore_parallel_supervised(&env3(), &cfg, threads, 6, 11)
            .expect_err("a NaN gradient must stop the run");
        match err {
            ExploreError::Numerical {
                report, partial, ..
            } => {
                assert_eq!(report.cycle, 2);
                assert!(partial.report.cycles_run < 6);
                assert!(partial.report.designs.iter().all(|d| d.cycle != 2));
            }
            other => panic!("expected Numerical, got {other:?}"),
        }
        assert_eq!(telemetry.counter_total("anomaly.total"), 1);
    }
}

#[test]
fn torn_checkpoint_recovers_from_prev_bit_identically() {
    let base = std::env::temp_dir().join(format!("rlnoc_chaos_ckpt_{}", std::process::id()));
    let torn = base.with_extension("torn.json");
    let clean = base.with_extension("clean.json");
    for p in [&torn, &clean] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(prev_path(p));
    }
    let env = env3();

    // Baseline: one uninterrupted 6-cycle checkpointed run.
    let full = explore_parallel_checkpointed(
        &env,
        &quick_config(),
        1,
        6,
        17,
        &CheckpointConfig::new(&clean, 2),
    )
    .unwrap();

    // Crashed run: 3 cycles saved (checkpoints at 2 and 3, `.prev` holds
    // the cycles_done=2 generation), then the primary write is torn.
    let ckpt = CheckpointConfig::new(&torn, 2);
    explore_parallel_checkpointed(&env, &quick_config(), 1, 3, 17, &ckpt).unwrap();
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

    // Resume: the torn primary is rejected, `.prev` (cycles_done=2) is
    // recovered, and the remaining cycles replay bit-identically.
    let telemetry = TelemetrySink::enabled();
    let mut cfg = quick_config();
    cfg.telemetry = telemetry.clone();
    let resumed = explore_parallel_checkpointed(&env, &cfg, 1, 6, 17, &ckpt).unwrap();
    assert_eq!(resumed.resumed_from, 2);
    assert_eq!(telemetry.counter_total("checkpoint.recovered_prev"), 1);
    let replayed = sig(&resumed.report);
    let baseline: Vec<_> = sig(&full.report)
        .into_iter()
        .filter(|(c, ..)| *c >= 2)
        .collect();
    assert_eq!(replayed, baseline, "recovered run replays bit-identically");
    let cp = ExploreCheckpoint::<RouterlessEnv>::load(&torn).unwrap();
    assert_eq!(cp.cycles_done, 6);

    // Both generations damaged: a typed error, never a panic or a silent
    // fresh start.
    std::fs::write(&torn, b"RLNOC-CKPT v2 9999\ngarbage").unwrap();
    std::fs::write(prev_path(&torn), b"RLNOC-CKPT v2 9999\ngarbage").unwrap();
    let err = explore_parallel_checkpointed(&env, &quick_config(), 1, 6, 17, &ckpt)
        .expect_err("two damaged generations cannot silently restart");
    assert!(matches!(err, ExploreError::Checkpoint(_)), "got {err:?}");

    for p in [&torn, &clean] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(prev_path(p));
    }
}
