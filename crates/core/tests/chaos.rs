//! The deterministic chaos harness: every injected fault scenario must
//! either recover to the bit-identical clean-run result or fail with the
//! expected typed error — never a hang, never a silent wrong answer.
//!
//! Single-thread runs are fully deterministic, so recovery there is
//! asserted as *bit identity* (per-cycle outcomes and the training
//! history). Multi-thread runs interleave nondeterministically even
//! without faults, so at 8 threads the suite asserts completion and
//! accounting instead.

use rlnoc_core::checkpoint::prev_path;
use rlnoc_core::parallel::{explore_parallel_checkpointed, explore_parallel_supervised};
use rlnoc_core::{
    AnomalyKind, AnomalyReport, ChaosInjector, ChaosPlan, CheckpointConfig, ExploreCheckpoint,
    ExploreError, ExploreReport, ExplorerConfig, RouterlessEnv, SupervisionConfig,
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
) -> rlnoc_core::SupervisedReport<RouterlessEnv> {
    explore_parallel_supervised(
        &env3(),
        config,
        threads,
        cycles,
        seed,
        SupervisionConfig::default(),
    )
    .expect("scenario must recover, not fail")
}

#[test]
fn worker_panic_recovery_is_bit_identical() {
    // The RNG escrow hands the respawned incarnation the exact stream the
    // panicked one was on, so even a panic recovers bit-identically.
    let clean = run(&quick_config(), 1, 4, 11);

    let plan = ChaosPlan {
        panic_cycles: vec![1],
        ..ChaosPlan::default()
    };
    let cfg = chaos_config(plan, |_| {});
    let chaotic = run(&cfg, 1, 4, 11);

    assert_eq!(sig(&clean.report), sig(&chaotic.report));
    assert_eq!(clean.report.train_history, chaotic.report.train_history);
    assert_eq!(chaotic.supervision.panics, 1);
    assert_eq!(chaotic.supervision.respawns, 1);
    assert_eq!(chaotic.supervision.workers_lost, 0);
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
    let err = explore_parallel_supervised(&env3(), &cfg, 1, 4, 11, SupervisionConfig::default())
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

    // At two threads the interleaving is free, but the pool still stops
    // with the typed error instead of hanging or finishing.
    let cfg = chaos_config(plan, |_| {});
    let err = explore_parallel_supervised(&env3(), &cfg, 2, 6, 11, SupervisionConfig::default())
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
}

#[test]
fn seeded_chaos_suite_completes_at_8_threads() {
    // A seeded panic schedule at full thread count: the contract here is
    // liveness and accounting — every cycle completes exactly once,
    // nothing hangs, and the run reports what it absorbed. The respawn
    // budget covers every scheduled panic, so no worker can be lost
    // whichever cycles it happens to claim.
    let plan = ChaosPlan::seeded(23, 12, 5);
    let injector = ChaosInjector::new(plan.clone());
    let mut cfg = quick_config();
    cfg.chaos = Some(injector.clone());
    let supervision = SupervisionConfig {
        max_respawns_per_worker: plan.panic_cycles.len(),
    };
    let out = explore_parallel_supervised(&env3(), &cfg, 8, 12, 29, supervision)
        .expect("a recoverable schedule must complete");
    assert_eq!(out.report.cycles_run, 12);
    let mut cycles: Vec<_> = out.report.designs.iter().map(|d| d.cycle).collect();
    cycles.sort_unstable();
    assert_eq!(cycles, (0..12).collect::<Vec<_>>());
    assert_eq!(injector.injected(), 5, "the whole schedule fired");
    assert_eq!(out.supervision.panics, 5);
    assert_eq!(out.supervision.respawns, 5);
    assert_eq!(out.supervision.workers_lost, 0);
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
    let sup = SupervisionConfig::default();

    // Baseline: one uninterrupted 6-cycle checkpointed run.
    let full = explore_parallel_checkpointed(
        &env,
        &quick_config(),
        1,
        6,
        17,
        sup,
        &CheckpointConfig::new(&clean, 2),
    )
    .unwrap();

    // Crashed run: 3 cycles saved (checkpoints at 2 and 3, `.prev` holds
    // the cycles_done=2 generation), then the primary write is torn.
    let ckpt = CheckpointConfig::new(&torn, 2);
    explore_parallel_checkpointed(&env, &quick_config(), 1, 3, 17, sup, &ckpt).unwrap();
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

    // Resume: the torn primary is rejected, `.prev` (cycles_done=2) is
    // recovered, and the remaining cycles replay bit-identically.
    let telemetry = TelemetrySink::enabled();
    let mut cfg = quick_config();
    cfg.telemetry = telemetry.clone();
    let resumed = explore_parallel_checkpointed(&env, &cfg, 1, 6, 17, sup, &ckpt).unwrap();
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
    let err = explore_parallel_checkpointed(&env, &quick_config(), 1, 6, 17, sup, &ckpt)
        .expect_err("two damaged generations cannot silently restart");
    assert!(matches!(err, ExploreError::Checkpoint(_)), "got {err:?}");

    for p in [&torn, &clean] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(prev_path(p));
    }
}
