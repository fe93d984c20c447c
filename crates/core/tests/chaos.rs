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
    AnomalyKind, ChaosInjector, ChaosPlan, CheckpointConfig, ExploreCheckpoint, ExploreError,
    ExploreReport, ExplorerConfig, ResilienceConfig, RouterlessEnv, SupervisionConfig,
};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::Grid;
use std::time::Duration;

fn env3() -> RouterlessEnv {
    RouterlessEnv::new(Grid::square(3).unwrap(), 4)
}

fn quick_config() -> ExplorerConfig {
    let mut c = ExplorerConfig::fast();
    c.max_steps = 30;
    c
}

/// Config with `plan` armed (and any policy tweaks applied by `tweak`).
fn chaos_config(plan: ChaosPlan, tweak: impl FnOnce(&mut ExplorerConfig)) -> ExplorerConfig {
    let mut c = quick_config();
    c.resilience.chaos = Some(ChaosInjector::new(plan));
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
fn clean_run_is_bit_identical_with_resilience_on_or_off() {
    let enabled = quick_config(); // resilience on by default, no chaos
    let mut disabled = quick_config();
    disabled.resilience = ResilienceConfig::disabled();

    let a = run(&enabled, 1, 4, 11);
    let b = run(&disabled, 1, 4, 11);
    assert_eq!(sig(&a.report), sig(&b.report));
    assert_eq!(a.report.train_history, b.report.train_history);
    assert_eq!(a.supervision.anomalies, 0);
    assert!(a.anomaly_log.is_empty());
}

#[test]
fn nan_grad_recovery_is_bit_identical() {
    let clean = run(&quick_config(), 1, 4, 11);

    let mut plan = ChaosPlan::none();
    plan.nan_grad_cycles = vec![1];
    let cfg = chaos_config(plan, |_| {});
    let chaotic = run(&cfg, 1, 4, 11);

    assert_eq!(sig(&clean.report), sig(&chaotic.report));
    assert_eq!(clean.report.train_history, chaotic.report.train_history);
    assert_eq!(chaotic.supervision.anomalies, 1);
    assert_eq!(chaotic.supervision.rollbacks, 0, "grads rejected pre-step");
    assert_eq!(chaotic.anomaly_log.len(), 1);
    assert!(matches!(
        chaotic.anomaly_log[0].kind,
        AnomalyKind::NonFiniteGrad { tensor: 0 }
    ));
    assert_eq!(chaotic.anomaly_log[0].cycle, 1);
}

#[test]
fn exploding_grad_recovery_is_bit_identical() {
    // Arm the EWMA sentinel from the very first observation so a
    // mid-run 1e12x gradient spike trips it.
    let arm = |c: &mut ExplorerConfig| {
        c.resilience.anomaly.ewma_warmup = 1;
        c.resilience.anomaly.ewma_mult = 1e3;
    };
    let mut clean_cfg = quick_config();
    arm(&mut clean_cfg);
    let clean = run(&clean_cfg, 1, 4, 11);
    assert_eq!(clean.supervision.anomalies, 0, "sane norms must not trip");

    let mut plan = ChaosPlan::none();
    plan.explode_grad_cycles = vec![2];
    let cfg = chaos_config(plan, arm);
    let chaotic = run(&cfg, 1, 4, 11);

    assert_eq!(sig(&clean.report), sig(&chaotic.report));
    assert_eq!(clean.report.train_history, chaotic.report.train_history);
    assert_eq!(chaotic.supervision.anomalies, 1);
    assert!(matches!(
        chaotic.anomaly_log[0].kind,
        AnomalyKind::ExplodingGradNorm { .. }
    ));
}

#[test]
fn nan_param_rollback_is_bit_identical() {
    let clean = run(&quick_config(), 1, 4, 11);

    let mut plan = ChaosPlan::none();
    plan.nan_param_cycles = vec![1];
    let cfg = chaos_config(plan, |_| {});
    let chaotic = run(&cfg, 1, 4, 11);

    assert_eq!(sig(&clean.report), sig(&chaotic.report));
    assert_eq!(clean.report.train_history, chaotic.report.train_history);
    assert_eq!(chaotic.supervision.anomalies, 1);
    assert_eq!(
        chaotic.supervision.rollbacks, 1,
        "a poisoned parameter forces a snapshot rollback"
    );
    assert!(matches!(
        chaotic.anomaly_log[0].kind,
        AnomalyKind::NonFiniteParam { .. }
    ));
}

#[test]
fn worker_panic_recovery_is_bit_identical() {
    // The RNG escrow hands the respawned incarnation the exact stream the
    // panicked one was on, so even a panic recovers bit-identically.
    let clean = run(&quick_config(), 1, 4, 11);

    let mut plan = ChaosPlan::none();
    plan.panic_cycles = vec![1];
    let cfg = chaos_config(plan, |_| {});
    let chaotic = run(&cfg, 1, 4, 11);

    assert_eq!(sig(&clean.report), sig(&chaotic.report));
    assert_eq!(clean.report.train_history, chaotic.report.train_history);
    assert_eq!(chaotic.supervision.panics, 1);
    assert_eq!(chaotic.supervision.respawns, 1);
    assert_eq!(chaotic.supervision.workers_lost, 0);
}

#[test]
fn persistent_anomaly_quarantines_with_typed_error() {
    let mut plan = ChaosPlan::none();
    plan.persistent_nan_grad_cycles = vec![1];
    let telemetry = TelemetrySink::enabled();
    let cfg = chaos_config(plan, |c| {
        c.resilience.anomaly.max_retries = 2;
        c.resilience.anomaly.backoff_base = Duration::from_millis(1);
        c.telemetry = telemetry.clone();
    });
    let err = explore_parallel_supervised(&env3(), &cfg, 1, 4, 11, SupervisionConfig::default())
        .expect_err("a persistent fault must end in a typed error");
    match err {
        ExploreError::Numerical {
            report,
            partial,
            requested,
        } => {
            assert_eq!(requested, 4);
            assert!(matches!(report.kind, AnomalyKind::NonFiniteGrad { .. }));
            assert_eq!(report.cycle, 1);
            assert_eq!(report.consecutive, 3, "initial attempt + 2 retries");
            assert_eq!(partial.supervision.quarantined, 1);
            assert_eq!(partial.supervision.anomalies, 3);
            assert_eq!(
                partial.report.cycles_run, 1,
                "cycle 0 completed before the quarantine"
            );
            assert_eq!(partial.anomaly_log.len(), 3);
        }
        other => panic!("expected Numerical, got {other:?}"),
    }
    assert_eq!(telemetry.counter_total("anomaly.nonfinite_grad"), 3);
    assert_eq!(telemetry.counter_total("anomaly.total"), 3);
    assert_eq!(telemetry.counter_total("worker.quarantined"), 1);
}

#[test]
fn seeded_chaos_suite_completes_at_8_threads() {
    // A mixed seeded fault schedule at full thread count: the contract
    // here is liveness and accounting — every cycle completes exactly
    // once, nothing hangs, and the run reports what it absorbed.
    let injector = ChaosInjector::new(ChaosPlan::seeded(23, 12, 5));
    let mut cfg = quick_config();
    cfg.resilience.chaos = Some(injector.clone());
    cfg.resilience.anomaly.ewma_warmup = 1;
    let out = explore_parallel_supervised(&env3(), &cfg, 8, 12, 29, SupervisionConfig::default())
        .expect("a recoverable schedule must complete");
    assert_eq!(out.report.cycles_run, 12);
    let mut cycles: Vec<_> = out.report.designs.iter().map(|d| d.cycle).collect();
    cycles.sort_unstable();
    assert_eq!(cycles, (0..12).collect::<Vec<_>>());
    assert!(injector.injected() > 0, "the schedule actually fired");
    assert_eq!(out.supervision.panics, 1, "one panic cycle in the plan");
    assert_eq!(out.supervision.workers_lost, 0);
    assert_eq!(out.supervision.quarantined, 0);
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
