//! Checkpoint-resume gap coverage: a run interrupted at a checkpoint
//! boundary and resumed must match an uninterrupted same-seed run — same
//! designs, same best, same parameter generation — because
//! `explore_parallel_checkpointed` executes in batches whose inputs are a
//! pure function of `(seed, cycles_done, checkpointed parameters)`.

use rlnoc::drl::checkpoint::{CheckpointConfig, ExploreCheckpoint};
use rlnoc::drl::explorer::ExploreReport;
use rlnoc::drl::parallel::explore_parallel_checkpointed;
use rlnoc::drl::routerless::RouterlessEnv;
use rlnoc::drl::ExplorerConfig;
use rlnoc::telemetry::TelemetrySink;
use rlnoc::topology::Grid;
use std::path::PathBuf;

fn quick_config() -> ExplorerConfig {
    let mut c = ExplorerConfig::fast();
    c.max_steps = 12;
    c
}

fn outcomes(report: &ExploreReport<RouterlessEnv>) -> Vec<(usize, usize, bool, f64)> {
    report
        .designs
        .iter()
        .map(|d| (d.cycle, d.steps, d.successful, d.final_return))
        .collect()
}

fn temp_ckpt(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "rlnoc_resume_gap_{}_{tag}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn resumed_run_matches_uninterrupted_run() {
    let env = RouterlessEnv::new(Grid::square(3).unwrap(), 6);
    let seed = 23;
    let total = 6;

    // Uninterrupted: all 6 cycles in one call, checkpointing every 2.
    let full_path = temp_ckpt("full");
    let full_sink = TelemetrySink::enabled();
    let mut full_config = quick_config();
    full_config.telemetry = full_sink.clone();
    let full = explore_parallel_checkpointed(
        &env,
        &full_config,
        1,
        total,
        seed,
        &CheckpointConfig::new(&full_path, 2),
    )
    .expect("uninterrupted run");

    // Interrupted: 4 cycles, then a fresh call resumes to 6 from disk.
    let resumed_path = temp_ckpt("resumed");
    let ckpt = CheckpointConfig::new(&resumed_path, 2);
    let first =
        explore_parallel_checkpointed(&env, &quick_config(), 1, 4, seed, &ckpt).expect("first leg");
    assert_eq!(first.resumed_from, 0);
    assert_eq!(first.report.cycles_run, 4);

    let resumed_sink = TelemetrySink::enabled();
    let mut resumed_config = quick_config();
    resumed_config.telemetry = resumed_sink.clone();
    let second = explore_parallel_checkpointed(&env, &resumed_config, 1, total, seed, &ckpt)
        .expect("resumed leg");
    assert_eq!(second.resumed_from, 4);
    assert_eq!(second.report.cycles_run, 2);

    // The resumed leg's cycles are exactly the uninterrupted run's tail.
    let full_outcomes = outcomes(&full.report);
    let mut stitched = outcomes(&first.report);
    stitched.extend(outcomes(&second.report));
    assert_eq!(
        full_outcomes, stitched,
        "interrupted+resumed must replay the uninterrupted run exactly"
    );

    // The final checkpoints agree: cycle count, parameter generation, and
    // best design.
    let cp_full = ExploreCheckpoint::<RouterlessEnv>::load(&full_path).expect("full checkpoint");
    let cp_resumed =
        ExploreCheckpoint::<RouterlessEnv>::load(&resumed_path).expect("resumed checkpoint");
    assert_eq!(cp_full.cycles_done, total);
    assert_eq!(cp_resumed.cycles_done, total);
    assert_eq!(cp_full.param_generation, cp_resumed.param_generation);
    let best_key = |cp: &ExploreCheckpoint<RouterlessEnv>| {
        cp.best
            .as_ref()
            .map(|b| (b.cycle, b.steps, b.final_return.to_bits()))
    };
    assert_eq!(best_key(&cp_full), best_key(&cp_resumed));

    // Telemetry generation counters reconcile across the gap: the
    // uninterrupted trace covers all 6 cycles, the resumed trace its 2,
    // and both runs end at the same parameter generation.
    assert_eq!(full_sink.counter_total("explore.cycles"), total as u64);
    assert_eq!(resumed_sink.counter_total("explore.cycles"), 2);
    assert_eq!(full_sink.counter_total("checkpoint.saves"), 3);
    assert_eq!(resumed_sink.counter_total("checkpoint.saves"), 1);
    let gen = |sink: &TelemetrySink| {
        sink.gauge_total("train.param_generation")
            .expect("generation gauge")
            .max
    };
    assert_eq!(gen(&full_sink), cp_full.param_generation as f64);
    assert_eq!(gen(&resumed_sink), cp_resumed.param_generation as f64);

    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&resumed_path);
}
