//! `rlnoc_cli` end to end: bad simulator inputs exit with code 1 and the
//! typed `SimError` on stderr, and a default sweep of a small design
//! succeeds.

use rlnoc_sim::SimError;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlnoc_cli"))
        .args(args)
        .output()
        .expect("rlnoc_cli runs")
}

/// Writes a greedy 4x4 design with `design --out` and returns its path.
fn design_4x4(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let out = cli(&[
        "design",
        "--size",
        "4",
        "--cap",
        "6",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "design failed: {out:?}");
    path
}

#[test]
fn invalid_inputs_exit_1_with_the_sim_error() {
    let design = design_4x4("cli_invalid_4x4.json");
    let file = design.to_str().unwrap();
    let cases = [
        (
            vec!["sweep", file, "--step", "0"],
            SimError::InvalidRate { rate: 0.0 },
        ),
        (
            vec!["simulate", file, "--rate", "7"],
            SimError::InvalidRate { rate: 7.0 },
        ),
        (
            vec!["simulate", file, "--rate", "0"],
            SimError::InvalidRate { rate: 0.0 },
        ),
        (
            vec!["simulate", file, "--cycles", "0"],
            SimError::ZeroCycles { field: "measure" },
        ),
    ];
    for (args, err) in cases {
        let out = cli(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&err.to_string()),
            "{args:?}: stderr {stderr:?} lacks {err}"
        );
    }
}

#[test]
fn default_sweep_succeeds() {
    let design = design_4x4("cli_sweep_4x4.json");
    let out = cli(&["sweep", design.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("rate      latency   accepted"));
    assert!(stdout.contains("saturation"));
}
