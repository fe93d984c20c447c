//! Machine-readable simulator throughput snapshot.
//!
//! Times the allocation-free cycle kernels (`RouterlessSim`, `MeshSim`)
//! against the retained seed-faithful reference kernels
//! (`rlnoc_sim::reference`) at the paper's grid sizes under low and
//! near-saturation load, then times a full 8x8 multi-pattern sweep on the
//! old stack (serial `latency_sweep` over the reference kernel) vs the new
//! one (`SweepEngine::sweep_many` over the optimized kernel). The sweep
//! comparison asserts bit-identical `SweepResult`s across reference vs
//! optimized and serial vs parallel before reporting the speedup, so the
//! number is apples-to-apples by construction. Every timing is repeated
//! (one warm-up, then at least five runs in full mode) and reported as
//! its median with a `_spread`: the interquartile range over the median.
//! Both kernels of a row run through the same driver, `run_synthetic`,
//! so a driver change (such as stopping an emptied drain phase) speeds
//! up the reference rows too. Everything is written to `BENCH_sim.json`
//! so perf changes across commits are diffable.
//!
//! Usage: `bench_sim_json [--smoke] [out_path]` (default `BENCH_sim.json`;
//! `--smoke` shrinks cycle counts for CI).

use rlnoc_baselines::rec_topology;
use rlnoc_sim::reference::{ReferenceMeshSim, ReferenceRouterlessSim};
use rlnoc_sim::sweep::{latency_sweep, SweepEngine, SweepJob, SweepParams, SweepResult};
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, MeshSim, Network, RouterlessSim, SimConfig};
use rlnoc_topology::{Grid, Topology};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Seconds per run of `f`: one warm-up, then repeat until both
/// `min_reps` runs and `min_secs` of wall clock have accumulated.
fn time_runs(min_reps: u32, min_secs: f64, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min_reps as usize || start.elapsed().as_secs_f64() < min_secs {
        let run = Instant::now();
        f();
        runs.push(run.elapsed().as_secs_f64());
    }
    runs
}

/// The median of `values` and their spread: the interquartile range over
/// the median.
fn median_spread(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let at = q * (values.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (at - lo as f64)
    };
    let median = quantile(0.5);
    (median, (quantile(0.75) - quantile(0.25)) / median)
}

struct Knobs {
    cfg_cycles: (u64, u64, u64),
    sweep_cycles: (u64, u64, u64),
    sweep_step: f64,
    min_reps: u32,
    min_secs: f64,
}

impl Knobs {
    fn full() -> Self {
        Knobs {
            cfg_cycles: (500, 3_000, 2_000),
            sweep_cycles: (500, 4_000, 2_000),
            sweep_step: 0.02,
            min_reps: 5,
            min_secs: 0.25,
        }
    }

    fn smoke() -> Self {
        Knobs {
            cfg_cycles: (100, 400, 300),
            sweep_cycles: (100, 300, 200),
            sweep_step: 0.08,
            min_reps: 1,
            min_secs: 0.0,
        }
    }
}

fn routerless_cfg(k: &Knobs) -> SimConfig {
    SimConfig {
        warmup: k.cfg_cycles.0,
        measure: k.cfg_cycles.1,
        drain: k.cfg_cycles.2,
        ..SimConfig::routerless()
    }
}

fn mesh_cfg(k: &Knobs) -> SimConfig {
    SimConfig {
        warmup: k.cfg_cycles.0,
        measure: k.cfg_cycles.1,
        drain: k.cfg_cycles.2,
        ..SimConfig::mesh()
    }
}

/// Simulated cycles per wall-clock second for one fabric at one load:
/// the median over the repeats, and its spread.
fn cycles_per_sec<N: Network>(
    k: &Knobs,
    mut mk: impl FnMut() -> N,
    pattern: Pattern,
    rate: f64,
    cfg: &SimConfig,
    seed: u64,
) -> (f64, f64) {
    let total = (cfg.warmup + cfg.measure + cfg.drain) as f64;
    let runs = time_runs(k.min_reps, k.min_secs, || {
        let mut net = mk();
        black_box(run_synthetic(&mut net, pattern, rate, cfg, seed));
    });
    median_spread(runs.iter().map(|secs| total / secs).collect())
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_sim.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let k = if smoke { Knobs::smoke() } else { Knobs::full() };

    // --- Cycle-kernel throughput: optimized vs reference ----------------
    // Low load exercises the empty-lane scan; the higher rate keeps the
    // fabrics near (injection-limited past) saturation, where flit motion
    // and the reference kernel's per-tick allocations dominate.
    let rl_cfg = routerless_cfg(&k);
    let m_cfg = mesh_cfg(&k);
    let mut kernel_rows = String::new();
    let mut kernel_speedups = Vec::new();
    for n in [4usize, 8, 10] {
        let grid = Grid::square(n).expect("grid");
        let rec = rec_topology(grid).expect("REC");
        for (load, rl_rate, mesh_rate) in [("low", 0.05, 0.05), ("near_sat", 0.25, 0.10)] {
            let seed = 21 + n as u64;
            let cases = [
                (
                    "routerless",
                    cycles_per_sec(
                        &k,
                        || RouterlessSim::new(&rec),
                        Pattern::UniformRandom,
                        rl_rate,
                        &rl_cfg,
                        seed,
                    ),
                    cycles_per_sec(
                        &k,
                        || ReferenceRouterlessSim::new(&rec),
                        Pattern::UniformRandom,
                        rl_rate,
                        &rl_cfg,
                        seed,
                    ),
                ),
                (
                    "mesh2",
                    cycles_per_sec(
                        &k,
                        || MeshSim::mesh2(grid),
                        Pattern::UniformRandom,
                        mesh_rate,
                        &m_cfg,
                        seed,
                    ),
                    cycles_per_sec(
                        &k,
                        || ReferenceMeshSim::mesh2(grid),
                        Pattern::UniformRandom,
                        mesh_rate,
                        &m_cfg,
                        seed,
                    ),
                ),
            ];
            for (fabric, (opt, opt_spread), (reference, ref_spread)) in cases {
                kernel_speedups.push(opt / reference);
                let _ = write!(
                    kernel_rows,
                    "{}\n    \"{fabric}_{n}x{n}_{load}\": {{ \"optimized_cycles_per_sec\": {opt:.0}, \"optimized_spread\": {opt_spread:.3}, \"reference_cycles_per_sec\": {reference:.0}, \"reference_spread\": {ref_spread:.3}, \"speedup\": {:.2} }}",
                    if kernel_rows.is_empty() { "" } else { "," },
                    opt / reference,
                );
            }
        }
    }

    // --- 8x8 multi-pattern sweep: old stack vs new stack ----------------
    let grid = Grid::square(8).expect("grid");
    let rec = rec_topology(grid).expect("REC");
    let sweep_cfg = SimConfig {
        warmup: k.sweep_cycles.0,
        measure: k.sweep_cycles.1,
        drain: k.sweep_cycles.2,
        ..SimConfig::routerless()
    };
    let params = SweepParams {
        start: k.sweep_step,
        step: k.sweep_step,
        max_rate: 0.6,
        latency_factor: 4.0,
        seed: 33,
    };

    let run_serial = |mk: &dyn Fn(&Topology) -> Box<dyn Network>| -> Vec<SweepResult> {
        Pattern::ALL
            .iter()
            .map(|&pattern| latency_sweep(|| mk(&rec), pattern, &sweep_cfg, params))
            .collect()
    };
    let jobs: Vec<SweepJob<'_>> = Pattern::ALL
        .iter()
        .map(|&pattern| {
            SweepJob::new(
                format!("{pattern:?}/REC"),
                pattern,
                sweep_cfg.clone(),
                params,
                || RouterlessSim::new(&rec),
            )
        })
        .collect();
    let engine = SweepEngine::available();

    let mut baseline = Vec::new();
    let (serial_reference_secs, serial_reference_spread) =
        median_spread(time_runs(k.min_reps, k.min_secs, || {
            baseline = run_serial(&|t| Box::new(ReferenceRouterlessSim::new(t)));
        }));
    let mut results = Vec::new();
    let (engine_optimized_secs, engine_optimized_spread) =
        median_spread(time_runs(k.min_reps, k.min_secs, || {
            results = engine.sweep_many(&jobs);
        }));

    // Bit-identity: the optimized engine run must reproduce both the
    // reference kernel's curves and a fully serial optimized run.
    assert_eq!(
        results, baseline,
        "optimized engine sweep diverged from the serial reference sweep"
    );
    assert_eq!(
        results,
        SweepEngine::new(1).sweep_many(&jobs),
        "parallel sweep diverged from the serial schedule"
    );
    let sweep_speedup = serial_reference_secs / engine_optimized_secs;

    let json = format!(
        r#"{{
  "mode": "{}",
  "kernel_cycles_per_sec": {{{kernel_rows}
  }},
  "kernel_speedup_min": {:.2},
  "kernel_speedup_max": {:.2},
  "sweep_8x8_multi_pattern": {{
    "patterns": {},
    "threads": {},
    "serial_reference_secs": {serial_reference_secs:.3},
    "serial_reference_spread": {serial_reference_spread:.3},
    "engine_optimized_secs": {engine_optimized_secs:.3},
    "engine_optimized_spread": {engine_optimized_spread:.3},
    "speedup": {sweep_speedup:.2},
    "bit_identical": true
  }}
}}
"#,
        if smoke { "smoke" } else { "full" },
        kernel_speedups.iter().copied().fold(f64::MAX, f64::min),
        kernel_speedups.iter().copied().fold(f64::MIN, f64::max),
        Pattern::ALL.len(),
        engine.threads(),
    );
    print!("{json}");
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("(wrote {out_path})"),
        Err(e) => eprintln!("warning: could not write {out_path}: {e}"),
    }
}
