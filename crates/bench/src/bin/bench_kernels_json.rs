//! Machine-readable kernel throughput snapshot.
//!
//! Times the hot inference paths behind every experiment — blocked GEMM,
//! convolution, the full policy/value forward at the paper's grid
//! sizes, the learner's own small shapes, and cached vs uncached
//! exploration cycles — against the retained naive reference kernels, then
//! writes everything to `BENCH_kernels.json` so perf changes across commits
//! are diffable. The `conv_kernels` rows state each conv pass's throughput
//! at the learners' shapes against a measured single-core `mul`+`add` peak.
//!
//! All kernel timings pin the matmul to a single thread; the parallel path
//! only adds on top and would make runs incomparable across hosts. The one
//! exception is a row at the two matmul threads the `learn-8x8` benchmark
//! workload uses, so a regression of the threaded path shows up here too.
//!
//! Usage: `bench_kernels_json [out_path]` (default `BENCH_kernels.json`).

use rlnoc_core::explorer::ExplorerConfig;
use rlnoc_core::parallel::explore_parallel;
use rlnoc_core::routerless::RouterlessEnv;
use rlnoc_nn::layers::{Conv2d, ConvHeads, Layer, MaxPool2d};
use rlnoc_nn::net::PolicyValueGrad;
use rlnoc_nn::{reference, PolicyValueConfig, PolicyValueNet, Tensor};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::Grid;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Mean seconds per call: one warmup, then repeat until both `MIN_REPS`
/// calls and `MIN_SECS` of wall clock have accumulated.
fn time_secs(mut f: impl FnMut()) -> f64 {
    const MIN_REPS: u32 = 3;
    const MIN_SECS: f64 = 0.25;
    f();
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < MIN_SECS {
        f();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// The conv passes' telemetry probes: forward, weight gradient, input
/// gradient.
const CONV_PROBES: [&str; 3] = ["nn.conv_fwd_us", "nn.conv_wgrad_us", "nn.conv_igrad_us"];

/// [`time_secs`] of a conv layer call, plus the mean seconds per call
/// each of its [`CONV_PROBES`] recorded (`NaN` for a pass it did not run):
/// each the best of five rounds, as the host is shared and noisy.
fn probed(mut f: impl FnMut()) -> (f64, [f64; 3]) {
    let mut best = (f64::INFINITY, [f64::NAN; 3]);
    for _ in 0..5 {
        let sink = TelemetrySink::enabled();
        let secs = {
            let _probes = rlnoc_nn::instrument::install_scoped(sink.recorder("bench"));
            time_secs(&mut f)
        };
        let mean = |name| {
            sink.hist_total(name)
                .map_or(f64::NAN, |h| h.sum() as f64 / h.count() as f64 * 1e-6)
        };
        best.0 = best.0.min(secs);
        for (b, m) in best.1.iter_mut().zip(CONV_PROBES.map(mean)) {
            *b = b.min(m);
        }
    }
    best
}

/// Single-core `mul`+`add` throughput of the build's widest vector in
/// GMAC/s: the best of five timed runs of 16 independent chains.
fn peak_mul_add_gmacs() -> f64 {
    const STEPS: usize = 1 << 20;
    let macs = rlnoc_nn::kernels::mul_add_chains(STEPS, 0.5, 1.0).1;
    let best = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(rlnoc_nn::kernels::mul_add_chains(
                STEPS,
                black_box(0.5),
                black_box(1.0),
            ));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    macs as f64 / best * 1e-9
}

fn wave(len: usize, step: f32) -> Vec<f32> {
    (0..len).map(|v| (v as f32 * step).sin()).collect()
}

/// Every convolution shape `(in_c, out_c, k, side)` in the paper network,
/// derived from its config: stem + residual pair per stage, and the three
/// head convs at the final side, which run as one stacked pass.
fn conv_shapes(cfg: &PolicyValueConfig) -> Vec<(usize, usize, usize, usize)> {
    let mut shapes = Vec::new();
    let mut side = cfg.input_side;
    let mut prev = 1;
    for (i, &c) in cfg.channels.iter().enumerate() {
        let k = if i == 0 { cfg.stem_kernel } else { 3 };
        shapes.push((prev, c, k, side));
        shapes.push((c, c, 3, side)); // residual block
        shapes.push((c, c, 3, side));
        if i + 1 < cfg.channels.len() {
            side = MaxPool2d::out_side(side);
        }
        prev = c;
    }
    shapes.push((prev, 6, 3, side)); // coord / dir / value heads
    shapes
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    rlnoc_nn::kernels::set_matmul_threads(1);

    // --- Blocked GEMM vs naive oracle -----------------------------------
    let (m, k, n) = (256usize, 512, 256);
    let a = Tensor::from_vec(wave(m * k, 0.37), &[m, k]).expect("LHS data sized m*k");
    let b = Tensor::from_vec(wave(k * n, 0.23), &[k, n]).expect("RHS data sized k*n");
    let matmul_blocked = time_secs(|| {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    let matmul_naive = time_secs(|| {
        black_box(reference::matmul_naive(black_box(&a), black_box(&b)));
    });

    // --- Conv forward vs naive at the paper-8x8 stage-2 shape ------------
    let x = Tensor::from_vec(wave(16 * 32 * 32, 0.11), &[1, 16, 32, 32])
        .expect("conv input data sized 16*32*32");
    let mut conv = Conv2d::new(16, 32, 3, 0);
    let conv_direct = time_secs(|| {
        black_box(conv.forward(black_box(&x), false));
    });
    let w = Tensor::from_vec(wave(32 * 16 * 9, 0.19), &[32, 16, 3, 3])
        .expect("conv weight data sized 32*16*3*3");
    let bias = Tensor::zeros(&[32]);
    let conv_naive = time_secs(|| {
        black_box(reference::conv2d_naive(
            black_box(&x),
            black_box(&w),
            black_box(&bias),
        ));
    });

    // --- Full net forward at the paper's grid sizes ---------------------
    let mut net_rows = String::new();
    let mut forward_8x8 = f64::NAN;
    for grid_n in [4usize, 8, 10] {
        let cfg = PolicyValueConfig::paper(grid_n);
        let side = cfg.input_side;
        let mut net = PolicyValueNet::new(cfg, 1);
        let state = Tensor::zeros(&[1, 1, side, side]);
        let secs = time_secs(|| {
            black_box(net.forward(black_box(&state), false));
        });
        if grid_n == 8 {
            forward_8x8 = secs;
        }
        let _ = write!(
            net_rows,
            "{}\n    \"paper_{grid_n}x{grid_n}\": {{ \"ms_per_forward\": {:.3}, \"forwards_per_sec\": {:.2} }}",
            if net_rows.is_empty() { "" } else { "," },
            secs * 1e3,
            1.0 / secs
        );
    }

    // --- Naive-equivalent forward at paper 8x8 --------------------------
    // Replace each convolution's measured time with the naive loop nest's
    // time for the identical shape; everything else in the forward is
    // unchanged, so this estimates what the pre-im2col network cost.
    let cfg8 = PolicyValueConfig::paper(8);
    let mut conv_opt_total = 0.0f64;
    let mut conv_naive_total = 0.0f64;
    for &(ic, oc, kk, side) in &conv_shapes(&cfg8) {
        let x = Tensor::from_vec(wave(ic * side * side, 0.13), &[1, ic, side, side])
            .expect("layer input data sized ic*side*side");
        let mut c = Conv2d::new(ic, oc, kk, 0);
        conv_opt_total += time_secs(|| {
            black_box(c.forward(black_box(&x), false));
        });
        let w = Tensor::from_vec(wave(oc * ic * kk * kk, 0.29), &[oc, ic, kk, kk])
            .expect("layer weight data sized oc*ic*k*k");
        let bias = Tensor::zeros(&[oc]);
        conv_naive_total += time_secs(|| {
            black_box(reference::conv2d_naive(
                black_box(&x),
                black_box(&w),
                black_box(&bias),
            ));
        });
    }
    let forward_8x8_naive_est = forward_8x8 - conv_opt_total + conv_naive_total;
    let forward_speedup = forward_8x8_naive_est / forward_8x8;

    // --- The learner's own shapes ---------------------------------------
    // The small network's residual-conv GEMM at 4x4 (`8×72×256`) and 8x8
    // (`8×72×4096`), and one training pass of the small network on a
    // 45-state batch: these are the calls the learner makes hundreds of
    // times per episode, far below the large shapes above.
    let mut gemm_rows = String::new();
    for (gm, gk, gn) in [(8usize, 72usize, 256usize), (8, 72, 4096)] {
        let a = wave(gm * gk, 0.37);
        let b = wave(gk * gn, 0.23);
        let mut c = vec![0.0f32; gm * gn];
        let secs = time_secs(|| {
            rlnoc_nn::kernels::gemm(false, false, gm, gk, gn, &a, &b, black_box(&mut c));
        });
        let _ = write!(
            gemm_rows,
            "\n    \"gemm_{gm}x{gk}x{gn}_us\": {:.2},",
            secs * 1e6
        );
    }
    // Each conv pass on its own at the 8x8 learner's residual (`8→8`) and
    // single-head (`8→2`) shapes, and the three heads' stacked pass
    // (`8→6`): a 45-state batch of 64×64 inputs; and the 4x4 learner's
    // residual at 16×16. Layer times per pass, and each pass's kernel
    // throughput from its telemetry probe (weight packing, padding copies
    // and the kernel; not the output allocation or the input cache) as
    // GMAC/s and as a fraction of the measured single-core peak, each the
    // best of five rounds. All three passes are counted as
    // `batch·out_c·in_c·k²·h·w` multiply-adds.
    let peak = peak_mul_add_gmacs();
    let mut conv_rows = String::new();
    let mut kernel_rows = String::new();
    let batch = 45;
    for (out_c, side) in [(8usize, 64usize), (2, 64), (6, 64), (8, 16)] {
        let x = Tensor::from_vec(wave(batch * 8 * side * side, 0.13), &[batch, 8, side, side])
            .expect("conv input data sized batch*8*side*side");
        let grad_of = |out_c: usize| {
            Tensor::from_vec(
                wave(batch * out_c * side * side, 0.07),
                &[batch, out_c, side, side],
            )
            .expect("conv gradient data sized batch*out_c*side*side")
        };
        let ((forward, [fwd, ..]), (backward, [_, wgrad, igrad])) = if out_c == 6 {
            let mut heads = ConvHeads::new((0..3).map(|g| Conv2d::new(8, 2, 3, g)).collect());
            let grads = [grad_of(2), grad_of(2), grad_of(2)];
            (
                probed(|| {
                    black_box(heads.forward(black_box(&x)));
                }),
                probed(|| {
                    black_box(heads.backward(black_box(&grads)));
                }),
            )
        } else {
            let mut conv = Conv2d::new(8, out_c, 3, 0);
            let grad = grad_of(out_c);
            (
                probed(|| {
                    black_box(conv.forward(black_box(&x), true));
                }),
                probed(|| {
                    black_box(conv.backward(black_box(&grad)));
                }),
            )
        };
        let name = format!("conv_8to{out_c}_{side}x{side}_batch{batch}");
        if side == 64 {
            for (pass, secs) in [
                ("forward", forward),
                ("backward", backward),
                ("wgrad", wgrad),
                ("igrad", igrad),
            ] {
                let _ = write!(conv_rows, "\n    \"{name}_{pass}_ms\": {:.3},", secs * 1e3);
            }
        }
        if out_c == 2 {
            continue;
        }
        let macs = (batch * out_c * 8 * 9 * side * side) as f64;
        for (pass, secs) in [("forward", fwd), ("wgrad", wgrad), ("igrad", igrad)] {
            let gmacs = macs / secs * 1e-9;
            let _ = write!(
                kernel_rows,
                ",\n    \"{name}_{pass}_gmacs\": {gmacs:.2},\n    \"{name}_{pass}_of_peak\": {:.3}",
                gmacs / peak
            );
        }
    }
    // One training pass of the small network on a 45-state batch, serial;
    // at 8x8 also at the two matmul threads the `learn-8x8` benchmark uses.
    let mut train_rows = String::new();
    for (grid_n, threads) in [(4usize, 1usize), (8, 1), (8, 2)] {
        rlnoc_nn::kernels::set_matmul_threads(threads);
        let mut net = PolicyValueNet::new(PolicyValueConfig::small(grid_n), 1);
        let side = net.config().input_side;
        let batch = 45;
        let states = Tensor::from_vec(wave(batch * side * side, 0.17), &[batch, 1, side, side])
            .expect("state batch data sized batch*side*side");
        let secs = time_secs(|| {
            let out = net.forward(black_box(&states), true);
            net.backward(&PolicyValueGrad {
                coord_logits: out.coord_logits,
                dir: out.dir,
                value: out.value,
            });
            net.zero_grad();
        });
        let suffix = if threads == 1 {
            String::new()
        } else {
            format!("_matmul{threads}")
        };
        let _ = write!(
            train_rows,
            "{}\n    \"small_{grid_n}x{grid_n}_batch{batch}_ms_per_forward_backward{suffix}\": {:.3}",
            if train_rows.is_empty() { "" } else { "," },
            secs * 1e3
        );
    }

    // --- Cached vs uncached exploration cycles --------------------------
    rlnoc_nn::kernels::set_matmul_threads(0);
    let env = RouterlessEnv::new(Grid::square(4).expect("4x4 grid is within bounds"), 6);
    let cycles = 6usize;
    let mut cached_cfg = ExplorerConfig::fast();
    cached_cfg.eval_cache_capacity = 4096;
    let mut uncached_cfg = cached_cfg.clone();
    uncached_cfg.eval_cache_capacity = 0;

    let start = Instant::now();
    let cached_report = explore_parallel(&env, &cached_cfg, 1, cycles, 7);
    let cached_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let _ = explore_parallel(&env, &uncached_cfg, 1, cycles, 7);
    let uncached_secs = start.elapsed().as_secs_f64();
    let stats = cached_report.cache_stats;

    let json = format!(
        r#"{{
  "matmul": {{
    "shape": [{m}, {k}, {n}],
    "blocked_ops_per_sec": {:.2},
    "naive_ops_per_sec": {:.2},
    "speedup": {:.2}
  }},
  "conv_forward": {{
    "shape": "1x16x32x32 -> 32c, k3",
    "direct_ops_per_sec": {:.2},
    "naive_ops_per_sec": {:.2},
    "speedup": {:.2}
  }},
  "net_forward": {{{net_rows},
    "paper_8x8_naive_est_ms": {:.3},
    "paper_8x8_speedup_vs_naive": {:.2}
  }},
  "learner_shapes": {{{gemm_rows}{conv_rows}{train_rows}
  }},
  "conv_kernels": {{
    "threads": 1,
    "peak_mul_add_gmacs": {peak:.2}{kernel_rows}
  }},
  "explorer_cycles": {{
    "grid": "4x4",
    "cycles": {cycles},
    "cached_cycles_per_sec": {:.3},
    "uncached_cycles_per_sec": {:.3},
    "cache_hits": {},
    "cache_misses": {},
    "cache_hit_rate": {:.3}
  }}
}}
"#,
        1.0 / matmul_blocked,
        1.0 / matmul_naive,
        matmul_naive / matmul_blocked,
        1.0 / conv_direct,
        1.0 / conv_naive,
        conv_naive / conv_direct,
        forward_8x8_naive_est * 1e3,
        forward_speedup,
        cycles as f64 / cached_secs,
        cycles as f64 / uncached_secs,
        stats.hits,
        stats.misses,
        stats.hit_rate(),
    );
    print!("{json}");
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("(wrote {out_path})"),
        Err(e) => eprintln!("warning: could not write {out_path}: {e}"),
    }
}
