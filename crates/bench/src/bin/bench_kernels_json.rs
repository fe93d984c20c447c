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
//! The `train_pass_layers` rows split the 8x8 learner's training pass into
//! its layers at matmul 1 and 2, as the nn probes report them to a
//! telemetry sink.
//!
//! Usage: `bench_kernels_json [out_path]` (default `BENCH_kernels.json`).

use rlnoc_core::explorer::ExplorerConfig;
use rlnoc_core::parallel::explore_parallel;
use rlnoc_core::routerless::RouterlessEnv;
use rlnoc_nn::layers::{Conv2d, ConvHeads, Layer, MaxPool2d, Workspace};
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

/// [`probed`] passes of `layer`: a training forward on `x` alone, and a
/// forward then a backward of `grad` with the forward's time taken out (a
/// backward reads the activations its forward left in the workspace).
/// Both include copying `x` into the workspace.
fn probed_passes(
    layer: &mut impl Layer,
    x: &Tensor,
    grad: &Tensor,
) -> ((f64, [f64; 3]), (f64, [f64; 3])) {
    let mut ws = Workspace::default();
    let forward = probed(|| {
        ws.start(black_box(x));
        layer.forward(&mut ws, true);
    });
    let (both, probes) = probed(|| {
        ws.start(black_box(x));
        layer.forward(&mut ws, true);
        ws.push_grad(grad.as_slice());
        layer.backward(&mut ws, true);
    });
    (forward, (both - forward.0, probes))
}

/// Mean seconds per inference forward of `layer` on `x`, including the
/// copy of `x` into the workspace.
fn time_forward(layer: &mut impl Layer, x: &Tensor) -> f64 {
    let mut ws = Workspace::default();
    time_secs(|| {
        ws.start(black_box(x));
        layer.forward(&mut ws, false);
        black_box(ws.output());
    })
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

/// The nn probes a training pass's layer rows read: `(row, probe)`.
const LAYER_PROBES: [(&str, &str); 5] = [
    ("conv_fwd", "nn.conv_fwd_us"),
    ("conv_wgrad", "nn.conv_wgrad_us"),
    ("conv_igrad", "nn.conv_igrad_us"),
    ("batchnorm", "nn.bn_us"),
    ("linear", "nn.linear_us"),
];

/// Milliseconds per pass of each [`LAYER_PROBES`] layer over `pass`
/// calls, then of everything else the pass's forward and backward probes
/// (`nn.forward_us`, `nn.backward_us`) cover, then of the whole pass:
/// all read from a telemetry sink, each the best of five rounds of five
/// passes.
fn layer_ms(mut pass: impl FnMut()) -> [f64; LAYER_PROBES.len() + 2] {
    const PASSES: u64 = 5;
    let mut best = [f64::INFINITY; LAYER_PROBES.len() + 2];
    pass();
    for _ in 0..5 {
        let sink = TelemetrySink::enabled();
        {
            let _probes = rlnoc_nn::instrument::install_scoped(sink.recorder("bench"));
            for _ in 0..PASSES {
                pass();
            }
        }
        let ms = |name| {
            sink.hist_total(name)
                .map_or(0.0, |h| h.sum() as f64 / PASSES as f64 * 1e-3)
        };
        let layers = LAYER_PROBES.map(|(_, probe)| ms(probe));
        let whole = ms("nn.forward_us") + ms("nn.backward_us");
        let other = whole - layers.iter().sum::<f64>();
        for (b, v) in best
            .iter_mut()
            .zip(layers.into_iter().chain([other, whole]))
        {
            *b = b.min(v);
        }
    }
    best
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
    let conv_direct = time_forward(&mut Conv2d::new(16, 32, 3, 0), &x);
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
            black_box(net.forward(black_box(&state)));
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
        conv_opt_total += time_forward(&mut Conv2d::new(ic, oc, kk, 0), &x);
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
    // The 8x8 small network's `Linear` heads: the coordinate head
    // (`Linear(8192, 32)`) on one state; the direction head
    // (`Linear(8192, 1)`) forward, weight gradient and input gradient on a
    // 45-state batch; the coordinate head's input and weight gradients.
    // Each row names its transposes (`n` plain, `t` transposed, for `A`
    // then `B`) and is the median of `REPEATS` timings, with their spread
    // (interquartile range over median). Then one training pass of the
    // small network on a 45-state batch: these are the calls the learner
    // makes hundreds of times per episode, far below the large shapes above.
    const REPEATS: usize = 5;
    let mut gemm_rows = String::new();
    for (trans_a, trans_b, gm, gk, gn) in [
        (false, false, 1usize, 8192usize, 32usize),
        (false, false, 45, 8192, 1),
        (true, false, 8192, 45, 1),
        (false, true, 45, 1, 8192),
        (false, true, 45, 32, 8192),
        (true, false, 8192, 45, 32),
    ] {
        let a = wave(gm * gk, 0.37);
        let b = wave(gk * gn, 0.23);
        let mut c = vec![0.0f32; gm * gn];
        let mut runs: Vec<f64> = (0..REPEATS)
            .map(|_| {
                time_secs(|| {
                    rlnoc_nn::kernels::gemm(
                        trans_a,
                        trans_b,
                        gm,
                        gk,
                        gn,
                        &a,
                        &b,
                        black_box(&mut c),
                    );
                }) * 1e6
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        let (median, iqr) = (runs[REPEATS / 2], runs[3 * REPEATS / 4] - runs[REPEATS / 4]);
        let ops = [trans_a, trans_b].map(|t| if t { 't' } else { 'n' });
        let name = format!("gemm_{}{}_{gm}x{gk}x{gn}", ops[0], ops[1]);
        let _ = write!(
            gemm_rows,
            "\n    \"{name}_us\": {median:.2},\n    \"{name}_spread\": {:.3},",
            iqr / median
        );
    }
    // Each conv pass on its own at the 8x8 learner's residual (`8→8`) and
    // single-head (`8→2`) shapes, and the three heads' stacked pass
    // (`8→6`): a 45-state batch of 64×64 inputs; and the 4x4 learner's
    // residual at 16×16. Layer times per pass, and each pass's kernel
    // throughput from its telemetry probe (weight packing, padding copies
    // and the kernel; not the workspace copy of the input) as
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
        let grad = Tensor::from_vec(
            wave(batch * out_c * side * side, 0.07),
            &[batch, out_c, side, side],
        )
        .expect("conv gradient data sized batch*out_c*side*side");
        let ((forward, [fwd, ..]), (backward, [_, wgrad, igrad])) = if out_c == 6 {
            let mut heads = ConvHeads::new((0..3).map(|g| Conv2d::new(8, 2, 3, g)).collect());
            probed_passes(&mut heads, &x, &grad)
        } else {
            probed_passes(&mut Conv2d::new(8, out_c, 3, 0), &x, &grad)
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
    // at 8x8 also at the two matmul threads the `learn-8x8` benchmark uses,
    // and at 8x8 its time per layer from the nn probes.
    let mut train_rows = String::new();
    let mut layer_rows = String::new();
    for (grid_n, threads) in [(4usize, 1usize), (8, 1), (8, 2)] {
        rlnoc_nn::kernels::set_matmul_threads(threads);
        let mut net = PolicyValueNet::new(PolicyValueConfig::small(grid_n), 1);
        let side = net.config().input_side;
        let batch = 45;
        let states = Tensor::from_vec(wave(batch * side * side, 0.17), &[batch, 1, side, side])
            .expect("state batch data sized batch*side*side");
        let mut pass = || {
            net.train_pass(black_box(&states), |out, grad| {
                grad.coord_logits
                    .copy_from_slice(out.coord_logits.as_slice());
                grad.dir.copy_from_slice(out.dir.as_slice());
                grad.value.copy_from_slice(out.value.as_slice());
            });
            net.zero_grad();
        };
        let secs = time_secs(&mut pass);
        if grid_n == 8 {
            let names = LAYER_PROBES.map(|(row, _)| row).into_iter();
            let rows = names.chain(["other", "pass"]).zip(layer_ms(&mut pass));
            let rows: Vec<String> = rows
                .map(|(row, ms)| format!("\"{row}_ms\": {ms:.3}"))
                .collect();
            let _ = write!(
                layer_rows,
                "{}\n    \"small_8x8_batch{batch}_matmul{threads}\": {{ {} }}",
                if layer_rows.is_empty() { "" } else { "," },
                rows.join(", ")
            );
        }
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
  "train_pass_layers": {{{layer_rows}
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
