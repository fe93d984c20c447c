//! `sweep-fig10`: the Figure 10 batch — 24 pattern × fabric latency sweeps
//! (Mesh-2, Mesh-1, REC, DRL) on 10x10 with `fig10_synthetic_latency`'s
//! default parameters — through `SweepEngine::sweep_many` on two workers.

use crate::probe::{Fabric, Layer, Probes, TimedNet};
use crate::report::{catch, peak_rss_mb, per_op, permute, set_overhead, Outcome, Setups};
use crate::Args;
use rlnoc_baselines::rec_topology;
use rlnoc_sim::sweep::{SweepEngine, SweepJob, SweepParams, SweepResult};
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{MeshSim, Network, RouterlessSim, SimConfig};
use rlnoc_topology::{Grid, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SIDE: usize = 10;
const WORKERS: usize = 2;
const WARMUP: u64 = 500;
const MEASURE: u64 = 3_000;
const DRAIN: u64 = 2_000;
/// Sweep seeds a run may use; `--seed` picks one and the job order.
const SIM_SEEDS: [u64; 4] = [2, 3, 4, 5];
const EXPECTED: &str = include_str!("../expected/sweep-fig10.tsv");
const FABRICS: [&str; 4] = ["Mesh-2", "Mesh-1", "REC", "DRL"];

/// Everything built before the first timed batch.
struct Inputs {
    grid: Grid,
    rec: Topology,
    drl: Topology,
    sim_seed: u64,
    /// `(pattern, fabric index)` in this run's job order.
    order: Vec<(Pattern, usize)>,
}

fn inputs(seed: u64) -> Inputs {
    let grid = Grid::square(SIDE).expect("grid");
    let rec = rec_topology(grid).expect("REC is defined on 10x10");
    let (drl, _) = crate::greedy::design(grid, 2 * (SIDE as u32 - 1));
    assert!(drl.is_fully_connected(), "DRL design connects");
    let mut order: Vec<(Pattern, usize)> = Pattern::ALL
        .iter()
        .flat_map(|&p| (0..FABRICS.len()).map(move |f| (p, f)))
        .collect();
    permute(&mut order, seed);
    Inputs {
        grid,
        rec,
        drl,
        sim_seed: SIM_SEEDS[(seed % SIM_SEEDS.len() as u64) as usize],
        order,
    }
}

fn label(pattern: Pattern, fabric: usize) -> String {
    format!("{pattern:?}/{}", FABRICS[fabric])
}

/// The batch's jobs. `mesh` and `routerless` receive each freshly built
/// fabric with the instant its construction began, and may wrap it.
fn jobs<'a, M, R>(
    inputs: &'a Inputs,
    mesh: impl Fn(Instant, MeshSim) -> M + Copy + Send + Sync + 'a,
    routerless: impl Fn(Instant, RouterlessSim) -> R + Copy + Send + Sync + 'a,
) -> Vec<SweepJob<'a>>
where
    M: Network + 'a,
    R: Network + 'a,
{
    let cycles = |base: SimConfig| SimConfig {
        warmup: WARMUP,
        measure: MEASURE,
        drain: DRAIN,
        ..base
    };
    let params = SweepParams {
        start: 0.005,
        step: 0.02,
        max_rate: 1.0,
        latency_factor: 4.0,
        seed: inputs.sim_seed,
    };
    let grid = inputs.grid;
    inputs
        .order
        .iter()
        .map(|&(pattern, fabric)| {
            let name = label(pattern, fabric);
            match fabric {
                0 => SweepJob::new(
                    name,
                    pattern,
                    cycles(SimConfig::mesh()),
                    params,
                    move || mesh(Instant::now(), MeshSim::mesh2(grid)),
                ),
                1 => SweepJob::new(
                    name,
                    pattern,
                    cycles(SimConfig::mesh()),
                    params,
                    move || mesh(Instant::now(), MeshSim::mesh1(grid)),
                ),
                _ => {
                    let topo = if fabric == 2 {
                        &inputs.rec
                    } else {
                        &inputs.drl
                    };
                    SweepJob::new(
                        name,
                        pattern,
                        cycles(SimConfig::routerless()),
                        params,
                        move || routerless(Instant::now(), RouterlessSim::new(topo)),
                    )
                }
            }
        })
        .collect()
}

/// A fabric hook that only counts the points simulated.
fn counted<T>(points: &AtomicU64) -> impl Fn(Instant, T) -> T + Copy + Send + Sync + '_ {
    move |_, net| {
        points.fetch_add(1, Ordering::Relaxed);
        net
    }
}

/// One pinned sweep summary: `(sim seed, label)` → saturation, zero-load
/// latency, and the number of points the saturation scan consumed.
type Pinned = (u64, String, f64, f64, usize);

fn parse_expected() -> Vec<Pinned> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (
                f[0].parse().expect("sim seed"),
                f[1].to_string(),
                f[2].parse().expect("saturation"),
                f[3].parse().expect("zero-load latency"),
                f[4].parse().expect("point count"),
            )
        })
        .collect()
}

fn pin(sim_seed: u64, label: &str, r: &SweepResult) -> Pinned {
    (
        sim_seed,
        label.to_string(),
        r.saturation,
        r.zero_load_latency,
        r.points.len(),
    )
}

/// Prints the pinned-output table for `expected/sweep-fig10.tsv`.
pub fn record() {
    println!("# sim_seed\tjob\tsaturation\tzero_load_latency\tpoints");
    for sim_seed in SIM_SEEDS {
        let mut inputs = inputs(0);
        inputs.sim_seed = sim_seed;
        let jobs = jobs(&inputs, |_, n| n, |_, n| n);
        let results = SweepEngine::new(WORKERS).sweep_many(&jobs);
        for (job, r) in jobs.iter().zip(&results) {
            let p = pin(sim_seed, &job.label, r);
            println!("{}\t{}\t{:?}\t{:?}\t{}", p.0, p.1, p.2, p.3, p.4);
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    rlnoc_nn::kernels::set_matmul_threads(1);
    let mut out = Outcome::default();
    // Set-up: the REC and greedy DRL topologies, the job order, and the
    // pinned outputs.
    let set_up = || (inputs(args.seed), parse_expected());
    let mut setups = Setups::default();
    let (inputs, expected) = setups.run(set_up);
    let engine = SweepEngine::new(WORKERS);
    let points = AtomicU64::new(0);
    let batch = jobs(&inputs, counted(&points), counted(&points));

    let mut first: Option<Vec<SweepResult>> = None;
    let mut batches = 0u32;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        batches += 1;
        match catch(|| engine.sweep_many(&batch)) {
            Ok(results) => {
                for (job, r) in batch.iter().zip(&results) {
                    let got = pin(inputs.sim_seed, &job.label, r);
                    let want = expected.iter().find(|p| p.0 == got.0 && p.1 == got.1);
                    out.op((want != Some(&got))
                        .then(|| format!("{}: got {got:?}, pinned {want:?}", job.label)));
                }
                first.get_or_insert(results);
            }
            Err(e) => batch.iter().for_each(|_| out.op(Some(e.clone()))),
        }
    }
    let elapsed = start.elapsed();
    setups.run(set_up);
    let sim_cycles = points.load(Ordering::Relaxed) * (WARMUP + MEASURE + DRAIN);
    println!(
        "sweep-fig10 seed {}: sim seed {}, {batches} batches of {} jobs in {:.2} s, \
         {sim_cycles} simulated cycles",
        args.seed,
        inputs.sim_seed,
        batch.len(),
        elapsed.as_secs_f64()
    );
    out.set("setup_s", setups.median());
    out.set(
        "bench.ops_per_s",
        f64::from(batches) * batch.len() as f64 / elapsed.as_secs_f64(),
    );
    out.set("work_per_s", sim_cycles as f64 / elapsed.as_secs_f64());
    if let (true, Some(reference)) = (args.trace, first) {
        trace(&mut out, &inputs, &engine, &reference, elapsed / batches);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// One batch with every fabric wrapped in [`TimedNet`]; it must reproduce
/// the untraced results exactly.
fn trace(
    out: &mut Outcome,
    inputs: &Inputs,
    engine: &SweepEngine,
    reference: &[SweepResult],
    untraced: Duration,
) {
    let probes = Probes::default();
    let p = &probes;
    let batch = jobs(
        inputs,
        move |born, n| TimedNet::new(n, Fabric::Mesh, p, born),
        move |born, n| TimedNet::new(n, Fabric::Routerless, p, born),
    );
    let start = Instant::now();
    let results = engine.sweep_many(&batch);
    let traced = start.elapsed();
    out.check(results == reference, || {
        "wrapped-fabric sweep differs from the untraced SweepResults".into()
    });
    let ops = batch.len();
    let run = probes.calls(Layer::SweepPoint) as f64;
    let useful: usize = results.iter().map(|r| r.points.len()).sum();
    let busy = probes.us(Layer::SweepPoint);
    let covered = probes.us_sum(&[
        Layer::MeshTick,
        Layer::MeshOffer,
        Layer::MeshDrain,
        Layer::RouterlessTick,
        Layer::RouterlessOffer,
        Layer::RouterlessDrain,
    ]);
    let capacity = traced.as_secs_f64() * 1e6 * WORKERS as f64;
    out.check(covered <= busy && busy <= capacity * 1.01, || {
        format!("layer {covered:.0} us, point busy {busy:.0} us, worker capacity {capacity:.0} us")
    });
    let per = |l| per_op(probes.us(l), ops);
    out.set(
        "sim.mesh.tick.calls",
        per_op(probes.calls(Layer::MeshTick) as f64, ops),
    );
    out.set("sim.mesh.tick.us", per(Layer::MeshTick));
    out.set("sim.mesh.offer.us", per(Layer::MeshOffer));
    out.set("sim.mesh.drain.us", per(Layer::MeshDrain));
    out.set(
        "sim.routerless.tick.calls",
        per_op(probes.calls(Layer::RouterlessTick) as f64, ops),
    );
    out.set("sim.routerless.tick.us", per(Layer::RouterlessTick));
    out.set("sim.routerless.offer.us", per(Layer::RouterlessOffer));
    out.set("sim.routerless.drain.us", per(Layer::RouterlessDrain));
    out.set("sim.sweep.points_run", per_op(run, ops));
    out.set("sim.sweep.useful_ratio", useful as f64 / run.max(1.0));
    out.set("sim.sweep.other_us", per_op(busy - covered, ops));
    set_overhead(out, ops, untraced, traced);
}
