//! `greedy-table2`: the design path behind the default "DRL" columns
//! (`drl_topology` under `Effort::Greedy`) at cap 18 on the larger Table 2
//! grids — Algorithm 1 (`rollout::greedy_rollout`), then the cap-N skeleton
//! plus greedy filling (`rollout::skeleton_rollout`) when Algorithm 1
//! strands nodes.

use crate::probe::{Layer, Probes};
use crate::report::{catch, fingerprint, peak_rss_mb, per_op, permute};
use crate::report::{set_overhead, Outcome, Setups};
use crate::Args;
use rlnoc_core::rollout::{greedy_rollout, skeleton_rollout, skeleton_topology};
use rlnoc_core::routerless::{LoopAction, RouterlessEnv};
use rlnoc_core::Environment;
use rlnoc_topology::{Direction, Grid, Topology};
use std::time::{Duration, Instant};

pub const CAP: u32 = 18;
const SIDES: [usize; 4] = [10, 12, 14, 16];
const EXPECTED: &str = include_str!("../expected/greedy-table2.tsv");

/// Which construction produced a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Greedy,
    Skeleton,
}

/// The `drl_topology` design under `Effort::Greedy`, with the arm that
/// produced it. At caps of at least N the skeleton always fits, so the
/// random-restart last resort never runs here.
pub fn design(grid: Grid, cap: u32) -> (Topology, Arm) {
    let greedy = greedy_rollout(grid, cap);
    if greedy.is_fully_connected() {
        return (greedy, Arm::Greedy);
    }
    match skeleton_rollout(grid, cap) {
        Some(t) => (t, Arm::Skeleton),
        None => (greedy, Arm::Greedy),
    }
}

/// The pinned output of one design.
#[derive(Debug, Clone, PartialEq)]
struct Pinned {
    side: usize,
    arm: String,
    loops: usize,
    fingerprint: u64,
    average_hops: f64,
}

fn pin(side: usize, topo: &Topology, arm: Arm) -> Pinned {
    Pinned {
        side,
        arm: format!("{arm:?}"),
        loops: topo.loops().len(),
        fingerprint: fingerprint(topo.loops().iter().map(|l| {
            let (x1, y1, x2, y2, d) = l.encode();
            ((x1 as u64) << 32)
                | ((y1 as u64) << 24)
                | ((x2 as u64) << 16)
                | ((y2 as u64) << 8)
                | u64::from(d)
        })),
        average_hops: topo.average_hops(),
    }
}

fn parse_expected() -> Vec<Pinned> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            Pinned {
                side: f[0].parse().expect("side"),
                arm: f[1].to_string(),
                loops: f[2].parse().expect("loop count"),
                fingerprint: u64::from_str_radix(f[3], 16).expect("fingerprint"),
                average_hops: f[4].parse().expect("average hops"),
            }
        })
        .collect()
}

/// Output check of one design: fully connected, within the cap, and
/// identical to the pinned design.
fn check(side: usize, topo: &Topology, arm: Arm, expected: &[Pinned]) -> Option<String> {
    if !topo.is_fully_connected() || topo.max_overlap() > CAP {
        return Some(format!("{side}x{side}: disconnected or over the cap"));
    }
    let got = pin(side, topo, arm);
    match expected.iter().find(|p| p.side == side) {
        Some(want) if *want == got => None,
        want => Some(format!("{side}x{side}: got {got:?}, pinned {want:?}")),
    }
}

/// Prints the pinned-output table for `expected/greedy-table2.tsv`.
pub fn record() {
    println!("# side\tarm\tloops\tfingerprint\taverage_hops (cap {CAP})");
    for side in SIDES {
        let (topo, arm) = design(Grid::square(side).expect("grid"), CAP);
        let p = pin(side, &topo, arm);
        println!(
            "{}\t{}\t{}\t{:016x}\t{:?}",
            p.side, p.arm, p.loops, p.fingerprint, p.average_hops
        );
    }
}

/// Workers building designs side by side, so a run uses both cores the
/// thread budget allows and host noise on one core averages out.
const WORKERS: u64 = 2;

/// One worker's designs in build order: side, result, busy time.
type Built = Vec<(usize, Result<(Topology, Arm), String>, Duration)>;

/// Every worker builds every grid's design, each in its own order.
fn batch(orders: &[[usize; 4]], build: impl Fn(Grid) -> (Topology, Arm) + Sync) -> Vec<Built> {
    std::thread::scope(|s| {
        let workers: Vec<_> = orders
            .iter()
            .map(|order| {
                let build = &build;
                s.spawn(move || {
                    order
                        .iter()
                        .map(|&side| {
                            let start = Instant::now();
                            let built = catch(|| build(Grid::square(side).expect("grid")));
                            (side, built, start.elapsed())
                        })
                        .collect::<Built>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .expect("design panics are caught inside the worker")
            })
            .collect()
    })
}

pub fn run(args: &Args) -> Outcome {
    rlnoc_nn::kernels::set_matmul_threads(1);
    let mut out = Outcome::default();
    // Set-up: the inputs, the pinned outputs, and a warm-up design on a
    // small grid (discarded).
    let set_up = || {
        let orders: Vec<[usize; 4]> = (0..WORKERS)
            .map(|w| {
                let mut order = SIDES;
                permute(&mut order, crate::report::splitmix64(args.seed ^ w));
                order
            })
            .collect();
        std::hint::black_box(design(Grid::square(8).expect("grid"), CAP));
        (orders, parse_expected())
    };
    let mut setups = Setups::default();
    let (orders, expected) = setups.run(set_up);

    let mut first: Option<Vec<Built>> = None;
    let mut batches = 0u32;
    let mut designs = 0usize;
    let mut loops = 0usize;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let built = batch(&orders, |grid| design(grid, CAP));
        for (side, result, _) in built.iter().flatten() {
            designs += 1;
            match result {
                Ok((topo, arm)) => {
                    out.op(check(*side, topo, *arm, &expected));
                    loops += topo.loops().len();
                }
                Err(e) => out.op(Some(e.clone())),
            }
        }
        first.get_or_insert(built);
        batches += 1;
    }
    let elapsed = start.elapsed();
    setups.run(set_up);
    println!(
        "greedy-table2 seed {}: orders {orders:?}, {batches} batches, {designs} designs in {:.2} s",
        args.seed,
        elapsed.as_secs_f64()
    );
    out.set("setup_s", setups.median());
    out.set("bench.ops_per_s", designs as f64 / elapsed.as_secs_f64());
    out.set("work_per_s", loops as f64 / elapsed.as_secs_f64());
    if let (true, Some(reference)) = (args.trace, first) {
        trace(&mut out, &orders, &reference, elapsed / batches);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Runs Algorithm 1 on `env` until no legal loop remains, timing each
/// `greedy_action` and `apply`. With `stop_when_flat`, stops like
/// `skeleton_rollout` once a connected design stops improving.
fn greedy_loop(env: &mut RouterlessEnv, probes: &Probes, stop_when_flat: bool) {
    while let Some(a) = probes.time(Layer::GreedyAction, || env.greedy_action()) {
        let before = env.average_hops();
        probes.time(Layer::Apply, || env.apply(a));
        if stop_when_flat && env.average_hops() >= before && env.is_fully_connected() {
            break;
        }
    }
}

/// A replica of [`design`] built from `greedy_rollout`'s and
/// `skeleton_rollout`'s loops, with the layer calls timed.
fn design_replica(grid: Grid, probes: &Probes) -> (Topology, Arm) {
    let mut env = RouterlessEnv::new(grid, CAP);
    greedy_loop(&mut env, probes, false);
    if env.is_fully_connected() {
        return (env.into_topology(), Arm::Greedy);
    }
    let skeleton = skeleton_topology(grid);
    if skeleton.max_overlap() > CAP {
        return (env.into_topology(), Arm::Greedy);
    }
    let mut env = RouterlessEnv::new(grid, CAP);
    for l in skeleton.loops() {
        let (x1, y1, x2, y2, d) = l.encode();
        let action = LoopAction::new(x1, y1, x2, y2, Direction::from_bit(d));
        probes.time(Layer::Apply, || env.apply(action));
    }
    greedy_loop(&mut env, probes, true);
    (env.into_topology(), Arm::Skeleton)
}

/// One traced batch; each replayed design must equal the untraced one.
fn trace(out: &mut Outcome, orders: &[[usize; 4]], reference: &[Built], untraced: Duration) {
    let probes = Probes::default();
    let start = Instant::now();
    let built = batch(orders, |grid| design_replica(grid, &probes));
    let traced = start.elapsed();
    let mut busy = 0.0;
    for ((side, got, took), (_, want, _)) in built.iter().flatten().zip(reference.iter().flatten())
    {
        busy += took.as_secs_f64() * 1e6;
        let same = match (got, want) {
            (Ok((g, _)), Ok((w, _))) => g.loops() == w.loops(),
            _ => false,
        };
        out.check(same, || {
            format!("replayed {side}x{side} design differs from the untraced one")
        });
    }
    let ops = built.iter().map(Vec::len).sum();
    let other = busy - probes.us_sum(&[Layer::GreedyAction, Layer::Apply]);
    let capacity = traced.as_secs_f64() * 1e6 * WORKERS as f64;
    out.check(other >= 0.0 && busy <= capacity * 1.01, || {
        format!("layer times, design busy time {busy:.0} us and capacity {capacity:.0} us disagree")
    });
    let per = |l| per_op(probes.us(l), ops);
    let calls = |l| per_op(probes.calls(l) as f64, ops);
    out.set(
        "core.greedy.greedy_action.calls",
        calls(Layer::GreedyAction),
    );
    out.set("core.greedy.greedy_action.us", per(Layer::GreedyAction));
    out.set("core.routerless.apply.calls", calls(Layer::Apply));
    out.set("core.routerless.apply.us", per(Layer::Apply));
    out.set("greedy.other_us", per_op(other, ops));
    set_overhead(out, ops, untraced, traced);
}
