//! Injection-rate sweeps and saturation detection (paper Figures 10 & 16),
//! with a deterministic parallel execution engine.
//!
//! There is one serial sweep and one parallel one: [`latency_sweep`] is
//! the reference, and [`SweepEngine::sweep_many`] runs a batch of one or
//! more [`SweepJob`]s on the engine's one worker pool,
//! [`SweepEngine::map`].
//!
//! # Determinism contract
//!
//! Every sweep point is a *pure function* of `(factory, pattern, cfg,
//! rate, seed)`: the per-point RNG seed is derived with [`point_seed`]
//! from `(seed, pattern, rate)` via SplitMix64, never from thread
//! identity, scheduling order, or a shared RNG stream. Saturation is
//! detected by a serial scan ([`scan`]) over the points in rate order,
//! and the criterion for any point depends only on that point plus the
//! zero-load latency of point 0 — so evaluating points concurrently and
//! scanning afterwards yields bit-identical [`SweepResult`]s at any
//! thread count, including one (see the `parallel_matches_serial_*`
//! tests). The shared saturation cutoff the workers maintain is a
//! work-skipping optimisation only: it can never mark an index below the
//! first truly-saturated point, so every point the scan consumes is
//! always evaluated.

use crate::config::SimConfig;
use crate::runner::{run_synthetic, Network};
use crate::traffic::Pattern;
use rlnoc_telemetry::TelemetrySink;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// SplitMix64 mixing step (Steele et al., the `splitmix64` reference
/// finalizer). Used to derive independent per-point RNG seeds.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable small integer identifying a pattern for seed derivation.
fn pattern_id(pattern: Pattern) -> u64 {
    Pattern::ALL
        .iter()
        .position(|&p| p == pattern)
        .expect("Pattern::ALL covers every variant") as u64
}

/// The RNG seed for one sweep point, derived deterministically from the
/// sweep seed, the traffic pattern, and the injection rate. Chained
/// SplitMix64 finalizers decorrelate neighbouring rates and patterns so
/// every point draws from an independent stream regardless of which
/// thread (or how many threads) evaluates it.
pub fn point_seed(seed: u64, pattern: Pattern, rate: f64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ pattern_id(pattern)) ^ rate.to_bits())
}

/// One point of a latency-vs-injection curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Offered load, flits/node/cycle.
    pub rate: f64,
    /// Average packet latency, cycles.
    pub latency: f64,
    /// Accepted throughput, flits/node/cycle.
    pub accepted: f64,
    /// Delivered / offered packets.
    pub delivery_ratio: f64,
    /// Median packet latency, cycles.
    pub p50: u64,
    /// 95th-percentile packet latency, cycles.
    pub p95: u64,
    /// 99th-percentile packet latency, cycles.
    pub p99: u64,
}

/// A full sweep with the detected saturation point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Measured points, in increasing rate order.
    pub points: Vec<SweepPoint>,
    /// The saturation throughput: the highest accepted rate before the
    /// saturation criterion fired (flits/node/cycle).
    pub saturation: f64,
    /// Zero-load (lowest-rate) average latency.
    pub zero_load_latency: f64,
}

/// The knobs of one injection-rate sweep (the paper uses `start = step =
/// 0.005` and a 4× zero-load latency cutoff).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepParams {
    /// First injection rate, flits/node/cycle.
    pub start: f64,
    /// Rate increment between points.
    pub step: f64,
    /// Largest rate to consider.
    pub max_rate: f64,
    /// Saturation fires when latency exceeds this multiple of zero-load.
    pub latency_factor: f64,
    /// Base seed; per-point seeds derive from it via [`point_seed`].
    pub seed: u64,
}

impl SweepParams {
    /// The paper's sweep setup: 0.005 start/step up to 1.0, 4× cutoff.
    pub fn paper(seed: u64) -> Self {
        SweepParams {
            start: 0.005,
            step: 0.005,
            max_rate: 1.0,
            latency_factor: 4.0,
            seed,
        }
    }

    /// The candidate injection rates, in increasing order. Rates are
    /// computed as `start + i·step` (not by accumulation) so serial and
    /// parallel paths agree bit-for-bit on every rate.
    pub fn rates(&self) -> Vec<f64> {
        assert!(self.step > 0.0, "step must be positive");
        let mut rates = Vec::new();
        let mut i = 0u32;
        loop {
            let rate = self.start + f64::from(i) * self.step;
            if rate > self.max_rate + 1e-12 {
                break;
            }
            rates.push(rate);
            i += 1;
        }
        rates
    }
}

/// Runs one sweep point on a fresh network.
fn evaluate_point<N: Network>(
    net: &mut N,
    pattern: Pattern,
    cfg: &SimConfig,
    rate: f64,
    seed: u64,
) -> SweepPoint {
    let m = run_synthetic(net, pattern, rate, cfg, point_seed(seed, pattern, rate));
    SweepPoint {
        rate,
        latency: m.avg_packet_latency(),
        accepted: m.accepted_throughput(),
        delivery_ratio: m.delivery_ratio(),
        p50: m.p50_latency(),
        p95: m.p95_latency(),
        p99: m.p99_latency(),
    }
}

/// The saturation criterion: average latency exceeding `latency_factor` ×
/// the zero-load latency, or delivery ratio dropping below 0.85 — the
/// conventional cutoff for latency-throughput curves.
fn is_saturated(point: &SweepPoint, zero_load: f64, latency_factor: f64) -> bool {
    point.latency > latency_factor * zero_load || point.delivery_ratio < 0.85
}

/// The serial saturation scan shared by every execution path: consumes
/// points in rate order, stops pulling after the first saturated one.
/// Because serial and parallel sweeps funnel through this exact loop,
/// their results can only differ if the points themselves differ — and
/// they cannot (see the module-level determinism contract).
fn scan(points_in_order: impl Iterator<Item = SweepPoint>, latency_factor: f64) -> SweepResult {
    let mut points = Vec::new();
    let mut zero_load = None;
    let mut saturation = 0.0f64;
    for point in points_in_order {
        let zl = *zero_load.get_or_insert(point.latency.max(1.0));
        let saturated = is_saturated(&point, zl, latency_factor);
        points.push(point);
        if saturated {
            break;
        }
        saturation = point.accepted;
    }
    SweepResult {
        zero_load_latency: zero_load.unwrap_or(0.0),
        points,
        saturation,
    }
}

/// Sweeps injection rate over `params.rates()`, running a fresh network
/// from `factory` at each rate, until the network saturates or
/// `params.max_rate` is reached. This is the serial reference
/// implementation the [`SweepEngine`] determinism tests compare against;
/// it evaluates points lazily so nothing past the saturation point is
/// simulated.
pub fn latency_sweep<N: Network>(
    mut factory: impl FnMut() -> N,
    pattern: Pattern,
    cfg: &SimConfig,
    params: SweepParams,
) -> SweepResult {
    scan(
        params.rates().into_iter().map(|rate| {
            let mut net = factory();
            evaluate_point(&mut net, pattern, cfg, rate, params.seed)
        }),
        params.latency_factor,
    )
}

/// Shared per-sweep saturation tracking for the parallel workers. This is
/// purely a work-skipping optimisation: `cutoff` only ever holds indices
/// of points that genuinely satisfy the saturation criterion, so it is
/// always ≥ the first saturated index and skipping strictly-beyond-cutoff
/// tasks can never drop a point the final [`scan`] will consume.
struct JobState {
    /// Smallest point index observed (so far) to be saturated; starts at
    /// the point count, i.e. "none known".
    cutoff: AtomicUsize,
    /// Bit pattern of the zero-load latency from point 0; `u64::MAX` (a
    /// NaN payload) until point 0 completes. While still NaN the latency
    /// comparison in [`is_saturated`] is false, so only the seed-
    /// independent delivery-ratio criterion can advance the cutoff — a
    /// conservative under-approximation, still exact.
    zero_load_bits: AtomicU64,
}

impl JobState {
    fn new(points: usize) -> Self {
        JobState {
            cutoff: AtomicUsize::new(points),
            zero_load_bits: AtomicU64::new(u64::MAX),
        }
    }

    fn beyond_cutoff(&self, idx: usize) -> bool {
        idx > self.cutoff.load(Ordering::Acquire)
    }

    fn observe(&self, idx: usize, point: &SweepPoint, latency_factor: f64) {
        if idx == 0 {
            self.zero_load_bits
                .store(point.latency.max(1.0).to_bits(), Ordering::Release);
        }
        let zero_load = f64::from_bits(self.zero_load_bits.load(Ordering::Acquire));
        if is_saturated(point, zero_load, latency_factor) {
            self.cutoff.fetch_min(idx, Ordering::AcqRel);
        }
    }
}

/// One sweep in a [`SweepEngine::sweep_many`] batch: a labelled fabric
/// factory with its own pattern, config, and parameters.
pub struct SweepJob<'a> {
    /// Display label (fabric/pattern), carried through to callers.
    pub label: String,
    /// Traffic pattern to sweep.
    pub pattern: Pattern,
    /// Simulation config for this fabric.
    pub cfg: SimConfig,
    /// Sweep knobs (rates, cutoff, seed).
    pub params: SweepParams,
    factory: Box<dyn Fn() -> Box<dyn Network + 'a> + Send + Sync + 'a>,
}

impl std::fmt::Debug for SweepJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .field("pattern", &self.pattern)
            .field("cfg", &self.cfg)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl<'a> SweepJob<'a> {
    /// Wraps a concrete fabric factory into a batch job. Different jobs
    /// in one batch may build different network types.
    pub fn new<N: Network + 'a>(
        label: impl Into<String>,
        pattern: Pattern,
        cfg: SimConfig,
        params: SweepParams,
        factory: impl Fn() -> N + Send + Sync + 'a,
    ) -> Self {
        SweepJob {
            label: label.into(),
            pattern,
            cfg,
            params,
            factory: Box::new(move || Box::new(factory()) as Box<dyn Network + 'a>),
        }
    }
}

/// Deterministic parallel sweep executor over scoped worker threads.
///
/// [`SweepEngine::map`] is the engine's one worker pool: workers claim
/// items from a shared atomic counter and fill per-item slots.
/// [`SweepEngine::sweep_many`] runs every sweep point as one item of that
/// pool and reduces each job's points with the same serial `scan` the
/// reference uses, so the output is bit-identical at any thread count
/// (see the module-level determinism contract).
///
/// An engine optionally carries a [`TelemetrySink`]
/// ([`SweepEngine::with_telemetry`]); when live, every evaluated sweep
/// point records its rate/latency/throughput gauges and wall time. The
/// telemetry is observation-only — sweep results are unchanged by it.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: usize,
    telemetry: TelemetrySink,
}

impl SweepEngine {
    /// An engine running `threads` workers (≥ 1), without telemetry.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "an engine needs at least one worker");
        SweepEngine {
            threads,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attaches a telemetry sink; per-point samples flow into it from
    /// every sweep this engine runs.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Evaluates one point, recording per-point telemetry when the
    /// engine's sink is live. With a disabled sink this is exactly
    /// [`evaluate_point`].
    fn traced_point<N: Network>(
        &self,
        net: &mut N,
        pattern: Pattern,
        cfg: &SimConfig,
        rate: f64,
        seed: u64,
    ) -> SweepPoint {
        if !self.telemetry.is_enabled() {
            return evaluate_point(net, pattern, cfg, rate, seed);
        }
        let mut rec = self.telemetry.recorder("sweep");
        rec.set_phase("sweep");
        let timer = rec.timer();
        let point = evaluate_point(net, pattern, cfg, rate, seed);
        rec.observe_timer("sweep.point_us", timer);
        rec.incr("sweep.points", 1);
        rec.gauge("sweep.rate", point.rate);
        rec.gauge("sweep.latency", point.latency);
        rec.gauge("sweep.throughput", point.accepted);
        rec.gauge("sweep.delivery_ratio", point.delivery_ratio);
        point
    }

    /// An engine sized to the machine's available parallelism.
    pub fn available() -> Self {
        SweepEngine::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a batch of sweeps — one job, or many patterns and fabrics —
    /// on the worker pool, returning one result per job in order, each
    /// bit-identical to [`latency_sweep`] on that job's inputs at any
    /// thread count. Points are interleaved by point index so every
    /// job's low-rate points — the ones that feed its saturation cutoff —
    /// are claimed early; a point strictly beyond its job's known cutoff
    /// is skipped, being past where the scan stops.
    pub fn sweep_many(&self, jobs: &[SweepJob<'_>]) -> Vec<SweepResult> {
        let rates: Vec<Vec<f64>> = jobs.iter().map(|j| j.params.rates()).collect();
        let max_points = rates.iter().map(Vec::len).max().unwrap_or(0);
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        for point in 0..max_points {
            for (job, job_rates) in rates.iter().enumerate() {
                if point < job_rates.len() {
                    tasks.push((job, point));
                }
            }
        }
        let states: Vec<JobState> = rates.iter().map(|r| JobState::new(r.len())).collect();
        let points = self.map(&tasks, |_, &(j, i)| {
            if states[j].beyond_cutoff(i) {
                return None;
            }
            let job = &jobs[j];
            let mut net = (job.factory)();
            let point = self.traced_point(
                &mut net,
                job.pattern,
                &job.cfg,
                rates[j][i],
                job.params.seed,
            );
            states[j].observe(i, &point, job.params.latency_factor);
            Some(point)
        });
        // Each job's tasks come in increasing point order, so pushing in
        // task order rebuilds every job's row in rate order.
        let mut rows: Vec<Vec<Option<SweepPoint>>> = vec![Vec::new(); jobs.len()];
        for (&(j, _), point) in tasks.iter().zip(points) {
            rows[j].push(point);
        }
        rows.into_iter()
            .zip(jobs)
            .map(|(row, job)| scan(row.into_iter().map_while(|p| p), job.params.latency_factor))
            .collect()
    }

    /// Applies `f` to every item on the worker pool, preserving input
    /// order in the output. This is the engine's one pool: `sweep_many`
    /// runs on it, and so do the benchmark binaries' independent
    /// per-benchmark / per-fabric runs.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
        let n = items.len();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            for _ in 0..self.threads.min(n.max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = f(i, &items[i]);
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        })
        .expect("sweep worker panicked");
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every item is evaluated exactly once")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeshSim, RouterlessSim};
    use rlnoc_baselines::rec_topology;
    use rlnoc_topology::Grid;

    fn quick_cfg(data_flits: usize) -> SimConfig {
        SimConfig {
            warmup: 200,
            measure: 1_500,
            drain: 1_000,
            data_flits,
            ..SimConfig::default()
        }
    }

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            warmup: 100,
            measure: 500,
            drain: 400,
            data_flits: 3,
            ..SimConfig::default()
        }
    }

    fn tiny_params(seed: u64) -> SweepParams {
        SweepParams {
            start: 0.05,
            step: 0.1,
            max_rate: 0.65,
            latency_factor: 4.0,
            seed,
        }
    }

    #[test]
    fn splitmix64_matches_reference_vector() {
        // First outputs of the reference splitmix64 generator seeded 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn point_seeds_decorrelate_inputs() {
        let base = point_seed(7, Pattern::UniformRandom, 0.1);
        assert_ne!(base, point_seed(8, Pattern::UniformRandom, 0.1));
        assert_ne!(base, point_seed(7, Pattern::Tornado, 0.1));
        assert_ne!(base, point_seed(7, Pattern::UniformRandom, 0.105));
        // Deterministic: same inputs, same seed.
        assert_eq!(base, point_seed(7, Pattern::UniformRandom, 0.1));
    }

    #[test]
    fn rates_are_index_based_not_accumulated() {
        let params = SweepParams {
            start: 0.005,
            step: 0.005,
            max_rate: 0.1,
            latency_factor: 4.0,
            seed: 0,
        };
        let rates = params.rates();
        assert_eq!(rates.len(), 20);
        for (i, &r) in rates.iter().enumerate() {
            assert_eq!(r, 0.005 + i as f64 * 0.005);
        }
    }

    #[test]
    fn sweep_terminates_and_orders_points() {
        let g = Grid::square(4).unwrap();
        let params = SweepParams {
            start: 0.02,
            step: 0.04,
            max_rate: 0.5,
            latency_factor: 4.0,
            seed: 1,
        };
        let result = latency_sweep(
            || MeshSim::mesh2(g),
            Pattern::UniformRandom,
            &quick_cfg(3),
            params,
        );
        assert!(!result.points.is_empty());
        assert!(result.zero_load_latency > 0.0);
        for w in result.points.windows(2) {
            assert!(w[1].rate > w[0].rate);
        }
    }

    #[test]
    fn parallel_matches_serial_at_any_thread_count() {
        // The same sweep must be bit-identical serially and at 1, 2, and 8
        // worker threads.
        let g = Grid::square(4).unwrap();
        let cfg = tiny_cfg();
        let params = tiny_params(11);
        let serial = [latency_sweep(
            || MeshSim::mesh2(g),
            Pattern::UniformRandom,
            &cfg,
            params,
        )];
        let jobs = [SweepJob::new(
            "mesh2/uniform",
            Pattern::UniformRandom,
            cfg,
            params,
            || MeshSim::mesh2(g),
        )];
        for threads in [1, 2, 8] {
            let parallel = SweepEngine::new(threads).sweep_many(&jobs);
            assert_eq!(
                parallel, serial,
                "engine with {threads} threads diverged from the serial reference"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_on_routerless() {
        let g = Grid::square(4).unwrap();
        let topo = rec_topology(g).unwrap();
        let cfg = SimConfig {
            data_flits: 5,
            ..tiny_cfg()
        };
        let params = tiny_params(3);
        let serial = latency_sweep(
            || RouterlessSim::new(&topo),
            Pattern::Transpose,
            &cfg,
            params,
        );
        let jobs = [SweepJob::new(
            "rless/transpose",
            Pattern::Transpose,
            cfg,
            params,
            || RouterlessSim::new(&topo),
        )];
        assert_eq!(SweepEngine::new(4).sweep_many(&jobs), [serial]);
    }

    #[test]
    fn sweep_many_matches_individual_sweeps() {
        let g = Grid::square(4).unwrap();
        let topo = rec_topology(g).unwrap();
        let mesh_cfg = tiny_cfg();
        let rless_cfg = SimConfig {
            data_flits: 5,
            ..tiny_cfg()
        };
        let params = tiny_params(5);
        let jobs = vec![
            SweepJob::new(
                "mesh2/uniform",
                Pattern::UniformRandom,
                mesh_cfg.clone(),
                params,
                move || MeshSim::mesh2(g),
            ),
            SweepJob::new(
                "rless/tornado",
                Pattern::Tornado,
                rless_cfg.clone(),
                params,
                {
                    let topo = topo.clone();
                    move || RouterlessSim::new(&topo)
                },
            ),
        ];
        let batch = SweepEngine::new(2).sweep_many(&jobs);
        assert_eq!(batch.len(), 2);
        let mesh_alone = latency_sweep(
            || MeshSim::mesh2(g),
            Pattern::UniformRandom,
            &mesh_cfg,
            params,
        );
        let rless_alone = latency_sweep(
            || RouterlessSim::new(&topo),
            Pattern::Tornado,
            &rless_cfg,
            params,
        );
        assert_eq!(batch[0], mesh_alone);
        assert_eq!(batch[1], rless_alone);
    }

    #[test]
    fn ragged_jobs_match_serial_and_skip_past_the_cutoff() {
        // Two jobs with different rate counts, so the interleaved task
        // list has rows of different lengths. Both saturate before their
        // last rate, so the cutoff skip has points to skip.
        let g = Grid::square(4).unwrap();
        let topo = rec_topology(g).unwrap();
        let mesh_cfg = tiny_cfg();
        let rless_cfg = SimConfig {
            data_flits: 5,
            ..tiny_cfg()
        };
        let mesh_params = SweepParams {
            max_rate: 0.95,
            ..tiny_params(13)
        };
        let rless_params = SweepParams {
            step: 0.05,
            max_rate: 0.9,
            ..tiny_params(17)
        };
        let mesh_calls = AtomicUsize::new(0);
        let rless_calls = AtomicUsize::new(0);
        let jobs = [
            SweepJob::new(
                "mesh2/uniform",
                Pattern::UniformRandom,
                mesh_cfg.clone(),
                mesh_params,
                || {
                    mesh_calls.fetch_add(1, Ordering::Relaxed);
                    MeshSim::mesh2(g)
                },
            ),
            SweepJob::new(
                "rless/uniform",
                Pattern::UniformRandom,
                rless_cfg.clone(),
                rless_params,
                || {
                    rless_calls.fetch_add(1, Ordering::Relaxed);
                    RouterlessSim::new(&topo)
                },
            ),
        ];
        let serial = [
            latency_sweep(
                || MeshSim::mesh2(g),
                Pattern::UniformRandom,
                &mesh_cfg,
                mesh_params,
            ),
            latency_sweep(
                || RouterlessSim::new(&topo),
                Pattern::UniformRandom,
                &rless_cfg,
                rless_params,
            ),
        ];
        assert_ne!(mesh_params.rates().len(), rless_params.rates().len());
        for (result, params) in serial.iter().zip([mesh_params, rless_params]) {
            assert!(result.points.len() < params.rates().len());
        }
        for threads in [1, 2, 8] {
            mesh_calls.store(0, Ordering::Relaxed);
            rless_calls.store(0, Ordering::Relaxed);
            let batch = SweepEngine::new(threads).sweep_many(&jobs);
            assert_eq!(batch, serial, "{threads} threads diverged from serial");
            if threads == 1 {
                // One worker claims points in order, so the cutoff is known
                // before any point past it is claimed: each job builds a
                // network for exactly the points its scan keeps.
                assert_eq!(mesh_calls.load(Ordering::Relaxed), batch[0].points.len());
                assert_eq!(rless_calls.load(Ordering::Relaxed), batch[1].points.len());
            }
        }
    }

    #[test]
    fn map_preserves_order() {
        let engine = SweepEngine::new(4);
        let items: Vec<u64> = (0..23).collect();
        let out = engine.map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn routerless_rec_beats_mesh2_at_8x8() {
        // The headline qualitative result (paper Figures 10/16): at sizes
        // where the mesh bisection binds, routerless saturates later and
        // starts lower. (At 4x4 a mesh's per-node bisection is so high the
        // two fabrics tie on throughput; the paper's gap appears at 8x8+.)
        let g = Grid::square(8).unwrap();
        let topo = rec_topology(g).unwrap();
        let params = SweepParams {
            start: 0.05,
            step: 0.05,
            max_rate: 0.9,
            latency_factor: 4.0,
            seed: 7,
        };
        let mesh = latency_sweep(
            || MeshSim::mesh2(g),
            Pattern::UniformRandom,
            &quick_cfg(3),
            params,
        );
        let rless = latency_sweep(
            || RouterlessSim::new(&topo),
            Pattern::UniformRandom,
            &quick_cfg(5),
            params,
        );
        assert!(
            rless.saturation > mesh.saturation,
            "routerless {} vs mesh {}",
            rless.saturation,
            mesh.saturation
        );
        assert!(
            rless.zero_load_latency < mesh.zero_load_latency,
            "zero-load: routerless {} vs mesh {}",
            rless.zero_load_latency,
            mesh.zero_load_latency
        );
    }
}
