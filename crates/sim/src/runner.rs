//! The fabric-agnostic simulation driver.
//!
//! The hot-path contracts are *sink-based*: [`Network::drain_deliveries`]
//! and [`PacketSource::generate_into`] write into caller-owned reusable
//! buffers, so [`run_with_source`] performs no heap allocation per cycle
//! once the network and its buffers have reached steady state (see the
//! counting-allocator audit in `tests/alloc_free.rs`). The allocating
//! [`Network::take_deliveries`] / [`PacketSource::generate`] conveniences
//! are provided trait methods kept for tests and one-shot callers.
//!
//! The driver also stops early: once generation has ended and
//! [`Network::settled`] holds (nothing in flight and no fault left to
//! apply), the rest of the drain window could change nothing, so
//! [`run_with_source_traced`] stops ticking there. Its `sim.cycles`
//! counter still reports the full warm-up + measure + drain.

use crate::config::SimConfig;
use crate::packet::Packet;
use crate::stats::Metrics;
use crate::traffic::{Pattern, TrafficGen};
use rlnoc_topology::Grid;

/// A delivered packet with its delivery cycle and traversed hop count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The packet that completed.
    pub packet: Packet,
    /// Cycle at which the tail flit reached the destination.
    pub delivered: u64,
    /// Hops traversed by the packet.
    pub hops: u64,
}

/// A simulated NoC fabric that the common driver can run traffic through.
pub trait Network {
    /// The grid the fabric serves.
    fn grid(&self) -> &Grid;

    /// Enqueues a freshly generated packet at its source node.
    fn offer(&mut self, packet: Packet);

    /// Advances the fabric by one cycle.
    fn tick(&mut self, cycle: u64);

    /// Appends packets delivered since the last drain to `out`, leaving
    /// the internal delivery buffer empty (capacity retained). This is
    /// the allocation-free primitive the driver uses every cycle.
    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>);

    /// Removes and returns packets delivered since the last call.
    ///
    /// Allocating convenience over [`Network::drain_deliveries`].
    fn take_deliveries(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.drain_deliveries(&mut out);
        out
    }

    /// Packets currently queued or in flight (for drain accounting).
    fn in_flight(&self) -> usize;

    /// Whether ticking on, with no packet offered, would change nothing
    /// the driver observes: nothing is in flight and no scheduled event is
    /// left. [`run_with_source_traced`] stops its drain phase once this
    /// holds. The default is `in_flight() == 0`; a fabric with scheduled
    /// faults overrides it.
    fn settled(&self) -> bool {
        self.in_flight() == 0
    }

    /// Records fabric-specific end-of-run telemetry (cumulative drop
    /// counters, occupancy gauges, ...) into `rec`. Counters published
    /// here are lifetime totals, so call it once per run — the traced
    /// drivers ([`run_with_source_traced`]) do. The default records
    /// nothing.
    fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        let _ = rec;
    }
}

impl<N: Network + ?Sized> Network for Box<N> {
    fn grid(&self) -> &Grid {
        (**self).grid()
    }
    fn offer(&mut self, packet: Packet) {
        (**self).offer(packet)
    }
    fn tick(&mut self, cycle: u64) {
        (**self).tick(cycle)
    }
    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        (**self).drain_deliveries(out)
    }
    fn take_deliveries(&mut self) -> Vec<Delivery> {
        (**self).take_deliveries()
    }
    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }
    fn settled(&self) -> bool {
        (**self).settled()
    }
    fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        (**self).telemetry_sample(rec)
    }
}

/// A source of packets driving a simulation — synthetic patterns
/// ([`TrafficGen`]) or application models (the `rlnoc-workloads` crate).
pub trait PacketSource {
    /// Appends this cycle's new packets to `out` (marked `measured`
    /// inside the measurement window). The caller owns and reuses `out`;
    /// implementations must only append.
    fn generate_into(&mut self, cycle: u64, cfg: &SimConfig, measured: bool, out: &mut Vec<Packet>);

    /// This cycle's new packets, as a fresh vector.
    ///
    /// Allocating convenience over [`PacketSource::generate_into`].
    fn generate(&mut self, cycle: u64, cfg: &SimConfig, measured: bool) -> Vec<Packet> {
        let mut out = Vec::new();
        self.generate_into(cycle, cfg, measured, &mut out);
        out
    }
}

impl PacketSource for TrafficGen {
    fn generate_into(
        &mut self,
        cycle: u64,
        cfg: &SimConfig,
        measured: bool,
        out: &mut Vec<Packet>,
    ) {
        TrafficGen::generate_into(self, cycle, cfg, measured, out);
    }
}

/// Runs a traffic experiment from any [`PacketSource`]: warm-up,
/// measurement, and drain phases, returning aggregated [`Metrics`].
///
/// This is [`run_with_source_traced`] with a disabled recorder.
pub fn run_with_source<N: Network>(
    net: &mut N,
    source: &mut impl PacketSource,
    cfg: &SimConfig,
) -> Metrics {
    run_with_source_traced(net, source, cfg, &mut rlnoc_telemetry::Recorder::disabled())
}

/// [`run_with_source`] plus telemetry: counts *every* injected and
/// delivered packet/flit (warm-up and drain included, unlike `Metrics`'
/// measurement-window accounting), records the latency distribution and
/// end-of-run in-flight backlog, and samples fabric-specific counters via
/// [`Network::telemetry_sample`].
///
/// The per-cycle loop reuses two caller-local buffers (new packets and
/// drained deliveries) and the sink-based trait methods, so it allocates
/// nothing per cycle in steady state; the counters are plain locals,
/// published once at the end only when `rec` is live. The drain phase
/// ends as soon as the fabric is [`Network::settled`].
///
/// Telemetry is observation-only: the returned [`Metrics`] are the same
/// whether `rec` is live or disabled (asserted by the golden-trace tests).
/// The emitted counters satisfy the conservation identity:
/// `sim.packets_injected` equals the sum of `sim.packets_delivered`,
/// `sim.packets_in_flight_end`, `sim.unroutable_packets`, and
/// `sim.dropped_by_fault_packets` (the last two from the routerless
/// fabric's sample; faultless meshes drop nothing).
pub fn run_with_source_traced<N: Network>(
    net: &mut N,
    source: &mut impl PacketSource,
    cfg: &SimConfig,
    rec: &mut rlnoc_telemetry::Recorder,
) -> Metrics {
    let timer = rec.timer();
    let grid = *net.grid();
    let mut metrics = Metrics::new(grid.len(), cfg.measure);
    let total = cfg.warmup + cfg.measure + cfg.drain;
    let mut fresh: Vec<Packet> = Vec::new();
    let mut delivered: Vec<Delivery> = Vec::new();
    let mut injected_packets = 0u64;
    let mut injected_flits = 0u64;
    let mut delivered_packets = 0u64;
    let mut delivered_flits = 0u64;
    for cycle in 0..total {
        // Generation stops after the measurement window so the drain phase
        // can empty the network; once it has, the remaining cycles would
        // change nothing.
        if cycle >= cfg.warmup + cfg.measure {
            if net.settled() {
                break;
            }
        } else {
            let measured = cycle >= cfg.warmup;
            fresh.clear();
            source.generate_into(cycle, cfg, measured, &mut fresh);
            for &p in &fresh {
                injected_packets += 1;
                injected_flits += p.flits as u64;
                if measured {
                    metrics.record_offered(p.flits);
                }
                net.offer(p);
            }
        }
        net.tick(cycle);
        delivered.clear();
        net.drain_deliveries(&mut delivered);
        for d in &delivered {
            delivered_packets += 1;
            delivered_flits += d.packet.flits as u64;
            if d.packet.measured {
                metrics.record_delivery(d.delivered - d.packet.created, d.hops, d.packet.flits);
            }
        }
    }
    if rec.is_enabled() {
        rec.incr("sim.cycles", total);
        rec.incr("sim.packets_injected", injected_packets);
        rec.incr("sim.flits_injected", injected_flits);
        rec.incr("sim.packets_delivered", delivered_packets);
        rec.incr("sim.flits_delivered", delivered_flits);
        rec.incr("sim.packets_in_flight_end", net.in_flight() as u64);
        // Mirror the measurement-window latency histogram (exact per-cycle
        // counts; the overflow bucket is reported at the observed max).
        let hist = &metrics.latency_hist;
        if let Some((&overflow, exact)) = hist.split_last() {
            let mut h = rlnoc_telemetry::Histogram::from_linear_counts(exact);
            h.record_n(metrics.max_latency, overflow);
            rec.merge_hist("sim.packet_latency", &h);
        }
        net.telemetry_sample(rec);
        rec.observe_timer("sim.run_us", timer);
        rec.flush();
    }
    metrics
}

/// Runs a synthetic-traffic experiment at `rate` flits/node/cycle (the
/// paper's x-axes), returning aggregated [`Metrics`].
pub fn run_synthetic<N: Network>(
    net: &mut N,
    pattern: Pattern,
    rate: f64,
    cfg: &SimConfig,
    seed: u64,
) -> Metrics {
    let mut gen = TrafficGen::new(*net.grid(), pattern, rate, seed);
    run_with_source(net, &mut gen, cfg)
}

/// [`run_synthetic`] with inputs validated at the boundary: the rate must
/// lie in `(0, 1]` and `cfg` must pass [`SimConfig::validate`], returning
/// a typed [`SimError`](crate::SimError) instead of misbehaving deep in
/// the tick loop.
pub fn run_synthetic_checked<N: Network>(
    net: &mut N,
    pattern: Pattern,
    rate: f64,
    cfg: &SimConfig,
    seed: u64,
) -> Result<Metrics, crate::SimError> {
    crate::error::validate_rate(rate)?;
    cfg.validate()?;
    Ok(run_synthetic(net, pattern, rate, cfg, seed))
}
