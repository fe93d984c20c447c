//! The drain stop: `run_with_source_traced` stops ticking once generation
//! has ended and the fabric is settled. Each fabric here runs twice, once
//! through the driver and once through a hand loop that ticks every cycle
//! of warm-up, measurement and drain; both must report the same metrics,
//! telemetry counters and applied faults. The routerless plan kills one
//! loop early in the drain window, while flits still ride it, and one
//! late, after the network has emptied: stopping before that event would
//! leave it unapplied.

use rlnoc_baselines::rec_topology;
use rlnoc_sim::traffic::{Pattern, TrafficGen};
use rlnoc_sim::{
    run_with_source_traced, Delivery, FaultPlan, MeshSim, Metrics, Network, Packet, RouterlessSim,
    SimConfig,
};
use rlnoc_telemetry::{GaugeStat, Recorder, TelemetrySink};
use rlnoc_topology::Grid;

/// Warm-up, measurement and drain windows over `base`'s packet mix.
fn cfg(base: SimConfig) -> SimConfig {
    SimConfig {
        warmup: 100,
        measure: 400,
        drain: 600,
        ..base
    }
}

/// A fabric that counts the ticks it is given.
struct Counted<N> {
    net: N,
    ticks: u64,
}

impl<N: Network> Network for Counted<N> {
    fn grid(&self) -> &Grid {
        self.net.grid()
    }
    fn offer(&mut self, packet: Packet) {
        self.net.offer(packet);
    }
    fn tick(&mut self, cycle: u64) {
        self.ticks += 1;
        self.net.tick(cycle);
    }
    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        self.net.drain_deliveries(out);
    }
    fn in_flight(&self) -> usize {
        self.net.in_flight()
    }
    fn settled(&self) -> bool {
        self.net.settled()
    }
    fn telemetry_sample(&self, rec: &mut Recorder) {
        self.net.telemetry_sample(rec);
    }
}

/// `run_with_source_traced` without the drain stop, recording the same
/// counters.
fn run_every_cycle<N: Network>(
    net: &mut N,
    source: &mut TrafficGen,
    cfg: &SimConfig,
    rec: &mut Recorder,
) -> Metrics {
    let mut metrics = Metrics::new(net.grid().len(), cfg.measure);
    let total = cfg.warmup + cfg.measure + cfg.drain;
    let (mut injected, mut injected_flits, mut delivered, mut delivered_flits) = (0, 0, 0, 0);
    let mut done = Vec::new();
    for cycle in 0..total {
        if cycle < cfg.warmup + cfg.measure {
            let measured = cycle >= cfg.warmup;
            for p in source.generate(cycle, cfg, measured) {
                injected += 1;
                injected_flits += p.flits as u64;
                if measured {
                    metrics.record_offered(p.flits);
                }
                net.offer(p);
            }
        }
        net.tick(cycle);
        done.clear();
        net.drain_deliveries(&mut done);
        for d in &done {
            delivered += 1;
            delivered_flits += d.packet.flits as u64;
            if d.packet.measured {
                metrics.record_delivery(d.delivered - d.packet.created, d.hops, d.packet.flits);
            }
        }
    }
    rec.incr("sim.cycles", total);
    rec.incr("sim.packets_injected", injected);
    rec.incr("sim.flits_injected", injected_flits);
    rec.incr("sim.packets_delivered", delivered);
    rec.incr("sim.flits_delivered", delivered_flits);
    rec.incr("sim.packets_in_flight_end", net.in_flight() as u64);
    net.telemetry_sample(rec);
    rec.flush();
    metrics
}

/// The counters and the calendar-occupancy gauge a sink collected.
fn totals(sink: &TelemetrySink) -> (Vec<(&'static str, u64)>, Option<GaugeStat>) {
    let mut counters = sink.totals().counters().to_vec();
    counters.sort_unstable();
    (counters, sink.gauge_total("sim.calendar_occupancy"))
}

/// Runs `make()` both ways at `rate` and asserts they agree; returns the
/// driven fabric, the hand-looped one, and the ticks the driver gave.
fn both_ways<N: Network>(make: impl Fn() -> N, cfg: &SimConfig, rate: f64) -> (N, N, u64) {
    let gen = || TrafficGen::new(Grid::square(4).unwrap(), Pattern::UniformRandom, rate, 7);
    let sink = TelemetrySink::enabled();
    let mut driven = Counted {
        net: make(),
        ticks: 0,
    };
    let stopped = run_with_source_traced(&mut driven, &mut gen(), cfg, &mut sink.recorder("sim"));

    let hand_sink = TelemetrySink::enabled();
    let mut every = make();
    let full = run_every_cycle(&mut every, &mut gen(), cfg, &mut hand_sink.recorder("sim"));

    assert!(full.packets > 0);
    assert_eq!(stopped, full, "the drain stop must not change the metrics");
    assert_eq!(totals(&sink), totals(&hand_sink), "nor the telemetry");
    (driven.net, every, driven.ticks)
}

#[test]
fn mesh_drain_stop_changes_nothing() {
    let cfg = cfg(SimConfig::mesh());
    let (_, every, ticks) = both_ways(|| MeshSim::mesh2(Grid::square(4).unwrap()), &cfg, 0.1);
    assert_eq!(every.in_flight(), 0);
    assert!(
        ticks < cfg.warmup + cfg.measure + cfg.drain,
        "an emptied mesh stops early ({ticks} ticks)"
    );
}

#[test]
fn routerless_drain_stop_waits_for_the_last_fault() {
    let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
    let cfg = cfg(SimConfig::routerless());
    let end_of_generation = cfg.warmup + cfg.measure;
    let last_kill = end_of_generation + 500;
    let mut plan = FaultPlan::new();
    plan.kill_loop(end_of_generation + 2, 0)
        .kill_loop(last_kill, 3);
    let (driven, every, ticks) = both_ways(
        || RouterlessSim::with_faults(&topo, plan.clone()),
        &cfg,
        0.3,
    );
    assert_eq!(driven.applied_faults(), every.applied_faults());
    assert!(
        driven.applied_faults().loop_failed(3),
        "the late kill applies"
    );
    assert!(driven.dropped_by_fault() > 0, "the early kill finds flits");
    assert_eq!(
        ticks,
        last_kill + 1,
        "ticking stops right after the last event"
    );
}
