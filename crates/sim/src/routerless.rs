//! The routerless fabric: one dedicated ring of wires per loop,
//! single-cycle hops, source routing, priority to passing traffic.
//!
//! The cycle kernel is allocation-free in steady state, and a cycle costs
//! work in proportion to its traffic, not to the fabric's size. Each lane
//! keeps a persistent array of slots that never moves: advancing the ring
//! rotates the *frame*, not the data, and a lane's rotation is the tick
//! count modulo its length, so advancing every lane costs nothing. A flit
//! injected into a physical slot stays in that slot until ejection; the
//! node a slot currently fronts follows from the rotation. Rings never
//! block, so every flit's arrival is known at injection: the flit is
//! booked in its lane's calendar (flat arrays, one bucket per rotation),
//! and the lane is marked due at its arrival tick in a ring of lane
//! bitsets. The ejection pass visits only the lanes due this tick, in
//! lane-index order, and in each only the slots due; a flit passing
//! through costs nothing at all. Injection visits only the nodes with a
//! queued packet or an injection in progress.

use crate::bits;
use crate::fault::{FaultEvent, FaultPlan};
use crate::ledger::Ledger;
use crate::packet::Packet;
use crate::runner::{Delivery, Network};
use rlnoc_topology::{FaultSet, Grid, NodeId, RoutingTable, Topology};
use std::collections::VecDeque;

/// Sentinel for an unoccupied slot in [`Lane::slots`].
const EMPTY: u32 = u32::MAX;

/// One loop's wiring: node order and the flit occupying each slot.
///
/// The flit in physical slot `s` is currently *at* node
/// `nodes[(s + rot) % len]`, where `rot` is the tick count modulo `len`:
/// ticking advances every flit one position with no data movement.
#[derive(Debug, Clone)]
struct Lane {
    nodes: Vec<NodeId>,
    /// Position of each node on this lane (`None` if off-lane), indexed by
    /// node id.
    pos: Vec<Option<usize>>,
    /// Ledger handle of the flit in each physical slot ([`EMPTY`] when
    /// unoccupied).
    slots: Vec<u32>,
    /// Ejection calendar, `len` buckets of `len` entries: bucket `r`,
    /// `calendar[r * len..][..booked[r]]`, holds the slots whose flit
    /// fronts its destination when the rotation is `r`. A deflected entry
    /// stays in its bucket, which recurs exactly one full circle later. A
    /// slot holds one flit, so no bucket outgrows its `len` entries.
    calendar: Vec<u32>,
    /// Entries booked in each calendar bucket.
    booked: Vec<usize>,
}

impl Lane {
    /// Physical slot fronting node position `p` at rotation `rot`.
    fn slot_of(&self, p: usize, rot: usize) -> usize {
        let len = self.nodes.len();
        (p + len - rot) % len
    }

    /// This lane's rotation after `ticks` ticks.
    fn rot(&self, ticks: u64) -> usize {
        (ticks % self.nodes.len() as u64) as usize
    }
}

/// The lanes with an ejection due at each of the next ticks: a ring of
/// lane bitsets, indexed by tick modulo a length that exceeds every
/// lane's, so a booking never lands on the tick being served.
#[derive(Debug, Clone)]
struct DueLanes {
    /// Words per bitset.
    words: usize,
    /// Bitsets in the ring.
    span: u64,
    ring: Vec<u64>,
}

impl DueLanes {
    fn new(lanes: &[Lane]) -> Self {
        let words = bits::words(lanes.len());
        let span = lanes.iter().map(|l| l.nodes.len()).max().unwrap_or(0) + 1;
        DueLanes {
            words,
            span: span as u64,
            ring: vec![0; span * words],
        }
    }

    /// Marks `lane` due at tick `at`.
    fn mark(&mut self, at: u64, lane: usize) {
        let base = (at % self.span) as usize * self.words;
        bits::insert(&mut self.ring[base..base + self.words], lane);
    }

    /// Takes word `w` of the bitset of lanes due at tick `at`.
    fn take(&mut self, at: u64, w: usize) -> u64 {
        std::mem::take(&mut self.ring[(at % self.span) as usize * self.words + w])
    }
}

/// An injection in progress: the flits of packet `handle` still to be
/// placed onto `lane` at lane position `pos`. Each reaches the packet's
/// destination `hops` advances after it is placed.
#[derive(Debug, Clone, Copy)]
struct ActiveInjection {
    handle: u32,
    lane: usize,
    pos: usize,
    /// In `1..=len`: a self-addressed packet rides one full circle.
    hops: usize,
    flits_left: usize,
}

/// Cycle-accurate simulator for a routerless NoC [`Topology`].
///
/// Model (paper §2.1/§5): every loop is an independent ring of links; a
/// flit advances one hop per cycle and is never blocked (passing traffic
/// has priority over injection, so rings never back-pressure); each node
/// injects at most one flit per cycle and only into an empty slot of the
/// loop its routing table selects; ejection happens concurrently on every
/// loop passing a node. Packets destined for unreachable nodes are counted
/// in [`RouterlessSim::unroutable`] and dropped.
#[derive(Debug, Clone)]
pub struct RouterlessSim {
    grid: Grid,
    routing: RoutingTable,
    lanes: Vec<Lane>,
    /// Ticks run so far; each lane's rotation derives from it.
    ticks: u64,
    due: DueLanes,
    /// Handles of the packets waiting at each node, oldest first.
    queues: Vec<VecDeque<u32>>,
    active: Vec<Option<ActiveInjection>>,
    /// Bitset of the nodes with a queued packet or an injection in
    /// progress (possibly stale after a loop kill aborts one).
    pending: Vec<u64>,
    ledger: Ledger,
    unroutable: u64,
    /// Max flits a node may eject per cycle across all loops; `None`
    /// models REC's per-loop ejection links (unlimited).
    ejection_limit: Option<usize>,
    /// Flits that circled past their destination because the ejection
    /// ports were busy (only possible with an ejection limit).
    deflections: u64,
    /// Per node, the last tick it ejected in and its ejections in that
    /// tick (read only while an ejection limit is set).
    ejected_at: Vec<(u64, usize)>,
    /// The topology, retained by [`RouterlessSim::with_faults`] so the
    /// routing table can be re-derived over the survivors after each
    /// loop kill.
    topo: Option<Box<Topology>>,
    /// Faults applied so far, in topology-layer form.
    applied: FaultSet,
}

impl RouterlessSim {
    /// Builds a simulator over `topo` (which should be fully connected for
    /// meaningful workloads).
    pub fn new(topo: &Topology) -> Self {
        RouterlessSim::with_routing(topo, RoutingTable::build(topo))
    }

    /// Builds a simulator with a custom routing table (e.g. a
    /// [`rlnoc_topology::RoutingPolicy::Balanced`] table), for routing
    /// ablations.
    ///
    /// # Panics
    ///
    /// Panics if the table was built for a different node count.
    pub fn with_routing(topo: &Topology, routing: RoutingTable) -> Self {
        let grid = *topo.grid();
        assert_eq!(
            routing.num_nodes(),
            grid.len(),
            "routing table size mismatch"
        );
        let lanes: Vec<Lane> = topo
            .loops()
            .iter()
            .map(|l| {
                let nodes = l.perimeter_nodes(&grid);
                let mut pos = vec![None; grid.len()];
                for (i, &n) in nodes.iter().enumerate() {
                    pos[n] = Some(i);
                }
                let len = nodes.len();
                Lane {
                    nodes,
                    pos,
                    slots: vec![EMPTY; len],
                    calendar: vec![0; len * len],
                    booked: vec![0; len],
                }
            })
            .collect();
        RouterlessSim {
            grid,
            routing,
            due: DueLanes::new(&lanes),
            lanes,
            ticks: 0,
            queues: vec![VecDeque::new(); grid.len()],
            active: vec![None; grid.len()],
            pending: vec![0; bits::words(grid.len())],
            ledger: Ledger::default(),
            unroutable: 0,
            ejection_limit: None,
            deflections: 0,
            ejected_at: vec![(0, 0); grid.len()],
            topo: None,
            applied: FaultSet::new(),
        }
    }

    /// Builds a simulator that replays `plan` as it runs: each loop kill
    /// drops the loop's in-flight flits, accounts the lost packets in
    /// [`RouterlessSim::dropped_by_fault`], and re-derives the routing
    /// table over the surviving loops ([`RoutingTable::rebuild_excluding`]).
    /// An empty plan behaves bit-identically to [`RouterlessSim::new`].
    pub fn with_faults(topo: &Topology, plan: FaultPlan) -> Self {
        let mut sim = RouterlessSim::new(topo);
        sim.ledger = Ledger::with_plan(plan);
        sim.topo = Some(Box::new(topo.clone()));
        sim
    }

    /// Applies every scheduled loop kill whose activation cycle has
    /// arrived, then rebuilds the routing table if a loop died. No-op (one
    /// branch) without a plan or between events.
    fn apply_due_faults(&mut self, cycle: u64) {
        let mut killed = false;
        while let Some(FaultEvent::KillLoop { loop_index, .. }) = self.ledger.next_due(cycle) {
            if loop_index >= self.lanes.len() || self.applied.loop_failed(loop_index) {
                continue;
            }
            self.applied.fail_loop(loop_index);
            killed = true;
            // Drain the lane: every on-board flit is destroyed, and its
            // packet condemned with any packet still injecting onto it.
            // The lane may stay marked due; its empty buckets eject nothing.
            let lane = &mut self.lanes[loop_index];
            let mut lost: Vec<u32> = lane
                .slots
                .iter_mut()
                .filter(|h| **h != EMPTY)
                .map(|h| std::mem::replace(h, EMPTY))
                .collect();
            let flits = lost.len() as u64;
            lane.booked.fill(0);
            for act in &mut self.active {
                if let Some(a) = act.filter(|a| a.lane == loop_index) {
                    lost.push(a.handle);
                    *act = None;
                }
            }
            self.ledger.condemn(flits, lost);
        }
        if killed {
            let topo = self
                .topo
                .as_deref()
                .expect("only a fault plan schedules faults");
            self.routing = RoutingTable::rebuild_excluding(topo, &self.applied).0;
        }
    }

    /// Packets condemned by injected faults (each counted once, in the
    /// cycle the fault destroyed their first flit).
    pub fn dropped_by_fault(&self) -> u64 {
        self.ledger.dropped_packets()
    }

    /// Individual flits destroyed by injected faults.
    pub fn dropped_fault_flits(&self) -> u64 {
        self.ledger.dropped_flits()
    }

    /// The faults applied so far (empty without a plan).
    pub fn applied_faults(&self) -> FaultSet {
        self.applied.clone()
    }

    /// Caps how many flits each node may eject per cycle across all its
    /// loops. The paper's REC interface provides one ejection link per
    /// loop (effectively unlimited, the default); a shared-port interface
    /// (limit 1-2) deflects arriving flits around their loop when the port
    /// is busy — this models that cheaper interface for ablation studies.
    pub fn set_ejection_limit(&mut self, limit: Option<usize>) {
        self.ejection_limit = limit;
    }

    /// Packets dropped because no loop reaches their destination.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Flits that circled past their destination because of the ejection
    /// limit.
    pub fn deflections(&self) -> u64 {
        self.deflections
    }

    /// Ejection-calendar occupancy: `(scheduled, capacity)` where
    /// `scheduled` is the number of slot indices currently booked across
    /// every lane's calendar and `capacity` is the total slot count of all
    /// lanes. The ratio is the fraction of in-loop wiring carrying flits
    /// that still owe an ejection.
    pub fn calendar_occupancy(&self) -> (usize, usize) {
        let mut scheduled = 0;
        let mut capacity = 0;
        for lane in &self.lanes {
            scheduled += lane.booked.iter().sum::<usize>();
            capacity += lane.slots.len();
        }
        (scheduled, capacity)
    }

    /// Ejects the flits of lane `l` that front their destination this
    /// tick, subject to the per-node ejection limit.
    fn eject_due(&mut self, l: usize, cycle: u64) {
        let ticks = self.ticks;
        let lane = &mut self.lanes[l];
        let len = lane.nodes.len();
        let rot = lane.rot(ticks);
        let bucket = rot * len;
        let mut i = 0;
        while i < lane.booked[rot] {
            let s = lane.calendar[bucket + i] as usize;
            let mut p = s + rot;
            if p >= len {
                p -= len;
            }
            let node = lane.nodes[p];
            if let Some(lim) = self.ejection_limit {
                let (at, count) = &mut self.ejected_at[node];
                if *at != ticks {
                    *at = ticks;
                    *count = 0;
                }
                if *count >= lim {
                    // Ejection port busy: deflect around the loop. The
                    // kept entry recurs when this bucket next comes up —
                    // one full circle later.
                    self.deflections += 1;
                    i += 1;
                    continue;
                }
                *count += 1;
            }
            lane.booked[rot] -= 1;
            lane.calendar[bucket + i] = lane.calendar[bucket + lane.booked[rot]];
            let handle = std::mem::replace(&mut lane.slots[s], EMPTY);
            // The packet rode this lane from its source, so its hop count
            // is the source's distance along the lane.
            self.ledger.eject(handle, cycle, |packet| {
                let ps = lane.pos[packet.src].expect("source on lane");
                ((p + len - ps) % len) as u64
            });
        }
        if lane.booked[rot] > 0 {
            self.due.mark(ticks + len as u64, l);
        }
    }

    /// Places the next flit of `node`'s packet, starting its oldest
    /// routable queued packet if none is injecting: one flit per node,
    /// only into an empty slot, so passing traffic always has priority.
    fn inject(&mut self, node: NodeId) {
        if self.active[node].is_none() {
            while let Some(handle) = self.queues[node].pop_front() {
                let packet = *self.ledger.packet(handle);
                let Some(route) = self.routing.route(packet.src, packet.dst) else {
                    self.unroutable += 1;
                    self.ledger.unroutable(handle);
                    continue;
                };
                let lane = &self.lanes[route.loop_index];
                let len = lane.nodes.len();
                let pos =
                    lane.pos[node].expect("routing table only picks loops through the source");
                let dst = lane.pos[packet.dst]
                    .expect("routing table only picks loops through the destination");
                self.active[node] = Some(ActiveInjection {
                    handle,
                    lane: route.loop_index,
                    pos,
                    hops: (dst + len - pos - 1) % len + 1,
                    flits_left: packet.flits,
                });
                break;
            }
        }
        let Some(mut act) = self.active[node] else {
            bits::remove(&mut self.pending, node);
            return;
        };
        let lane = &mut self.lanes[act.lane];
        let len = lane.nodes.len();
        let rot = lane.rot(self.ticks);
        let s = lane.slot_of(act.pos, rot);
        if lane.slots[s] != EMPTY {
            return;
        }
        lane.slots[s] = act.handle;
        let bucket = (rot + act.hops) % len;
        lane.calendar[bucket * len + lane.booked[bucket]] = s as u32;
        lane.booked[bucket] += 1;
        self.due.mark(self.ticks + act.hops as u64, act.lane);
        act.flits_left -= 1;
        if act.flits_left > 0 {
            self.active[node] = Some(act);
        } else {
            self.active[node] = None;
            if self.queues[node].is_empty() {
                bits::remove(&mut self.pending, node);
            }
        }
    }
}

impl Network for RouterlessSim {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn offer(&mut self, packet: Packet) {
        let handle = self.ledger.offer(packet);
        self.queues[packet.src].push_back(handle);
        bits::insert(&mut self.pending, packet.src);
    }

    fn tick(&mut self, cycle: u64) {
        // Phase 0: activate any faults scheduled for this cycle (no-op
        // without a plan).
        self.apply_due_faults(cycle);

        // Phase 1: every lane advances one hop (its rotation follows the
        // tick count), and the lanes due this tick eject the flits that
        // front their destination, in lane-index order: under an ejection
        // limit, lower lanes take a node's ports first.
        self.ticks += 1;
        for w in 0..self.due.words {
            let mut word = self.due.take(self.ticks, w);
            while word != 0 {
                let l = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.eject_due(l, cycle);
            }
        }

        // Phase 2: injection, in node order.
        for w in 0..self.pending.len() {
            let mut word = self.pending[w];
            while word != 0 {
                let node = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.inject(node);
            }
        }
    }

    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        self.ledger.drain(out);
    }

    fn in_flight(&self) -> usize {
        self.ledger.in_flight()
    }

    fn settled(&self) -> bool {
        self.ledger.settled()
    }

    fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        rec.incr("sim.unroutable_packets", self.unroutable());
        self.ledger.telemetry_sample(rec);
        rec.incr("sim.deflected_flits", self.deflections());
        let (scheduled, capacity) = self.calendar_occupancy();
        if capacity > 0 {
            rec.gauge("sim.calendar_occupancy", scheduled as f64 / capacity as f64);
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::packet::PacketKind;
    use crate::runner::run_synthetic;
    use crate::traffic::Pattern;
    use rlnoc_baselines::rec_topology;
    use rlnoc_topology::{Direction, RectLoop};

    fn single_packet(src: NodeId, dst: NodeId, flits: usize) -> Packet {
        Packet {
            id: 0,
            src,
            dst,
            kind: PacketKind::Data,
            flits,
            created: 0,
            measured: true,
        }
    }

    fn ring_2x2() -> Topology {
        Topology::from_loops(
            Grid::square(2).unwrap(),
            [RectLoop::new(0, 0, 1, 1, Direction::Clockwise).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn zero_load_latency_is_hops_plus_serialization() {
        // 2x2 CW ring: node 0 → node 3 is 2 hops. A 1-flit packet injected
        // at cycle 0 must arrive at cycle 2; a 3-flit packet at cycle 4.
        for (flits, expect) in [(1usize, 2u64), (3, 4)] {
            let mut sim = RouterlessSim::new(&ring_2x2());
            sim.offer(single_packet(0, 3, flits));
            let mut delivered = None;
            for cycle in 0..20 {
                sim.tick(cycle);
                if let Some(d) = sim.take_deliveries().pop() {
                    delivered = Some(d);
                    break;
                }
            }
            let d = delivered.expect("packet must arrive");
            assert_eq!(d.delivered, expect, "{flits}-flit packet");
            assert_eq!(d.hops, 2);
            assert_eq!(sim.in_flight(), 0);
        }
    }

    #[test]
    fn passing_traffic_has_priority_over_injection() {
        // Saturate the ring from node 0, then ask node 1 to inject: node 1
        // must wait for a gap.
        let topo = ring_2x2();
        let mut sim = RouterlessSim::new(&topo);
        // Node 0 → node 2 (3 hops CW), long packet occupies slots.
        sim.offer(Packet {
            id: 9,
            ..single_packet(0, 2, 4)
        });
        sim.tick(0); // head flit placed at node 0's slot
        sim.tick(1);
        // Now node 1 wants to inject; the slot at node 1 is occupied by the
        // passing flit each cycle until the first packet fully passes.
        sim.offer(Packet {
            id: 10,
            ..single_packet(1, 0, 1)
        });
        let mut arrivals = Vec::new();
        for cycle in 2..30 {
            sim.tick(cycle);
            arrivals.extend(sim.take_deliveries());
        }
        assert_eq!(arrivals.len(), 2);
        let first = arrivals.iter().find(|d| d.packet.id == 9).unwrap();
        let second = arrivals.iter().find(|d| d.packet.id == 10).unwrap();
        assert!(second.delivered > first.delivered - 4, "injection waited");
    }

    #[test]
    fn unroutable_packets_are_counted() {
        // One loop on a 4x4 leaves inner nodes unreachable.
        let topo = Topology::from_loops(
            Grid::square(4).unwrap(),
            [RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap()],
        )
        .unwrap();
        let mut sim = RouterlessSim::new(&topo);
        let inner = topo.grid().node_at(1, 1);
        sim.offer(single_packet(0, inner, 1));
        sim.tick(0);
        assert_eq!(sim.unroutable(), 1);
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn conservation_at_low_load() {
        let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
        let mut sim = RouterlessSim::new(&topo);
        let cfg = SimConfig {
            warmup: 100,
            measure: 1_000,
            drain: 1_000,
            ..SimConfig::routerless()
        };
        let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.02, &cfg, 3);
        assert!(m.packets > 0);
        assert!(
            m.delivery_ratio() > 0.99,
            "low load must deliver ~everything: {}",
            m.delivery_ratio()
        );
        assert_eq!(sim.in_flight(), 0, "network must drain");
        assert_eq!(sim.unroutable(), 0);
    }

    #[test]
    fn latency_rises_with_load() {
        let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
        let cfg = SimConfig {
            warmup: 200,
            measure: 2_000,
            drain: 2_000,
            ..SimConfig::routerless()
        };
        let low = run_synthetic(
            &mut RouterlessSim::new(&topo),
            Pattern::UniformRandom,
            0.02,
            &cfg,
            1,
        );
        let high = run_synthetic(
            &mut RouterlessSim::new(&topo),
            Pattern::UniformRandom,
            0.25,
            &cfg,
            1,
        );
        assert!(
            high.avg_packet_latency() > low.avg_packet_latency(),
            "latency must rise with load: {} vs {}",
            low.avg_packet_latency(),
            high.avg_packet_latency()
        );
    }

    #[test]
    fn ejection_limit_deflects_but_still_delivers() {
        // Two single-flit packets from different loops arrive at the same
        // node on the same cycle; with limit 1 one of them must circle.
        let g = Grid::square(2).unwrap();
        let topo = Topology::from_loops(
            g,
            [
                RectLoop::new(0, 0, 1, 1, Direction::Clockwise).unwrap(),
                RectLoop::new(0, 0, 1, 1, Direction::Counterclockwise).unwrap(),
            ],
        )
        .unwrap();
        let mut sim = RouterlessSim::new(&topo);
        sim.set_ejection_limit(Some(1));
        // CW: node 1 → node 0 is 3 hops. CCW: node 2 → node 0 is ... CCW
        // order 0,2,3,1: node 2 → 0 is 3 hops too. Wait — pick pairs that
        // arrive together: src 1 via CW (3 hops), src 2 via CCW (3 hops).
        sim.offer(Packet {
            id: 1,
            ..single_packet(1, 0, 1)
        });
        sim.offer(Packet {
            id: 2,
            ..single_packet(2, 0, 1)
        });
        let mut delivered = Vec::new();
        for cycle in 0..40 {
            sim.tick(cycle);
            delivered.extend(sim.take_deliveries());
            if delivered.len() == 2 {
                break;
            }
        }
        assert_eq!(delivered.len(), 2, "deflection must not drop packets");
        if sim.deflections() > 0 {
            // The deflected flit circled a full 4-node loop extra.
            let times: Vec<u64> = delivered.iter().map(|d| d.delivered).collect();
            assert_ne!(times[0], times[1]);
        }
        // Unlimited ejection never deflects.
        let mut free = RouterlessSim::new(&topo);
        free.offer(Packet {
            id: 1,
            ..single_packet(1, 0, 1)
        });
        free.offer(Packet {
            id: 2,
            ..single_packet(2, 0, 1)
        });
        for cycle in 0..40 {
            free.tick(cycle);
            free.take_deliveries();
        }
        assert_eq!(free.deflections(), 0);
    }

    #[test]
    fn deflected_body_flit_completes_its_packet_after_the_tail() {
        // Both 2x2 rings. Packet 1 (3 flits, node 1 → 0) rides the CCW
        // ring (loop 1, one hop) and arrives at cycles 1, 2 and 3. Packet
        // 2 (1 flit, node 2 → 0) rides the CW ring (loop 0, one hop) and
        // arrives at cycle 2, where loop 0 takes node 0's only ejection
        // port first. Packet 1's body flit deflects, its tail ejects at
        // cycle 3, and the body circles back at cycle 6.
        let g = Grid::square(2).unwrap();
        let topo = Topology::from_loops(
            g,
            [
                RectLoop::new(0, 0, 1, 1, Direction::Clockwise).unwrap(),
                RectLoop::new(0, 0, 1, 1, Direction::Counterclockwise).unwrap(),
            ],
        )
        .unwrap();
        let mut sim = RouterlessSim::new(&topo);
        sim.set_ejection_limit(Some(1));
        sim.offer(Packet {
            id: 1,
            ..single_packet(1, 0, 3)
        });
        let mut delivered = Vec::new();
        for cycle in 0..12 {
            if cycle == 1 {
                sim.offer(Packet {
                    id: 2,
                    ..single_packet(2, 0, 1)
                });
            }
            sim.tick(cycle);
            delivered.extend(sim.take_deliveries());
        }
        let summary: Vec<(u64, u64, u64)> = delivered
            .iter()
            .map(|d| (d.packet.id, d.delivered, d.hops))
            .collect();
        assert_eq!(summary, [(2, 2, 1), (1, 6, 1)]);
        assert_eq!(sim.deflections(), 1);
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn balanced_routing_table_works_in_sim() {
        use rlnoc_topology::RoutingPolicy;
        let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
        let table = RoutingTable::build_with(&topo, RoutingPolicy::Balanced { slack: 0 });
        let mut sim = RouterlessSim::with_routing(&topo, table);
        let cfg = SimConfig {
            warmup: 100,
            measure: 1_000,
            drain: 1_000,
            ..SimConfig::routerless()
        };
        let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.05, &cfg, 5);
        assert!(m.delivery_ratio() > 0.99);
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn kill_loop_drops_in_flight_and_reroutes_survivors() {
        // Two opposite rings on 2x2: kill the CW ring while a packet rides
        // it; the packet is dropped and accounted, and later traffic takes
        // the CCW ring.
        let g = Grid::square(2).unwrap();
        let topo = Topology::from_loops(
            g,
            [
                RectLoop::new(0, 0, 1, 1, Direction::Clockwise).unwrap(),
                RectLoop::new(0, 0, 1, 1, Direction::Counterclockwise).unwrap(),
            ],
        )
        .unwrap();
        let mut plan = FaultPlan::new();
        plan.kill_loop(2, 0);
        let mut sim = RouterlessSim::with_faults(&topo, plan);
        // 0 → 3 is 2 hops CW (loop 0) vs 2 hops CCW... CW order 0,1,3,2:
        // 0→3 is 2 hops; CCW order 0,2,3,1: 0→3 is 2 hops. Tie breaks to
        // loop 0, which dies at cycle 2 — mid-journey for a cycle-0 inject.
        sim.offer(single_packet(0, 3, 1));
        for cycle in 0..10 {
            sim.tick(cycle);
        }
        assert!(sim.take_deliveries().is_empty(), "rider must be dropped");
        assert_eq!(sim.dropped_by_fault(), 1);
        assert_eq!(sim.in_flight(), 0);
        // A fresh packet after the kill must still arrive, via loop 1.
        sim.offer(Packet {
            id: 7,
            created: 10,
            ..single_packet(0, 3, 1)
        });
        let mut arrived = false;
        for cycle in 10..30 {
            sim.tick(cycle);
            if sim.take_deliveries().pop().is_some() {
                arrived = true;
                break;
            }
        }
        assert!(arrived, "survivor loop must carry post-fault traffic");
        assert!(sim.applied_faults().loop_failed(0));
    }

    #[test]
    fn multi_flit_packet_condemned_once() {
        // A 4-flit packet 0→2 mid-injection when its loop dies: exactly
        // one packet drop, conservation intact.
        let topo = ring_2x2();
        let mut plan = FaultPlan::new();
        plan.kill_loop(2, 0);
        let mut sim = RouterlessSim::with_faults(&topo, plan);
        sim.offer(single_packet(0, 2, 4));
        for cycle in 0..20 {
            sim.tick(cycle);
            let offered = 1usize;
            assert_eq!(
                offered,
                sim.take_deliveries().len()
                    + sim.in_flight()
                    + sim.unroutable() as usize
                    + sim.dropped_by_fault() as usize,
                "conservation at cycle {cycle}"
            );
        }
        assert_eq!(sim.dropped_by_fault(), 1);
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn hop_counts_match_routing_table() {
        let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
        let table = RoutingTable::build(&topo);
        let mut sim = RouterlessSim::new(&topo);
        let (src, dst) = (0, 15);
        sim.offer(single_packet(src, dst, 1));
        for cycle in 0..50 {
            sim.tick(cycle);
            if let Some(d) = sim.take_deliveries().pop() {
                assert_eq!(d.hops, table.route(src, dst).unwrap().hops as u64);
                return;
            }
        }
        panic!("packet never arrived");
    }
}
