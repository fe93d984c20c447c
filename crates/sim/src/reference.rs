//! Seed-revision reference kernels, kept as correctness oracles and as
//! the "before" baseline for the kernel speedup reported in
//! `BENCH_sim.json`.
//!
//! [`ReferenceRouterlessSim`] and [`ReferenceMeshSim`] are verbatim
//! copies of the original tick loops: per-cycle `vec![None; len]` lane
//! rebuilds, per-cycle staging/occupancy allocations, and allocating
//! delivery hand-off. They model *exactly* the same fabric semantics as
//! the optimized [`crate::RouterlessSim`] / [`crate::MeshSim`], so the
//! parity tests below pin the optimized kernels to the seed behaviour:
//! identical [`crate::Metrics`] (including the latency histogram) under
//! identical traffic. The optimized routerless kernel may eject a
//! cycle's flits in a different within-lane order, but every per-cycle
//! ejection/deflection *decision* is identical — nodes appear at most
//! once per lane, so the decisions are order-independent — and metrics
//! are order-insensitive sums.

use crate::packet::{Flit, Packet};
use crate::runner::{Delivery, Network};
use rlnoc_topology::{Grid, NodeId, RoutingTable, Topology};
use std::collections::{HashMap, VecDeque};

/// One loop's wiring in the seed layout: `slots[i]` holds the flit
/// currently *at* node `nodes[i]`; each cycle every flit is moved one
/// position into a freshly allocated slot vector.
#[derive(Debug, Clone)]
struct Lane {
    nodes: Vec<NodeId>,
    /// Position of each node on this lane (`None` if off-lane), indexed by
    /// node id.
    pos: Vec<Option<usize>>,
    slots: Vec<Option<Flit>>,
}

/// An injection in progress: flits of `packet` still being placed onto
/// `lane`.
#[derive(Debug, Clone, Copy)]
struct ActiveInjection {
    packet: Packet,
    lane: usize,
    next_flit: usize,
    hops: u64,
}

/// The seed revision's routerless simulator (allocating tick loop).
#[derive(Debug, Clone)]
pub struct ReferenceRouterlessSim {
    grid: Grid,
    routing: RoutingTable,
    lanes: Vec<Lane>,
    queues: Vec<VecDeque<Packet>>,
    active: Vec<Option<ActiveInjection>>,
    /// Flits received so far per in-flight packet id, with the hop count.
    assembly: HashMap<u64, (usize, u64)>,
    deliveries: Vec<Delivery>,
    in_flight_packets: usize,
    unroutable: u64,
    ejection_limit: Option<usize>,
    deflections: u64,
}

impl ReferenceRouterlessSim {
    /// Builds the reference simulator over `topo`.
    pub fn new(topo: &Topology) -> Self {
        let grid = *topo.grid();
        let routing = RoutingTable::build(topo);
        let lanes = topo
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
                    slots: vec![None; len],
                }
            })
            .collect();
        ReferenceRouterlessSim {
            grid,
            routing,
            lanes,
            queues: vec![VecDeque::new(); grid.len()],
            active: vec![None; grid.len()],
            assembly: HashMap::new(),
            deliveries: Vec::new(),
            in_flight_packets: 0,
            unroutable: 0,
            ejection_limit: None,
            deflections: 0,
        }
    }

    /// Caps per-node ejections per cycle (see
    /// [`crate::RouterlessSim::set_ejection_limit`]).
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
}

impl Network for ReferenceRouterlessSim {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn offer(&mut self, packet: Packet) {
        self.queues[packet.src].push_back(packet);
        self.in_flight_packets += 1;
    }

    fn tick(&mut self, cycle: u64) {
        // Phase 1: advance every lane one hop, ejecting flits that arrive
        // at their destination (subject to the per-node ejection limit).
        let mut ejected_at = vec![0usize; self.grid.len()];
        for lane in &mut self.lanes {
            let len = lane.slots.len();
            let mut next: Vec<Option<Flit>> = vec![None; len];
            for i in 0..len {
                let Some(flit) = lane.slots[i].take() else {
                    continue;
                };
                let j = (i + 1) % len;
                let node = lane.nodes[j];
                if flit.packet.dst == node {
                    if self
                        .ejection_limit
                        .is_some_and(|limit| ejected_at[node] >= limit)
                    {
                        // Ejection port busy: deflect around the loop.
                        self.deflections += 1;
                        next[j] = Some(flit);
                        continue;
                    }
                    ejected_at[node] += 1;
                    // Eject: deliver into the assembly buffer.
                    let entry = self.assembly.entry(flit.packet.id).or_insert((0, 0));
                    entry.0 += 1;
                    if entry.0 == flit.packet.flits {
                        let (_, hops) = self.assembly.remove(&flit.packet.id).expect("present");
                        self.deliveries.push(Delivery {
                            packet: flit.packet,
                            delivered: cycle,
                            hops,
                        });
                        self.in_flight_packets -= 1;
                    }
                } else {
                    next[j] = Some(flit);
                }
            }
            lane.slots = next;
        }

        // Phase 2: injection — one flit per node, only into an empty slot,
        // so passing traffic always has priority.
        for node in 0..self.grid.len() {
            if self.active[node].is_none() {
                // Start the next queued packet, if routable.
                while let Some(p) = self.queues[node].pop_front() {
                    match self.routing.route(p.src, p.dst) {
                        Some(route) => {
                            self.active[node] = Some(ActiveInjection {
                                packet: p,
                                lane: route.loop_index,
                                next_flit: 0,
                                hops: route.hops as u64,
                            });
                            break;
                        }
                        None => {
                            self.unroutable += 1;
                            self.in_flight_packets -= 1;
                        }
                    }
                }
            }
            let Some(mut act) = self.active[node] else {
                continue;
            };
            let lane = &mut self.lanes[act.lane];
            let pos = lane.pos[node].expect("routing table only picks loops through the source");
            if lane.slots[pos].is_none() {
                lane.slots[pos] = Some(Flit {
                    packet: act.packet,
                    index: act.next_flit,
                });
                // Record hops once per packet in the assembly buffer.
                self.assembly
                    .entry(act.packet.id)
                    .or_insert((0, act.hops))
                    .1 = act.hops;
                act.next_flit += 1;
                self.active[node] = if act.next_flit == act.packet.flits {
                    None
                } else {
                    Some(act)
                };
            }
        }
    }

    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    fn in_flight(&self) -> usize {
        self.in_flight_packets
    }
}

/// Router ports, in fixed arbitration order (seed layout).
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;
const PORTS: usize = 5;

/// A buffered flit with the cycle it entered this router.
type Buffered = (Flit, u64);

#[derive(Debug, Clone)]
struct Router {
    /// Input FIFO per port.
    inputs: [VecDeque<Buffered>; PORTS],
    /// Wormhole reservation per output port: `(input port, flits left)`.
    out_lock: [Option<(usize, usize)>; PORTS],
    /// Round-robin pointer per output port.
    rr: [usize; PORTS],
}

impl Router {
    fn new() -> Self {
        Router {
            inputs: Default::default(),
            out_lock: [None; PORTS],
            rr: [0; PORTS],
        }
    }
}

/// The seed revision's mesh simulator (allocating tick loop).
#[derive(Debug, Clone)]
pub struct ReferenceMeshSim {
    grid: Grid,
    router_delay: u64,
    buffer_capacity: usize,
    routers: Vec<Router>,
    queues: Vec<VecDeque<Packet>>,
    /// Next flit index to inject for the head packet of each node queue.
    inject_progress: Vec<usize>,
    assembly: HashMap<u64, usize>,
    deliveries: Vec<Delivery>,
    in_flight_packets: usize,
}

impl ReferenceMeshSim {
    /// Creates a reference mesh with the given router pipeline depth and
    /// per-input buffer capacity in flits.
    pub fn new(grid: Grid, router_delay: u64, buffer_capacity: usize) -> Self {
        ReferenceMeshSim {
            grid,
            router_delay,
            buffer_capacity: buffer_capacity.max(1),
            routers: (0..grid.len()).map(|_| Router::new()).collect(),
            queues: vec![VecDeque::new(); grid.len()],
            inject_progress: vec![0; grid.len()],
            assembly: HashMap::new(),
            deliveries: Vec::new(),
            in_flight_packets: 0,
        }
    }

    /// The paper's baseline two-cycle router.
    pub fn mesh2(grid: Grid) -> Self {
        ReferenceMeshSim::new(grid, 2, 8)
    }

    /// XY dimension-order output port at router `at` for destination `dst`.
    fn route_port(&self, at: NodeId, dst: NodeId) -> usize {
        let (x, y) = self.grid.coord_of(at);
        let (dx, dy) = self.grid.coord_of(dst);
        if x < dx {
            EAST
        } else if x > dx {
            WEST
        } else if y < dy {
            SOUTH
        } else if y > dy {
            NORTH
        } else {
            LOCAL
        }
    }

    /// The neighbouring router reached through `port`.
    fn neighbour(&self, at: NodeId, port: usize) -> NodeId {
        let (x, y) = self.grid.coord_of(at);
        match port {
            NORTH => self.grid.node_at(x, y - 1),
            EAST => self.grid.node_at(x + 1, y),
            SOUTH => self.grid.node_at(x, y + 1),
            WEST => self.grid.node_at(x - 1, y),
            _ => at,
        }
    }

    /// The port on the neighbour that a flit sent through `port` arrives on.
    fn arrival_port(port: usize) -> usize {
        match port {
            NORTH => SOUTH,
            SOUTH => NORTH,
            EAST => WEST,
            WEST => EAST,
            other => other,
        }
    }

    fn deliver(&mut self, flit: Flit, cycle: u64) {
        let count = self.assembly.entry(flit.packet.id).or_insert(0);
        *count += 1;
        if *count == flit.packet.flits {
            self.assembly.remove(&flit.packet.id);
            self.deliveries.push(Delivery {
                packet: flit.packet,
                delivered: cycle,
                hops: self.grid.manhattan(flit.packet.src, flit.packet.dst) as u64,
            });
            self.in_flight_packets -= 1;
        }
    }
}

impl Network for ReferenceMeshSim {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn offer(&mut self, packet: Packet) {
        self.queues[packet.src].push_back(packet);
        self.in_flight_packets += 1;
    }

    fn tick(&mut self, cycle: u64) {
        // Staged transfers commit after all routers arbitrate, so a flit
        // moves at most one hop per cycle.
        let mut staged: Vec<(NodeId, usize, Flit)> = Vec::new();
        let mut local_deliveries: Vec<Flit> = Vec::new();
        // Occupancy including this cycle's staged arrivals, for credits.
        let mut occupancy: Vec<[usize; PORTS]> = self
            .routers
            .iter()
            .map(|r| {
                let mut o = [0usize; PORTS];
                for (p, q) in r.inputs.iter().enumerate() {
                    o[p] = q.len();
                }
                o
            })
            .collect();

        for r in 0..self.routers.len() {
            let mut served_inputs = [false; PORTS];
            for out in 0..PORTS {
                // Which input may use this output?
                let chosen: Option<usize> = match self.routers[r].out_lock[out] {
                    Some((inp, _)) => Some(inp),
                    None => {
                        let start = self.routers[r].rr[out];
                        (0..PORTS).map(|k| (start + k) % PORTS).find(|&inp| {
                            if served_inputs[inp] {
                                return false;
                            }
                            match self.routers[r].inputs[inp].front() {
                                Some(&(flit, entered)) => {
                                    flit.is_head()
                                        && cycle >= entered + self.router_delay
                                        && self.route_port(r, flit.packet.dst) == out
                                }
                                None => false,
                            }
                        })
                    }
                };
                let Some(inp) = chosen else { continue };
                if served_inputs[inp] {
                    continue;
                }
                // Pipeline delay also applies to locked (body) flits.
                let Some(&(flit, entered)) = self.routers[r].inputs[inp].front() else {
                    continue;
                };
                if cycle < entered + self.router_delay {
                    continue;
                }
                // Credit check for non-local outputs.
                if out != LOCAL {
                    let nb = self.neighbour(r, out);
                    let ap = Self::arrival_port(out);
                    if occupancy[nb][ap] >= self.buffer_capacity {
                        continue;
                    }
                    occupancy[nb][ap] += 1;
                }
                // Forward the flit.
                self.routers[r].inputs[inp].pop_front();
                served_inputs[inp] = true;
                if out == LOCAL {
                    local_deliveries.push(flit);
                } else {
                    staged.push((self.neighbour(r, out), Self::arrival_port(out), flit));
                }
                // Maintain the wormhole lock.
                match &mut self.routers[r].out_lock[out] {
                    Some((_, left)) => {
                        *left -= 1;
                        if *left == 0 {
                            self.routers[r].out_lock[out] = None;
                        }
                    }
                    None => {
                        self.routers[r].rr[out] = (inp + 1) % PORTS;
                        if flit.packet.flits > 1 {
                            self.routers[r].out_lock[out] = Some((inp, flit.packet.flits - 1));
                        }
                    }
                }
            }
        }

        for flit in local_deliveries {
            self.deliver(flit, cycle);
        }
        for (router, port, flit) in staged {
            self.routers[router].inputs[port].push_back((flit, cycle + 1));
        }

        // Injection: one flit per node per cycle into the local input, if
        // there is buffer space.
        for node in 0..self.grid.len() {
            let Some(&packet) = self.queues[node].front() else {
                continue;
            };
            if self.routers[node].inputs[LOCAL].len() >= self.buffer_capacity {
                continue;
            }
            let idx = self.inject_progress[node];
            self.routers[node].inputs[LOCAL].push_back((Flit { packet, index: idx }, cycle + 1));
            if idx + 1 == packet.flits {
                self.queues[node].pop_front();
                self.inject_progress[node] = 0;
            } else {
                self.inject_progress[node] = idx + 1;
            }
        }
    }

    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    fn in_flight(&self) -> usize {
        self.in_flight_packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::runner::run_synthetic;
    use crate::traffic::Pattern;
    use crate::{MeshSim, RouterlessSim};
    use rlnoc_baselines::rec_topology;

    fn cfg(data_flits: usize) -> SimConfig {
        SimConfig {
            warmup: 300,
            measure: 2_000,
            drain: 1_500,
            data_flits,
            ..SimConfig::default()
        }
    }

    #[test]
    fn routerless_matches_reference_metrics() {
        let topo = rec_topology(Grid::square(8).unwrap()).unwrap();
        for (pattern, rate) in [
            (Pattern::UniformRandom, 0.05),
            (Pattern::UniformRandom, 0.40),
            (Pattern::Tornado, 0.20),
            (Pattern::Transpose, 0.30),
        ] {
            let mut fast = RouterlessSim::new(&topo);
            let mut slow = ReferenceRouterlessSim::new(&topo);
            let m_fast = run_synthetic(&mut fast, pattern, rate, &cfg(5), 42);
            let m_slow = run_synthetic(&mut slow, pattern, rate, &cfg(5), 42);
            assert_eq!(
                m_fast, m_slow,
                "optimized routerless diverged from seed at {pattern:?}/{rate}"
            );
        }
    }

    #[test]
    fn routerless_matches_reference_with_ejection_limit() {
        let topo = rec_topology(Grid::square(8).unwrap()).unwrap();
        for limit in [1usize, 2] {
            let mut fast = RouterlessSim::new(&topo);
            fast.set_ejection_limit(Some(limit));
            let mut slow = ReferenceRouterlessSim::new(&topo);
            slow.set_ejection_limit(Some(limit));
            let m_fast = run_synthetic(&mut fast, Pattern::UniformRandom, 0.35, &cfg(5), 9);
            let m_slow = run_synthetic(&mut slow, Pattern::UniformRandom, 0.35, &cfg(5), 9);
            assert_eq!(m_fast, m_slow, "diverged at ejection limit {limit}");
            assert_eq!(fast.deflections(), slow.deflections());
            assert_eq!(fast.unroutable(), slow.unroutable());
        }
    }

    #[test]
    fn mesh_matches_reference_metrics() {
        let (g8, g10, g6x4) = (
            Grid::square(8).unwrap(),
            Grid::square(10).unwrap(),
            Grid::new(6, 4).unwrap(),
        );
        // (grid, pattern, rate, router delay, buffer capacity, data flits).
        // Covers square and rectangular grids, every router delay, credit
        // limits from one flit up, single- and multi-flit data packets,
        // and (last row) a rate well past 8x8 Mesh-2 saturation.
        let cases = [
            (g8, Pattern::UniformRandom, 0.05, 2, 8, 3),
            (g8, Pattern::UniformRandom, 0.25, 2, 8, 3),
            (g8, Pattern::UniformRandom, 0.15, 1, 8, 3),
            (g8, Pattern::UniformRandom, 0.15, 0, 8, 3),
            (g6x4, Pattern::UniformRandom, 0.20, 1, 2, 5),
            (g6x4, Pattern::UniformRandom, 0.30, 0, 1, 1),
            (g6x4, Pattern::UniformRandom, 0.10, 2, 1, 5),
            (g10, Pattern::Tornado, 0.10, 2, 8, 3),
            (g10, Pattern::BitComplement, 0.08, 1, 2, 5),
            (g10, Pattern::Transpose, 0.12, 0, 1, 1),
            (g8, Pattern::Transpose, 0.15, 2, 2, 3),
            (g8, Pattern::Tornado, 0.20, 1, 1, 3),
            (g8, Pattern::BitComplement, 0.10, 0, 8, 1),
            (g8, Pattern::UniformRandom, 0.60, 2, 8, 3),
        ];
        for (g, pattern, rate, delay, cap, flits) in cases {
            let mut fast = MeshSim::new(g, delay, cap);
            let mut slow = ReferenceMeshSim::new(g, delay, cap);
            let m_fast = run_synthetic(&mut fast, pattern, rate, &cfg(flits), 7);
            let m_slow = run_synthetic(&mut slow, pattern, rate, &cfg(flits), 7);
            assert!(m_slow.packets > 0);
            assert_eq!(
                m_fast,
                m_slow,
                "optimized mesh diverged from seed on {}x{} {pattern:?} at rate {rate}, \
                 delay {delay}, capacity {cap}, {flits}-flit data",
                g.width(),
                g.height()
            );
        }
    }
}
