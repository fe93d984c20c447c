//! The router-based mesh fabric: input-buffered wormhole routers with XY
//! dimension-order routing and credit-based backpressure.

use crate::bits;
use crate::ledger::Ledger;
use crate::packet::Packet;
use crate::runner::{Delivery, Network};
use rlnoc_topology::{Grid, NodeId};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Router ports, in fixed arbitration order.
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;
const PORTS: usize = 5;

/// A buffered flit: its packet's ledger handle, whether it is the head,
/// and the cycle it entered this router (for pipeline modelling).
#[derive(Debug, Clone, Copy, Default)]
struct Buffered {
    handle: u32,
    head: bool,
    entered: u64,
}

/// One input FIFO: a ring of `buffer_capacity` slots in
/// [`MeshSim::slots`]. Credits and the injection check bound every FIFO
/// at `buffer_capacity`, so the ring never overflows.
#[derive(Debug, Clone, Copy, Default)]
struct Fifo {
    /// Ring index of the front flit.
    head: usize,
    /// Flits buffered.
    len: usize,
    /// The tick (see [`MeshSim::ticks`]) in which this FIFO last forwarded
    /// a flit. The freed slot's credit reaches the upstream router only
    /// on the next cycle, so the credit check still counts it.
    popped: u64,
    /// First cycle the front flit may leave: its arrival plus the router
    /// delay.
    ready_at: u64,
    /// Output the front flit requests if it is a head flit, else
    /// [`NO_REQUEST`].
    request: usize,
}

/// [`Fifo::request`] of a body flit.
const NO_REQUEST: usize = PORTS;

#[derive(Debug, Clone, Default)]
struct Router {
    /// Wormhole reservation per output port: `(input port, flits left)`.
    out_lock: [Option<(usize, usize)>; PORTS],
    /// Round-robin pointer per output port.
    rr: [usize; PORTS],
}

/// Cycle-accurate mesh simulator.
///
/// Each hop costs one link cycle plus `router_delay` cycles in the input
/// buffer (the paper's Mesh-2 baseline uses 2, the optimized Mesh-1 uses
/// 1, and the idealized Mesh-0 uses 0). Wormhole switching holds an output
/// port from head to tail; credits bound each input FIFO at
/// `buffer_capacity` flits.
///
/// A cycle costs work in proportion to the buffered flits and queued
/// packets: it walks only the routers holding a flit and the nodes with a
/// queued packet, each from a bitset in id order; each head flit is routed
/// once, by a table lookup, when it reaches the front of its FIFO; and all
/// input FIFOs share one flat ring-buffer array of ledger handles.
#[derive(Debug, Clone)]
pub struct MeshSim {
    grid: Grid,
    router_delay: u64,
    buffer_capacity: usize,
    /// `(x, y)` of every node, for hop counts.
    coords: Vec<(usize, usize)>,
    /// XY output port at router `at` for destination `dst`, at
    /// `route[at * grid.len() + dst]`.
    route: Vec<u8>,
    routers: Vec<Router>,
    /// Input FIFO `node * PORTS + port`.
    fifos: Vec<Fifo>,
    /// Ring storage: FIFO `f` owns `slots[f * buffer_capacity..]`, the
    /// next `buffer_capacity` entries.
    slots: Vec<Buffered>,
    /// Per router, bit `port` is set while that input FIFO holds a flit.
    nonempty: Vec<u8>,
    /// Bitset of the routers whose `nonempty` is not zero.
    busy: Vec<u64>,
    /// Ticks run so far.
    ticks: u64,
    /// Handles of the packets waiting at each node, oldest first.
    queues: Vec<VecDeque<u32>>,
    /// Bitset of the nodes whose queue is not empty.
    queued: Vec<u64>,
    /// Next flit index to inject for the head packet of each node queue.
    inject_progress: Vec<usize>,
    ledger: Ledger,
}

impl MeshSim {
    /// Creates a mesh with the given router pipeline depth (cycles per hop
    /// beyond the link) and per-input buffer capacity in flits.
    pub fn new(grid: Grid, router_delay: u64, buffer_capacity: usize) -> Self {
        let buffer_capacity = buffer_capacity.max(1);
        let coords: Vec<(usize, usize)> = grid.coords().collect();
        let route = coords
            .iter()
            .flat_map(|&at| coords.iter().map(move |&dst| Self::xy_port(at, dst) as u8))
            .collect();
        MeshSim {
            grid,
            router_delay,
            buffer_capacity,
            coords,
            route,
            routers: vec![Router::default(); grid.len()],
            fifos: vec![Fifo::default(); grid.len() * PORTS],
            slots: vec![Buffered::default(); grid.len() * PORTS * buffer_capacity],
            nonempty: vec![0; grid.len()],
            busy: vec![0; bits::words(grid.len())],
            ticks: 0,
            queues: vec![VecDeque::new(); grid.len()],
            queued: vec![0; bits::words(grid.len())],
            inject_progress: vec![0; grid.len()],
            ledger: Ledger::default(),
        }
    }

    /// The paper's baseline two-cycle router.
    pub fn mesh2(grid: Grid) -> Self {
        MeshSim::new(grid, 2, 8)
    }

    /// The optimized one-cycle router.
    pub fn mesh1(grid: Grid) -> Self {
        MeshSim::new(grid, 1, 8)
    }

    /// The idealized zero-cycle router (link/contention delays only).
    pub fn mesh0(grid: Grid) -> Self {
        MeshSim::new(grid, 0, 8)
    }

    /// XY dimension-order output port at `(x, y)` for `(dx, dy)`.
    fn xy_port((x, y): (usize, usize), (dx, dy): (usize, usize)) -> usize {
        match (x.cmp(&dx), y.cmp(&dy)) {
            (Ordering::Less, _) => EAST,
            (Ordering::Greater, _) => WEST,
            (_, Ordering::Less) => SOUTH,
            (_, Ordering::Greater) => NORTH,
            _ => LOCAL,
        }
    }

    /// The front flit of FIFO `f` (which must be non-empty).
    fn front(&self, f: usize) -> Buffered {
        self.slots[f * self.buffer_capacity + self.fifos[f].head]
    }

    /// Caches when the front flit of non-empty FIFO `f` may leave and, for
    /// a head, where it goes: a flit is routed once, when it reaches the
    /// front. Its route depends only on the router and its destination.
    fn refresh_front(&mut self, f: usize) {
        let front = self.front(f);
        let request = if front.head {
            let dst = self.ledger.packet(front.handle).dst;
            usize::from(self.route[(f / PORTS) * self.grid.len() + dst])
        } else {
            NO_REQUEST
        };
        let fifo = &mut self.fifos[f];
        fifo.ready_at = front.entered + self.router_delay;
        fifo.request = request;
    }

    fn push(&mut self, f: usize, entry: Buffered) {
        let cap = self.buffer_capacity;
        let fifo = &mut self.fifos[f];
        let mut tail = fifo.head + fifo.len;
        if tail >= cap {
            tail -= cap;
        }
        fifo.len += 1;
        self.slots[f * cap + tail] = entry;
        if fifo.len == 1 {
            let r = f / PORTS;
            if self.nonempty[r] == 0 {
                bits::insert(&mut self.busy, r);
            }
            self.nonempty[r] |= 1 << (f % PORTS);
            self.refresh_front(f);
        }
    }

    fn pop(&mut self, f: usize) {
        let fifo = &mut self.fifos[f];
        fifo.head += 1;
        if fifo.head == self.buffer_capacity {
            fifo.head = 0;
        }
        fifo.len -= 1;
        fifo.popped = self.ticks;
        if fifo.len == 0 {
            let r = f / PORTS;
            self.nonempty[r] &= !(1 << (f % PORTS));
            if self.nonempty[r] == 0 {
                bits::remove(&mut self.busy, r);
            }
        } else {
            self.refresh_front(f);
        }
    }

    /// The input port on the neighbour that a flit sent through `port`
    /// arrives on.
    fn arrival_port(port: usize) -> usize {
        match port {
            NORTH => SOUTH,
            SOUTH => NORTH,
            EAST => WEST,
            WEST => EAST,
            other => other,
        }
    }

    /// For router `r`, the inputs whose front flit has cleared the router
    /// pipeline, and per output the inputs whose front is such a head flit
    /// routed there (the array has one spare entry for [`NO_REQUEST`]).
    fn requests(&self, r: NodeId, cycle: u64) -> (u8, [u8; PORTS + 1]) {
        let mut ready = 0u8;
        let mut want = [0u8; PORTS + 1];
        let mut inputs = self.nonempty[r];
        while inputs != 0 {
            let inp = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            let fifo = &self.fifos[r * PORTS + inp];
            if cycle >= fifo.ready_at {
                ready |= 1 << inp;
                want[fifo.request] |= 1 << inp;
            }
        }
        (ready, want)
    }

    /// Router `r`'s switch allocation and traversal for one cycle.
    fn arbitrate(&mut self, r: NodeId, cycle: u64) {
        let (ready, want) = self.requests(r, cycle);
        if ready == 0 {
            return;
        }
        let mut served = 0u8;
        for (out, &requesters) in want[..PORTS].iter().enumerate() {
            // Which input may use this output?
            let inp = match self.routers[r].out_lock[out] {
                Some((inp, _)) => inp,
                None => {
                    let candidates = requesters & !served;
                    if candidates == 0 {
                        continue;
                    }
                    // First candidate at or after the round-robin
                    // pointer, wrapping around.
                    let from_rr = candidates >> self.routers[r].rr[out] << self.routers[r].rr[out];
                    let pick = if from_rr != 0 { from_rr } else { candidates };
                    pick.trailing_zeros() as usize
                }
            };
            // A locked input may be empty, already served, or still in
            // the pipeline (the delay applies to body flits too).
            if (served | !ready) & (1 << inp) != 0 {
                continue;
            }
            let f = r * PORTS + inp;
            let flit = self.front(f);
            let next = if out == LOCAL {
                None
            } else {
                // Credit check against the neighbour's input FIFO.
                let nb = match out {
                    NORTH => r - self.grid.width(),
                    EAST => r + 1,
                    SOUTH => r + self.grid.width(),
                    _ => r - 1,
                };
                let g = nb * PORTS + Self::arrival_port(out);
                let downstream = self.fifos[g];
                let credits_used = downstream.len + usize::from(downstream.popped == self.ticks);
                if credits_used >= self.buffer_capacity {
                    continue;
                }
                Some(g)
            };
            served |= 1 << inp;
            // Maintain the wormhole lock. This reads the packet before the
            // flit moves, because ejecting its last flit frees the handle.
            let router = &mut self.routers[r];
            match &mut router.out_lock[out] {
                Some((_, left)) => {
                    *left -= 1;
                    if *left == 0 {
                        router.out_lock[out] = None;
                    }
                }
                None => {
                    router.rr[out] = (inp + 1) % PORTS;
                    let flits = self.ledger.packet(flit.handle).flits;
                    if flits > 1 {
                        router.out_lock[out] = Some((inp, flits - 1));
                    }
                }
            }
            self.pop(f);
            match next {
                Some(g) => self.push(
                    g,
                    Buffered {
                        entered: cycle + 1,
                        ..flit
                    },
                ),
                None => {
                    let coords = &self.coords;
                    self.ledger.eject(flit.handle, cycle, |p| {
                        let ((sx, sy), (dx, dy)) = (coords[p.src], coords[p.dst]);
                        (sx.abs_diff(dx) + sy.abs_diff(dy)) as u64
                    });
                }
            }
        }
    }

    /// Injects the next flit of `node`'s oldest queued packet into its
    /// local input, if there is buffer space.
    fn inject(&mut self, node: NodeId, cycle: u64) {
        let f = node * PORTS + LOCAL;
        if self.fifos[f].len >= self.buffer_capacity {
            return;
        }
        let handle = *self.queues[node].front().expect("queued node has a packet");
        let idx = self.inject_progress[node];
        self.push(
            f,
            Buffered {
                handle,
                head: idx == 0,
                entered: cycle + 1,
            },
        );
        if idx + 1 == self.ledger.packet(handle).flits {
            self.queues[node].pop_front();
            self.inject_progress[node] = 0;
            if self.queues[node].is_empty() {
                bits::remove(&mut self.queued, node);
            }
        } else {
            self.inject_progress[node] = idx + 1;
        }
    }
}

impl Network for MeshSim {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn offer(&mut self, packet: Packet) {
        let handle = self.ledger.offer(packet);
        self.queues[packet.src].push_back(handle);
        bits::insert(&mut self.queued, packet.src);
    }

    fn tick(&mut self, cycle: u64) {
        self.ticks += 1;

        // Routers arbitrate in id order. A forwarded flit lands in its
        // neighbour's FIFO at once, stamped to become eligible no earlier
        // than the next cycle, so it moves at most one hop per cycle; and
        // a slot freed this cycle keeps its credit until the next (see
        // `Fifo::popped`), so credits match a commit-at-end-of-cycle
        // model exactly. A router that receives its first flit during the
        // walk has nothing ready this cycle, so whether the walk reaches
        // it changes nothing.
        for w in 0..self.busy.len() {
            let mut word = self.busy[w];
            while word != 0 {
                let r = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.arbitrate(r, cycle);
            }
        }

        // Injection: one flit per node per cycle into the local input.
        for w in 0..self.queued.len() {
            let mut word = self.queued[w];
            while word != 0 {
                let node = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.inject(node, cycle);
            }
        }
    }

    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        self.ledger.drain(out);
    }

    fn in_flight(&self) -> usize {
        self.ledger.in_flight()
    }

    fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        self.ledger.telemetry_sample(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::packet::PacketKind;
    use crate::runner::run_synthetic;
    use crate::traffic::Pattern;

    fn packet(id: u64, src: NodeId, dst: NodeId, flits: usize) -> Packet {
        Packet {
            id,
            src,
            dst,
            kind: PacketKind::Data,
            flits,
            created: 0,
            measured: true,
        }
    }

    fn run_until_delivered(sim: &mut MeshSim, max: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for cycle in 0..max {
            sim.tick(cycle);
            out.extend(sim.take_deliveries());
            if sim.in_flight() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn zero_load_latency_scales_with_router_delay() {
        // 4x4 mesh, corner to corner: 6 hops. Expected zero-load latency
        // fits (hops+1) router traversals plus links plus serialization.
        let g = Grid::square(4).unwrap();
        let mut lat = Vec::new();
        for delay in [0u64, 1, 2] {
            let mut sim = MeshSim::new(g, delay, 8);
            sim.offer(packet(0, 0, 15, 1));
            let d = run_until_delivered(&mut sim, 200);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].hops, 6);
            lat.push(d[0].delivered);
        }
        assert!(lat[0] < lat[1] && lat[1] < lat[2], "latencies {lat:?}");
        // Mesh-0 pays ~1 cycle/hop.
        assert!(lat[0] >= 6 && lat[0] <= 10, "mesh-0 latency {}", lat[0]);
        // Mesh-2 pays ~3 cycles/hop.
        assert!(lat[2] >= 18 && lat[2] <= 26, "mesh-2 latency {}", lat[2]);
    }

    #[test]
    fn xy_routing_no_deadlock_at_moderate_load() {
        let g = Grid::square(4).unwrap();
        let mut sim = MeshSim::mesh2(g);
        let cfg = SimConfig {
            warmup: 100,
            measure: 1_500,
            drain: 3_000,
            ..SimConfig::mesh()
        };
        let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.05, &cfg, 2);
        assert!(m.packets > 0);
        assert!(
            m.delivery_ratio() > 0.98,
            "moderate load must deliver: {}",
            m.delivery_ratio()
        );
        assert_eq!(sim.in_flight(), 0, "network must drain (deadlock-free)");
    }

    #[test]
    fn wormhole_keeps_packets_contiguous() {
        // Two multi-flit packets crossing the same router must not deliver
        // interleaved garbage: both arrive complete.
        let g = Grid::square(3).unwrap();
        let mut sim = MeshSim::mesh1(g);
        sim.offer(packet(1, g.node_at(0, 1), g.node_at(2, 1), 4));
        sim.offer(packet(2, g.node_at(1, 0), g.node_at(1, 2), 4));
        let d = run_until_delivered(&mut sim, 300);
        assert_eq!(d.len(), 2, "both packets complete");
    }

    #[test]
    fn hop_count_is_manhattan() {
        let g = Grid::square(5).unwrap();
        let mut sim = MeshSim::mesh1(g);
        sim.offer(packet(0, g.node_at(1, 1), g.node_at(4, 3), 2));
        let d = run_until_delivered(&mut sim, 200);
        assert_eq!(d[0].hops, 5);
    }

    #[test]
    fn backpressure_limits_throughput() {
        // At absurd offered load the mesh saturates: accepted throughput
        // flattens well below offered. 8x8 so the bisection actually binds.
        let g = Grid::square(8).unwrap();
        let cfg = SimConfig {
            warmup: 200,
            measure: 2_000,
            drain: 500,
            ..SimConfig::mesh()
        };
        let m = run_synthetic(&mut MeshSim::mesh2(g), Pattern::UniformRandom, 0.9, &cfg, 4);
        assert!(
            m.accepted_throughput() < 0.5,
            "accepted {} must sit below offered 0.9",
            m.accepted_throughput()
        );
    }

    #[test]
    fn local_delivery_same_router_is_fast() {
        // src == dst is not generated by traffic patterns, but a 1-hop
        // neighbour must arrive in a handful of cycles.
        let g = Grid::square(4).unwrap();
        let mut sim = MeshSim::mesh2(g);
        sim.offer(packet(0, 0, 1, 1));
        let d = run_until_delivered(&mut sim, 50);
        assert_eq!(d[0].hops, 1);
        assert!(d[0].delivered <= 8, "one hop took {}", d[0].delivered);
    }
}
