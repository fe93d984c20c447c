//! The packet-and-fault bookkeeping both fabrics share.
//!
//! A [`Ledger`] owns everything about a packet that does not depend on the
//! wiring that carries it: the in-flight count from [`Network::offer`] to
//! delivery, the reassembly of ejected flits into a [`Delivery`], and,
//! for sims built with a [`FaultPlan`], the plan's cursor, the injection
//! stall windows, the condemned packets and the drop counters. The
//! fabrics keep only what their wiring decides: which flits a fault
//! destroys, and how traffic routes around it.
//!
//! Without a plan every fault hook is one `Option` test; an *empty* plan
//! changes no decision, which `tests/fault_parity.rs` pins.
//!
//! [`Network::offer`]: crate::Network::offer

use crate::fault::{FaultEvent, FaultPlan};
use crate::hash::PacketIdBuildHasher;
use crate::packet::Flit;
use crate::runner::Delivery;
use rlnoc_topology::NodeId;
use std::collections::{HashMap, HashSet};

/// Packet accounting for one simulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    /// Flits ejected so far per partly delivered packet id.
    assembly: HashMap<u64, usize, PacketIdBuildHasher>,
    /// Packets completed since the last drain.
    deliveries: Vec<Delivery>,
    /// Packets offered and not yet delivered, dropped or condemned.
    in_flight: usize,
    /// Fault schedule and casualties; `None` for sims without a plan.
    faults: Option<Box<FaultLog>>,
}

/// The fabric-independent half of a replayed [`FaultPlan`].
#[derive(Debug, Clone)]
struct FaultLog {
    plan: FaultPlan,
    /// Index of the next unapplied event in `plan`.
    next_event: usize,
    /// Injection-stall windows `(node, from, until)`.
    stalls: Vec<(NodeId, u64, u64)>,
    /// Packets that lost at least one flit (or their only route) to a
    /// fault; their surviving flits are discarded, not assembled.
    condemned: HashSet<u64, PacketIdBuildHasher>,
    /// Packets condemned by faults (each counted once).
    dropped_packets: u64,
    /// Individual flits destroyed or discarded because of faults.
    dropped_flits: u64,
}

impl Ledger {
    /// A ledger that replays `plan`.
    pub(crate) fn with_plan(plan: FaultPlan) -> Self {
        let stalls = plan
            .events()
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::StallInjection { node, from, until } => Some((node, from, until)),
                _ => None,
            })
            .collect();
        Ledger {
            faults: Some(Box::new(FaultLog {
                plan,
                next_event: 0,
                stalls,
                condemned: HashSet::default(),
                dropped_packets: 0,
                dropped_flits: 0,
            })),
            ..Ledger::default()
        }
    }

    /// Counts a packet offered to the fabric.
    pub(crate) fn offer(&mut self) {
        self.in_flight += 1;
    }

    /// Forgets an offered packet the fabric cannot route.
    pub(crate) fn unroutable(&mut self) {
        self.in_flight -= 1;
    }

    /// Counts one flit reaching its destination. The packet is delivered
    /// at `cycle`, with `hops()` as its hop count, when its last flit
    /// arrives; flits of a condemned packet are discarded instead.
    pub(crate) fn eject(&mut self, flit: Flit, cycle: u64, hops: impl FnOnce() -> u64) {
        if let Some(log) = self.faults.as_deref_mut() {
            if !log.condemned.is_empty() && log.condemned.contains(&flit.packet.id) {
                log.dropped_flits += 1;
                return;
            }
        }
        let count = self.assembly.entry(flit.packet.id).or_insert(0);
        *count += 1;
        if *count == flit.packet.flits {
            self.assembly.remove(&flit.packet.id);
            self.deliveries.push(Delivery {
                packet: flit.packet,
                delivered: cycle,
                hops: hops(),
            });
            self.in_flight -= 1;
        }
    }

    /// Appends the packets delivered since the last drain to `out`.
    pub(crate) fn drain(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    /// Packets offered and not yet delivered, dropped or condemned.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether this ledger replays a fault plan.
    pub(crate) fn is_faulted(&self) -> bool {
        self.faults.is_some()
    }

    /// The next scheduled event due at or before `cycle`, moving the
    /// cursor past it; `None` once none is due, and always without a plan.
    pub(crate) fn next_due(&mut self, cycle: u64) -> Option<FaultEvent> {
        let log = self.faults.as_deref_mut()?;
        let event = *log.plan.events().get(log.next_event)?;
        if event.activation_cycle() > cycle {
            return None;
        }
        log.next_event += 1;
        Some(event)
    }

    /// Whether a stall window keeps `node` from injecting at `cycle`.
    pub(crate) fn is_stalled(&self, node: NodeId, cycle: u64) -> bool {
        self.faults.as_deref().is_some_and(|log| {
            log.stalls
                .iter()
                .any(|&(n, from, until)| n == node && from <= cycle && cycle < until)
        })
    }

    /// Whether any packet has been condemned yet.
    pub(crate) fn any_condemned(&self) -> bool {
        self.faults
            .as_deref()
            .is_some_and(|log| !log.condemned.is_empty())
    }

    /// Whether packet `id` has been condemned.
    pub(crate) fn is_condemned(&self, id: u64) -> bool {
        self.faults
            .as_deref()
            .is_some_and(|log| !log.condemned.is_empty() && log.condemned.contains(&id))
    }

    /// Marks `id` as lost to a fault, unwinding its reassembly progress
    /// and the in-flight count exactly once. Returns whether the packet
    /// was newly condemned (callers then abort its injection, if any).
    ///
    /// # Panics
    ///
    /// Panics without a fault plan: only a fault condemns.
    pub(crate) fn condemn(&mut self, id: u64) -> bool {
        let log = self
            .faults
            .as_deref_mut()
            .expect("condemned without a fault plan");
        if log.condemned.insert(id) {
            self.assembly.remove(&id);
            self.in_flight -= 1;
            log.dropped_packets += 1;
            true
        } else {
            false
        }
    }

    /// A fault destroyed one flit of packet `id`: counts the flit and
    /// condemns the packet (see [`Ledger::condemn`]).
    pub(crate) fn lose_flit(&mut self, id: u64) -> bool {
        self.discard_flits(1);
        self.condemn(id)
    }

    /// Counts `n` surviving flits of condemned packets thrown away.
    pub(crate) fn discard_flits(&mut self, n: u64) {
        if let Some(log) = self.faults.as_deref_mut() {
            log.dropped_flits += n;
        }
    }

    /// Packets condemned by faults (each counted once).
    pub(crate) fn dropped_packets(&self) -> u64 {
        self.faults.as_ref().map_or(0, |log| log.dropped_packets)
    }

    /// Flits destroyed or discarded because of faults.
    pub(crate) fn dropped_flits(&self) -> u64 {
        self.faults.as_ref().map_or(0, |log| log.dropped_flits)
    }

    /// Records the lifetime fault-drop counters into `rec`.
    pub(crate) fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        rec.incr("sim.dropped_by_fault_packets", self.dropped_packets());
        rec.incr("sim.dropped_by_fault_flits", self.dropped_flits());
    }
}
