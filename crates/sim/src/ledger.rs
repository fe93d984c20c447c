//! The packet-and-fault bookkeeping both fabrics share.
//!
//! A [`Ledger`] owns everything about a packet that does not depend on the
//! wiring that carries it: the in-flight count from [`Network::offer`] to
//! delivery, the reassembly of ejected flits into a [`Delivery`], and,
//! for a routerless sim built with a [`FaultPlan`], the plan's cursor and
//! the drop counters of the packets its loop kills condemn. The fabric
//! keeps only what its wiring decides: which flits a kill destroys, and
//! how traffic routes around it. The mesh has no fault path and reports
//! zero drops.
//!
//! Without a plan every fault hook is one `Option` test; an *empty* plan
//! changes no decision, which `tests/fault_parity.rs` pins.
//!
//! [`Network::offer`]: crate::Network::offer

use crate::fault::{FaultEvent, FaultPlan};
use crate::hash::PacketIdBuildHasher;
use crate::packet::Flit;
use crate::runner::Delivery;
use std::collections::HashMap;

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
    /// Packets condemned by faults (each counted once).
    dropped_packets: u64,
    /// Individual flits destroyed because of faults.
    dropped_flits: u64,
}

impl Ledger {
    /// A ledger that replays `plan`.
    pub(crate) fn with_plan(plan: FaultPlan) -> Self {
        Ledger {
            faults: Some(Box::new(FaultLog {
                plan,
                next_event: 0,
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
    /// arrives.
    pub(crate) fn eject(&mut self, flit: Flit, cycle: u64, hops: impl FnOnce() -> u64) {
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

    /// A fault destroyed `flits` flits and condemned the packets in `ids`,
    /// which may repeat (once per lost flit): counts the flits, and
    /// unwinds each packet's reassembly progress and in-flight count once.
    ///
    /// A packet rides one lane from its first flit to its last, and a
    /// loop kill destroys that lane's flits and aborts its injections in
    /// one go, so no flit of a condemned packet is left to reach
    /// [`Ledger::eject`].
    ///
    /// # Panics
    ///
    /// Panics without a fault plan: only a fault condemns.
    pub(crate) fn condemn(&mut self, flits: u64, mut ids: Vec<u64>) {
        let log = self
            .faults
            .as_deref_mut()
            .expect("condemned without a fault plan");
        log.dropped_flits += flits;
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            self.assembly.remove(&id);
            self.in_flight -= 1;
            log.dropped_packets += 1;
        }
    }

    /// Packets condemned by faults (each counted once).
    pub(crate) fn dropped_packets(&self) -> u64 {
        self.faults.as_ref().map_or(0, |log| log.dropped_packets)
    }

    /// Flits destroyed because of faults.
    pub(crate) fn dropped_flits(&self) -> u64 {
        self.faults.as_ref().map_or(0, |log| log.dropped_flits)
    }

    /// Records the lifetime fault-drop counters into `rec`.
    pub(crate) fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        rec.incr("sim.dropped_by_fault_packets", self.dropped_packets());
        rec.incr("sim.dropped_by_fault_flits", self.dropped_flits());
    }
}
