//! The packet-and-fault bookkeeping both fabrics share.
//!
//! A [`Ledger`] owns everything about a packet that does not depend on the
//! wiring that carries it: the packet itself, from [`Network::offer`] to
//! delivery, the count of its flits still to eject, and, for a routerless
//! sim built with a [`FaultPlan`], the plan's cursor and the drop counters
//! of the packets its loop kills condemn. The fabric keeps only what its
//! wiring decides: which flits a kill destroys, and how traffic routes
//! around it. The mesh has no fault path and reports zero drops.
//!
//! [`Ledger::offer`] stores each packet in a slab slot and returns the
//! slot's index as a `u32` handle; source queues, buffers and lane slots
//! carry that handle instead of a copy of the packet per flit. A slot
//! returns to a free list when its packet is delivered, dropped or
//! condemned, and the slab never shrinks, so a warm simulation offers
//! packets without allocating. The slot also counts the packet's flits
//! still to eject: the packet is delivered when the count reaches zero.
//! The tail flit alone cannot mark completion, because on a routerless
//! fabric with an ejection limit a deflected body flit arrives a full
//! circle after its tail.
//!
//! Without a plan every fault hook is one `Option` test; an *empty* plan
//! changes no decision, which `tests/fault_parity.rs` pins.
//!
//! [`Network::offer`]: crate::Network::offer

use crate::fault::{FaultEvent, FaultPlan};
use crate::packet::Packet;
use crate::runner::Delivery;

/// Packet accounting for one simulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    /// Each handle's packet and its flits still to eject; a free slot
    /// keeps its last packet until [`Ledger::offer`] reuses it.
    slab: Vec<(Packet, usize)>,
    /// Handles of the free slots in `slab`.
    free: Vec<u32>,
    /// Packets completed since the last drain.
    deliveries: Vec<Delivery>,
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

    /// Takes in a packet offered to the fabric and returns its handle.
    pub(crate) fn offer(&mut self, packet: Packet) -> u32 {
        let entry = (packet, packet.flits);
        match self.free.pop() {
            Some(handle) => {
                self.slab[handle as usize] = entry;
                handle
            }
            None => {
                self.slab.push(entry);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 packets in flight")
            }
        }
    }

    /// The packet behind a live handle.
    pub(crate) fn packet(&self, handle: u32) -> &Packet {
        &self.slab[handle as usize].0
    }

    /// Forgets an offered packet the fabric cannot route.
    pub(crate) fn unroutable(&mut self, handle: u32) {
        self.free.push(handle);
    }

    /// Counts one flit of `handle`'s packet reaching its destination. The
    /// packet is delivered at `cycle`, with `hops(packet)` as its hop
    /// count, when its last flit arrives.
    pub(crate) fn eject(&mut self, handle: u32, cycle: u64, hops: impl FnOnce(&Packet) -> u64) {
        let (packet, left) = &mut self.slab[handle as usize];
        *left -= 1;
        if *left == 0 {
            self.deliveries.push(Delivery {
                packet: *packet,
                delivered: cycle,
                hops: hops(packet),
            });
            self.free.push(handle);
        }
    }

    /// Appends the packets delivered since the last drain to `out`.
    pub(crate) fn drain(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    /// Packets offered and not yet delivered, dropped or condemned.
    pub(crate) fn in_flight(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether nothing is in flight and no fault event is left to apply.
    pub(crate) fn settled(&self) -> bool {
        self.in_flight() == 0
            && self
                .faults
                .as_deref()
                .is_none_or(|log| log.next_event == log.plan.events().len())
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

    /// A fault destroyed `flits` flits and condemned the packets in
    /// `handles`, which may repeat (once per lost flit): counts the flits,
    /// and frees each packet's handle once.
    ///
    /// A packet rides one lane from its first flit to its last, and a
    /// loop kill destroys that lane's flits and aborts its injections in
    /// one go, so no flit of a condemned packet is left to reach
    /// [`Ledger::eject`].
    ///
    /// # Panics
    ///
    /// Panics without a fault plan: only a fault condemns.
    pub(crate) fn condemn(&mut self, flits: u64, mut handles: Vec<u32>) {
        let log = self
            .faults
            .as_deref_mut()
            .expect("condemned without a fault plan");
        log.dropped_flits += flits;
        handles.sort_unstable();
        handles.dedup();
        log.dropped_packets += handles.len() as u64;
        self.free.extend(handles);
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
