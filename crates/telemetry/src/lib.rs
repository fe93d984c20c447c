//! Run telemetry for the rlnoc workspace: typed counters, gauges, and
//! histograms recorded by per-thread [`Recorder`]s and published into a
//! shared [`TelemetrySink`] for JSONL export.
//!
//! # Design contract
//!
//! - **Zero overhead when disabled.** A disabled [`Recorder`] is a `None`
//!   behind one pointer-sized `Option`; every instrumentation call is a
//!   single branch, performs no allocation, and never reads the clock
//!   (verified by the counting-allocator test in `tests/disabled_alloc.rs`).
//! - **Observation only.** Instrumentation never feeds back into the code
//!   it observes: enabled and disabled runs of the simulator and explorer
//!   produce bit-identical results (asserted by the workspace-level
//!   golden-trace tests).
//! - **Lock-free hot path.** Each thread accumulates into its own
//!   [`Recorder`]; the shared sink mutex is only taken at explicit
//!   [`Recorder::flush`] points (phase and run boundaries), never per
//!   sample.
//! - **Commutative merges.** Counter, gauge, and histogram state merges
//!   are order-independent (counters and histogram buckets add; min/max
//!   compose), so concurrent recorders can flush in any interleaving and
//!   the sink totals equal the serial reduction (property-tested in
//!   `tests/merge_props.rs`).
//!
//! # JSONL schema
//!
//! Each exported line is one object with fixed field names and types:
//!
//! ```json
//! {"ts_us":12,"source":"worker0","phase":"explore","kind":"counter","name":"explore.cycles","value":8}
//! {"ts_us":13,"source":"sim","phase":"sim","kind":"gauge","name":"sim.calendar_occupancy","count":1,"sum":0.25,"min":0.25,"max":0.25}
//! {"ts_us":14,"source":"sim","phase":"sim","kind":"hist","name":"sim.packet_latency","count":90,"sum":2700,"min":12,"max":61,"p50":28,"p95":55,"p99":60}
//! ```
//!
//! `ts_us` values are strictly increasing across the whole sink (flush
//! time, microseconds since sink creation, tie-broken by `+1`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod recorder;
pub mod report;
mod sink;

pub use metrics::{GaugeStat, Histogram, RecorderState, HIST_BUCKETS};
pub use recorder::{Recorder, Span, Timer};
pub use sink::{Event, EventValue, TelemetrySink};
