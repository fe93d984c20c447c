//! The shared telemetry sink: collects flushed recorder state as timestamped
//! [`Event`]s, keeps commutative run totals, and exports JSONL.

use crate::metrics::{GaugeStat, Histogram, RecorderState};
use crate::recorder::Recorder;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One flushed metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since sink creation, strictly increasing across the
    /// whole sink (ties broken by `+1`).
    pub ts_us: u64,
    /// The recorder that produced the event (e.g. `worker0`, `sim`).
    pub source: String,
    /// Run phase the recorder was in when the metric accumulated.
    pub phase: String,
    /// Metric name (e.g. `explore.cycles`).
    pub name: String,
    /// Metric payload.
    pub value: EventValue,
}

/// The typed payload of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventValue {
    /// A monotonic count accumulated since the recorder's last flush.
    Counter {
        /// The counter delta.
        value: u64,
    },
    /// A sampled level, summarized.
    Gauge {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation.
        min: f64,
        /// Largest observation.
        max: f64,
    },
    /// A distribution of `u64` samples, summarized.
    Hist {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Smallest sample.
        min: u64,
        /// Largest sample.
        max: u64,
        /// Median (nearest rank, bucket-resolved).
        p50: u64,
        /// 95th percentile.
        p95: u64,
        /// 99th percentile.
        p99: u64,
    },
}

impl EventValue {
    /// The schema `kind` tag: `counter`, `gauge`, or `hist`.
    pub fn kind(&self) -> &'static str {
        match self {
            EventValue::Counter { .. } => "counter",
            EventValue::Gauge { .. } => "gauge",
            EventValue::Hist { .. } => "hist",
        }
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Serialize for Event {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("ts_us", Value::UInt(self.ts_us)),
            ("source", Value::Str(self.source.clone())),
            ("phase", Value::Str(self.phase.clone())),
            ("kind", Value::Str(self.value.kind().to_string())),
            ("name", Value::Str(self.name.clone())),
        ];
        match &self.value {
            EventValue::Counter { value } => fields.push(("value", Value::UInt(*value))),
            EventValue::Gauge {
                count,
                sum,
                min,
                max,
            } => {
                fields.push(("count", Value::UInt(*count)));
                fields.push(("sum", Value::Float(*sum)));
                fields.push(("min", Value::Float(*min)));
                fields.push(("max", Value::Float(*max)));
            }
            EventValue::Hist {
                count,
                sum,
                min,
                max,
                p50,
                p95,
                p99,
            } => {
                fields.push(("count", Value::UInt(*count)));
                fields.push(("sum", Value::UInt(*sum)));
                fields.push(("min", Value::UInt(*min)));
                fields.push(("max", Value::UInt(*max)));
                fields.push(("p50", Value::UInt(*p50)));
                fields.push(("p95", Value::UInt(*p95)));
                fields.push(("p99", Value::UInt(*p99)));
            }
        }
        obj(fields)
    }
}

fn need_str(value: &Value, key: &str) -> Result<String, serde::Error> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| serde::Error::custom(format!("missing or non-string field `{key}`")))
}

fn need_u64(value: &Value, key: &str) -> Result<u64, serde::Error> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| serde::Error::custom(format!("missing or non-integer field `{key}`")))
}

fn need_f64(value: &Value, key: &str) -> Result<f64, serde::Error> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| serde::Error::custom(format!("missing or non-number field `{key}`")))
}

impl Deserialize for Event {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", value))?;
        let kind = need_str(value, "kind")?;
        let (payload, extra): (EventValue, &[&str]) = match kind.as_str() {
            "counter" => (
                EventValue::Counter {
                    value: need_u64(value, "value")?,
                },
                &["value"],
            ),
            "gauge" => (
                EventValue::Gauge {
                    count: need_u64(value, "count")?,
                    sum: need_f64(value, "sum")?,
                    min: need_f64(value, "min")?,
                    max: need_f64(value, "max")?,
                },
                &["count", "sum", "min", "max"],
            ),
            "hist" => (
                EventValue::Hist {
                    count: need_u64(value, "count")?,
                    sum: need_u64(value, "sum")?,
                    min: need_u64(value, "min")?,
                    max: need_u64(value, "max")?,
                    p50: need_u64(value, "p50")?,
                    p95: need_u64(value, "p95")?,
                    p99: need_u64(value, "p99")?,
                },
                &["count", "sum", "min", "max", "p50", "p95", "p99"],
            ),
            other => {
                return Err(serde::Error::custom(format!(
                    "unknown event kind `{other}`"
                )))
            }
        };
        for (key, _) in fields {
            let known = matches!(key.as_str(), "ts_us" | "source" | "phase" | "kind" | "name")
                || extra.contains(&key.as_str());
            if !known {
                return Err(serde::Error::custom(format!(
                    "unexpected field `{key}` for kind `{kind}`"
                )));
            }
        }
        Ok(Event {
            ts_us: need_u64(value, "ts_us")?,
            source: need_str(value, "source")?,
            phase: need_str(value, "phase")?,
            name: need_str(value, "name")?,
            value: payload,
        })
    }
}

impl Event {
    /// Renders the event as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("event serialization is infallible")
    }

    /// Parses one JSONL line, strictly validating the schema (exact field
    /// set and types for the event's `kind`).
    pub fn from_json_line(line: &str) -> Result<Event, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

pub(crate) struct SinkShared {
    start: Instant,
    state: Mutex<SinkState>,
}

impl fmt::Debug for SinkShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkShared").finish_non_exhaustive()
    }
}

#[derive(Default)]
struct SinkState {
    last_ts: u64,
    events: Vec<Event>,
    totals: RecorderState,
}

impl SinkShared {
    /// Converts a recorder's accumulated state into timestamped events and
    /// folds it into the run totals; clears `state` afterwards.
    pub(crate) fn publish(&self, source: &str, phase: &'static str, state: &mut RecorderState) {
        let raw = self.start.elapsed().as_micros() as u64;
        let mut st = self.state.lock().expect("telemetry sink poisoned");
        let push = |st: &mut SinkState, name: &'static str, value: EventValue| {
            let ts = raw.max(st.last_ts + 1);
            st.last_ts = ts;
            st.events.push(Event {
                ts_us: ts,
                source: source.to_string(),
                phase: phase.to_string(),
                name: name.to_string(),
                value,
            });
        };
        for &(name, value) in state.counters() {
            push(&mut st, name, EventValue::Counter { value });
        }
        for &(name, g) in state.gauges() {
            push(
                &mut st,
                name,
                EventValue::Gauge {
                    count: g.count,
                    sum: g.sum,
                    min: g.min,
                    max: g.max,
                },
            );
        }
        for (name, h) in state.hists() {
            push(
                &mut st,
                name,
                EventValue::Hist {
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.percentile(50.0),
                    p95: h.percentile(95.0),
                    p99: h.percentile(99.0),
                },
            );
        }
        st.totals.merge(state);
        state.clear();
    }
}

/// Handle to a run's telemetry collection point. Cheap to clone (an `Arc`
/// when enabled, a `None` when disabled); every component of a run shares
/// one sink and draws per-thread [`Recorder`]s from it.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    shared: Option<Arc<SinkShared>>,
}

impl fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TelemetrySink {
    /// A sink that collects nothing; its recorders are no-ops.
    pub fn disabled() -> Self {
        TelemetrySink { shared: None }
    }

    /// A live sink collecting events from its recorders.
    pub fn enabled() -> Self {
        TelemetrySink {
            shared: Some(Arc::new(SinkShared {
                start: Instant::now(),
                state: Mutex::new(SinkState::default()),
            })),
        }
    }

    /// True when this sink collects telemetry.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Creates a recorder publishing into this sink under `source`. On a
    /// disabled sink this allocates nothing and returns a no-op recorder.
    pub fn recorder(&self, source: &str) -> Recorder {
        match &self.shared {
            Some(shared) => Recorder::live(Arc::clone(shared), source.to_string()),
            None => Recorder::disabled(),
        }
    }

    /// Snapshot of all flushed events, in timestamp order.
    pub fn events(&self) -> Vec<Event> {
        match &self.shared {
            Some(shared) => shared
                .state
                .lock()
                .expect("telemetry sink poisoned")
                .events
                .clone(),
            None => Vec::new(),
        }
    }

    /// Commutative totals over every flushed recorder state.
    pub fn totals(&self) -> RecorderState {
        match &self.shared {
            Some(shared) => shared
                .state
                .lock()
                .expect("telemetry sink poisoned")
                .totals
                .clone(),
            None => RecorderState::new(),
        }
    }

    /// Total of the named counter across all sources (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.totals().counter(name)
    }

    /// Summary of the named gauge across all sources.
    pub fn gauge_total(&self, name: &str) -> Option<GaugeStat> {
        self.totals().gauge_stat(name).copied()
    }

    /// Merged histogram for the named metric across all sources.
    pub fn hist_total(&self, name: &str) -> Option<Histogram> {
        self.totals().hist(name).cloned()
    }

    /// Renders all flushed events as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL export to `path`, creating parent directories.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_file(path.as_ref(), self.to_jsonl().as_bytes())
    }
}

fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_jsonl() {
        let sink = TelemetrySink::enabled();
        let mut rec = sink.recorder("t");
        rec.set_phase("phase1");
        rec.incr("c", 3);
        rec.gauge("g", 1.5);
        rec.record("h", 10);
        rec.flush();
        let text = sink.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let parsed = Event::from_json_line(line).expect("line parses");
            assert_eq!(parsed.to_json_line(), *line);
        }
    }

    #[test]
    fn timestamps_strictly_increase() {
        let sink = TelemetrySink::enabled();
        for i in 0..4 {
            let mut rec = sink.recorder("t");
            rec.incr("c", i + 1);
            rec.flush();
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        for pair in events.windows(2) {
            assert!(pair[0].ts_us < pair[1].ts_us);
        }
        assert_eq!(sink.counter_total("c"), 1 + 2 + 3 + 4);
    }

    #[test]
    fn strict_schema_rejects_malformed_lines() {
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line(
            r#"{"ts_us":1,"source":"s","phase":"p","kind":"counter","name":"n","value":-3}"#
        )
        .is_err());
        assert!(Event::from_json_line(
            r#"{"ts_us":1,"source":"s","phase":"p","kind":"counter","name":"n","value":3,"bogus":1}"#
        )
        .is_err());
        assert!(Event::from_json_line(
            r#"{"ts_us":1,"source":"s","phase":"p","kind":"counter","name":"n","value":3}"#
        )
        .is_ok());
    }

    #[test]
    fn disabled_sink_produces_nothing() {
        let sink = TelemetrySink::disabled();
        let mut rec = sink.recorder("t");
        rec.incr("c", 1);
        rec.flush();
        assert!(sink.events().is_empty());
        assert!(sink.to_jsonl().is_empty());
        assert_eq!(sink.counter_total("c"), 0);
    }
}
