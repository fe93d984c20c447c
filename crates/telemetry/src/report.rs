//! Offline rendering of a telemetry JSONL export into per-phase summary
//! tables (the `telemetry_report` bench binary is a thin wrapper over
//! this module).

use crate::metrics::GaugeStat;
use crate::sink::{Event, EventValue};

/// Summary of one phase's metrics, in first-appearance order.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// The phase label events were recorded under.
    pub phase: String,
    /// One aggregated row per metric name.
    pub rows: Vec<SummaryRow>,
}

/// One metric aggregated across all events and sources within a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Metric name.
    pub name: String,
    /// Schema kind (`counter`, `gauge`, or `hist`).
    pub kind: String,
    /// Number of events folded into this row.
    pub events: u64,
    /// Pooled sample/observation count (counters: summed value).
    pub count: u64,
    /// Pooled mean (gauges and histograms; counters repeat the total).
    pub mean: f64,
    /// Pooled minimum.
    pub min: f64,
    /// Pooled maximum.
    pub max: f64,
    /// Count-weighted p50 across histogram events (0 otherwise).
    pub p50: f64,
    /// Count-weighted p95 across histogram events (0 otherwise).
    pub p95: f64,
    /// Count-weighted p99 across histogram events (0 otherwise).
    pub p99: f64,
}

/// Parses a JSONL export (skipping blank lines) with strict per-line
/// schema validation; the error names the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(event);
    }
    Ok(events)
}

#[derive(Default)]
struct RowAcc {
    kind: String,
    events: u64,
    counter_total: u64,
    gauge: GaugeStat,
    hist_count: u64,
    hist_sum: u64,
    hist_min: u64,
    hist_max: u64,
    // Count-weighted percentile sums; exact per-event percentiles are not
    // recoverable from summaries, so pooled percentiles are approximate.
    p50_w: f64,
    p95_w: f64,
    p99_w: f64,
}

/// Groups events by phase (first-appearance order) and aggregates each
/// metric name within the phase across sources and flushes.
pub fn summarize(events: &[Event]) -> Vec<PhaseSummary> {
    let mut phases: Vec<(String, Vec<(String, RowAcc)>)> = Vec::new();
    for event in events {
        let phase_rows = match phases.iter_mut().find(|(p, _)| *p == event.phase) {
            Some((_, rows)) => rows,
            None => {
                phases.push((event.phase.clone(), Vec::new()));
                &mut phases.last_mut().expect("just pushed").1
            }
        };
        let acc = match phase_rows.iter_mut().find(|(n, _)| *n == event.name) {
            Some((_, acc)) => acc,
            None => {
                phase_rows.push((event.name.clone(), RowAcc::default()));
                &mut phase_rows.last_mut().expect("just pushed").1
            }
        };
        acc.kind = event.value.kind().to_string();
        acc.events += 1;
        match &event.value {
            EventValue::Counter { value } => acc.counter_total += value,
            EventValue::Gauge {
                count,
                sum,
                min,
                max,
            } => acc.gauge.merge(&GaugeStat {
                count: *count,
                sum: *sum,
                min: *min,
                max: *max,
            }),
            EventValue::Hist {
                count,
                sum,
                min,
                max,
                p50,
                p95,
                p99,
            } => {
                if *count > 0 {
                    if acc.hist_count == 0 {
                        acc.hist_min = *min;
                        acc.hist_max = *max;
                    } else {
                        acc.hist_min = acc.hist_min.min(*min);
                        acc.hist_max = acc.hist_max.max(*max);
                    }
                    acc.hist_count += count;
                    acc.hist_sum += sum;
                    acc.p50_w += *p50 as f64 * *count as f64;
                    acc.p95_w += *p95 as f64 * *count as f64;
                    acc.p99_w += *p99 as f64 * *count as f64;
                }
            }
        }
    }
    phases
        .into_iter()
        .map(|(phase, rows)| PhaseSummary {
            phase,
            rows: rows
                .into_iter()
                .map(|(name, acc)| finish_row(name, acc))
                .collect(),
        })
        .collect()
}

fn finish_row(name: String, acc: RowAcc) -> SummaryRow {
    match acc.kind.as_str() {
        "counter" => SummaryRow {
            name,
            kind: acc.kind,
            events: acc.events,
            count: acc.counter_total,
            mean: acc.counter_total as f64,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        },
        "gauge" => SummaryRow {
            name,
            kind: acc.kind,
            events: acc.events,
            count: acc.gauge.count,
            mean: acc.gauge.mean(),
            min: if acc.gauge.count == 0 {
                0.0
            } else {
                acc.gauge.min
            },
            max: if acc.gauge.count == 0 {
                0.0
            } else {
                acc.gauge.max
            },
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        },
        _ => {
            let n = acc.hist_count as f64;
            let w = |x: f64| if acc.hist_count == 0 { 0.0 } else { x / n };
            SummaryRow {
                name,
                kind: acc.kind,
                events: acc.events,
                count: acc.hist_count,
                mean: w(acc.hist_sum as f64),
                min: acc.hist_min as f64,
                max: acc.hist_max as f64,
                p50: w(acc.p50_w),
                p95: w(acc.p95_w),
                p99: w(acc.p99_w),
            }
        }
    }
}

fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Renders summaries as aligned per-phase text tables.
pub fn render(summaries: &[PhaseSummary]) -> String {
    let headers = [
        "name", "kind", "events", "count", "mean", "min", "max", "p50", "p95", "p99",
    ];
    let mut out = String::new();
    for summary in summaries {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for r in &summary.rows {
            rows.push(vec![
                r.name.clone(),
                r.kind.clone(),
                r.events.to_string(),
                r.count.to_string(),
                fmt_num(r.mean),
                fmt_num(r.min),
                fmt_num(r.max),
                fmt_num(r.p50),
                fmt_num(r.p95),
                fmt_num(r.p99),
            ]);
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        out.push_str(&format!("phase: {}\n", summary.phase));
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        out.push_str(&format!("  {}\n", line(&header_cells)));
        for row in &rows {
            out.push_str(&format!("  {}\n", line(row)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetrySink;

    #[test]
    fn parse_summarize_render_round_trip() {
        let sink = TelemetrySink::enabled();
        let mut a = sink.recorder("a");
        a.set_phase("explore");
        a.incr("cycles", 3);
        a.record("steps", 5);
        a.record("steps", 7);
        drop(a);
        let mut b = sink.recorder("b");
        b.set_phase("explore");
        b.incr("cycles", 2);
        drop(b);

        let events = parse_jsonl(&sink.to_jsonl()).expect("parses");
        assert_eq!(events.len(), 3);
        let summaries = summarize(&events);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].phase, "explore");
        let cycles = summaries[0]
            .rows
            .iter()
            .find(|r| r.name == "cycles")
            .expect("cycles row");
        assert_eq!(cycles.count, 5);
        assert_eq!(cycles.events, 2);
        let rendered = render(&summaries);
        assert!(rendered.contains("phase: explore"));
        assert!(rendered.contains("cycles"));
        assert!(rendered.contains("steps"));
    }

    #[test]
    fn parse_rejects_bad_lines_with_line_numbers() {
        let err = parse_jsonl("\n{\"nope\":1}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
