//! Metric names, the result line, and small shared helpers.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, reported by every workload from an untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload from a traced run. A
/// layer the workload never calls reads 0. `.calls` and `.us` are per
/// operation; `.us` is busy time summed over calls and threads.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.routerless.apply.calls", "count"),
    ("core.routerless.apply.us", "us"),
    ("core.routerless.legal_actions.calls", "count"),
    ("core.routerless.legal_actions.us", "us"),
    ("core.routerless.is_terminal.us", "us"),
    ("core.routerless.state_tensor.us", "us"),
    ("core.routerless.state_key.us", "us"),
    ("core.greedy.greedy_action.calls", "count"),
    ("core.greedy.greedy_action.us", "us"),
    ("core.greedy.completion_action.calls", "count"),
    ("core.greedy.completion_action.us", "us"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.policy.train_batch_steps", "count"),
    ("nn.gemm.calls", "count"),
    ("nn.gemm.us", "us"),
    ("nn.conv.calls", "count"),
    ("nn.conv.us", "us"),
    ("nn.forward.calls", "count"),
    ("nn.forward.us", "us"),
    ("core.mcts.expand.us", "us"),
    ("core.mcts.select.us", "us"),
    ("core.mcts.backup.us", "us"),
    ("core.policy.evaluate.calls", "count"),
    ("core.policy.evaluate.us", "us"),
    ("core.policy.accumulate_episode.us", "us"),
    ("core.policy.step_optimizer.us", "us"),
    ("core.policy.warm_batch.us", "us"),
    ("learn.cycle.other_us", "us"),
    ("learn.valid_frac", "ratio"),
    ("greedy.other_us", "us"),
    ("sim.mesh.tick.calls", "count"),
    ("sim.mesh.tick.us", "us"),
    ("sim.mesh.offer.us", "us"),
    ("sim.mesh.drain.us", "us"),
    ("sim.routerless.tick.calls", "count"),
    ("sim.routerless.tick.us", "us"),
    ("sim.routerless.offer.us", "us"),
    ("sim.routerless.drain.us", "us"),
    ("sim.sweep.points_run", "count"),
    ("sim.sweep.useful_ratio", "ratio"),
    ("sim.sweep.other_us", "us"),
    ("trace.op_us", "us"),
    ("trace.untraced_op_us", "us"),
    ("trace.overhead_pct", "%"),
    ("bench.ops_per_s", "1/s"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// A fidelity or consistency check that is not tied to one operation.
    pub check_errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one attempted operation, failed when `error` is set.
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            eprintln!("perfbench: failed operation: {e}");
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.check_errors.push(msg);
        }
    }

    /// The result line: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run).
    pub fn json(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.failed == 0 && self.check_errors.is_empty() && self.attempted > 0;
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    correct = false;
                    0.0
                }
                // Only a per-layer metric may be absent: its layer is not on
                // this workload's path.
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Set-ups at each end of a run. The host's speed drifts over seconds (one
/// set-up took 0.30 s in one process and 0.49 s in another a minute
/// earlier, all of it CPU time), so sampling both ends of a run keeps one
/// slow stretch from setting the median. The first set-up of a process
/// also runs cold (first page touches). The count is fixed: `learn-4x4-2t`
/// starts two threads per set-up, and with about 35 set-ups a run its
/// peak RSS read 20 MB on some runs and 27 MB on others.
const SETUPS_EACH_END: usize = 5;

/// The set-up durations of one run, in seconds.
#[derive(Debug, Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs `setup` [`SETUPS_EACH_END`] times, timing each, and returns
    /// the last result. Called once before and once after the measured
    /// window.
    pub fn run<T>(&mut self, setup: impl Fn() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUPS_EACH_END {
            // Only one set-up's result is alive at a time.
            drop(last.take());
            let start = std::time::Instant::now();
            last = Some(setup());
            self.0.push(start.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    }

    /// The median set-up time, which is `setup_s`.
    pub fn median(&self) -> f64 {
        eprintln!("perfbench: set-ups took {:.4?} s", self.0);
        median(&self.0)
    }
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1000.0)
}

pub use rlnoc_sim::sweep::splitmix64;

/// A seed-determined permutation of `items` (Fisher–Yates on SplitMix64).
pub fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// FNV-1a over a sequence of words, for pinning loop lists.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs `op`, turning a panic into an error message.
pub fn catch<T>(op: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Per-operation value of a total.
pub fn per_op(total: f64, ops: usize) -> f64 {
    total / ops.max(1) as f64
}

/// Sets the tracing-overhead metrics from the same operations timed
/// untraced and traced.
pub fn set_overhead(out: &mut Outcome, ops: usize, untraced: Duration, traced: Duration) {
    let plain = per_op(untraced.as_secs_f64() * 1e6, ops);
    let timed = per_op(traced.as_secs_f64() * 1e6, ops);
    out.set("trace.untraced_op_us", plain);
    out.set("trace.op_us", timed);
    out.set("trace.overhead_pct", (timed / plain - 1.0) * 100.0);
}
