//! One benchmark for the rlnoc learner, Algorithm 1 and the sweep engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record <greedy-table2|sweep-fig10>
//! ```
//!
//! A run builds its inputs from the seed, measures the workload for about
//! `--seconds`, checks every operation's output, and prints one JSON line
//! last: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! from timing wrappers around the measured crates' public calls
//! (`--trace 1`). `--record` prints the pinned outputs the checks compare
//! against. See `README.md` beside this package.

mod greedy;
mod learn;
mod probe;
mod report;
mod sweep;

use std::time::Duration;

pub const WORKLOADS: [&str; 4] = ["learn-8x8", "learn-4x4-2t", "greedy-table2", "sweep-fig10"];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record" => {
                match value.as_str() {
                    "greedy-table2" => greedy::record(),
                    "sweep-fig10" => sweep::record(),
                    _ => return Err(format!("nothing to record for {value}")),
                }
                std::process::exit(0);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Caps glibc's malloc arenas at two, the thread budget. Under the default
/// cap a thread started while others still hold their arenas gets a new
/// arena, which then takes its own GEMM packing buffers: `learn-4x4-2t`,
/// which starts two workers per block, read a peak RSS of 20 MB on some
/// runs and 27 MB on others of the same seed. With two arenas it read
/// 30-31 MB on every run, at the same speed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before this process starts any thread.
    unsafe { mallopt(M_ARENA_MAX, 3) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

fn main() {
    cap_malloc_arenas();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "learn-8x8" => learn::run_8x8(&args),
        "learn-4x4-2t" => learn::run_4x4(&args),
        "greedy-table2" => greedy::run(&args),
        "sweep-fig10" => sweep::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    println!("{}", outcome.json(args.trace));
}
