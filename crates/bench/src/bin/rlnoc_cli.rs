//! `rlnoc_cli` — a small command-line front end for the workspace:
//! design, inspect, and simulate routerless NoC topologies.
//!
//! ```text
//! rlnoc_cli design   --size 8 --cap 14 [--effort learn:8:4] [--seed 3] [--out topo.json]
//! rlnoc_cli show     topo.json
//! rlnoc_cli simulate topo.json [--pattern uniform|tornado|bitcomp|bitrot|shuffle|transpose]
//!                              [--rate 0.1] [--cycles 5000]
//! rlnoc_cli sweep    topo.json [--pattern uniform] [--step 0.02] [--cycles 3000]
//! ```

use rlnoc_bench::{drl_topology, Effort};
use rlnoc_power::{AreaModel, Fabric, PowerModel};
use rlnoc_sim::sweep::{SweepEngine, SweepJob, SweepParams};
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic_checked, RouterlessSim, SimConfig};
use rlnoc_topology::{diversity, render, Grid, Topology};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "design" => cmd_design(rest),
        "show" => cmd_show(rest),
        "simulate" => cmd_simulate(rest),
        "sweep" => cmd_sweep(rest),
        _ => Err(format!("unknown command `{cmd}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: rlnoc_cli <design|show|simulate|sweep> [options]
  design   --size N --cap K [--effort learn[:cycles[:threads]]] [--seed S] [--out FILE]
  show     FILE
  simulate FILE [--pattern P] [--rate R] [--cycles C]
  sweep    FILE [--pattern P] [--step S] [--cycles C]
patterns: uniform tornado bitcomp bitrot shuffle transpose";

/// Splits `rest` into positional arguments and `--flag value` pairs.
fn parse(rest: &[String]) -> (Vec<&str>, HashMap<&str, &str>) {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(name) = rest[i].strip_prefix("--") {
            if i + 1 < rest.len() {
                flags.insert(name, rest[i + 1].as_str());
                i += 2;
            } else {
                flags.insert(name, "");
                i += 1;
            }
        } else {
            pos.push(rest[i].as_str());
            i += 1;
        }
    }
    (pos, flags)
}

fn parse_pattern(name: &str) -> Result<Pattern, String> {
    Ok(match name {
        "uniform" => Pattern::UniformRandom,
        "tornado" => Pattern::Tornado,
        "bitcomp" => Pattern::BitComplement,
        "bitrot" => Pattern::BitRotation,
        "shuffle" => Pattern::Shuffle,
        "transpose" => Pattern::Transpose,
        other => return Err(format!("unknown pattern `{other}`")),
    })
}

fn load_topology(path: &str) -> Result<Topology, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_design(rest: &[String]) -> Result<(), String> {
    let (_, flags) = parse(rest);
    let n: usize = flags
        .get("size")
        .ok_or("design requires --size N")?
        .parse()
        .map_err(|e| format!("--size: {e}"))?;
    let grid = Grid::square(n).map_err(|e| e.to_string())?;
    let cap: u32 = flags
        .get("cap")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--cap: {e}"))?
        .unwrap_or(2 * (n as u32 - 1));
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--seed: {e}"))?
        .unwrap_or(3);
    let effort = match flags.get("effort") {
        Some(v) if v.starts_with("learn") => {
            let mut parts = v.split(':').skip(1);
            Effort::Learn {
                cycles: parts.next().and_then(|s| s.parse().ok()).unwrap_or(8),
                threads: parts.next().and_then(|s| s.parse().ok()).unwrap_or(4),
            }
        }
        _ => Effort::Greedy,
    };
    let topo = drl_topology(grid, cap, effort, seed);
    if !topo.is_fully_connected() {
        return Err(format!(
            "no fully connected design found for {n}x{n} at cap {cap} with this budget; \
             try a larger --cap or --effort learn"
        ));
    }
    print_summary(&topo, cap);
    if let Some(out) = flags.get("out") {
        let json = serde_json::to_string_pretty(&topo).expect("topologies serialize");
        std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("(wrote {out})");
    }
    Ok(())
}

fn cmd_show(rest: &[String]) -> Result<(), String> {
    let (pos, _) = parse(rest);
    let path = pos.first().ok_or("show requires a topology file")?;
    let topo = load_topology(path)?;
    print_summary(&topo, topo.max_overlap());
    println!("\n{}", render::render_ascii(&topo));
    println!("{}", render::describe_loops(&topo));
    Ok(())
}

fn cmd_simulate(rest: &[String]) -> Result<(), String> {
    let (pos, flags) = parse(rest);
    let path = pos.first().ok_or("simulate requires a topology file")?;
    let topo = load_topology(path)?;
    let pattern = parse_pattern(flags.get("pattern").copied().unwrap_or("uniform"))?;
    let rate: f64 = flags
        .get("rate")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--rate: {e}"))?
        .unwrap_or(0.1);
    let cycles: u64 = flags
        .get("cycles")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--cycles: {e}"))?
        .unwrap_or(5_000);
    let cfg = SimConfig {
        warmup: cycles / 5,
        measure: cycles,
        drain: cycles / 2,
        ..SimConfig::routerless()
    };
    let mut sim = RouterlessSim::new(&topo);
    let m = run_synthetic_checked(&mut sim, pattern, rate, &cfg, 1).map_err(|e| e.to_string())?;
    println!("pattern {pattern:?} at {rate} flits/node/cycle over {cycles} cycles:");
    println!(
        "  avg packet latency: {:.2} cycles (max {})",
        m.avg_packet_latency(),
        m.max_latency
    );
    println!("  avg hops:           {:.2}", m.avg_hops());
    println!(
        "  accepted:           {:.3} flits/node/cycle",
        m.accepted_throughput()
    );
    println!("  delivery ratio:     {:.3}", m.delivery_ratio());
    let power = PowerModel::default();
    let fabric = Fabric::Routerless {
        overlap: topo.max_overlap(),
    };
    let p = power.from_metrics(fabric, &m);
    println!(
        "  power/node:         {:.3} mW ({:.3} static + {:.3} dynamic)",
        p.total_mw(),
        p.static_mw,
        p.dynamic_mw
    );
    Ok(())
}

fn cmd_sweep(rest: &[String]) -> Result<(), String> {
    let (pos, flags) = parse(rest);
    let path = pos.first().ok_or("sweep requires a topology file")?;
    let topo = load_topology(path)?;
    let pattern = parse_pattern(flags.get("pattern").copied().unwrap_or("uniform"))?;
    let step: f64 = flags
        .get("step")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--step: {e}"))?
        .unwrap_or(0.02);
    let cycles: u64 = flags
        .get("cycles")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--cycles: {e}"))?
        .unwrap_or(3_000);
    let cfg = SimConfig {
        warmup: 500,
        measure: cycles,
        drain: 2_000,
        ..SimConfig::routerless()
    };
    let params = SweepParams {
        start: step,
        step,
        max_rate: 1.0,
        latency_factor: 4.0,
        seed: 1,
    };
    cfg.validate().map_err(|e| e.to_string())?;
    params.validate().map_err(|e| e.to_string())?;
    // Points fan out across cores, bit-identical to the serial sweep (see
    // `rlnoc_sim::sweep`).
    let jobs = [SweepJob::new(*path, pattern, cfg, params, || {
        RouterlessSim::new(&topo)
    })];
    let sweep = SweepEngine::available().sweep_many(&jobs).remove(0);
    println!("rate      latency   accepted");
    for p in &sweep.points {
        println!("{:<8.3}  {:<8.2}  {:<8.3}", p.rate, p.latency, p.accepted);
    }
    println!(
        "zero-load {:.2} cycles, saturation {:.3} flits/node/cycle",
        sweep.zero_load_latency, sweep.saturation
    );
    Ok(())
}

fn print_summary(topo: &Topology, cap: u32) {
    let area = AreaModel::default();
    println!(
        "{} | cap {cap} | wire length {} | path diversity {:.2} | node area {:.0} um^2",
        topo.describe().lines().next().unwrap_or(""),
        topo.total_wire_length(),
        diversity::average_path_diversity(topo),
        area.node_area_um2(Fabric::Routerless { overlap: cap }),
    );
}
