//! Fault tolerance under loop failures: the dynamic companion to §6.7.
//!
//! The paper argues DRL topologies are more *reliable* than REC because
//! they give each node pair more loop choices (3.79 vs 2.77 paths/pair at
//! 8x8). `exp_reliability` reproduces that static count; this experiment
//! actually fails k ∈ {0,1,2,3} random loops and measures what survives:
//!
//! - **static**: reachable-pair fraction and degraded average hops from
//!   `RoutingTable::rebuild_excluding` (averaged over fault draws);
//! - **dynamic**: delivered fraction, average latency, and accepted
//!   throughput from `RouterlessSim::with_faults` runs where the loops are
//!   killed mid-warm-up, in-flight flits on them are dropped, and sources
//!   fall back to the degraded routing table.
//!
//! `--smoke` runs a reduced sweep (fewer fault draws, shorter windows) and
//! asserts the headline invariants for CI.

use rlnoc_baselines::rec_topology;
use rlnoc_bench::{drl_topology, f3, print_table, s, write_csv, write_telemetry, Effort};
use rlnoc_sim::traffic::{Pattern, TrafficGen};
use rlnoc_sim::{run_with_source_traced, FaultPlan, RouterlessSim, SimConfig};
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::{FaultSet, Grid, RoutingTable, Topology};

/// One design's averaged degradation numbers at a given k.
struct Row {
    reachability: f64,
    avg_hops: f64,
    delivered: f64,
    latency: f64,
    throughput: f64,
}

fn measure(
    topo: &Topology,
    k: usize,
    seeds: &[u64],
    cfg: &SimConfig,
    kill_at: u64,
    mut rec: rlnoc_telemetry::Recorder,
) -> Row {
    let num_loops = topo.loops().len();
    let mut acc = Row {
        reachability: 0.0,
        avg_hops: 0.0,
        delivered: 0.0,
        latency: 0.0,
        throughput: 0.0,
    };
    for &fs in seeds {
        // Static: what the degraded routing table still connects.
        let faults = FaultSet::random_loop_failures(k, num_loops, fs);
        let (_, report) = RoutingTable::rebuild_excluding(topo, &faults);
        acc.reachability += report.reachability();
        acc.avg_hops += report.average_hops.unwrap_or(f64::NAN);

        // Dynamic: kill the same loops mid-warm-up and run traffic.
        let plan = FaultPlan::random_loop_kills(kill_at, k, num_loops, fs);
        let mut sim = RouterlessSim::with_faults(topo, plan);
        let mut gen = TrafficGen::new(*topo.grid(), Pattern::UniformRandom, 0.08, 0xFA17 + fs);
        let m = run_with_source_traced(&mut sim, &mut gen, cfg, &mut rec);
        acc.delivered += m.delivery_ratio();
        acc.latency += m.avg_packet_latency();
        acc.throughput += m.accepted_throughput();
    }
    let n = seeds.len() as f64;
    Row {
        reachability: acc.reachability / n,
        avg_hops: acc.avg_hops / n,
        delivered: acc.delivered / n,
        latency: acc.latency / n,
        throughput: acc.throughput / n,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = Grid::square(8).expect("8x8 grid");
    let rec = rec_topology(grid).expect("REC");
    let drl = drl_topology(grid, 14, Effort::from_env(), 3);

    let fault_seeds: Vec<u64> = if smoke {
        (0..2).collect()
    } else {
        (0..8).collect()
    };
    let cfg = if smoke {
        SimConfig {
            warmup: 200,
            measure: 800,
            drain: 600,
            ..SimConfig::routerless()
        }
    } else {
        SimConfig {
            warmup: 500,
            measure: 4000,
            drain: 1500,
            ..SimConfig::routerless()
        }
    };
    let kill_at = cfg.warmup / 2;

    let sink = TelemetrySink::enabled();
    let mut rows = Vec::new();
    let mut summary: Vec<(String, usize, Row)> = Vec::new();
    for (name, topo) in [("REC", &rec), ("DRL", &drl)] {
        for k in 0..=3 {
            let rec_tel = sink.recorder(&format!("{name}.k{k}"));
            let row = measure(topo, k, &fault_seeds, &cfg, kill_at, rec_tel);
            // Reachability both ways: the raw pair fraction (what the
            // invariants below compare) and the percentage EXPERIMENTS.md
            // quotes — keeping the table and the doc on one scale.
            rows.push(vec![
                s(name),
                s(k),
                f3(row.reachability),
                format!("{:.2}%", row.reachability * 100.0),
                f3(row.avg_hops),
                f3(row.delivered),
                f3(row.latency),
                f3(row.throughput),
            ]);
            summary.push((name.to_string(), k, row));
        }
    }

    let headers = [
        "design",
        "loops_failed",
        "reachability",
        "reachability_pct",
        "avg_hops",
        "delivered_fraction",
        "avg_latency",
        "accepted_throughput",
    ];
    print_table(
        &format!(
            "fault tolerance under k random loop failures, 8x8, \
             uniform 0.08 flits/node/cycle, {} fault draws",
            fault_seeds.len()
        ),
        &headers,
        &rows,
    );
    write_csv("exp_fault_tolerance", &headers, &rows);
    write_telemetry("exp_fault_tolerance", &sink);

    // The traced runs' drop accounting must balance: everything injected
    // is delivered, still in flight at drain end, unroutable under the
    // degraded table, or dropped on a killed loop.
    let injected = sink.counter_total("sim.packets_injected");
    let accounted = sink.counter_total("sim.packets_delivered")
        + sink.counter_total("sim.packets_in_flight_end")
        + sink.counter_total("sim.unroutable_packets")
        + sink.counter_total("sim.dropped_by_fault_packets");
    assert_eq!(
        injected, accounted,
        "packet conservation must hold across all traced runs"
    );

    // Degradation relative to each design's own fault-free baseline.
    let baseline = |name: &str| -> &Row {
        summary
            .iter()
            .find(|(n, k, _)| n == name && *k == 0)
            .map(|(_, _, r)| r)
            .expect("k=0 row")
    };
    println!("\nreachability loss vs own k=0 baseline:");
    for (name, k, row) in &summary {
        if *k == 0 {
            continue;
        }
        let b = baseline(name);
        println!(
            "  {name} k={k}: reachability -{:.4}, delivered -{:.4}",
            b.reachability - row.reachability,
            b.delivered - row.delivered,
        );
    }

    // Headline invariants (always checked; `--smoke` is just the short
    // configuration CI runs them under).
    for name in ["REC", "DRL"] {
        let b = baseline(name);
        assert!(
            (b.reachability - 1.0).abs() < 1e-12,
            "{name}: zero faults must keep full reachability"
        );
        assert!(
            b.delivered > 0.99,
            "{name}: zero-fault run must deliver what it offers (got {})",
            b.delivered
        );
    }
    for (name, k, row) in &summary {
        if *k == 0 {
            continue;
        }
        let b = baseline(name);
        assert!(
            row.reachability <= b.reachability + 1e-12,
            "{name} k={k}: reachability cannot improve under faults"
        );
    }
    // §6.7's claim, exercised dynamically. The discriminating axis at
    // laptop-scale search effort is latency degradation: the DRL design's
    // many small loops each carry a small share of the wiring, so killing
    // k of them perturbs routes far less than killing k of REC's large
    // rings. (Reachability stays above 99% for both designs at k ≤ 3 and
    // differs only in the fourth decimal; with the paper's fully trained
    // agent the reachability gap widens too — see EXPERIMENTS.md.)
    for k in [1usize, 2] {
        let row = |name: &str| {
            &summary
                .iter()
                .find(|(n, kk, _)| n == name && *kk == k)
                .unwrap_or_else(|| panic!("summary has a row for design {name} at k={k}"))
                .2
        };
        let (rec_k, drl_k) = (row("REC"), row("DRL"));
        let rec_lat_loss = (rec_k.latency - baseline("REC").latency) / baseline("REC").latency;
        let drl_lat_loss = (drl_k.latency - baseline("DRL").latency) / baseline("DRL").latency;
        println!(
            "k={k}: relative latency growth REC {:.4} vs DRL {:.4}; \
             reachability REC {:.4} vs DRL {:.4}",
            rec_lat_loss, drl_lat_loss, rec_k.reachability, drl_k.reachability
        );
        assert!(
            drl_lat_loss < rec_lat_loss,
            "DRL should degrade more gracefully than REC at k={k} \
             (REC latency growth {rec_lat_loss:.4}, DRL {drl_lat_loss:.4})"
        );
        assert!(
            rec_k.reachability > 0.99 && drl_k.reachability > 0.99,
            "both designs must stay essentially connected at k={k}"
        );
    }
    println!("\nfault-tolerance invariants hold");
}
