//! The two headline fault-injection contracts of the routerless fabric:
//!
//! 1. **Zero-fault bit-identity** — a sim built `with_faults` on an empty
//!    [`FaultPlan`] must produce `Metrics` bit-identical to the plain
//!    construction (the fault hooks are behavioural no-ops until an
//!    event fires).
//! 2. **Faulted sweep determinism** — a sweep whose factory builds
//!    loop-killed sims is bit-identical between the serial reference and
//!    the parallel engine at 1, 2, and 8 threads.

use rlnoc_baselines::rec_topology;
use rlnoc_sim::sweep::{latency_sweep, SweepEngine, SweepJob, SweepParams};
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, FaultPlan, RouterlessSim, SimConfig};
use rlnoc_topology::Grid;

fn quick_cfg(data_flits: usize) -> SimConfig {
    SimConfig {
        warmup: 150,
        measure: 900,
        drain: 700,
        data_flits,
        ..SimConfig::default()
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_on_routerless() {
    let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
    let cfg = quick_cfg(5);
    for (pattern, rate, seed) in [
        (Pattern::UniformRandom, 0.05, 3u64),
        (Pattern::Tornado, 0.15, 9),
        (Pattern::Transpose, 0.30, 42),
    ] {
        let plain = run_synthetic(&mut RouterlessSim::new(&topo), pattern, rate, &cfg, seed);
        let faulted = run_synthetic(
            &mut RouterlessSim::with_faults(&topo, FaultPlan::new()),
            pattern,
            rate,
            &cfg,
            seed,
        );
        assert_eq!(
            plain, faulted,
            "empty fault plan diverged ({pattern:?} @ {rate})"
        );
    }
}

/// The CI `fault-smoke` determinism check: a *faulted* routerless sweep
/// (two loops killed mid-warm-up) is bit-identical between the serial
/// reference and the parallel engine at 1, 2, and 8 worker threads.
#[test]
fn faulted_sweep_is_deterministic_across_thread_counts() {
    let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
    let num_loops = topo.loops().len();
    let plan = FaultPlan::random_loop_kills(50, 2, num_loops, 77);
    let cfg = SimConfig {
        warmup: 100,
        measure: 500,
        drain: 400,
        data_flits: 5,
        ..SimConfig::default()
    };
    let params = SweepParams {
        start: 0.05,
        step: 0.1,
        max_rate: 0.65,
        latency_factor: 4.0,
        seed: 21,
    };
    let factory = || RouterlessSim::with_faults(&topo, plan.clone());
    let serial = [latency_sweep(factory, Pattern::UniformRandom, &cfg, params)];
    assert!(!serial[0].points.is_empty());
    let jobs = [SweepJob::new(
        "faulted",
        Pattern::UniformRandom,
        cfg,
        params,
        factory,
    )];
    for threads in [1, 2, 8] {
        let parallel = SweepEngine::new(threads).sweep_many(&jobs);
        assert_eq!(
            parallel, serial,
            "faulted sweep diverged at {threads} threads"
        );
    }
}
