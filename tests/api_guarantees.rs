//! API-level guarantees: thread-safety markers, serde round-trips, and
//! rectangular-grid support across the workspace.

use rlnoc::baselines::rec_topology;
use rlnoc::drl::routerless::{LoopAction, RouterlessEnv};
use rlnoc::drl::Environment;
use rlnoc::nn::{PolicyValueConfig, PolicyValueNet, Tensor};
use rlnoc::sim::{Metrics, SimConfig};
use rlnoc::topology::{Direction, Grid, HopMatrix, RectLoop, RoutingTable, Topology};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn core_types_are_send_sync() {
    assert_send::<Grid>();
    assert_sync::<Grid>();
    assert_send::<Topology>();
    assert_sync::<Topology>();
    assert_send::<HopMatrix>();
    assert_sync::<HopMatrix>();
    assert_send::<RoutingTable>();
    assert_sync::<RoutingTable>();
    assert_send::<RouterlessEnv>();
    assert_sync::<RouterlessEnv>();
    assert_send::<Tensor>();
    assert_sync::<Tensor>();
    // The network owns boxed layers; it must still cross threads for the
    // §4.6 multi-threaded framework.
    assert_send::<PolicyValueNet>();
}

#[test]
fn topology_serde_round_trip() {
    let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
    let json = serde_json::to_string(&topo).unwrap();
    let back: Topology = serde_json::from_str(&json).unwrap();
    assert_eq!(topo, back);
    assert_eq!(topo.average_hops(), back.average_hops());
    assert!(back.is_fully_connected());
}

#[test]
fn metrics_and_config_serde_round_trip() {
    let cfg = SimConfig::routerless();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);

    let mut m = Metrics {
        nodes: 16,
        cycles: 100,
        ..Metrics::default()
    };
    m.record_offered(5);
    m.record_delivery(12, 4, 5);
    let back: Metrics = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    assert_eq!(m, back);
}

#[test]
fn rectangular_grids_work_through_the_stack() {
    // 6x3 grid: topology, REC, environment, and policy-head encoding all
    // handle non-square dimensions.
    let grid = Grid::new(6, 3).unwrap();
    let rec = rec_topology(grid).unwrap();
    assert!(rec.is_fully_connected());

    let mut env = RouterlessEnv::new(grid, 8);
    assert_eq!(env.head_cardinality(), 6, "heads sized to the longer side");
    // A proposal outside the short dimension is merely invalid (−1).
    let r = env.apply(LoopAction::new(0, 0, 2, 5, Direction::Clockwise));
    assert_eq!(r, -1.0, "y = 5 exceeds height 3: invalid, not a crash");
    // A proper loop works.
    let r = env.apply(LoopAction::new(0, 0, 5, 2, Direction::Clockwise));
    assert_eq!(r, 0.0);
    // Greedy drives the rectangular design to full connectivity.
    while let Some(a) = env.greedy_action() {
        env.apply(a);
        if env.is_fully_connected() {
            break;
        }
    }
    assert!(env.is_fully_connected());
}

#[test]
fn network_config_validates_input_shape() {
    let mut net = PolicyValueNet::new(PolicyValueConfig::small(3), 1);
    let ok = Tensor::zeros(&[1, 1, 9, 9]);
    let out = net.forward(&ok);
    assert_eq!(out.coord_logits.shape(), &[1, 4, 3]);
}

#[test]
fn error_types_implement_std_error() {
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<rlnoc::topology::TopologyError>();
    assert_error::<rlnoc::nn::NnError>();
    assert_error::<rlnoc::baselines::RecError>();
    // And they display lowercase, concise messages.
    let e = RectLoop::new(1, 1, 1, 3, Direction::Clockwise).unwrap_err();
    let msg = e.to_string();
    assert!(msg.starts_with(char::is_lowercase), "message: {msg}");
}
