//! Timing wrappers around the public traits of the measured crates.
//!
//! Every probe lives here, on the benchmark's side of each call: the
//! wrappers forward to the real implementation and add the call's duration
//! to a [`Probes`] slot. Nothing inside the measured crates changes.

use rlnoc_core::cache::{EvalCache, EvalCacheHandle};
use rlnoc_core::explorer::TreeHandle;
use rlnoc_core::policy::Evaluation;
use rlnoc_core::{Environment, Mcts};
use rlnoc_nn::Tensor;
use rlnoc_sim::{Delivery, Network, Packet};
use rlnoc_topology::Grid;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Apply,
    LegalActions,
    IsTerminal,
    StateTensor,
    StateKey,
    IsSuccessful,
    GreedyAction,
    CompletionAction,
    MctsIsExpanded,
    MctsExpand,
    MctsSelect,
    MctsBackup,
    Evaluate,
    AccumulateEpisode,
    StepOptimizer,
    WarmBatch,
    MeshTick,
    MeshOffer,
    MeshDrain,
    RouterlessTick,
    RouterlessOffer,
    RouterlessDrain,
    /// One sweep point, from fabric construction until the fabric drops.
    SweepPoint,
}

const LAYERS: usize = Layer::SweepPoint as usize + 1;

/// Calls and busy nanoseconds per [`Layer`], shared across threads.
#[derive(Debug, Default)]
pub struct Probes {
    calls: [AtomicU64; LAYERS],
    nanos: [AtomicU64; LAYERS],
}

impl Probes {
    pub fn add(&self, layer: Layer, elapsed: Duration) {
        let i = layer as usize;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].load(Ordering::Relaxed)
    }

    pub fn us(&self, layer: Layer) -> f64 {
        self.nanos[layer as usize].load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Busy µs summed over `layers`.
    pub fn us_sum(&self, layers: &[Layer]) -> f64 {
        layers.iter().map(|&l| self.us(l)).sum()
    }
}

/// The environment methods the learner calls at top level; none of them
/// calls another, so their times add up without overlap.
pub const ENV_LAYERS: [Layer; 8] = [
    Layer::Apply,
    Layer::LegalActions,
    Layer::IsTerminal,
    Layer::StateTensor,
    Layer::StateKey,
    Layer::IsSuccessful,
    Layer::GreedyAction,
    Layer::CompletionAction,
];

/// An [`Environment`] that forwards every method, timing the ones in
/// [`ENV_LAYERS`]. Encoding, decoding and shape queries are forwarded
/// untimed: training calls them from inside timed spans.
#[derive(Debug, Clone)]
pub struct TimedEnv<E> {
    inner: E,
    probes: Arc<Probes>,
}

impl<E> TimedEnv<E> {
    pub fn new(inner: E, probes: Arc<Probes>) -> Self {
        TimedEnv { inner, probes }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Environment> Environment for TimedEnv<E> {
    type Action = E::Action;

    fn reset(&mut self) {
        self.inner.reset();
    }
    fn state_key(&self) -> u64 {
        self.probes.time(Layer::StateKey, || self.inner.state_key())
    }
    fn state_tensor(&self) -> Tensor {
        self.probes
            .time(Layer::StateTensor, || self.inner.state_tensor())
    }
    fn state_side(&self) -> usize {
        self.inner.state_side()
    }
    fn apply(&mut self, action: Self::Action) -> f64 {
        self.probes.time(Layer::Apply, || self.inner.apply(action))
    }
    fn is_terminal(&self) -> bool {
        self.probes
            .time(Layer::IsTerminal, || self.inner.is_terminal())
    }
    fn final_return(&self) -> f64 {
        self.inner.final_return()
    }
    fn legal_actions(&self) -> Vec<Self::Action> {
        self.probes
            .time(Layer::LegalActions, || self.inner.legal_actions())
    }
    fn head_cardinality(&self) -> usize {
        self.inner.head_cardinality()
    }
    fn encode_action(&self, action: Self::Action) -> ([usize; 4], bool) {
        self.inner.encode_action(action)
    }
    fn decode_action(&self, coords: [usize; 4], flag: bool) -> Self::Action {
        self.inner.decode_action(coords, flag)
    }
    fn is_successful(&self) -> bool {
        self.probes
            .time(Layer::IsSuccessful, || self.inner.is_successful())
    }
    fn greedy_action(&self) -> Option<Self::Action> {
        self.probes
            .time(Layer::GreedyAction, || self.inner.greedy_action())
    }
    fn completion_action(&self) -> Option<Self::Action> {
        self.probes
            .time(Layer::CompletionAction, || self.inner.completion_action())
    }
}

/// A [`TreeHandle`] over a local [`Mcts`] that times each call.
pub struct TimedTree<'a, A> {
    pub tree: &'a mut Mcts<A>,
    pub probes: &'a Probes,
}

impl<A: Copy + Eq + std::hash::Hash + std::fmt::Debug> TreeHandle<A> for TimedTree<'_, A> {
    fn is_expanded(&mut self, state: u64) -> bool {
        self.probes
            .time(Layer::MctsIsExpanded, || self.tree.is_expanded(state))
    }
    fn expand(&mut self, state: u64, priors: &[(A, f32)]) {
        self.probes
            .time(Layer::MctsExpand, || self.tree.expand(state, priors));
    }
    fn select(&mut self, state: u64) -> Option<A> {
        self.probes
            .time(Layer::MctsSelect, || self.tree.select(state))
    }
    fn backup(&mut self, path: &[(u64, A)], returns: &[f64]) {
        self.probes
            .time(Layer::MctsBackup, || self.tree.backup(path, returns));
    }
}

/// An [`EvalCacheHandle`] over a local [`EvalCache`] that times each
/// network evaluation as the interval from a lookup miss to the store that
/// follows it.
pub struct TimedCache<'a> {
    pub cache: &'a mut EvalCache,
    pub probes: &'a Probes,
    pub missed_at: Option<Instant>,
}

impl EvalCacheHandle for TimedCache<'_> {
    fn lookup(&mut self, state_key: u64, generation: u64) -> Option<Evaluation> {
        let hit = self.cache.lookup(state_key, generation);
        if hit.is_none() {
            self.missed_at = Some(Instant::now());
        }
        hit
    }
    fn store(&mut self, state_key: u64, generation: u64, eval: &Evaluation) {
        if let Some(missed_at) = self.missed_at.take() {
            self.probes.add(Layer::Evaluate, missed_at.elapsed());
        }
        self.cache.store(state_key, generation, eval);
    }
}

/// Which fabric a [`TimedNet`] wraps.
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    Mesh,
    Routerless,
}

/// A [`Network`] that times `tick`, `offer` and `drain_deliveries`, and on
/// drop records its own lifetime as one sweep point's busy time.
pub struct TimedNet<'a, N> {
    inner: N,
    layers: [Layer; 3],
    probes: &'a Probes,
    born: Instant,
}

impl<'a, N> TimedNet<'a, N> {
    /// `born` is taken before `inner` was built, so construction counts.
    pub fn new(inner: N, fabric: Fabric, probes: &'a Probes, born: Instant) -> Self {
        let layers = match fabric {
            Fabric::Mesh => [Layer::MeshTick, Layer::MeshOffer, Layer::MeshDrain],
            Fabric::Routerless => [
                Layer::RouterlessTick,
                Layer::RouterlessOffer,
                Layer::RouterlessDrain,
            ],
        };
        TimedNet {
            inner,
            layers,
            probes,
            born,
        }
    }
}

impl<N: Network> Network for TimedNet<'_, N> {
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }
    fn offer(&mut self, packet: Packet) {
        let start = Instant::now();
        self.inner.offer(packet);
        self.probes.add(self.layers[1], start.elapsed());
    }
    fn tick(&mut self, cycle: u64) {
        let start = Instant::now();
        self.inner.tick(cycle);
        self.probes.add(self.layers[0], start.elapsed());
    }
    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        let start = Instant::now();
        self.inner.drain_deliveries(out);
        self.probes.add(self.layers[2], start.elapsed());
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        self.inner.telemetry_sample(rec);
    }
}

impl<N> Drop for TimedNet<'_, N> {
    fn drop(&mut self) {
        self.probes.add(Layer::SweepPoint, self.born.elapsed());
    }
}
