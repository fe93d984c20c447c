//! The paper's two-headed policy/value network (Figure 6c).

use crate::layers::{
    with_thread_workspace, BatchNorm2d, Conv2d, ConvHeads, Layer, Linear, MaxPool2d, Param, Relu,
    ResidualBlock, Sequential, Tanh, Workspace,
};
use crate::Tensor;

/// Architecture hyperparameters for [`PolicyValueNet`].
///
/// The network consumes the `N²×N²` hop-count state matrix of an `N×N` NoC
/// (one input channel) and produces:
///
/// - four categorical heads of `N` logits each, for `x1, y1, x2, y2`,
/// - one tanh scalar for the loop direction (`> 0` ⇒ clockwise),
/// - one linear scalar estimating the value function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyValueConfig {
    /// Grid dimension `N` (each coordinate head emits `N` logits).
    pub n: usize,
    /// Side of the square input state matrix (`N²` for square grids).
    pub input_side: usize,
    /// Channel width of each trunk stage; a 2x2 max-pool sits between
    /// consecutive stages. The paper uses `[16, 32, 64, 128]`.
    pub channels: Vec<usize>,
    /// Kernel size of the stem convolution (odd). The paper draws an `N×N`
    /// stem kernel; 3 is the default here for tractable CPU training, and
    /// any odd size may be configured.
    pub stem_kernel: usize,
    /// Hidden width of the value head's fully connected layer.
    pub value_hidden: usize,
}

impl PolicyValueConfig {
    /// The full architecture of Figure 6(c): stages `[16, 32, 64, 128]`
    /// with three interleaved poolings.
    pub fn paper(n: usize) -> Self {
        PolicyValueConfig {
            n,
            input_side: n * n,
            channels: vec![16, 32, 64, 128],
            stem_kernel: 3,
            value_hidden: 32,
        }
    }

    /// A reduced configuration (one 8-channel stage) for fast CPU
    /// experiments and tests; identical topology, smaller widths.
    pub fn small(n: usize) -> Self {
        PolicyValueConfig {
            n,
            input_side: n * n,
            channels: vec![8],
            stem_kernel: 3,
            value_hidden: 16,
        }
    }

    /// Spatial side length after all inter-stage poolings.
    pub fn final_side(&self) -> usize {
        let mut side = self.input_side;
        for _ in 1..self.channels.len() {
            side = MaxPool2d::out_side(side);
        }
        side
    }
}

/// Raw network outputs for a batch of states.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyValueOutput {
    /// Coordinate logits, shape `[batch, 4, N]` — rows are `x1, y1, x2, y2`
    /// (softmax is applied by the consumer; see [`crate::loss`]).
    pub coord_logits: Tensor,
    /// Direction head output in `(−1, 1)`, shape `[batch, 1]`.
    pub dir: Tensor,
    /// Value estimate, shape `[batch, 1]`.
    pub value: Tensor,
}

/// Gradients with respect to the three outputs, laid out as
/// [`PolicyValueOutput`]'s tensors: the buffers a
/// [`PolicyValueNet::train_pass`] backpropagates, zeroed when handed out.
#[derive(Debug)]
pub struct PolicyValueGrad<'a> {
    /// ∂loss/∂coord_logits, `[batch, 4, N]`.
    pub coord_logits: &'a mut [f32],
    /// ∂loss/∂dir, `[batch, 1]`.
    pub dir: &'a mut [f32],
    /// ∂loss/∂value, `[batch, 1]`.
    pub value: &'a mut [f32],
}

/// The two-headed residual policy/value network of the paper's Figure 6(c).
///
/// # Example
///
/// ```
/// use rlnoc_nn::{PolicyValueNet, PolicyValueConfig, Tensor};
/// let mut net = PolicyValueNet::new(PolicyValueConfig::small(4), 7);
/// let state = Tensor::zeros(&[1, 1, 16, 16]);
/// let out = net.forward(&state);
/// assert!(out.dir.as_slice()[0].abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct PolicyValueNet {
    config: PolicyValueConfig,
    trunk: Sequential,
    /// The first layer of each head, in head order, run as one pass.
    head_convs: ConvHeads,
    coord_head: Sequential,
    dir_head: Sequential,
    value_head: Sequential,
}

impl PolicyValueNet {
    /// Builds the network with deterministic weight initialization from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.channels` is empty or `config.stem_kernel` is even.
    pub fn new(config: PolicyValueConfig, seed: u64) -> Self {
        assert!(!config.channels.is_empty(), "need at least one trunk stage");
        let mut trunk = Sequential::new();
        let mut prev = 1;
        let mut s = seed;
        let mut next_seed = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        for (i, &c) in config.channels.iter().enumerate() {
            let k = if i == 0 { config.stem_kernel } else { 3 };
            trunk.push(Conv2d::new(prev, c, k, next_seed()));
            trunk.push(BatchNorm2d::new(c));
            trunk.push(Relu::new());
            trunk.push(ResidualBlock::new(c, next_seed()));
            if i + 1 < config.channels.len() {
                trunk.push(MaxPool2d::new());
            }
            prev = c;
        }
        let side = config.final_side();
        let flat = 2 * side * side;

        let coord_conv = Conv2d::new(prev, 2, 3, next_seed());
        let coord_head =
            Sequential::new()
                .with(Relu::new())
                .with(Linear::new(flat, 4 * config.n, next_seed()));
        let dir_conv = Conv2d::new(prev, 2, 3, next_seed());
        let dir_head = Sequential::new()
            .with(Relu::new())
            .with(Linear::new(flat, 1, next_seed()))
            .with(Tanh::new());
        let value_conv = Conv2d::new(prev, 2, 3, next_seed());
        let value_head = Sequential::new()
            .with(Relu::new())
            .with(Linear::new(flat, config.value_hidden, next_seed()))
            .with(Relu::new())
            .with(Linear::new(config.value_hidden, 1, next_seed()));

        PolicyValueNet {
            config,
            trunk,
            head_convs: ConvHeads::new(vec![coord_conv, dir_conv, value_conv]),
            coord_head,
            dir_head,
            value_head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &PolicyValueConfig {
        &self.config
    }

    /// Runs the network on `x` of shape `[batch, 1, side, side]` in
    /// inference mode: batch norm uses its running statistics, and nothing
    /// is kept for a backward.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong spatial dimensions.
    pub fn forward(&mut self, x: &Tensor) -> PolicyValueOutput {
        with_thread_workspace(|ws| self.forward_in(ws, x, false).0)
    }

    /// One training pass over `x`: a training forward, then `loss` with
    /// the outputs and zeroed output gradients to fill, then the backward
    /// of those gradients, accumulating parameter gradients. Returns the
    /// outputs.
    ///
    /// Every activation lives in the thread's workspace between the
    /// forward and the backward; `loss` cannot reach the network, so no
    /// other pass of it runs in between.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong spatial dimensions.
    pub fn train_pass(
        &mut self,
        x: &Tensor,
        loss: impl FnOnce(&PolicyValueOutput, PolicyValueGrad<'_>),
    ) -> PolicyValueOutput {
        with_thread_workspace(|ws| {
            let (out, all) = self.forward_in(ws, x, true);
            let [coord_logits, dir, value] =
                ws.push_grads(all, [&out.coord_logits, &out.dir, &out.value]);
            loss(
                &out,
                PolicyValueGrad {
                    coord_logits,
                    dir,
                    value,
                },
            );
            let timer = crate::instrument::start();
            // Last in, first out: the value head's activations are on top.
            for (g, head) in self.heads().into_iter().enumerate().rev() {
                head.backward(ws, true);
                ws.join_group(3, g);
            }
            self.head_convs.backward(ws, true);
            // The network's input needs no gradient.
            self.trunk.backward(ws, false);
            crate::instrument::record_since("nn.backward_us", timer);
            out
        })
    }

    /// The forward of `x` in `ws`, returning the outputs and the index of
    /// the stacked head-convolution output. Each head runs on its own
    /// channels of that output, and leaves its activations on top of them.
    fn forward_in(
        &mut self,
        ws: &mut Workspace,
        x: &Tensor,
        train: bool,
    ) -> (PolicyValueOutput, usize) {
        let s = self.config.input_side;
        assert_eq!(
            x.shape()[2..],
            [s, s],
            "expected {s}x{s} input state matrix"
        );
        let timer = crate::instrument::start();
        let batch = x.shape()[0];
        crate::instrument::record_value("nn.forward_batch", batch as u64);
        ws.start(x);
        self.trunk.forward(ws, train);
        self.head_convs.forward(ws, train);
        let all = ws.top_index();
        let n = self.config.n;
        let shapes: [&[usize]; 3] = [&[batch, 4, n], &[batch, 1], &[batch, 1]];
        let [coord_logits, dir, value] = std::array::from_fn(|g| {
            ws.push_group(all, 3, g);
            self.heads()[g].forward(ws, train);
            Tensor::from_vec(ws.output().to_vec(), shapes[g]).expect("head output size")
        });
        crate::instrument::record_since("nn.forward_us", timer);
        let out = PolicyValueOutput {
            coord_logits,
            dir,
            value,
        };
        (out, all)
    }

    /// The heads after their convolutions, in head order.
    fn heads(&mut self) -> [&mut Sequential; 3] {
        [
            &mut self.coord_head,
            &mut self.dir_head,
            &mut self.value_head,
        ]
    }

    /// All trainable parameters, in a stable order: the trunk's, then each
    /// head's (its convolution first).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.trunk.params_mut();
        let heads = [
            &mut self.coord_head,
            &mut self.dir_head,
            &mut self.value_head,
        ];
        for (conv, head) in self.head_convs.heads_mut().iter_mut().zip(heads) {
            out.extend(conv.params_mut());
            out.extend(head.params_mut());
        }
        out
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Snapshot of all parameter values (for parameter-server exchange in
    /// the multi-threaded framework, §4.6).
    pub fn param_snapshot(&mut self) -> Vec<Tensor> {
        self.params_mut().iter().map(|p| p.value.clone()).collect()
    }

    /// Loads a parameter snapshot produced by
    /// [`PolicyValueNet::param_snapshot`] on an identically configured net,
    /// copying into the existing parameter tensors.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match this network's parameters.
    pub fn load_params(&mut self, snapshot: &[Tensor]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), snapshot.len(), "snapshot length mismatch");
        for (p, s) in params.iter_mut().zip(snapshot) {
            assert_eq!(p.value.shape(), s.shape(), "snapshot shape mismatch");
            p.value.as_mut_slice().copy_from_slice(s.as_slice());
        }
    }

    /// Snapshot of all accumulated gradients (child → parent exchange).
    pub fn grad_snapshot(&mut self) -> Vec<Tensor> {
        self.params_mut().iter().map(|p| p.grad.clone()).collect()
    }

    /// Snapshot of the non-parameter state that training forwards mutate
    /// (batch-norm running statistics). Parameter snapshots do NOT include
    /// this state.
    pub fn norm_snapshot(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.trunk.append_norm_state(&mut out);
        self.coord_head.append_norm_state(&mut out);
        self.dir_head.append_norm_state(&mut out);
        self.value_head.append_norm_state(&mut out);
        out
    }

    /// Accumulates a gradient snapshot into this network's parameter
    /// gradients (parent side of the §4.6 exchange).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match this network's parameters.
    pub fn accumulate_grads(&mut self, grads: &[Tensor]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), grads.len(), "gradient snapshot mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            p.grad.add_scaled(g, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shapes_small() {
        let mut net = PolicyValueNet::new(PolicyValueConfig::small(4), 1);
        let x = Tensor::zeros(&[2, 1, 16, 16]);
        let out = net.forward(&x);
        assert_eq!(out.coord_logits.shape(), &[2, 4, 4]);
        assert_eq!(out.dir.shape(), &[2, 1]);
        assert_eq!(out.value.shape(), &[2, 1]);
        assert!(out.dir.as_slice().iter().all(|d| d.abs() <= 1.0));
    }

    #[test]
    fn paper_config_pools_three_times() {
        let cfg = PolicyValueConfig::paper(8);
        assert_eq!(cfg.input_side, 64);
        assert_eq!(cfg.final_side(), 8);
    }

    #[test]
    fn forward_is_deterministic_per_seed() {
        let cfg = PolicyValueConfig::small(2);
        let x =
            Tensor::from_vec((0..16).map(|v| v as f32 / 16.0).collect(), &[1, 1, 4, 4]).unwrap();
        let mut a = PolicyValueNet::new(cfg.clone(), 5);
        let mut b = PolicyValueNet::new(cfg, 5);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn snapshot_round_trip() {
        let cfg = PolicyValueConfig::small(2);
        let x =
            Tensor::from_vec((0..16).map(|v| (v as f32).sin()).collect(), &[1, 1, 4, 4]).unwrap();
        let mut a = PolicyValueNet::new(cfg.clone(), 5);
        let mut b = PolicyValueNet::new(cfg, 99);
        assert_ne!(a.forward(&x), b.forward(&x));
        let snap = a.param_snapshot();
        b.load_params(&snap);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn probes_attribute_a_training_pass() {
        let sink = rlnoc_telemetry::TelemetrySink::enabled();
        {
            let _probes = crate::instrument::install_scoped(sink.recorder("test"));
            let mut net = PolicyValueNet::new(PolicyValueConfig::small(2), 3);
            net.train_pass(&Tensor::zeros(&[2, 1, 4, 4]), |out, grad| {
                grad.coord_logits
                    .copy_from_slice(out.coord_logits.as_slice());
                grad.dir.copy_from_slice(out.dir.as_slice());
                grad.value.copy_from_slice(out.value.as_slice());
            });
            crate::optim::Adam::new(1e-3).step(&mut net.params_mut());
        }
        let calls = |name| sink.hist_total(name).map_or(0, |h| h.count());
        // The stem, the residual pair and one pass for the three heads; the
        // stem forms no input gradient.
        assert_eq!(calls("nn.conv_us"), 4, "conv forwards");
        assert_eq!(calls("nn.conv_fwd_us"), 4, "conv forward passes");
        assert_eq!(calls("nn.conv_wgrad_us"), 4, "conv weight gradients");
        assert_eq!(calls("nn.conv_igrad_us"), 3, "conv input gradients");
        assert_eq!(calls("nn.forward_us"), 1);
        assert_eq!(calls("nn.backward_us"), 1);
        // Three batch norms and four linears, each forward and backward.
        assert_eq!(calls("nn.bn_us"), 6, "batch-norm passes");
        assert_eq!(calls("nn.linear_us"), 8, "linear passes");
        assert_eq!(calls("nn.optim_us"), 1, "optimizer steps");
    }

    #[test]
    fn training_reduces_value_loss() {
        // Regress the value head toward a constant target — a smoke test
        // that gradients flow end to end.
        let cfg = PolicyValueConfig::small(2);
        let mut net = PolicyValueNet::new(cfg, 3);
        let x = Tensor::from_vec((0..16).map(|v| v as f32 / 8.0).collect(), &[1, 1, 4, 4]).unwrap();
        let target = 0.7f32;
        let mut opt = crate::optim::Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            net.train_pass(&x, |out, grad| {
                let v = out.value.as_slice()[0];
                let (loss, gv) = crate::loss::value_head_grad(v, target);
                first.get_or_insert(loss);
                last = loss;
                grad.value[0] = gv;
            });
            let mut params = net.params_mut();
            opt.step(&mut params);
        }
        assert!(
            last < first.unwrap() * 0.2,
            "value loss should shrink: first {:?} last {last}",
            first
        );
    }

    #[test]
    fn policy_training_shifts_distribution() {
        // Reinforce action index 3 of head 0 with positive advantage; its
        // probability should grow.
        let cfg = PolicyValueConfig::small(4);
        let mut net = PolicyValueNet::new(cfg, 11);
        let x = Tensor::from_vec(
            (0..256).map(|v| (v as f32 * 0.1).cos()).collect(),
            &[1, 1, 16, 16],
        )
        .unwrap();
        let probs_of = |net: &mut PolicyValueNet, x: &Tensor| {
            let out = net.forward(x);
            let logits: Vec<f32> = out.coord_logits.as_slice()[0..4].to_vec();
            crate::loss::softmax(&logits)
        };
        let before = probs_of(&mut net, &x)[3];
        let mut opt = crate::optim::Adam::new(1e-2);
        for _ in 0..20 {
            net.train_pass(&x, |out, grad| {
                let logits = &out.coord_logits.as_slice()[0..4];
                let (_, g) = crate::loss::policy_head_grad(logits, 3, 1.0);
                grad.coord_logits[..4].copy_from_slice(&g);
            });
            let mut params = net.params_mut();
            opt.step(&mut params);
        }
        let after = probs_of(&mut net, &x)[3];
        assert!(
            after > before,
            "P(x1=3) should increase: {before} → {after}"
        );
    }
}
