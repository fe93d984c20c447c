use crate::pool::{self, zip_map};
use crate::Tensor;
use std::cell::Cell;

/// The shape of an activation, `[n, c, h, w]`. A fully connected layer's
/// `[batch, features]` is `[batch, features, 1, 1]`, and any activation
/// reads as `[n, c·h·w]` to a [`super::Linear`].
pub type Shape = [usize; 4];

fn numel(shape: Shape) -> usize {
    shape.iter().product()
}

/// The shape of `t`, of rank at most four, padded with trailing ones.
fn shape_of(t: &Tensor) -> Shape {
    let mut shape = [1; 4];
    shape[..t.shape().len()].copy_from_slice(t.shape());
    shape
}

/// One buffer of a [`Stack`]: a shape and storage for at least its
/// element count.
#[derive(Debug, Default)]
struct Buf {
    shape: Shape,
    data: Vec<f32>,
}

impl Buf {
    fn view(&self) -> &[f32] {
        &self.data[..numel(self.shape)]
    }

    fn view_mut(&mut self) -> &mut [f32] {
        let len = numel(self.shape);
        &mut self.data[..len]
    }
}

/// A stack of grow-only buffers: a popped buffer stays allocated for the
/// next push, so a push allocates only when its position has not held
/// that many elements yet. Buffers of a `shared` stack trade places (a
/// backward swaps its input gradient under its output gradient), so each
/// of them keeps capacity for the largest push yet instead.
#[derive(Debug, Default)]
struct Stack {
    bufs: Vec<Buf>,
    len: usize,
    shared: Option<usize>,
}

impl Stack {
    /// Pushes a buffer of `shape`; its contents are whatever it last held.
    fn push(&mut self, shape: Shape) {
        let len = numel(shape);
        if self.shared.is_some_and(|cap| len > cap) {
            self.shared = Some(len);
            for buf in &mut self.bufs {
                buf.data.reserve_exact(len - buf.data.len());
            }
        }
        if self.len == self.bufs.len() {
            let data = Vec::with_capacity(self.shared.unwrap_or(0));
            self.bufs.push(Buf { shape, data });
        }
        let buf = &mut self.bufs[self.len];
        buf.shape = shape;
        if buf.data.len() < len {
            buf.data.reserve_exact(len - buf.data.len());
            buf.data.resize(len, 0.0);
        }
        self.len += 1;
    }

    fn pop(&mut self) {
        self.len = self.len.checked_sub(1).expect("pop from an empty stack");
    }

    fn top(&self) -> &Buf {
        self.bufs[..self.len].last().expect("empty stack")
    }

    /// The buffer at `index`, under the top, and the top.
    fn with_top(&mut self, index: usize) -> (&mut Buf, &mut Buf) {
        let (below, top) = self.bufs[..self.len].split_at_mut(self.len - 1);
        (&mut below[index], &mut top[0])
    }

    /// Removes the buffer under the top, keeping the top.
    fn drop_below(&mut self) {
        self.bufs.swap(self.len - 2, self.len - 1);
        self.len -= 1;
    }
}

/// The activations and gradients of one pass through a stack of
/// [`super::Layer`]s.
///
/// A forward reads the top activation (its input) and pushes its output.
/// A backward reads its forward's input and output where the forward left
/// them, and the top gradient (∂loss/∂output); it accumulates parameter
/// gradients, replaces that gradient with ∂loss/∂input (or drops it, for
/// a layer whose input needs none) and pops its output. So backwards run
/// in the reverse order of their forwards, and no layer keeps a copy of
/// anything. A training forward may also keep a few values for its
/// backward (batch-norm statistics), last in, first out.
///
/// Buffers are never freed: each pass reuses what earlier passes sized,
/// so once a pass of the largest shape has run, a pass allocates nothing.
/// [`crate::PolicyValueNet`] runs every pass in its thread's workspace.
#[derive(Debug)]
pub struct Workspace {
    acts: Stack,
    grads: Stack,
    saved: Vec<f32>,
    /// Scratch a backward may use while it runs.
    tmp: Vec<f32>,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace {
            acts: Stack::default(),
            grads: Stack {
                shared: Some(0),
                ..Stack::default()
            },
            saved: Vec::new(),
            tmp: Vec::new(),
        }
    }
}

/// A layer forward's input, its output (to overwrite in full) and the
/// values it keeps for its backward.
pub(crate) struct Forward<'a> {
    pub x: &'a [f32],
    pub y: &'a mut [f32],
    pub saved: &'a mut Vec<f32>,
}

/// A layer backward's view: its forward's input `x` and output `y`,
/// `go = ∂loss/∂y`, `gx = ∂loss/∂x` to overwrite in full when the caller
/// wants it, the values its forward kept, and grow-only scratch.
pub(crate) struct Backward<'a> {
    pub x: &'a [f32],
    pub y: &'a [f32],
    pub go: &'a [f32],
    pub gx: Option<&'a mut [f32]>,
    pub saved: &'a [f32],
    pub tmp: &'a mut Vec<f32>,
}

impl Workspace {
    /// Empties the workspace and pushes `x` as the input of the next
    /// forward. A tensor of rank below four is padded with trailing ones.
    ///
    /// # Panics
    ///
    /// Panics if `x` has more than four dimensions.
    pub fn start(&mut self, x: &Tensor) {
        self.acts.len = 0;
        self.grads.len = 0;
        self.saved.clear();
        self.acts.push(shape_of(x));
        copy(self.acts.bufs[0].view_mut(), x.as_slice());
    }

    /// The top activation: the output of the last forward.
    pub fn output(&self) -> &[f32] {
        self.acts.top().view()
    }

    /// The shape of the top activation.
    pub fn output_shape(&self) -> Shape {
        self.acts.top().shape
    }

    /// Pushes `grad` as ∂loss/∂(top activation), for a backward to read.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not sized like the top activation.
    pub fn push_grad(&mut self, grad: &[f32]) {
        self.grads.push(self.output_shape());
        let top = self.grads.len - 1;
        self.grads.bufs[top].view_mut().copy_from_slice(grad);
    }

    /// The top gradient: after a backward, ∂loss/∂ that layer's input.
    pub fn grad(&self) -> &[f32] {
        self.grads.top().view()
    }

    /// The index of the top activation.
    pub(crate) fn top_index(&self) -> usize {
        self.acts.len - 1
    }

    /// The shape of a backward's input: the activation under the top.
    pub(crate) fn input_shape(&self) -> Shape {
        self.acts.bufs[self.acts.len - 2].shape
    }

    /// Pushes an output of `shape` for the top activation.
    pub(crate) fn push(&mut self, shape: Shape) -> Forward<'_> {
        self.acts.push(shape);
        let (x, y) = self.acts.with_top(self.acts.len - 2);
        let (x, y, saved) = (x.view(), y.view_mut(), &mut self.saved);
        Forward { x, y, saved }
    }

    /// Runs one layer's backward `f` (the top activation is its output,
    /// and the last `saved` kept values are its own), then replaces the
    /// top gradient with ∂loss/∂input (`input_grad`) or drops it, drops
    /// the kept values and pops the output.
    pub(crate) fn backward(&mut self, input_grad: bool, saved: usize, f: impl FnOnce(Backward)) {
        let n = self.acts.len;
        if input_grad {
            self.grads.push(self.acts.bufs[n - 2].shape);
        }
        let (go, gx) = if input_grad {
            let (go, gx) = self.grads.with_top(self.grads.len - 2);
            (go.view(), Some(gx.view_mut()))
        } else {
            (self.grads.top().view(), None)
        };
        let y = self.acts.bufs[n - 1].view();
        assert_eq!(go.len(), y.len(), "gradient shape mismatch");
        let keep = self.saved.len() - saved;
        let x = self.acts.bufs[n - 2].view();
        let (saved, tmp) = (&self.saved[keep..], &mut self.tmp);
        f(Backward {
            x,
            y,
            go,
            gx,
            saved,
            tmp,
        });
        self.saved.truncate(keep);
        self.acts.pop();
        if input_grad {
            self.grads.drop_below();
        } else {
            self.grads.pop();
        }
    }

    /// Adds the activation `depth` under the top onto the top (a residual
    /// shortcut).
    pub(crate) fn add_to_top(&mut self, depth: usize) {
        let (x, top) = self.acts.with_top(self.acts.len - 1 - depth);
        assert_eq!(x.shape, top.shape, "shortcut shape mismatch");
        add(top.view_mut(), x.view());
    }

    /// Pushes a copy of the top gradient.
    pub(crate) fn dup_grad(&mut self) {
        self.grads.push(self.grads.top().shape);
        let (g, top) = self.grads.with_top(self.grads.len - 2);
        copy(top.view_mut(), g.view());
    }

    /// Adds the gradient under the top onto the top, and drops it.
    pub(crate) fn fold_grads(&mut self) {
        let (below, top) = self.grads.with_top(self.grads.len - 2);
        add(top.view_mut(), below.view());
        self.grads.drop_below();
    }

    pub(crate) fn pop_grad(&mut self) {
        self.grads.pop();
    }

    /// Pushes channel group `g` of `groups` equal groups of activation
    /// `src`.
    pub(crate) fn push_group(&mut self, src: usize, groups: usize, g: usize) {
        let [n, c, h, w] = self.acts.bufs[src].shape;
        self.acts.push([n, c / groups, h, w]);
        let (all, part) = self.acts.with_top(src);
        for_each_group(all, part, groups, g, |a, p| p.copy_from_slice(a));
    }

    /// Undoes [`Workspace::push_group`] in a backward, for groups joined
    /// last to first: copies the top gradient into channel group `g` of
    /// the gradient `g + 1` under it, then pops it and the top activation.
    pub(crate) fn join_group(&mut self, groups: usize, g: usize) {
        let (all, part) = self.grads.with_top(self.grads.len - 2 - g);
        for_each_group(all, part, groups, g, |a, p| a.copy_from_slice(p));
        self.grads.pop();
        self.acts.pop();
    }

    /// Pushes a gradient shaped like activation `all` (to overwrite in
    /// full), then zeroed gradients shaped like `outputs`.
    pub(crate) fn push_grads(&mut self, all: usize, outputs: [&Tensor; 3]) -> [&mut [f32]; 3] {
        self.grads.push(self.acts.bufs[all].shape);
        for out in outputs {
            self.grads.push(shape_of(out));
        }
        let len = self.grads.len;
        let [a, b, c] = &mut self.grads.bufs[len - 3..len] else {
            unreachable!("three gradients pushed")
        };
        [a, b, c].map(|g| {
            let g = g.view_mut();
            g.fill(0.0);
            g
        })
    }
}

/// `dst = src`, split over the kernel pool when large.
fn copy(dst: &mut [f32], src: &[f32]) {
    zip_map(dst, [src], |d, [s]| d.copy_from_slice(s));
}

/// `dst += src`, elementwise, split over the kernel pool when large.
fn add(dst: &mut [f32], src: &[f32]) {
    zip_map(dst, [src], |d, [s]| {
        for (d, &s) in d.iter_mut().zip(s) {
            *d += s;
        }
    });
}

/// Calls `f(channel group g of an item of all, that item of part)` for
/// every batch item, where `all` has `groups` times `part`'s channels;
/// one item per share of the kernel pool when `part` is large.
fn for_each_group(
    all: &mut Buf,
    part: &mut Buf,
    groups: usize,
    g: usize,
    f: impl Fn(&mut [f32], &mut [f32]) + Sync,
) {
    let [_, c, h, w] = part.shape;
    let per = c * h * w;
    let part = part.view_mut();
    let split = pool::splits(part.len());
    let items = all.view_mut().chunks_exact_mut(groups * per);
    pool::for_each(split, items.zip(part.chunks_exact_mut(per)), |(a, p)| {
        f(&mut a[g * per..][..per], p);
    });
}

thread_local! {
    static WORKSPACE: Cell<Workspace> = Cell::default();
}

/// Runs `f` in this thread's workspace: taken out for the call, put back
/// after, so it keeps what every pass on the thread sized.
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = WORKSPACE.take();
    let out = f(&mut ws);
    WORKSPACE.set(ws);
    out
}
