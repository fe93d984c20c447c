//! Cache-blocked GEMM kernels behind [`crate::Tensor::matmul`], and the
//! direct same-padding convolution kernels behind [`crate::layers::Conv2d`].
//!
//! The GEMM entry point is [`gemm`]: `C = op(A) × op(B)` over row-major
//! `f32` slices, with optional logical transposition of either operand (so
//! callers never materialize a transposed copy). The implementation follows
//! the classic BLIS/GotoBLAS structure:
//!
//! - loop over `NC`-wide column panels of `C`,
//! - loop over `KC`-deep slices of the reduction dimension, packing a
//!   `KC × NC` panel of `B` into contiguous micro-columns,
//! - loop over `MC`-tall row panels, packing an `MC × KC` panel of `A` into
//!   contiguous micro-rows,
//! - run an `MR × NR` register-tiled micro-kernel over the packed panels.
//!
//! The packed panels live in per-thread scratch (`PACK_SCRATCH`) that is
//! reused across calls, so a warm call on a thread allocates nothing. A call
//! takes the scratch out of the thread-local and puts it back when done. It
//! grows the scratch to what its shape needs:
//! `⌈min(MC, rows)/MR⌉·MR × min(KC, k)` for `A` and
//! `min(KC, k) × ⌈min(NC, n)/NR⌉·NR` for `B`. The scratch is never shrunk
//! and never re-zeroed. Stale contents from an earlier, larger call cannot
//! reach `C`: `pack_a` and `pack_b` write every element the
//! micro-kernel then reads, zero padding included, before it reads them.
//! The scratch is freed when its thread exits.
//!
//! When `m·k·n` crosses `PARALLEL_FLOPS`, rows of `C` are partitioned
//! into contiguous bands, one scoped thread per band. Each output element
//! sees exactly the same floating-point operation order regardless of the
//! band split, so **results are bit-identical for any thread count** — the
//! determinism tests rely on this. The thread budget can be pinned with
//! [`set_matmul_threads`] (`0` restores the automatic choice). Band threads
//! are fresh scoped threads whose scratch starts empty, and each packs the
//! whole `B` panel, so the split only pays for tall `A`. The convolution
//! kernels below run on one thread each; their passes split the *batch*
//! over the same budget (`threads_for`).
//!
//! The convolution kernels build no im2col matrix. `conv_same_direct`
//! (forward) and `conv_wgrad_direct` (weight gradient) read each tap's
//! pixels in place from a zero-padded copy of one batch item;
//! `conv_igrad_gather` (input gradient) gathers each input pixel's taps
//! from a row-padded copy of its output gradient. Each keeps, element by
//! element, the operation order of the im2col-plus-[`gemm`] pass it
//! replaces, so each is bit-identical to it.
//!
//! There is no `a == 0.0` fast path anywhere in this module: `0 × NaN` and
//! `0 × ∞` must produce `NaN`, exactly as IEEE-754 specifies. The naive
//! and im2col oracles used by the parity tests live in [`crate::reference`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Micro-tile rows held in registers by the micro-kernel.
const MR: usize = 4;
/// Micro-tile columns held in registers by the micro-kernel.
///
/// `MR × NR` accumulators must fit the architectural register file even on
/// baseline x86-64 (16 × 128-bit): 4×8 = 8 vector registers, leaving room
/// for the `A` broadcast and `B` row loads. Wider tiles spill and run
/// slower than the naive loop unless AVX registers are available.
const NR: usize = 8;
/// Row-panel height of packed `A` (L2-resident blocking).
const MC: usize = 128;
/// Reduction-depth of packed panels (L1/L2-resident blocking).
const KC: usize = 256;
/// Column-panel width of packed `B` (L3-resident blocking).
const NC: usize = 4096;

/// Multiply-add count above which the row-parallel path engages.
const PARALLEL_FLOPS: usize = 1 << 21;

/// Upper bound on automatically chosen matmul threads.
const MAX_AUTO_THREADS: usize = 8;

static MATMUL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Packed `A` and `B` panels reused by every [`gemm_band`] on this
    /// thread; see the module docs for their sizing and why stale contents
    /// are never read.
    static PACK_SCRATCH: Cell<(Vec<f32>, Vec<f32>)> = const {
        Cell::new((Vec::new(), Vec::new()))
    };
}

/// The first `len` elements of `buf`, growing it (zero-filled) if it is
/// shorter. Never shrinks and never clears: callers must write every
/// element they later read.
pub(crate) fn scratch(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Pins the number of threads large matmuls may use.
///
/// `0` restores the automatic choice (`available_parallelism`, capped).
/// `1` forces the serial path. Results are identical for every setting;
/// only wall-clock changes.
pub fn set_matmul_threads(threads: usize) {
    MATMUL_THREADS.store(threads, Ordering::Relaxed);
}

/// The currently configured matmul thread setting (`0` = automatic).
pub fn matmul_threads() -> usize {
    MATMUL_THREADS.load(Ordering::Relaxed)
}

/// Threads a kernel with `work` multiply-adds should use when it can be
/// split into at most `parts` independent pieces: `1` below
/// [`PARALLEL_FLOPS`], else the [`set_matmul_threads`] budget capped at
/// `parts`.
pub(crate) fn threads_for(work: usize, parts: usize) -> usize {
    if work < PARALLEL_FLOPS {
        return 1;
    }
    let budget = match MATMUL_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_AUTO_THREADS),
        pinned => pinned,
    };
    budget.max(1).min(parts)
}

/// General matrix multiply over row-major slices:
/// `C[m, n] = op(A) × op(B)`, overwriting `C`.
///
/// `trans_a == false`: `A` is stored `[m, k]`; `true`: stored `[k, m]` and
/// used as its transpose. Likewise `B` is `[k, n]` or `[n, k]`.
///
/// # Panics
/// Panics if a slice length does not match its dimensions.
#[allow(clippy::too_many_arguments)] // BLAS-style sgemm signature
pub fn gemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm: rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm: out length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let timer = crate::instrument::start();

    // A thread should own at least one full micro-row band.
    let threads = threads_for(m.saturating_mul(k).saturating_mul(n), m.div_ceil(MR));
    if threads <= 1 {
        gemm_band(trans_a, trans_b, m, k, n, a, b, c, 0);
        crate::instrument::record_since("nn.gemm_us", timer);
        return;
    }

    // Split C into contiguous row bands, one per thread. Band boundaries
    // only decide *which thread* computes a row, never *how* it is
    // computed, so the split cannot perturb results.
    let band_rows = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = c;
        let mut row = 0;
        while row < m {
            let rows = band_rows.min(m - row);
            let (band, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let start = row;
            scope.spawn(move || {
                gemm_band(trans_a, trans_b, rows, k, n, a, b, band, start);
            });
            row += rows;
        }
    });
    crate::instrument::record_since("nn.gemm_us", timer);
}

/// Computes rows `[row0, row0 + rows)` of `C` into `c_band` (whose row 0 is
/// global row `row0`). `k`/`n` are the full problem dimensions.
#[allow(clippy::too_many_arguments)]
fn gemm_band(
    trans_a: bool,
    trans_b: bool,
    rows: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_band: &mut [f32],
    row0: usize,
) {
    // Taken out of the thread-local for the call and put back after it, so
    // the loops below work on plain locals: borrowing through a `RefCell`
    // inside `LocalKey::with` instead measured about 2x slower on a
    // 256×512×256 GEMM.
    let (mut buf_a, mut buf_b) = PACK_SCRATCH.take();
    let packed_a = scratch(&mut buf_a, MC.min(rows).div_ceil(MR) * MR * KC.min(k));
    let packed_b = scratch(&mut buf_b, KC.min(k) * NC.min(n).div_ceil(NR) * NR);

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(trans_b, b, k, n, pc, kc, jc, nc, packed_b);
            let accumulate = pc > 0;
            for ic in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ic);
                pack_a(trans_a, a, k, row0 + ic, mc, pc, kc, packed_a);
                macro_kernel(
                    packed_a, packed_b, c_band, ic, mc, jc, nc, kc, n, accumulate,
                );
            }
        }
    }
    PACK_SCRATCH.set((buf_a, buf_b));
}

/// Packs `A[i0..i0+mc, p0..p0+kc]` into MR-tall micro-rows:
/// `packed[(ir/MR)·(kc·MR) + p·MR + i] = A[i0+ir+i, p0+p]`, zero-padded to
/// a multiple of MR rows. `a_rows_len` is the stored row length of `A`
/// (`k` when not transposed; the logical row count `m` when transposed).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    trans_a: bool,
    a: &[f32],
    k: usize,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    packed: &mut [f32],
) {
    let lda = if trans_a { a.len() / k } else { k };
    for (tile, ir) in packed.chunks_exact_mut(kc * MR).zip((0..mc).step_by(MR)) {
        let tile_rows = MR.min(mc - ir);
        if tile_rows < MR {
            tile.fill(0.0);
        }
        let micro_rows = tile.as_chunks_mut::<MR>().0.iter_mut().enumerate();
        if trans_a {
            // Stored `[k, m]`: each packed group of MR is a contiguous run.
            for (p, dst) in micro_rows {
                let src = &a[(p0 + p) * lda + i0 + ir..];
                match src.first_chunk::<MR>() {
                    Some(src) if tile_rows == MR => *dst = *src,
                    _ => dst[..tile_rows].copy_from_slice(&src[..tile_rows]),
                }
            }
        } else {
            // Rows past a ragged tile's end alias its last row; they are
            // never read.
            let rows: [&[f32]; MR] =
                std::array::from_fn(|i| &a[(i0 + ir + i.min(tile_rows - 1)) * lda + p0..][..kc]);
            for (p, dst) in micro_rows {
                for i in 0..tile_rows {
                    dst[i] = rows[i][p];
                }
            }
        }
    }
}

/// Packs `B[p0..p0+kc, j0..j0+nc]` into NR-wide micro-columns:
/// `packed[(jr/NR)·(kc·NR) + p·NR + j] = B[p0+p, j0+jr+j]`, zero-padded to
/// a multiple of NR columns.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    trans_b: bool,
    b: &[f32],
    k: usize,
    n: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    packed: &mut [f32],
) {
    let ldb = if trans_b { k } else { n };
    for (tile, jr) in packed.chunks_exact_mut(kc * NR).zip((0..nc).step_by(NR)) {
        let tile_cols = NR.min(nc - jr);
        if tile_cols < NR {
            tile.fill(0.0);
        }
        let micro_cols = tile.as_chunks_mut::<NR>().0.iter_mut().enumerate();
        if trans_b {
            // Stored `[n, k]`: each micro-column is a contiguous run.
            // Columns past a ragged tile's end alias its last one; they
            // are never read.
            let cols: [&[f32]; NR] =
                std::array::from_fn(|j| &b[(j0 + jr + j.min(tile_cols - 1)) * ldb + p0..][..kc]);
            for (p, dst) in micro_cols {
                for j in 0..tile_cols {
                    dst[j] = cols[j][p];
                }
            }
        } else {
            // Stored `[k, n]`: each packed group of NR is a contiguous run.
            for (p, dst) in micro_cols {
                let src = &b[(p0 + p) * ldb + j0 + jr..];
                match src.first_chunk::<NR>() {
                    Some(src) if tile_cols == NR => *dst = *src,
                    _ => dst[..tile_cols].copy_from_slice(&src[..tile_cols]),
                }
            }
        }
    }
}

/// Runs the micro-kernel over every MR×NR tile of the packed panels and
/// writes (or accumulates) results into the `C` band.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    packed_a: &[f32],
    packed_b: &[f32],
    c_band: &mut [f32],
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    n: usize,
    accumulate: bool,
) {
    for jr in (0..nc).step_by(NR) {
        let tile_cols = NR.min(nc - jr);
        let b_tile = &packed_b[(jr / NR) * (kc * NR)..][..kc * NR];
        for ir in (0..mc).step_by(MR) {
            let tile_rows = MR.min(mc - ir);
            let a_tile = &packed_a[(ir / MR) * (kc * MR)..][..kc * MR];
            let acc = micro_kernel(a_tile, b_tile.as_chunks::<NR>().0.iter());
            for i in 0..tile_rows {
                let row = &mut c_band[(ic + ir + i) * n + jc + jr..][..tile_cols];
                if accumulate {
                    for (dst, &v) in row.iter_mut().zip(&acc[i][..tile_cols]) {
                        *dst += v;
                    }
                } else {
                    row.copy_from_slice(&acc[i][..tile_cols]);
                }
            }
        }
    }
}

/// The register-tiled inner kernel: an MR×NR rank-`kc` outer-product
/// accumulation of the packed micro-rows in `a_tile` (`kc·MR` values)
/// against `kc` rows of `B`, summed from `0.0` in `p` order. The
/// fixed-size accumulator array keeps everything in registers and lets the
/// compiler vectorize the `j` loop. `B` rows come from a packed panel in
/// [`gemm`] and straight from the padded input in [`conv_same_direct`].
#[inline(always)]
fn micro_kernel<'b>(
    a_tile: &[f32],
    b_rows: impl Iterator<Item = &'b [f32; NR]>,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a_col, b_row) in a_tile.as_chunks::<MR>().0.iter().zip(b_rows) {
        for i in 0..MR {
            let ai = a_col[i];
            for j in 0..NR {
                acc[i][j] += ai * b_row[j];
            }
        }
    }
    acc
}

/// Folds one block's sums into `sums` the way [`gemm`] combines its `KC`
/// blocks: the first block is copied (`c = acc`), every later one added
/// (`c += acc`).
#[inline(always)]
fn fold_block(sums: &mut [f32], block: &[f32], first: bool) {
    if first {
        sums.copy_from_slice(block);
    } else {
        for (s, &b) in sums.iter_mut().zip(block) {
            *s += b;
        }
    }
}

/// Packs a convolution's weight matrix `w` (`[out_c, kdim]`) for
/// [`conv_same_direct`] into the first `⌈out_c/MR⌉·MR × kdim` elements of
/// `packed`: its `KC`-deep blocks one after another, each in `pack_a`'s
/// micro-row layout. Done once per pass and shared by every batch item.
pub(crate) fn pack_conv_weights<'p>(
    w: &[f32],
    out_c: usize,
    kdim: usize,
    packed: &'p mut Vec<f32>,
) -> &'p [f32] {
    debug_assert_eq!(w.len(), out_c * kdim);
    let rows = out_c.div_ceil(MR) * MR;
    let packed = scratch(packed, rows * kdim);
    for pc in (0..kdim).step_by(KC) {
        let kc = KC.min(kdim - pc);
        pack_a(
            false,
            w,
            kdim,
            0,
            out_c,
            pc,
            kc,
            &mut packed[rows * pc..][..rows * kc],
        );
    }
    packed
}

/// Slack [`conv_same_direct`] needs after the padded input: a ragged tile
/// reads a full `NR`-wide row (the lanes past the image are discarded).
pub(crate) const CONV_SLACK: usize = NR;

/// Stride-1 same-padding convolution of one batch item, without an im2col
/// matrix:
/// `out[oc, oy·w + ox] = Σ_p W[oc, p] · xp[offs[p] + oy·wp + ox] + bias[oc]`.
///
/// `packed_w` comes from [`pack_conv_weights`]. `xp` is the item's
/// zero-padded input (`[c, h + 2·pad, wp]` followed by [`CONV_SLACK`]
/// elements) and `offs[p]` is where tap `p = (ic, ky, kx)` starts in it,
/// so `B` row `p` of an output tile is read in place. Each output element
/// sees exactly the operations of `im2col` then
/// [`gemm`]`(false, false, out_c, kdim, h·w, …)` then the bias: `KC` blocks
/// of `p`, each summed from `0.0` in `p` order, combined as `c = acc` then
/// `c += acc`, and the bias added last. The two are bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_same_direct(
    out_c: usize,
    packed_w: &[f32],
    bias: &[f32],
    xp: &[f32],
    offs: &[usize],
    h: usize,
    w: usize,
    wp: usize,
    out: &mut [f32],
) {
    let kdim = offs.len();
    let rows = out_c.div_ceil(MR) * MR;
    let hw = h * w;
    debug_assert_eq!(packed_w.len(), rows * kdim);
    debug_assert_eq!(out.len(), out_c * hw);
    for oy in 0..h {
        for ox0 in (0..w).step_by(NR) {
            let tile_cols = NR.min(w - ox0);
            let base = oy * wp + ox0;
            for ir in (0..out_c).step_by(MR) {
                let mut tile = [[0.0f32; NR]; MR];
                for pc in (0..kdim).step_by(KC) {
                    let kc = KC.min(kdim - pc);
                    let a_tile = &packed_w[rows * pc + (ir / MR) * (kc * MR)..][..kc * MR];
                    let b_rows = offs[pc..pc + kc].iter().map(|&o| {
                        xp[o + base..]
                            .first_chunk::<NR>()
                            .expect("padded input has CONV_SLACK")
                    });
                    let acc = micro_kernel(a_tile, b_rows);
                    fold_block(tile.as_flattened_mut(), acc.as_flattened(), pc == 0);
                }
                for (i, t) in tile.iter().enumerate().take(MR.min(out_c - ir)) {
                    let b = bias[ir + i];
                    let dst = &mut out[(ir + i) * hw + oy * w + ox0..][..tile_cols];
                    for (d, &v) in dst.iter_mut().zip(&t[..tile_cols]) {
                        *d = v + b;
                    }
                }
            }
        }
    }
}

/// Taps per register tile of [`conv_wgrad_direct`]: `WT × NR`
/// accumulators, one `NR`-wide vector per tap.
const WT: usize = 8;

/// Transposes one item's `grad_out` (`[out_c, hw]`) into the `NR`-wide
/// rows [`conv_wgrad_direct`] reads: for each chunk of `NR` output
/// channels, `hw` rows of `NR` values, `gt[(chunk·hw + q)·NR + j] =
/// grad_out[chunk·NR + j, q]`. Lanes past `out_c` are zero.
pub(crate) fn pack_conv_grad<'g>(
    go: &[f32],
    out_c: usize,
    hw: usize,
    gt: &'g mut Vec<f32>,
) -> &'g [f32] {
    debug_assert_eq!(go.len(), out_c * hw);
    let gt = scratch(gt, out_c.div_ceil(NR) * hw * NR);
    for (chunk, dst) in gt.chunks_exact_mut(hw * NR).enumerate() {
        let oc0 = chunk * NR;
        let cols = NR.min(out_c - oc0);
        let rows: [&[f32]; NR] = std::array::from_fn(|j| &go[(oc0 + j.min(cols - 1)) * hw..][..hw]);
        for (q, dst) in dst.as_chunks_mut::<NR>().0.iter_mut().enumerate() {
            for (j, d) in dst.iter_mut().enumerate() {
                *d = if j < cols { rows[j][q] } else { 0.0 };
            }
        }
    }
    gt
}

/// The weight gradient of one batch item of a stride-1 same-padding
/// convolution, without an im2col matrix:
/// `gw[oc, p] = Σ_q grad_out[oc, q] · xp[offs[p] + oy·wp + ox]` over the
/// output pixels `q = oy·w + ox`, overwriting `gw` (`[out_c, kdim]`).
///
/// `gt` comes from [`pack_conv_grad`]; `xp` and `offs` are the padded
/// input and tap offsets [`conv_same_direct`] reads, so tap `p`'s pixels
/// are read in place. Each element sees exactly the operations of
/// [`gemm`]`(false, true, out_c, hw, kdim, grad_out, col, …)` on the
/// im2col matrix `col`: `KC` blocks of pixels, each summed from `0.0` in
/// pixel order as `go × x`, combined as `c = acc` then `c += acc`. The
/// register tile is `WT` taps by `NR` output channels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_wgrad_direct(
    out_c: usize,
    gt: &[f32],
    xp: &[f32],
    offs: &[usize],
    h: usize,
    w: usize,
    wp: usize,
    gw: &mut [f32],
) {
    let kdim = offs.len();
    let hw = h * w;
    debug_assert_eq!(gt.len(), out_c.div_ceil(NR) * hw * NR);
    debug_assert_eq!(gw.len(), out_c * kdim);
    for (chunk, gt) in gt.chunks_exact(hw * NR).enumerate() {
        let oc0 = chunk * NR;
        let cols = NR.min(out_c - oc0);
        let gt = gt.as_chunks::<NR>().0;
        for t0 in (0..kdim).step_by(WT) {
            let taps = WT.min(kdim - t0);
            // Taps past a ragged tile's end alias its last tap; their sums
            // are never written.
            let tap_offs: [usize; WT] = std::array::from_fn(|i| offs[t0 + i.min(taps - 1)]);
            let mut tile = [[0.0f32; NR]; WT];
            for pc in (0..hw).step_by(KC) {
                let end = hw.min(pc + KC);
                let mut acc = [[0.0f32; NR]; WT];
                // The block's pixels, one output-row segment at a time.
                let mut q = pc;
                while q < end {
                    let (oy, ox) = (q / w, q % w);
                    let len = (w - ox).min(end - q);
                    let base = oy * wp + ox;
                    let xs: [&[f32]; WT] =
                        std::array::from_fn(|i| &xp[tap_offs[i] + base..][..len]);
                    acc = wgrad_segment(acc, &gt[q..q + len], xs);
                    q += len;
                }
                fold_block(tile.as_flattened_mut(), acc.as_flattened(), pc == 0);
            }
            for (i, t) in tile.iter().enumerate().take(taps) {
                for (j, &v) in t.iter().enumerate().take(cols) {
                    gw[(oc0 + j) * kdim + t0 + i] = v;
                }
            }
        }
    }
}

/// Adds one output-row segment of pixels onto the `WT × NR` weight
/// gradient tile `acc`: `acc[i][j] += go[idx][j] · xs[i][idx]` in pixel
/// order.
#[inline(always)]
fn wgrad_segment(mut acc: [[f32; NR]; WT], go: &[[f32; NR]], xs: [&[f32]; WT]) -> [[f32; NR]; WT] {
    for (idx, g) in go.iter().enumerate() {
        for i in 0..WT {
            let xv = xs[i][idx];
            for j in 0..NR {
                acc[i][j] += g[j] * xv;
            }
        }
    }
    acc
}

/// The input gradient of one batch item of a stride-1 same-padding
/// convolution, gathered per input pixel instead of scattered per tap:
/// `gx[ic, iy, ix] = Σ_(ky, kx) Σ_oc W[oc, p] · grad_out[oc, oy, ox]` with
/// `p = (ic, ky, kx)`, `oy = iy + pad − ky` and `ox = ix + pad − kx`,
/// overwriting `gx` (`[c, h, w]`).
///
/// `gop` is the item's `grad_out` padded horizontally to rows of
/// `wq = w + 2·pad` (`[out_c, h, wq]`, `pad` zeros on each side). The
/// output channels form `groups` equal groups, one per convolution the
/// pass stands for. Each group's sum starts from `0.0` and takes the taps
/// in ascending `(ky, kx)` order, adding a tap's
/// `t = Σ_oc W[oc, p] · grad_out[…]` (over the group's channels in `KC`
/// blocks, as [`gemm`]`(true, false, kdim, out_c, hw, …)` forms it) only
/// where the tap's source pixel lies in the image: exactly what col2im of
/// that GEMM's output adds, in its order. The groups' sums are then
/// combined left to right, `(g₀ + g₁) + g₂ …`, as separate input
/// gradients added with [`crate::Tensor::add`] would be.
///
/// Pixels go in chunks of `L` lanes along `x` (64, 32, 16, 8 or 1, the
/// widest that fits `w`). A tap whose source row lies outside the image is
/// skipped for the whole chunk; lanes whose source column does are kept
/// out by a select, never by adding a product of the padding, so a
/// non-finite weight cannot turn a skipped zero into `NaN`. A last chunk
/// that overlaps the one before recomputes the same values.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_igrad_gather(
    wd: &[f32],
    out_c: usize,
    groups: usize,
    gop: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    gx: &mut [f32],
) {
    match w {
        w if w >= 64 => gather_lanes::<64>(wd, out_c, groups, gop, c, h, w, k, gx),
        w if w >= 32 => gather_lanes::<32>(wd, out_c, groups, gop, c, h, w, k, gx),
        w if w >= 16 => gather_lanes::<16>(wd, out_c, groups, gop, c, h, w, k, gx),
        w if w >= NR => gather_lanes::<NR>(wd, out_c, groups, gop, c, h, w, k, gx),
        _ => gather_lanes::<1>(wd, out_c, groups, gop, c, h, w, k, gx),
    }
}

/// [`conv_igrad_gather`] in `L`-lane chunks (`w >= L`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gather_lanes<const L: usize>(
    wd: &[f32],
    out_c: usize,
    groups: usize,
    gop: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    gx: &mut [f32],
) {
    let pad = k / 2;
    let (wq, hw, kdim) = (w + 2 * pad, h * w, c * k * k);
    let per_group = out_c / groups;
    debug_assert_eq!(per_group * groups, out_c);
    debug_assert_eq!(wd.len(), out_c * kdim);
    debug_assert_eq!(gop.len(), out_c * h * wq);
    debug_assert_eq!(gx.len(), c * hw);
    for ic in 0..c {
        for iy in 0..h {
            let mut done = 0;
            while done < w {
                let ix0 = done.min(w - L);
                let mut total = [0.0f32; L];
                for g in 0..groups {
                    let group = g * per_group..(g + 1) * per_group;
                    let mut acc = [0.0f32; L];
                    for ky in 0..k {
                        // Source row oy = iy + pad - ky must lie in the image.
                        let Some(oy) = (iy + pad).checked_sub(ky).filter(|&oy| oy < h) else {
                            continue;
                        };
                        for kx in 0..k {
                            let p = (ic * k + ky) * k + kx;
                            // Lane l reads source column ix0 + l + pad - kx,
                            // in the image for l in lo..hi.
                            let lo = kx.saturating_sub(ix0 + pad);
                            let hi = (w + kx).saturating_sub(ix0 + pad).min(L);
                            let col = (oy * wq + ix0 + 2 * pad - kx, p);
                            let mut t = [0.0f32; L];
                            for oc0 in group.clone().step_by(KC) {
                                let ocs = oc0..group.end.min(oc0 + KC);
                                let s = tap_dot::<L>(wd, kdim, gop, h * wq, col, ocs);
                                fold_block(&mut t, &s, oc0 == group.start);
                            }
                            if lo == 0 && hi == L {
                                for (a, &t) in acc.iter_mut().zip(&t) {
                                    *a += t;
                                }
                            } else {
                                // One unsigned compare per lane: l - lo < hi - lo.
                                let (lo, span) = (lo as u32, hi.saturating_sub(lo) as u32);
                                for (l, (a, &t)) in acc.iter_mut().zip(&t).enumerate() {
                                    let sum = *a + t;
                                    *a = if (l as u32).wrapping_sub(lo) < span {
                                        sum
                                    } else {
                                        *a
                                    };
                                }
                            }
                        }
                    }
                    fold_block(&mut total, &acc, g == 0);
                }
                gx[ic * hw + iy * w + ix0..][..L].copy_from_slice(&total);
                done = ix0 + L;
            }
        }
    }
}

/// One tap's sum over output channels `ocs` for `L` lanes, from `0.0` in
/// channel order: `Σ_oc wd[oc·kdim + p] · gop[oc·plane + at + l]`, where
/// `(at, p) = col`.
#[inline(always)]
fn tap_dot<const L: usize>(
    wd: &[f32],
    kdim: usize,
    gop: &[f32],
    plane: usize,
    (at, p): (usize, usize),
    ocs: std::ops::Range<usize>,
) -> [f32; L] {
    let mut s = [0.0f32; L];
    for oc in ocs {
        let wv = wd[oc * kdim + p];
        let row = gop[oc * plane + at..]
            .first_chunk::<L>()
            .expect("padded rows hold every lane");
        for (s, &gv) in s.iter_mut().zip(row) {
            *s += wv * gv;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::Tensor;
    use rand::prelude::*;

    fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0..2.0f32)).collect()
    }

    fn assert_close(actual: &[f32], expected: &[f32], tol: f32, what: &str) {
        assert_eq!(actual.len(), expected.len(), "{what}: length");
        for (i, (&x, &y)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    /// Shapes chosen to exercise every edge path: tiles smaller than
    /// MR/NR, exact multiples, ragged remainders, and panels larger than
    /// one MC/KC/NC block.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 2),
        (4, 16, 16),
        (5, 7, 33),
        (17, 9, 64),
        (64, 300, 20),
        (130, 70, 130),
    ];

    #[test]
    fn gemm_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(100);
        for &(m, k, n) in SHAPES {
            let a = Tensor::from_vec(random_vec(&mut rng, m * k), &[m, k]).unwrap();
            let b = Tensor::from_vec(random_vec(&mut rng, k * n), &[k, n]).unwrap();
            let expected = reference::matmul_naive(&a, &b);
            let mut c = vec![0.0f32; m * n];
            gemm(false, false, m, k, n, a.as_slice(), b.as_slice(), &mut c);
            assert_close(&c, expected.as_slice(), 1e-5, &format!("nn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_transposed_operands_match_reference() {
        let mut rng = StdRng::seed_from_u64(101);
        for &(m, k, n) in SHAPES {
            let a = Tensor::from_vec(random_vec(&mut rng, m * k), &[m, k]).unwrap();
            let b = Tensor::from_vec(random_vec(&mut rng, k * n), &[k, n]).unwrap();
            let expected = reference::matmul_naive(&a, &b);
            let at = a.transpose();
            let bt = b.transpose();

            let mut c = vec![0.0f32; m * n];
            gemm(true, false, m, k, n, at.as_slice(), b.as_slice(), &mut c);
            assert_close(&c, expected.as_slice(), 1e-5, &format!("tn {m}x{k}x{n}"));

            c.fill(f32::NAN);
            gemm(false, true, m, k, n, a.as_slice(), bt.as_slice(), &mut c);
            assert_close(&c, expected.as_slice(), 1e-5, &format!("nt {m}x{k}x{n}"));

            c.fill(f32::NAN);
            gemm(true, true, m, k, n, at.as_slice(), bt.as_slice(), &mut c);
            assert_close(&c, expected.as_slice(), 1e-5, &format!("tt {m}x{k}x{n}"));
        }
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernel skipped rows where a == 0.0, silently turning
        // 0 × NaN into 0. IEEE-754 requires NaN.
        let a = [0.0f32, 0.0];
        let b = [f32::NAN, 1.0];
        let mut c = [0.0f32];
        gemm(false, false, 1, 2, 1, &a, &b, &mut c);
        assert!(c[0].is_nan(), "0 * NaN must be NaN, got {}", c[0]);

        let b_inf = [f32::INFINITY, 1.0];
        gemm(false, false, 1, 2, 1, &a, &b_inf, &mut c);
        assert!(c[0].is_nan(), "0 * inf must be NaN, got {}", c[0]);
    }

    #[test]
    fn results_invariant_to_thread_count() {
        let (m, k, n) = (96, 280, 96); // above PARALLEL_FLOPS with threads pinned
        let mut rng = StdRng::seed_from_u64(102);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);

        let previous = matmul_threads();
        let mut runs = Vec::new();
        for threads in [1, 2, 3, 7] {
            set_matmul_threads(threads);
            let mut c = vec![0.0f32; m * n];
            gemm(false, false, m, k, n, &a, &b, &mut c);
            runs.push(c);
        }
        set_matmul_threads(previous);

        for run in &runs[1..] {
            assert_eq!(&runs[0], run, "thread count changed matmul bits");
        }
    }

    /// `C = op(A) × op(B)` for fixed sin/cos data of shape `(m, k, n)`.
    fn gemm_on_wave(trans_a: bool, trans_b: bool, (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        let a: Vec<f32> = (0..m * k).map(|v| (v as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v as f32 * 0.17).cos()).collect();
        let mut c = vec![0.0f32; m * n];
        gemm(trans_a, trans_b, m, k, n, &a, &b, &mut c);
        c
    }

    /// Runs `SHAPES` growing then shrinking under every transpose
    /// combination on the current thread, asserting each result equals the
    /// same call on a fresh thread (empty scratch) bit for bit.
    fn assert_shapes_match_fresh_thread() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let combos = [(false, false), (true, false), (false, true), (true, true)];
        for &shape in SHAPES.iter().chain(SHAPES.iter().rev()) {
            for (trans_a, trans_b) in combos {
                let warm = gemm_on_wave(trans_a, trans_b, shape);
                let fresh = std::thread::spawn(move || gemm_on_wave(trans_a, trans_b, shape))
                    .join()
                    .expect("fresh-thread gemm");
                assert_eq!(
                    bits(&warm),
                    bits(&fresh),
                    "stale scratch changed {shape:?} (trans_a={trans_a}, trans_b={trans_b})"
                );
            }
        }
    }

    #[test]
    fn stale_scratch_never_leaks_into_results() {
        // A thread of its own, so the scratch starts empty and really grows.
        std::thread::spawn(|| {
            assert_shapes_match_fresh_thread();

            // Fill the scratch to its full size with NaN. Both calls stay
            // serial without pinning the global thread setting (which a
            // sibling test changes): the first is below PARALLEL_FLOPS, the
            // second has a single micro-row band. Both are whole blocks, so
            // no zero padding is packed.
            const _: () = assert!(MC * KC * NR < PARALLEL_FLOPS);
            for (m, k, n) in [(MC, KC, NR), (MR, KC, NC)] {
                let (a, b) = (vec![f32::NAN; m * k], vec![f32::NAN; k * n]);
                gemm(false, false, m, k, n, &a, &b, &mut vec![0.0; m * n]);
            }
            let (packed_a, packed_b) = PACK_SCRATCH.take();
            assert_eq!(packed_a.len(), MC * KC);
            assert_eq!(packed_b.len(), KC * NC);
            assert!(packed_a.iter().chain(&packed_b).all(|v| v.is_nan()));
            PACK_SCRATCH.set((packed_a, packed_b));
            assert_shapes_match_fresh_thread();
        })
        .join()
        .expect("stale scratch check");
    }

    #[test]
    fn empty_reduction_zeroes_output() {
        let mut c = [7.0f32, 7.0];
        gemm(false, false, 1, 0, 2, &[], &[], &mut c);
        assert_eq!(c, [0.0, 0.0]);
    }
}
