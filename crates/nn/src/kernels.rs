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
//! Four shapes skip the packing, chosen by `(m, k, n)` and the transposes
//! alone. They are the `Linear` heads' GEMMs on one state, and those of the
//! direction head's single output:
//!
//! - one row of `C` (`m = 1`, `B` not transposed): the row times `B`,
//!   vectorized over `C`'s columns, reading `B` once instead of packing
//!   all of it for one micro-row of `MR`;
//! - one column with `A` transposed (`n = 1`): the same kernel on `Cᵀ`;
//! - `k = 1`: an outer product, one row of `C` at a time, with that kernel;
//! - one column with `A` not transposed: per-row dot products,
//!   `DOT_ROWS` rows side by side, where the micro-kernel would run on
//!   `NR − 1` zero-padded columns.
//!
//! Every other shape takes the packed path. Each of the four keeps every
//! element's order: `KC` blocks, `p` ascending, each block summed from
//! `0.0` as a `mul` then an `add`, the first block copied and later blocks
//! added; and each product keeps its `A`-element × `B`-element order. So
//! they are bit-identical to the packed path, NaN payloads aside: Rust
//! leaves a NaN result's sign and payload unspecified.
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
//! When `m·k·n` reaches `PARALLEL_FLOPS` and `C` has at least two bands
//! of `MIN_BAND_ROWS` rows, rows of `C` are partitioned into up to
//! `MAX_AUTO_THREADS` contiguous bands, chosen from the shape alone, and
//! the bands are shares of the crate's kernel pool (`crate::pool`): the
//! caller computes bands itself, next to up to [`set_matmul_threads`]` − 1`
//! helper threads. Each output element sees exactly the same
//! floating-point operation order regardless of the band split, so
//! **results are bit-identical for any thread count** — the determinism
//! tests rely on this. The helpers live for the whole process, so their
//! packing scratch stays warm from call to call, like the caller's. Every
//! band packs the whole `B` panel, so a shorter `C` (the 8x8 learner's
//! 8-state cache warm-up batch against its `8192 × 32` head weights) runs
//! whole rather than pack `B` twice. The convolution kernels below run on
//! one thread each; their passes split the *batch* over the same pool.
//!
//! The convolution kernels build no im2col matrix. `conv_same_direct`
//! (forward) and `conv_wgrad_direct` (weight gradient) read each tap's
//! pixels in place from a zero-padded copy of one batch item;
//! `conv_igrad_direct` (input gradient) gathers each input pixel's taps
//! from a row-padded copy of its output gradient. Each keeps, element by
//! element, the operation order of the im2col-plus-[`gemm`] pass it
//! replaces, so each is bit-identical to it.
//!
//! The forward and the input gradient run on the lane vectors of
//! `crate::simd`, whose `Lane` is one register of the build's widest
//! vector unit: 16 lanes with `avx512f`, 8 otherwise. Both use one register
//! tile, `CONV_MR` channels by one `Lane` of pixels: 8 channels by 16
//! pixels (eight 512-bit accumulators) with `avx512f`, and 4 channels by 8
//! pixels otherwise, which fits the 16 vector registers of x86-64 without
//! AVX-512. The forward's channels are output channels, summed over the
//! taps; the input gradient's are input channels, and each output
//! channel's `grad_out` vector is loaded once per tap for all of them.
//!
//! Both are one algorithm on every target: only the tile constants and the
//! lane type change, never the order of any element's operations, so every
//! target produces the same bits. Products and sums are always a `mul`
//! then an `add`, never a fused multiply-add, which rounds once instead of
//! twice and would change results. The weight gradient and [`gemm`]'s
//! packed path stay on plain arrays: the weight gradient's tile is `NR = 8`
//! output channels wide, and the small learner net has only 8, half a
//! 512-bit register. The row-times-matrix path runs on the same lane
//! vectors as the convolutions, by the same rule.
//!
//! There is no `a == 0.0` fast path anywhere in this module: `0 × NaN` and
//! `0 × ∞` must produce `NaN`, exactly as IEEE-754 specifies. The naive
//! and im2col oracles used by the parity tests live in [`crate::reference`].

use crate::simd::{self, Lane, Vector};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Multiply-add count from which a kernel's work is split over the pool.
pub(crate) const PARALLEL_FLOPS: usize = 1 << 21;

/// Fewest rows of `C` a [`gemm`] row band holds.
const MIN_BAND_ROWS: usize = 16;

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

/// Pins the number of threads, the caller included, that a large matmul,
/// convolution or other split layer may use: the kernel pool's budget.
///
/// `0` restores the automatic choice (`available_parallelism`, capped).
/// `1` forces the serial path, and no pool helper is started. Results are
/// identical for every setting; only wall-clock changes.
pub fn set_matmul_threads(threads: usize) {
    MATMUL_THREADS.store(threads, Ordering::Relaxed);
}

/// The currently configured matmul thread setting (`0` = automatic).
pub fn matmul_threads() -> usize {
    MATMUL_THREADS.load(Ordering::Relaxed)
}

/// The thread budget of a split: the [`set_matmul_threads`] setting, or
/// with `0` the available parallelism capped at `MAX_AUTO_THREADS`, read
/// once per process: `available_parallelism` reads the cgroup's CPU quota
/// from files, four allocations and ~24 µs a call.
pub(crate) fn budget() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    match MATMUL_THREADS.load(Ordering::Relaxed) {
        0 => *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(MAX_AUTO_THREADS)
        }),
        pinned => pinned,
    }
}

/// Rows per band when [`gemm`] splits `C` into row bands, or `None` when
/// it runs whole. The split depends on the shape alone. It needs
/// `PARALLEL_FLOPS` of work and at least two bands of `MIN_BAND_ROWS`
/// rows: every band packs all of `B` again, so a short band would mostly
/// repeat that packing. Up to `MAX_AUTO_THREADS` bands of whole
/// micro-rows.
fn row_band(m: usize, k: usize, n: usize) -> Option<usize> {
    if m.saturating_mul(k).saturating_mul(n) < PARALLEL_FLOPS || m < 2 * MIN_BAND_ROWS {
        return None;
    }
    let bands = (m / MIN_BAND_ROWS).min(MAX_AUTO_THREADS);
    Some(m.div_ceil(bands).next_multiple_of(MR))
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

    // With `k == 1` either layout of `A` is the same contiguous column, and
    // either layout of `B` the same contiguous row.
    let (trans_a, trans_b) = if k == 1 {
        (true, false)
    } else {
        (trans_a, trans_b)
    };
    if m == 1 && !trans_b {
        // `C = a · B`, with `a` either layout of `A`'s one row.
        vec_mat::<true>(a, b, n, c);
    } else if n == 1 && trans_a {
        // `Cᵀ = bᵀ · Aᵀ`, where `Aᵀ` is `A` as stored, `[k, m]`.
        vec_mat::<false>(b, a, m, c);
    } else if k == 1 {
        for (ai, row) in a.iter().zip(c.chunks_exact_mut(n)) {
            vec_mat::<true>(std::slice::from_ref(ai), b, n, row);
        }
    } else if n == 1 {
        row_dots(a, b, k, c);
    } else {
        match row_band(m, k, n) {
            None => gemm_band(trans_a, trans_b, m, k, n, a, b, c, 0),
            // Band boundaries only decide *which thread* computes a row,
            // never *how* it is computed, so the split cannot perturb
            // results.
            Some(band_rows) => {
                let bands = c.chunks_mut(band_rows * n).enumerate();
                crate::pool::for_each(true, bands, |(i, band)| {
                    let rows = band.len() / n;
                    gemm_band(trans_a, trans_b, rows, k, n, a, b, band, i * band_rows);
                });
            }
        }
    }
    crate::instrument::record_since("nn.gemm_us", timer);
}

/// A row times a matrix, without packing: `out[j] = Σ_p x[p] · mat[p·ld + j]`
/// over `p < x.len()`, the products taken as `x[p] × mat[…]` when
/// `X_FIRST` and as `mat[…] × x[p]` otherwise, so that each keeps
/// [`gemm`]'s `A`-element × `B`-element order. Each element sees the
/// micro-kernel's operations: `KC` blocks of `p`, each summed from `0.0`
/// in `p` order, combined as `c = acc` then `c += acc`. The loop runs over
/// `out` in vectors of the widest type that fits it, reading each row
/// segment of `mat` once; a last vector that overlaps the one before
/// recomputes the same values.
fn vec_mat<const X_FIRST: bool>(x: &[f32], mat: &[f32], ld: usize, out: &mut [f32]) {
    let run = match out.len() {
        len if len >= 4 * Lane::LANES => vec_mat_tiles::<[Lane; 4], X_FIRST>,
        len if len >= Lane::LANES => vec_mat_tiles::<Lane, X_FIRST>,
        len if len >= 8 => vec_mat_tiles::<simd::Lane8, X_FIRST>,
        _ => vec_mat_tiles::<[f32; 1], X_FIRST>,
    };
    run(x, mat, ld, out);
}

/// [`vec_mat`] in vectors `V` (`out.len() ≥ V::LANES`).
#[inline(always)]
fn vec_mat_tiles<V: Vector, const X_FIRST: bool>(
    x: &[f32],
    mat: &[f32],
    ld: usize,
    out: &mut [f32],
) {
    let len = out.len();
    let mut done = 0;
    while done < len {
        let j0 = done.min(len - V::LANES);
        let mut tile = V::splat(0.0);
        for (block, xs) in x.chunks(KC).enumerate() {
            let pc = block * KC;
            let mut acc = V::splat(0.0);
            for (p, &xp) in xs.iter().enumerate() {
                let (xv, row) = (V::splat(xp), V::load(&mat[(pc + p) * ld + j0..]));
                let (mut product, other) = if X_FIRST { (xv, row) } else { (row, xv) };
                product.mul(&other);
                acc.add(&product);
            }
            if block == 0 {
                tile = acc;
            } else {
                tile.add(&acc);
            }
        }
        tile.store(&mut out[j0..]);
        done = j0 + V::LANES;
    }
}

/// Rows of `A` that [`row_dots`] takes side by side.
const DOT_ROWS: usize = 8;

/// `C = A · b` for one column: `c[i] = Σ_p a[i·k + p] · b[p]` with `A`
/// stored `[m, k]`, each element in the micro-kernel's order (`KC` blocks,
/// each summed from `0.0` in `p` order, combined as `c = acc` then
/// `c += acc`). `DOT_ROWS` rows run side by side as independent chains;
/// rows past a ragged group's end alias its last row, and their sums are
/// never written.
fn row_dots(a: &[f32], b: &[f32], k: usize, c: &mut [f32]) {
    for (group, c) in c.chunks_mut(DOT_ROWS).enumerate() {
        let (i0, rows) = (group * DOT_ROWS, c.len());
        let a_rows: [&[f32]; DOT_ROWS] =
            std::array::from_fn(|r| &a[(i0 + r.min(rows - 1)) * k..][..k]);
        let mut tile = [0.0f32; DOT_ROWS];
        for (block, bs) in b.chunks(KC).enumerate() {
            let pc = block * KC;
            let a_block: [&[f32]; DOT_ROWS] = std::array::from_fn(|r| &a_rows[r][pc..][..bs.len()]);
            let mut acc = [0.0f32; DOT_ROWS];
            for (p, &bp) in bs.iter().enumerate() {
                for r in 0..DOT_ROWS {
                    acc[r] += a_block[r][p] * bp;
                }
            }
            fold_block(&mut tile, &acc, block == 0);
        }
        c.copy_from_slice(&tile[..rows]);
    }
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
/// against `kc` packed rows of `B`, summed from `0.0` in `p` order. The
/// fixed-size accumulator array keeps everything in registers and lets the
/// compiler vectorize the `j` loop.
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

/// Output channels per register tile of [`conv_same_direct`], and input
/// channels per tile of [`conv_igrad_direct`]. With `avx512f` the tile is
/// 8 channels by one 16-lane [`Lane`]: eight of the 32 512-bit registers,
/// the rest left for the tap's pixels and the weight broadcasts. Without
/// it the tile is 4 by 8 lanes, which fits x86-64's 16 registers; an
/// 8×16 tile spills there.
const CONV_MR: usize = if cfg!(target_feature = "avx512f") {
    8
} else {
    4
};
const _: () = assert!(
    CONV_MR.is_multiple_of(MR),
    "a conv tile reads whole micro-rows"
);

/// Packs a convolution's weight matrix `w` (`[out_c, kdim]`) for
/// [`conv_same_direct`] into the first `⌈out_c/CONV_MR⌉·CONV_MR × kdim`
/// elements of `packed`: its `KC`-deep blocks one after another, each in
/// `pack_a`'s `MR`-row micro-row layout, with zero micro-rows up to a
/// multiple of `CONV_MR` rows. Done once per pass and shared by every
/// batch item.
pub(crate) fn pack_conv_weights<'p>(
    w: &[f32],
    out_c: usize,
    kdim: usize,
    packed: &'p mut Vec<f32>,
) -> &'p [f32] {
    debug_assert_eq!(w.len(), out_c * kdim);
    let rows = out_c.div_ceil(CONV_MR) * CONV_MR;
    let packed = scratch(packed, rows * kdim);
    for pc in (0..kdim).step_by(KC) {
        let kc = KC.min(kdim - pc);
        let block = &mut packed[rows * pc..][..rows * kc];
        let (rows_in, zeros) = block.split_at_mut(out_c.div_ceil(MR) * MR * kc);
        pack_a(false, w, kdim, 0, out_c, pc, kc, rows_in);
        zeros.fill(0.0);
    }
    packed
}

/// Slack [`conv_same_direct`] needs after the padded input: a ragged tile
/// reads a full [`Lane`] (the lanes past the image are discarded).
pub(crate) const CONV_SLACK: usize = Lane::LANES;

/// Stride-1 same-padding convolution of one batch item, without an im2col
/// matrix:
/// `out[oc, oy·w + ox] = Σ_p W[oc, p] · xp[offs[p] + oy·wp + ox] + bias[oc]`.
///
/// `packed_w` comes from [`pack_conv_weights`]. `xp` is the item's
/// zero-padded input (`[c, h + 2·pad, wp]` followed by [`CONV_SLACK`]
/// elements) and `offs[p]` is where tap `p = (ic, ky, kx)` starts in it,
/// so tap `p`'s pixels of an output tile are read in place. Each output
/// element sees exactly the operations of `im2col` then
/// [`gemm`]`(false, false, out_c, kdim, h·w, …)` then the bias: `KC` blocks
/// of `p`, each summed from `0.0` in `p` order, combined as `c = acc` then
/// `c += acc`, and the bias added last. The two are bit-identical.
///
/// The register tile is `CONV_MR` output channels, read from
/// `CONV_MR / MR` micro-rows, by one [`Lane`] of pixels.
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
    let rows = out_c.div_ceil(CONV_MR) * CONV_MR;
    let hw = h * w;
    debug_assert_eq!(packed_w.len(), rows * kdim);
    debug_assert_eq!(out.len(), out_c * hw);
    for oy in 0..h {
        for ox0 in (0..w).step_by(Lane::LANES) {
            let tile_cols = Lane::LANES.min(w - ox0);
            let xs = &xp[oy * wp + ox0..];
            for ir in (0..out_c).step_by(CONV_MR) {
                let mut tile = [Lane::splat(0.0); CONV_MR];
                for pc in (0..kdim).step_by(KC) {
                    let kc = KC.min(kdim - pc);
                    let micro_rows: [&[[f32; MR]]; CONV_MR / MR] = std::array::from_fn(|q| {
                        let at = rows * pc + (ir / MR + q) * (kc * MR);
                        packed_w[at..][..kc * MR].as_chunks::<MR>().0
                    });
                    let mut acc = [Lane::splat(0.0); CONV_MR];
                    for (p, &o) in offs[pc..pc + kc].iter().enumerate() {
                        let x = &xs[o..];
                        for (acc, a) in acc.chunks_exact_mut(MR).zip(&micro_rows) {
                            for (acc, &a) in acc.iter_mut().zip(&a[p]) {
                                acc.add_scaled(a, x);
                            }
                        }
                    }
                    if pc == 0 {
                        tile = acc;
                    } else {
                        tile.add(&acc);
                    }
                }
                for (i, t) in tile.iter().enumerate().take(CONV_MR.min(out_c - ir)) {
                    let mut sums = *t;
                    sums.add(&Lane::splat(bias[ir + i]));
                    let dst = &mut out[(ir + i) * hw + oy * w + ox0..][..tile_cols];
                    if tile_cols == Lane::LANES {
                        sums.store(dst);
                    } else {
                        let mut lanes = [0.0f32; Lane::LANES];
                        sums.store(&mut lanes);
                        dst.copy_from_slice(&lanes[..tile_cols]);
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

/// The bias gradient of one batch item, `gb[oc] = Σ_q grad_out[oc, q]`,
/// from the [`pack_conv_grad`] rows `gt`: each channel summed in pixel
/// order from `-0.0`, where `Iterator::sum` starts, so the result equals
/// `grad_out[oc].iter().sum()` bit for bit. The `NR` channels of a row
/// run side by side as independent chains.
pub(crate) fn conv_bias_grad(gt: &[f32], hw: usize, gb: &mut [f32]) {
    for (gb, gt) in gb.chunks_mut(NR).zip(gt.chunks_exact(hw * NR)) {
        let mut sums = [-0.0f32; NR];
        for row in gt.as_chunks::<NR>().0 {
            sums.add(row);
        }
        gb.copy_from_slice(&sums[..gb.len()]);
    }
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

/// Packs a convolution's weight matrix `w` (`[out_c, c·k²]`) for
/// [`conv_igrad_direct`] into `packed`: for each tile of `CONV_MR` input
/// channels, each tap `(ky, kx)` and each output channel, the tile's
/// `CONV_MR` weights side by side, zero for channels past `c`. Done once
/// per pass and shared by every batch item.
pub(crate) fn pack_igrad_weights<'p>(
    w: &[f32],
    out_c: usize,
    c: usize,
    k: usize,
    packed: &'p mut Vec<f32>,
) -> &'p [[f32; CONV_MR]] {
    let taps = k * k;
    debug_assert_eq!(w.len(), out_c * c * taps);
    let packed = scratch(packed, c.div_ceil(CONV_MR) * taps * out_c * CONV_MR);
    let packed = packed.as_chunks_mut::<CONV_MR>().0;
    for (i, tile) in packed.chunks_exact_mut(taps * out_c).enumerate() {
        for (tap, per_oc) in tile.chunks_exact_mut(out_c).enumerate() {
            for (oc, dst) in per_oc.iter_mut().enumerate() {
                let row = &w[oc * c * taps..][..c * taps];
                *dst = std::array::from_fn(|j| {
                    let ic = i * CONV_MR + j;
                    if ic < c {
                        row[ic * taps + tap]
                    } else {
                        0.0
                    }
                });
            }
        }
    }
    packed
}

/// The input gradient of one batch item of a stride-1 same-padding
/// convolution, gathered per input pixel instead of scattered per tap:
/// `gx[ic, iy, ix] = Σ_(ky, kx) Σ_oc W[oc, p] · grad_out[oc, oy, ox]` with
/// `p = (ic, ky, kx)`, `oy = iy + pad − ky` and `ox = ix + pad − kx`,
/// overwriting `gx` (`[c, h, w]`).
///
/// `packed` comes from [`pack_igrad_weights`]. `gop` is the item's
/// `grad_out` padded horizontally to rows of `wq = w + 2·pad`
/// (`[out_c, h, wq]`, `pad` zeros on each side). The output channels form
/// `groups` equal groups, one per convolution the pass stands for. Each
/// group's sum starts from `0.0` and takes the taps in ascending
/// `(ky, kx)` order, adding a tap's `t = Σ_oc W[oc, p] · grad_out[…]`
/// (over the group's channels in `KC` blocks, as
/// [`gemm`]`(true, false, kdim, out_c, hw, …)` forms it) only where the
/// tap's source pixel lies in the image: exactly what col2im of that
/// GEMM's output adds, in its order. The groups' sums are then combined
/// left to right, `(g₀ + g₁) + g₂ …`, as separate input gradients added
/// with [`crate::Tensor::add`] would be.
///
/// The register tile is the forward's turned around: `CONV_MR` *input*
/// channels by one vector of one row, a [`Lane`] or, for images narrower
/// than one, eight lanes or a single lane. Each tap loads an output
/// channel's `grad_out` vector once and multiplies it by the tile's
/// `CONV_MR` broadcast weights. A tap whose source row lies outside the
/// image is skipped; lanes whose source column does are kept out by a
/// masked add, never by adding a product of the padding, so a non-finite
/// weight cannot turn a skipped zero into `NaN`. A last vector that
/// overlaps the one before recomputes the same values.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_igrad_direct(
    packed: &[[f32; CONV_MR]],
    out_c: usize,
    groups: usize,
    gop: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    gx: &mut [f32],
) {
    debug_assert_eq!(out_c % groups, 0);
    debug_assert_eq!(packed.len(), c.div_ceil(CONV_MR) * k * k * out_c);
    debug_assert_eq!(gop.len(), out_c * h * (w + k - 1));
    debug_assert_eq!(gx.len(), c * h * w);
    let run = match w {
        w if w >= Lane::LANES => igrad_tiles::<Lane>,
        w if w >= 8 => igrad_tiles::<simd::Lane8>,
        _ => igrad_tiles::<[f32; 1]>,
    };
    run(packed, out_c, out_c / groups, gop, c, h, w, k, gx);
}

/// [`conv_igrad_direct`] in tiles of `CONV_MR` input channels by one `V`
/// (`w ≥ V::LANES`), with `per_group` output channels in each group.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn igrad_tiles<V: Vector>(
    packed: &[[f32; CONV_MR]],
    out_c: usize,
    per_group: usize,
    gop: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    gx: &mut [f32],
) {
    let (pad, wq, taps) = (k / 2, w + k - 1, k * k);
    let (hw, plane) = (h * w, h * wq);
    for (tile, tile_w) in packed.chunks_exact(taps * out_c).enumerate() {
        let ic0 = tile * CONV_MR;
        let chans = CONV_MR.min(c - ic0);
        for iy in 0..h {
            let mut done = 0;
            while done < w {
                let ix0 = done.min(w - V::LANES);
                for g0 in (0..out_c).step_by(per_group) {
                    let group_end = g0 + per_group;
                    let mut acc = [V::splat(0.0); CONV_MR];
                    for ky in 0..k {
                        let Some(oy) = (iy + pad).checked_sub(ky).filter(|&oy| oy < h) else {
                            continue;
                        };
                        for kx in 0..k {
                            let tap_w = &tile_w[(ky * k + kx) * out_c..][..out_c];
                            let at = oy * wq + ix0 + 2 * pad - kx;
                            let block = |oc0: usize| {
                                let ocs = oc0..group_end.min(oc0 + KC);
                                igrad_tap::<V>(&tap_w[ocs.clone()], &gop[oc0 * plane + at..], plane)
                            };
                            let mut t = block(g0);
                            for oc0 in (g0 + KC..group_end).step_by(KC) {
                                t.add(&block(oc0));
                            }
                            // Lane l reads source column ix0 + l + pad - kx,
                            // in the image for l in lo..hi.
                            let lo = kx.saturating_sub(ix0 + pad);
                            let hi = (w + kx).saturating_sub(ix0 + pad).min(V::LANES);
                            if lo == 0 && hi == V::LANES {
                                acc.add(&t);
                            } else {
                                for (a, t) in acc.iter_mut().zip(&t) {
                                    a.add_lanes(t, lo, hi);
                                }
                            }
                        }
                    }
                    // The groups fold into `gx` left to right.
                    for (i, a) in acc.iter().enumerate().take(chans) {
                        let dst = &mut gx[(ic0 + i) * hw + iy * w + ix0..];
                        if g0 == 0 {
                            a.store(dst);
                        } else {
                            let mut total = V::load(dst);
                            total.add(a);
                            total.store(dst);
                        }
                    }
                }
                done = ix0 + V::LANES;
            }
        }
    }
}

/// One tap's sums for the tile's `CONV_MR` input channels over the output
/// channels whose weights are `ws`, each from `0.0` in channel order:
/// `Σ_oc ws[oc][i] · gs[oc·plane + l]`.
#[inline(always)]
fn igrad_tap<V: Vector>(ws: &[[f32; CONV_MR]], gs: &[f32], plane: usize) -> [V; CONV_MR] {
    let mut t = [V::splat(0.0); CONV_MR];
    for (oc, wv) in ws.iter().enumerate() {
        let g = V::load(&gs[oc * plane..]);
        for (t, &wi) in t.iter_mut().zip(wv) {
            let mut product = V::splat(wi);
            product.mul(&g);
            t.add(&product);
        }
    }
    t
}

/// Runs 16 independent chains of `x = x × m + a` on the build's widest
/// vector ([`crate::kernels`] module docs) for `steps` steps and returns
/// the sum of their lanes and the multiply-adds done. Enough chains hide
/// both ops' latency, so a timed call measures the single-core `mul`+`add`
/// peak the convolution kernels are judged against.
///
/// Benchmark support only (`bench_kernels_json`'s `peak_mul_add_gmacs`):
/// nothing in the library calls it, and it is not part of the API.
#[doc(hidden)]
pub fn mul_add_chains(steps: usize, m: f32, a: f32) -> (f32, usize) {
    (simd::mul_add_chains(steps, m, a), steps * 16 * Lane::LANES)
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

    /// Operands for [`shape_paths_match_the_packed_kernel`]: uniform values
    /// with one kind of edge value mixed in.
    fn edge_operand(rng: &mut StdRng, len: usize, edges: &str) -> Vec<f32> {
        let subnormal = |rng: &mut StdRng| {
            let bits = rng.gen_range(1..0x0080_0000u32) | (rng.gen_range(0..2u32) << 31);
            f32::from_bits(bits)
        };
        (0..len)
            .map(|_| match (edges, rng.gen_range(0..256)) {
                // Against positive values, every product is -0.0, and every
                // sum must come out +0.0, as `0.0 + (-0.0)` does.
                ("zeros", _) => -0.0,
                ("positive", _) => rng.gen_range(0.5..2.0f32),
                ("non-finite", 0) => f32::NAN,
                ("non-finite", 1) => f32::INFINITY,
                ("non-finite", 2) => f32::NEG_INFINITY,
                ("subnormal", 0..=63) => subnormal(rng),
                // Products of these with uniform values fall below 2⁻¹²⁶.
                ("subnormal", 64..=95) => rng.gen_range(-1e-30..1e-30f32),
                _ => rng.gen_range(-2.0..2.0f32),
            })
            .collect()
    }

    #[test]
    fn shape_paths_match_the_packed_kernel() {
        // Every shape `gemm` serves without packing (m = 1, n = 1, k = 1),
        // with `k` crossing two `KC` blocks, against `gemm_band` called
        // directly, bit for bit: every element keeps the micro-kernel's
        // order of operations, operand order included. A NaN compares as
        // any NaN: Rust leaves a NaN result's sign and payload unspecified,
        // and LLVM may commute a `mul` or an `add` of either kernel, so
        // which of two NaN operands' payloads survives is not the kernel's
        // to keep.
        const K: usize = 2 * KC + 3;
        let shapes = [
            (1, K, 1),
            (1, K, 5),
            (1, K, 20),
            (1, K, 70),
            (5, K, 1),
            (19, K, 1),
            (70, K, 1),
            (1, 1, 1),
            (19, 1, 1),
            (1, 1, 19),
            (5, 1, 70),
            (70, 1, 5),
        ];
        let bits = |v: &[f32]| {
            let canonical = |x: f32| if x.is_nan() { f32::NAN } else { x };
            v.iter()
                .map(|&x| canonical(x).to_bits())
                .collect::<Vec<_>>()
        };
        let mut rng = StdRng::seed_from_u64(103);
        for edges in ["none", "zeros", "non-finite", "subnormal"] {
            for (m, k, n) in shapes {
                // Edge values in `A`, then in `B`.
                let other = if edges == "zeros" { "positive" } else { "none" };
                for (a_edges, b_edges) in [(edges, other), (other, edges)] {
                    let a = edge_operand(&mut rng, m * k, a_edges);
                    let b = edge_operand(&mut rng, k * n, b_edges);
                    for (trans_a, trans_b) in
                        [(false, false), (true, false), (false, true), (true, true)]
                    {
                        let mut want = vec![f32::NAN; m * n];
                        gemm_band(trans_a, trans_b, m, k, n, &a, &b, &mut want, 0);
                        let mut got = vec![f32::NAN; m * n];
                        gemm(trans_a, trans_b, m, k, n, &a, &b, &mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{m}x{k}x{n} (trans_a={trans_a}, trans_b={trans_b}), \
                             edge values {a_edges} in A, {b_edges} in B"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_reduction_zeroes_output() {
        let mut c = [7.0f32, 7.0];
        gemm(false, false, 1, 0, 2, &[], &[], &mut c);
        assert_eq!(c, [0.0, 0.0]);
    }
}
