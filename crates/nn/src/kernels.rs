//! Cache-blocked GEMM kernels behind [`crate::Tensor::matmul`] and the
//! im2col convolution path.
//!
//! The single entry point is [`gemm`]: `C = op(A) × op(B)` over row-major
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
//! The scratch is freed when its thread exits; the band threads of the
//! parallel path below are fresh scoped threads, so each allocates its own
//! right-sized scratch.
//!
//! When `m·k·n` crosses [`PARALLEL_FLOPS`], rows of `C` are partitioned
//! into contiguous bands, one scoped thread per band. Each output element
//! sees exactly the same floating-point operation order regardless of the
//! band split, so **results are bit-identical for any thread count** — the
//! determinism tests rely on this. The thread budget can be pinned with
//! [`set_matmul_threads`] (`0` restores the automatic choice).
//!
//! There is no `a == 0.0` fast path anywhere in this module: `0 × NaN` and
//! `0 × ∞` must produce `NaN`, exactly as IEEE-754 specifies. The naive
//! oracle used by the parity tests lives in [`crate::reference`].

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

fn effective_threads(m: usize, k: usize, n: usize) -> usize {
    let work = m.saturating_mul(k).saturating_mul(n);
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
    // A thread should own at least one full micro-row band.
    budget.max(1).min(m.div_ceil(MR))
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

    let threads = effective_threads(m, k, n);
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
    let mut dst = 0;
    for ir in (0..mc).step_by(MR) {
        let tile_rows = MR.min(mc - ir);
        for p in 0..kc {
            for i in 0..MR {
                packed[dst] = if i < tile_rows {
                    let (row, col) = (i0 + ir + i, p0 + p);
                    if trans_a {
                        a[col * lda + row]
                    } else {
                        a[row * lda + col]
                    }
                } else {
                    0.0
                };
                dst += 1;
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
    let mut dst = 0;
    for jr in (0..nc).step_by(NR) {
        let tile_cols = NR.min(nc - jr);
        for p in 0..kc {
            for j in 0..NR {
                packed[dst] = if j < tile_cols {
                    let (row, col) = (p0 + p, j0 + jr + j);
                    if trans_b {
                        b[col * ldb + row]
                    } else {
                        b[row * ldb + col]
                    }
                } else {
                    0.0
                };
                dst += 1;
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
            let acc = micro_kernel(a_tile, b_tile, kc);
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
/// accumulation over packed micro-panels. The fixed-size accumulator array
/// keeps everything in registers and lets the compiler vectorize the `j`
/// loop.
#[inline(always)]
fn micro_kernel(a_tile: &[f32], b_tile: &[f32], kc: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let a_col: &[f32] = &a_tile[p * MR..p * MR + MR];
        let b_row: &[f32] = &b_tile[p * NR..p * NR + NR];
        for i in 0..MR {
            let ai = a_col[i];
            for j in 0..NR {
                acc[i][j] += ai * b_row[j];
            }
        }
    }
    acc
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
