//! `f32` lane vectors for the convolution kernels in [`crate::kernels`].
//!
//! [`Vector`] is a fixed number of `f32` lanes with lane-wise in-place
//! ops. It is implemented for plain arrays `[f32; N]`, which LLVM
//! vectorizes as it sees fit, for arrays of vectors `[T; V]`, and for one
//! register of the build's widest vector unit: `F32x16` (512-bit) with
//! `avx512f`, else `F32x8` (256-bit) with `avx`. [`Lane`] is that
//! register, or eight plain lanes on targets with neither.
//!
//! The register types exist because LLVM's code for lane arrays is
//! fragile: `prefer-256-bit` tuning keeps it off 512-bit registers, and
//! arrays of 256-bit-sized arrays were measured up to 2× slower than plain
//! intrinsics on AVX2, with lanes shuffled between registers. Their ops
//! wrap `_mm512_{loadu,storeu,set1,mul,add,mask_add}_ps` and the `_mm256`
//! equivalents (a compare and a blend for the masked add), and never a
//! fused multiply-add: it rounds once where `mul` then `add` rounds twice,
//! so it would change results. Every op here rounds exactly as the scalar
//! expression it stands for, so each output element is bit-identical
//! whichever implementation computes it.
//!
//! All of the crate's `unsafe` lives in this module, apart from the one
//! lifetime erasure that lets the kernel pool's helpers borrow a split's
//! job (`crate::pool`).

/// A fixed number of `f32` lanes. Every op is lane-wise, works in place
/// (large arrays then stay loop-vectorized instead of being copied by
/// value) and rounds as its scalar counterpart does.
pub(crate) trait Vector: Copy {
    /// Lanes in the vector.
    const LANES: usize;
    /// Every lane `v`.
    fn splat(v: f32) -> Self;
    /// The first [`Self::LANES`] values of `src`.
    ///
    /// # Panics
    /// Panics if `src` is shorter.
    fn load(src: &[f32]) -> Self;
    /// `self += w × src`, over the first [`Self::LANES`] values of `src`:
    /// a `mul` then an `add`, never fused.
    ///
    /// # Panics
    /// Panics if `src` is shorter.
    #[inline(always)]
    fn add_scaled(&mut self, w: f32, src: &[f32]) {
        let mut product = Self::splat(w);
        product.mul(&Self::load(src));
        self.add(&product);
    }
    /// `self += o`.
    fn add(&mut self, o: &Self);
    /// `self ×= o`.
    fn mul(&mut self, o: &Self);
    /// `self += o` in lanes `lo..hi`; the other lanes keep their value.
    fn add_lanes(&mut self, o: &Self, lo: usize, hi: usize);
    /// Writes the lanes to the first [`Self::LANES`] values of `dst`.
    ///
    /// # Panics
    /// Panics if `dst` is shorter.
    fn store(&self, dst: &mut [f32]);
}

impl<const N: usize> Vector for [f32; N] {
    const LANES: usize = N;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; N]
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        *src.first_chunk::<N>().expect("source holds every lane")
    }

    #[inline(always)]
    fn add(&mut self, o: &Self) {
        for (a, &b) in self.iter_mut().zip(o) {
            *a += b;
        }
    }

    #[inline(always)]
    fn mul(&mut self, o: &Self) {
        for (a, &b) in self.iter_mut().zip(o) {
            *a *= b;
        }
    }

    #[inline(always)]
    fn add_lanes(&mut self, o: &Self, lo: usize, hi: usize) {
        // One unsigned compare per lane: l - lo < hi - lo.
        let (lo, span) = (lo as u32, hi.saturating_sub(lo) as u32);
        for (l, (a, &b)) in self.iter_mut().zip(o).enumerate() {
            let sum = *a + b;
            *a = if (l as u32).wrapping_sub(lo) < span {
                sum
            } else {
                *a
            };
        }
    }

    #[inline(always)]
    fn store(&self, dst: &mut [f32]) {
        *dst.first_chunk_mut::<N>()
            .expect("destination holds every lane") = *self;
    }
}

/// `V` vectors side by side: `V · T::LANES` lanes, `T` by `T`.
impl<T: Vector, const V: usize> Vector for [T; V] {
    const LANES: usize = T::LANES * V;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        [T::splat(v); V]
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let src = &src[..Self::LANES];
        std::array::from_fn(|v| T::load(&src[v * T::LANES..]))
    }

    #[inline(always)]
    fn add(&mut self, o: &Self) {
        for (a, b) in self.iter_mut().zip(o) {
            a.add(b);
        }
    }

    #[inline(always)]
    fn mul(&mut self, o: &Self) {
        for (a, b) in self.iter_mut().zip(o) {
            a.mul(b);
        }
    }

    #[inline(always)]
    fn add_lanes(&mut self, o: &Self, lo: usize, hi: usize) {
        for (v, (a, b)) in self.iter_mut().zip(o).enumerate() {
            let off = v * T::LANES;
            let (lo, hi) = (lo.saturating_sub(off), hi.saturating_sub(off).min(T::LANES));
            if lo == 0 && hi == T::LANES {
                a.add(b);
            } else if lo < hi {
                a.add_lanes(b, lo, hi);
            }
        }
    }

    #[inline(always)]
    fn store(&self, dst: &mut [f32]) {
        for (x, dst) in self
            .iter()
            .zip(dst[..Self::LANES].chunks_exact_mut(T::LANES))
        {
            x.store(dst);
        }
    }
}

/// The build's widest vector: one 512-bit register.
#[cfg(target_feature = "avx512f")]
pub(crate) type Lane = avx512::F32x16;
/// The build's widest vector: one 256-bit register.
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
pub(crate) type Lane = Lane8;
/// The build's widest vector: eight lanes, which LLVM maps to two 128-bit
/// registers.
#[cfg(not(target_feature = "avx"))]
pub(crate) type Lane = Lane8;

/// Eight lanes: one 256-bit register with `avx`.
#[cfg(target_feature = "avx")]
pub(crate) type Lane8 = avx::F32x8;
/// Eight lanes.
#[cfg(not(target_feature = "avx"))]
pub(crate) type Lane8 = [f32; 8];

/// Runs 16 independent `x = x × m + a` chains of [`Lane`] for `steps`
/// steps, one `mul` and one `add` per lane and step, and returns the sum
/// of their lanes. Enough chains hide the latency of both ops, so the
/// loop runs at the core's `mul`+`add` throughput: the ceiling the
/// convolution kernels are measured against.
pub(crate) fn mul_add_chains(steps: usize, m: f32, a: f32) -> f32 {
    let (m, a) = (Lane::splat(m), Lane::splat(a));
    let mut chains = [Lane::splat(0.0); 16];
    for _ in 0..steps {
        for x in &mut chains {
            x.mul(&m);
            x.add(&a);
        }
    }
    let mut lanes = [0.0f32; 16];
    let lanes = &mut lanes[..Lane::LANES];
    chains
        .iter()
        .map(|x| {
            x.store(lanes);
            lanes.iter().sum::<f32>()
        })
        .sum()
}

#[cfg(target_feature = "avx512f")]
mod avx512 {
    use super::Vector;
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_add_ps, _mm512_mul_ps, _mm512_set1_ps,
        _mm512_storeu_ps,
    };

    /// Sixteen `f32` lanes in one 512-bit register.
    #[derive(Clone, Copy)]
    pub(crate) struct F32x16(__m512);

    impl Vector for F32x16 {
        const LANES: usize = 16;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: `avx512f` is enabled for the whole build (this module
            // is compiled only then).
            F32x16(unsafe { _mm512_set1_ps(v) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            let src: &[f32; 16] = src.first_chunk().expect("source holds every lane");
            // SAFETY: `avx512f` is enabled for the whole build, and `src`
            // holds the 16 values read.
            F32x16(unsafe { _mm512_loadu_ps(src.as_ptr()) })
        }

        #[inline(always)]
        fn add(&mut self, o: &Self) {
            // SAFETY: `avx512f` is enabled for the whole build.
            self.0 = unsafe { _mm512_add_ps(self.0, o.0) };
        }

        #[inline(always)]
        fn mul(&mut self, o: &Self) {
            // SAFETY: `avx512f` is enabled for the whole build.
            self.0 = unsafe { _mm512_mul_ps(self.0, o.0) };
        }

        #[inline(always)]
        fn add_lanes(&mut self, o: &Self, lo: usize, hi: usize) {
            let (lo, hi) = (lo.min(16), hi.min(16));
            let mask = ((1u32 << hi) - 1) & !((1u32 << lo) - 1);
            // SAFETY: `avx512f` is enabled for the whole build.
            self.0 = unsafe { _mm512_mask_add_ps(self.0, mask as u16, self.0, o.0) };
        }

        #[inline(always)]
        fn store(&self, dst: &mut [f32]) {
            let dst: &mut [f32; 16] = dst.first_chunk_mut().expect("destination holds every lane");
            // SAFETY: `avx512f` is enabled for the whole build, and `dst`
            // holds the 16 values written.
            unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
    }
}

#[cfg(target_feature = "avx")]
mod avx {
    use super::Vector;
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_and_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_loadu_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setr_ps, _mm256_storeu_ps, _CMP_GE_OQ, _CMP_LT_OQ,
    };

    /// Eight `f32` lanes in one 256-bit register.
    #[derive(Clone, Copy)]
    pub(crate) struct F32x8(__m256);

    impl Vector for F32x8 {
        const LANES: usize = 8;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: `avx` is enabled for the whole build (this module is
            // compiled only then).
            F32x8(unsafe { _mm256_set1_ps(v) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            let src: &[f32; 8] = src.first_chunk().expect("source holds every lane");
            // SAFETY: `avx` is enabled for the whole build, and `src` holds
            // the 8 values read.
            F32x8(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }

        #[inline(always)]
        fn add(&mut self, o: &Self) {
            // SAFETY: `avx` is enabled for the whole build.
            self.0 = unsafe { _mm256_add_ps(self.0, o.0) };
        }

        #[inline(always)]
        fn mul(&mut self, o: &Self) {
            // SAFETY: `avx` is enabled for the whole build.
            self.0 = unsafe { _mm256_mul_ps(self.0, o.0) };
        }

        #[inline(always)]
        fn add_lanes(&mut self, o: &Self, lo: usize, hi: usize) {
            let (lo, hi) = (lo.min(8) as f32, hi.min(8) as f32);
            // SAFETY: `avx` is enabled for the whole build.
            self.0 = unsafe {
                let lane = _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
                let keep = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_GE_OQ>(lane, _mm256_set1_ps(lo)),
                    _mm256_cmp_ps::<_CMP_LT_OQ>(lane, _mm256_set1_ps(hi)),
                );
                _mm256_blendv_ps(self.0, _mm256_add_ps(self.0, o.0), keep)
            };
        }

        #[inline(always)]
        fn store(&self, dst: &mut [f32]) {
            let dst: &mut [f32; 8] = dst.first_chunk_mut().expect("destination holds every lane");
            // SAFETY: `avx` is enabled for the whole build, and `dst` holds
            // the 8 values written.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every op of `V` against its scalar expression, bit for bit, with
    /// non-finite lanes.
    fn matches_scalar<V: Vector>() {
        let n = V::LANES;
        let xs: Vec<f32> = (0..n)
            .map(|l| match l % 7 {
                3 => f32::NAN,
                5 => f32::INFINITY,
                _ => (l as f32 * 0.37).sin(),
            })
            .collect();
        let ys: Vec<f32> = (0..n).map(|l| (l as f32 * 0.11).cos() * 3.0).collect();
        let bits = |v: &V| {
            let mut out = vec![0.0f32; n + 3];
            v.store(&mut out);
            out[..n].iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        };
        let want = |f: &dyn Fn(usize) -> f32| (0..n).map(|l| f(l).to_bits()).collect::<Vec<_>>();
        let x_at = |l: usize| 0.5 + 1.5 * xs[l];
        let y_at = |l: usize| -2.0 + 0.25 * ys[l];
        assert_eq!(bits(&V::load(&xs)), want(&|l| xs[l]));
        let mut x = V::splat(0.5);
        x.add_scaled(1.5, &xs);
        let mut y = V::splat(-2.0);
        y.add_scaled(0.25, &ys);
        assert_eq!(bits(&x), want(&x_at));
        let mut sum = x;
        sum.add(&y);
        assert_eq!(bits(&sum), want(&|l| x_at(l) + y_at(l)));
        let mut product = x;
        product.mul(&y);
        assert_eq!(bits(&product), want(&|l| x_at(l) * y_at(l)));
        for (lo, hi) in [(0, n), (0, 0), (1, n - 1), (n / 2, n), (3, 2), (0, n + 5)] {
            let mut masked = x;
            masked.add_lanes(&y, lo, hi);
            assert_eq!(
                bits(&masked),
                want(&|l| if lo <= l && l < hi {
                    x_at(l) + y_at(l)
                } else {
                    x_at(l)
                }),
                "lanes {lo}..{hi}"
            );
        }
    }

    #[test]
    fn vectors_match_scalar_ops() {
        matches_scalar::<[f32; 1]>();
        matches_scalar::<[f32; 8]>();
        matches_scalar::<Lane>();
        matches_scalar::<Lane8>();
        matches_scalar::<[Lane; 2]>();
        matches_scalar::<[Lane; 8]>();
    }

    #[test]
    fn mul_add_chains_converge() {
        // x ← x/2 + 1 from 0 approaches 2 in every lane of every chain.
        let total = mul_add_chains(64, 0.5, 1.0);
        assert_eq!(total, 2.0 * 16.0 * Lane::LANES as f32);
    }
}
