//! An 8-lane `f32` vector abstraction: the one SIMD layer under the training
//! tape's products ([`crate::kernels`]) and the fused inference kernels of
//! `tabbin-core`.
//!
//! [`Lanes`] has two implementations: [`Scalar`] (`[f32; 8]`, plain Rust)
//! and, where AVX2+FMA are statically enabled, an `__m256` wrapper.
//! [`Native`] names the one a build runs. Each lane operation is a single
//! correctly-rounded IEEE operation in both, and horizontal reductions go
//! through one fixed tree, so a kernel instantiated with `Scalar` is the
//! lane-for-lane twin of the same kernel instantiated with `Native`; the
//! differential suites (`prop_tape`, `prop_kernels`) pin them bit for bit.
//! `unsafe` is confined to the `__m256` implementation of the trait.

/// Width of a [`Lanes`] vector.
pub const LANES: usize = 8;

/// Eight `f32` lanes with the operations the kernels need.
pub trait Lanes: Copy {
    /// All lanes `v`.
    fn splat(v: f32) -> Self;
    /// Loads eight consecutive floats.
    fn load(src: &[f32; LANES]) -> Self;
    /// Stores eight consecutive floats.
    fn store(self, dst: &mut [f32; LANES]);
    /// Lane-wise `self + o`.
    fn add(self, o: Self) -> Self;
    /// Lane-wise `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `self * o`.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise `self / o`.
    fn div(self, o: Self) -> Self;
    /// Lane-wise `self * a + b`, fused where the target has the instruction.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lane-wise `if self > o { self } else { o }` (so a NaN lane yields `o`).
    fn max(self, o: Self) -> Self;
    /// Lane-wise `if self < o { self } else { o }` (so a NaN lane yields `o`).
    fn min(self, o: Self) -> Self;
    /// Lane-wise round toward negative infinity.
    fn floor(self) -> Self;
    /// Lane-wise `2^self` for integral lanes in `[-126, 127]`.
    fn exp2i(self) -> Self;
    /// Lane-wise `if self > o { v } else { 0.0 }`.
    fn gt_then(self, o: Self, v: Self) -> Self;
    /// Lane-wise `if self != o { v } else { 0.0 }` (so a NaN lane yields `v`).
    fn ne_then(self, o: Self, v: Self) -> Self;
    /// The 8×8 transpose: lane `l` of output `i` is lane `i` of input `l`.
    fn transpose(rows: [Self; LANES]) -> [Self; LANES];
    /// The lanes as an array.
    fn to_array(self) -> [f32; LANES] {
        let mut a = [0.0; LANES];
        self.store(&mut a);
        a
    }
}

/// The portable implementation: the `cfg(not(avx2))` path and the oracle the
/// differential tests compare [`Native`] against.
#[derive(Clone, Copy)]
pub struct Scalar([f32; LANES]);

/// `a * b + c`, fused exactly when the hardware instruction is statically
/// there: the twin of the AVX2 path where that exists, and never a libm
/// `fmaf` call where it does not.
#[inline(always)]
pub fn fused(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

impl Scalar {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Scalar(std::array::from_fn(|l| f(self.0[l], o.0[l])))
    }
}

impl Lanes for Scalar {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        Scalar([v; LANES])
    }
    #[inline(always)]
    fn load(src: &[f32; LANES]) -> Self {
        Scalar(*src)
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32; LANES]) {
        *dst = self.0;
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Scalar(std::array::from_fn(|l| fused(self.0[l], a.0[l], b.0[l])))
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.zip(o, |a, b| if a > b { a } else { b })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        self.zip(o, |a, b| if a < b { a } else { b })
    }
    #[inline(always)]
    fn floor(self) -> Self {
        Scalar(self.0.map(f32::floor))
    }
    #[inline(always)]
    fn exp2i(self) -> Self {
        Scalar(self.0.map(|z| f32::from_bits(((z as i32 + 127) << 23) as u32)))
    }
    #[inline(always)]
    fn gt_then(self, o: Self, v: Self) -> Self {
        Scalar(std::array::from_fn(|l| if self.0[l] > o.0[l] { v.0[l] } else { 0.0 }))
    }
    #[inline(always)]
    fn ne_then(self, o: Self, v: Self) -> Self {
        Scalar(std::array::from_fn(|l| if self.0[l] != o.0[l] { v.0[l] } else { 0.0 }))
    }
    #[inline(always)]
    fn transpose(rows: [Self; LANES]) -> [Self; LANES] {
        std::array::from_fn(|i| Scalar(std::array::from_fn(|l| rows[l].0[i])))
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
mod avx2 {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    /// `__m256` lanes. The type only exists when AVX2 and FMA are enabled
    /// for the whole compilation (the `cfg` on this module), which is the
    /// one requirement of every intrinsic below.
    #[derive(Clone, Copy)]
    pub struct Avx2(__m256);

    // SAFETY (every `unsafe` block in this impl): the intrinsics need the
    // `avx`, `avx2` and `fma` target features, which the module's `cfg`
    // guarantees are on for all code in this build; loads and stores go
    // through references to exactly eight floats, unaligned forms.
    impl Lanes for Avx2 {
        #[inline(always)]
        fn splat(v: f32) -> Self {
            unsafe { Avx2(_mm256_set1_ps(v)) }
        }
        #[inline(always)]
        fn load(src: &[f32; LANES]) -> Self {
            unsafe { Avx2(_mm256_loadu_ps(src.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, dst: &mut [f32; LANES]) {
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_add_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_sub_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_mul_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_div_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn mul_add(self, a: Self, b: Self) -> Self {
            unsafe { Avx2(_mm256_fmadd_ps(self.0, a.0, b.0)) }
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_max_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn min(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_min_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn floor(self) -> Self {
            unsafe { Avx2(_mm256_floor_ps(self.0)) }
        }
        #[inline(always)]
        fn exp2i(self) -> Self {
            unsafe {
                let biased = _mm256_add_epi32(_mm256_cvttps_epi32(self.0), _mm256_set1_epi32(127));
                Avx2(_mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased)))
            }
        }
        #[inline(always)]
        fn gt_then(self, o: Self, v: Self) -> Self {
            unsafe { Avx2(_mm256_and_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(self.0, o.0), v.0)) }
        }
        #[inline(always)]
        fn ne_then(self, o: Self, v: Self) -> Self {
            unsafe { Avx2(_mm256_and_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, o.0), v.0)) }
        }
        #[inline(always)]
        fn transpose(rows: [Self; LANES]) -> [Self; LANES] {
            let r = rows.map(|v| v.0);
            unsafe {
                // Interleave pairs of rows, then pairs of pairs within each
                // 128-bit half, then swap the halves.
                let t = [
                    _mm256_unpacklo_ps(r[0], r[1]),
                    _mm256_unpackhi_ps(r[0], r[1]),
                    _mm256_unpacklo_ps(r[2], r[3]),
                    _mm256_unpackhi_ps(r[2], r[3]),
                    _mm256_unpacklo_ps(r[4], r[5]),
                    _mm256_unpackhi_ps(r[4], r[5]),
                    _mm256_unpacklo_ps(r[6], r[7]),
                    _mm256_unpackhi_ps(r[6], r[7]),
                ];
                let s = [
                    _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                    _mm256_shuffle_ps::<0xee>(t[0], t[2]),
                    _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                    _mm256_shuffle_ps::<0xee>(t[1], t[3]),
                    _mm256_shuffle_ps::<0x44>(t[4], t[6]),
                    _mm256_shuffle_ps::<0xee>(t[4], t[6]),
                    _mm256_shuffle_ps::<0x44>(t[5], t[7]),
                    _mm256_shuffle_ps::<0xee>(t[5], t[7]),
                ];
                [
                    Avx2(_mm256_permute2f128_ps::<0x20>(s[0], s[4])),
                    Avx2(_mm256_permute2f128_ps::<0x20>(s[1], s[5])),
                    Avx2(_mm256_permute2f128_ps::<0x20>(s[2], s[6])),
                    Avx2(_mm256_permute2f128_ps::<0x20>(s[3], s[7])),
                    Avx2(_mm256_permute2f128_ps::<0x31>(s[0], s[4])),
                    Avx2(_mm256_permute2f128_ps::<0x31>(s[1], s[5])),
                    Avx2(_mm256_permute2f128_ps::<0x31>(s[2], s[6])),
                    Avx2(_mm256_permute2f128_ps::<0x31>(s[3], s[7])),
                ]
            }
        }
    }
}

/// The lanes a build runs: AVX2 where it is statically enabled
/// (`-C target-cpu=native` on any recent x86-64), [`Scalar`] elsewhere.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
pub type Native = avx2::Avx2;
/// The lanes a build runs: AVX2 where it is statically enabled
/// (`-C target-cpu=native` on any recent x86-64), [`Scalar`] elsewhere.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
pub type Native = Scalar;

/// Horizontal sum through a fixed tree, so every [`Lanes`] agrees on it.
#[inline(always)]
pub fn hsum<V: Lanes>(v: V) -> f32 {
    let a = v.to_array();
    ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]))
}

/// Horizontal maximum (NaN-free input).
#[inline(always)]
pub fn hmax<V: Lanes>(v: V) -> f32 {
    v.to_array().into_iter().fold(f32::NEG_INFINITY, f32::max)
}
