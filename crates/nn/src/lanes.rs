//! The lane type every tiered kernel is written over: one arithmetic at
//! two speeds.
//!
//! A [`Lane`] is eight `f32` lanes and the operations the kernels run on
//! them. It has two backends:
//!
//! - `__m256` (x86-64), instantiated only inside [`run`]'s
//!   `#[target_feature(enable = "avx2", enable = "fma")]` entry point.
//!   Every generic layer between that entry point and the intrinsics is
//!   `#[inline(always)]`, so a kernel compiles into that one function: an
//!   intrinsic left in a function without the features is a call, and an
//!   FMA there becomes an `fmaf` libcall per lane.
//! - [`F32x8`], a portable `[f32; 8]` whose every operation does what one
//!   AVX lane does: `f32::mul_add` for the fused multiply-adds, the
//!   "second operand on NaN or equal" rule of `minps` and `maxps`,
//!   `floor`, the round-to-nearest-even of `cvtps2dq` (`i32::MIN` for NaN
//!   and out of range), 2ⁿ assembled in the exponent field, and
//!   zero-filled masked lanes.
//!
//! A kernel is a [`Kernel`] whose `run` is generic over the lane type, and
//! [`run`] picks the instantiation from the dispatch tier. The Scalar tier
//! is the portable instantiation of the same source, so every tier
//! computes the same bits. It is the slower one: on x86-64 builds without
//! `+fma` each `f32::mul_add` is an `fmaf` call (on aarch64 it is one
//! instruction).
//!
//! No closure in a generic kernel may call a lane operation: a closure is
//! a function of its own, outside the entry point's target features.

use crate::ops::Act;
use crate::simd::Tier;

/// Eight `f32` lanes and the operations the kernels run on them.
///
/// Every method is `unsafe`: the `__m256` backend needs AVX2 and FMA, and
/// the pointer methods read or write at `p` the lanes they name (all
/// eight, four for a half, the first `w` for the masked forms).
pub(crate) trait Lane: Copy {
    /// Selects the first `w ≤ 8` lanes for the masked loads and stores.
    type Mask: Copy;

    /// Every lane `x`.
    unsafe fn splat(x: f32) -> Self;
    /// Eight floats from `p`.
    unsafe fn load(p: *const f32) -> Self;
    /// The eight lanes to `p`.
    unsafe fn store(self, p: *mut f32);
    /// The mask of the first `w ≤ 8` lanes.
    unsafe fn mask(w: usize) -> Self::Mask;
    /// The lanes `m` selects, from `p`; zero in the rest, which are not read.
    unsafe fn load_masked(p: *const f32, m: Self::Mask) -> Self;
    /// The lanes `m` selects, to `p`; nothing past them is written.
    unsafe fn store_masked(self, p: *mut f32, m: Self::Mask);
    /// Lanes 0–3 from `lo`, lanes 4–7 from `hi`.
    unsafe fn load_halves(lo: *const f32, hi: *const f32) -> Self;
    /// Lanes 0–3 to `p`.
    unsafe fn store_lo(self, p: *mut f32);
    /// Lanes 4–7 to `p`.
    unsafe fn store_hi(self, p: *mut f32);
    /// The 4×4 transpose within each half of four vectors: element `c` of
    /// `x[r]` goes to element `r` of output `c`, per half. Pure data
    /// movement, and its own inverse.
    unsafe fn transpose4(x: [Self; 4]) -> [Self; 4];
    /// `self + b`.
    unsafe fn add(self, b: Self) -> Self;
    /// `self − b`.
    unsafe fn sub(self, b: Self) -> Self;
    /// `self · b`.
    unsafe fn mul(self, b: Self) -> Self;
    /// `self / b`.
    unsafe fn div(self, b: Self) -> Self;
    /// `self · b + c`, rounded once.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// `c − self · b`, rounded once.
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self;
    /// `self < b ? self : b`: `b` when either is NaN or they are equal.
    unsafe fn min(self, b: Self) -> Self;
    /// `self > b ? self : b`: `b` when either is NaN or they are equal.
    unsafe fn max(self, b: Self) -> Self;
    /// Rounds toward −∞.
    unsafe fn floor(self) -> Self;
    /// `2ⁿ` with `n` the lane rounded to the nearest integer, ties to
    /// even (`i32::MIN` for NaN and out of range), assembled in the
    /// exponent field as `(n + 127) << 23`, wrapping.
    unsafe fn exp2i(self) -> Self;

    /// Every lane zero.
    #[inline(always)]
    unsafe fn zero() -> Self {
        Self::splat(0.0)
    }

    /// The first `w ≤ 8` floats from `p`, zero in the other lanes.
    #[inline(always)]
    unsafe fn load_first(p: *const f32, w: usize) -> Self {
        if w == 8 {
            Self::load(p)
        } else {
            Self::load_masked(p, Self::mask(w))
        }
    }

    /// The first `w ≤ 8` lanes to `p`.
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, w: usize) {
        if w == 8 {
            self.store(p)
        } else {
            self.store_masked(p, Self::mask(w))
        }
    }
}

/// The portable backend: eight `f32`s, each operation what one AVX lane
/// does.
///
/// On x86-64, where it is the fallback beside the `__m256` instance, its
/// arithmetic and its masked and shuffling memory operations are not
/// inlined: each kernel instance inlines every lane operation, and
/// inlined, the portable instances were 500 KB of a release binary's
/// text, twice what they are as calls. Their speed is set by the `fmaf`
/// calls either way.
#[derive(Clone, Copy)]
pub(crate) struct F32x8([f32; 8]);

impl F32x8 {
    #[inline(always)]
    fn map(self, f: impl Fn(f32) -> f32) -> Self {
        F32x8(self.0.map(f))
    }

    #[inline(always)]
    fn zip(self, b: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        F32x8(std::array::from_fn(|i| f(self.0[i], b.0[i])))
    }
}

impl Lane for F32x8 {
    type Mask = usize;

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        F32x8([x; 8])
    }

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x8(p.cast::<[f32; 8]>().read_unaligned())
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 8]>().write_unaligned(self.0)
    }

    #[inline(always)]
    unsafe fn mask(w: usize) -> usize {
        w
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn load_masked(p: *const f32, w: usize) -> Self {
        F32x8(std::array::from_fn(|i| if i < w { *p.add(i) } else { 0.0 }))
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn store_masked(self, p: *mut f32, w: usize) {
        for (i, &x) in self.0.iter().enumerate().take(w) {
            *p.add(i) = x;
        }
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn load_halves(lo: *const f32, hi: *const f32) -> Self {
        F32x8(std::array::from_fn(|i| {
            if i < 4 {
                *lo.add(i)
            } else {
                *hi.add(i - 4)
            }
        }))
    }

    #[inline(always)]
    unsafe fn store_lo(self, p: *mut f32) {
        p.cast::<[f32; 4]>()
            .write_unaligned([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    #[inline(always)]
    unsafe fn store_hi(self, p: *mut f32) {
        p.cast::<[f32; 4]>()
            .write_unaligned([self.0[4], self.0[5], self.0[6], self.0[7]])
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn transpose4(x: [Self; 4]) -> [Self; 4] {
        std::array::from_fn(|c| F32x8(std::array::from_fn(|e| x[e % 4].0[e / 4 * 4 + c])))
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn add(self, b: Self) -> Self {
        self.zip(b, |x, y| x + y)
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn sub(self, b: Self) -> Self {
        self.zip(b, |x, y| x - y)
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn mul(self, b: Self) -> Self {
        self.zip(b, |x, y| x * y)
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn div(self, b: Self) -> Self {
        self.zip(b, |x, y| x / y)
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        F32x8(std::array::from_fn(|i| self.0[i].mul_add(b.0[i], c.0[i])))
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
        F32x8(std::array::from_fn(|i| {
            (-self.0[i]).mul_add(b.0[i], c.0[i])
        }))
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn min(self, b: Self) -> Self {
        self.zip(b, |x, y| if x < y { x } else { y })
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn max(self, b: Self) -> Self {
        self.zip(b, |x, y| if x > y { x } else { y })
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn floor(self) -> Self {
        self.map(f32::floor)
    }

    #[cfg_attr(target_arch = "x86_64", inline(never))]
    unsafe fn exp2i(self) -> Self {
        self.map(|x| {
            let n = if (-2_147_483_648.0..2_147_483_648.0).contains(&x) {
                x.round_ties_even() as i32
            } else {
                i32::MIN
            };
            f32::from_bits((n.wrapping_add(0x7f) as u32) << 23)
        })
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Lane;
    use std::arch::x86_64::*;

    impl Lane for __m256 {
        type Mask = __m256i;

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }

        #[inline(always)]
        unsafe fn mask(w: usize) -> __m256i {
            _mm256_cmpgt_epi32(
                _mm256_set1_epi32(w as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            )
        }

        #[inline(always)]
        unsafe fn load_masked(p: *const f32, m: __m256i) -> Self {
            _mm256_maskload_ps(p, m)
        }

        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, m: __m256i) {
            _mm256_maskstore_ps(p, m, self)
        }

        #[inline(always)]
        unsafe fn load_halves(lo: *const f32, hi: *const f32) -> Self {
            _mm256_loadu2_m128(hi, lo)
        }

        #[inline(always)]
        unsafe fn store_lo(self, p: *mut f32) {
            _mm_storeu_ps(p, _mm256_castps256_ps128(self))
        }

        #[inline(always)]
        unsafe fn store_hi(self, p: *mut f32) {
            _mm_storeu_ps(p, _mm256_extractf128_ps::<1>(self))
        }

        #[inline(always)]
        unsafe fn transpose4(x: [Self; 4]) -> [Self; 4] {
            let (t0, t1) = (
                _mm256_unpacklo_ps(x[0], x[1]),
                _mm256_unpacklo_ps(x[2], x[3]),
            );
            let (t2, t3) = (
                _mm256_unpackhi_ps(x[0], x[1]),
                _mm256_unpackhi_ps(x[2], x[3]),
            );
            [
                _mm256_shuffle_ps::<0x44>(t0, t1),
                _mm256_shuffle_ps::<0xEE>(t0, t1),
                _mm256_shuffle_ps::<0x44>(t2, t3),
                _mm256_shuffle_ps::<0xEE>(t2, t3),
            ]
        }

        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_ps(self, b)
        }

        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm256_sub_ps(self, b)
        }

        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_ps(self, b)
        }

        #[inline(always)]
        unsafe fn div(self, b: Self) -> Self {
            _mm256_div_ps(self, b)
        }

        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(self, b, c)
        }

        #[inline(always)]
        unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
            _mm256_fnmadd_ps(self, b, c)
        }

        #[inline(always)]
        unsafe fn min(self, b: Self) -> Self {
            _mm256_min_ps(self, b)
        }

        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm256_max_ps(self, b)
        }

        #[inline(always)]
        unsafe fn floor(self) -> Self {
            _mm256_floor_ps(self)
        }

        #[inline(always)]
        unsafe fn exp2i(self) -> Self {
            let n = _mm256_add_epi32(_mm256_cvtps_epi32(self), _mm256_set1_epi32(0x7f));
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(n))
        }
    }
}

/// A kernel written once over the lane type.
pub(crate) trait Kernel {
    /// What the kernel returns.
    type Out;

    /// Runs the kernel on lanes of type `L`.
    ///
    /// # Safety
    ///
    /// The CPU supports `L`'s operations (see [`Lane`]).
    unsafe fn run<L: Lane>(self) -> Self::Out;
}

/// Runs `k` on the lanes of `tier`: `__m256` on [`Tier::Avx2Fma`],
/// [`F32x8`] on [`Tier::Scalar`]. Both compute the same bits.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn run<K: Kernel>(tier: Tier, k: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2Fma && crate::simd::avx2_available() {
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn avx2<K: Kernel>(k: K) -> K::Out {
            k.run::<std::arch::x86_64::__m256>()
        }
        // Safety: AVX2 and FMA were detected at run time.
        return unsafe { avx2(k) };
    }
    // Safety: the portable lanes need no CPU feature.
    unsafe { k.run::<F32x8>() }
}

/// The elementwise functions of the unary ops and the matmul epilogue.
/// The first three share [`Act`]'s codes, so a kernel instantiated with an
/// `Act as u8` runs the same function; any other code, `Act::Identity`'s
/// among them, is the identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Fun {
    Relu = Act::Relu as u8,
    Gelu = Act::Gelu as u8,
    Silu = Act::Silu as u8,
    Tanh,
    Sigmoid,
    Exp,
}

/// `f(x)` for the [`Fun`] of code `F`, fixed at compile time.
#[inline(always)]
pub(crate) unsafe fn apply<L: Lane, const F: u8>(x: L) -> L {
    if F == Fun::Relu as u8 {
        // The second operand wins on NaN, as in `f32::max(x, 0.0)`.
        x.max(L::zero())
    } else if F == Fun::Gelu as u8 {
        gelu(x)
    } else if F == Fun::Silu as u8 {
        silu(x)
    } else if F == Fun::Tanh as u8 {
        tanh(x)
    } else if F == Fun::Sigmoid as u8 {
        sigmoid(x)
    } else if F == Fun::Exp as u8 {
        exp(x)
    } else {
        x
    }
}

/// `exp` (Cephes-style degree-5 polynomial with split-constant range
/// reduction, ~1 ulp over the clamped range). NaN propagates: the clamp
/// keeps the input in the operand `min` and `max` return on NaN. Inputs
/// beyond ±88.38 saturate instead of overflowing, and results below the
/// normal range flush to zero in the 2ⁿ reconstruction.
#[inline(always)]
pub(crate) unsafe fn exp<L: Lane>(x: L) -> L {
    let x = L::splat(88.376_26).min(L::splat(-88.376_26).max(x));
    // n = floor(x·log2e + ½); r = x − n·ln2 via a hi/lo constant split.
    let n = x
        .fmadd(L::splat(std::f32::consts::LOG2_E), L::splat(0.5))
        .floor();
    let r = n.fnmadd(L::splat(0.693_359_4), x);
    let r = n.fnmadd(L::splat(-2.121_944_4e-4), r);
    let mut y = L::splat(1.987_569_1e-4);
    y = y.fmadd(r, L::splat(1.398_199_9e-3));
    y = y.fmadd(r, L::splat(8.333_452e-3));
    y = y.fmadd(r, L::splat(4.166_579_6e-2));
    y = y.fmadd(r, L::splat(1.666_666_5e-1));
    y = y.fmadd(r, L::splat(5.000_000_3e-1));
    y = y.fmadd(r.mul(r), r);
    y = y.add(L::splat(1.0));
    y.mul(n.exp2i())
}

/// `tanh` as `(e − 1)/(e + 1)` with `e = exp(2x)`: saturates for large
/// |x|; for |x| ≲ 1e-4 cancellation costs relative (not absolute)
/// accuracy.
#[inline(always)]
pub(crate) unsafe fn tanh<L: Lane>(x: L) -> L {
    let one = L::splat(1.0);
    let e = exp(x.add(x));
    e.sub(one).div(e.add(one))
}

/// The logistic sigmoid `1/(1 + exp(−x))`.
#[inline(always)]
pub(crate) unsafe fn sigmoid<L: Lane>(x: L) -> L {
    let one = L::splat(1.0);
    one.div(one.add(exp(L::zero().sub(x))))
}

/// SiLU `x·sigmoid(x)`, as `x/(1 + exp(−x))`.
#[inline(always)]
pub(crate) unsafe fn silu<L: Lane>(x: L) -> L {
    x.div(L::splat(1.0).add(exp(L::zero().sub(x))))
}

/// √(2/π), GELU's tanh-approximation constant.
const GELU_C: f32 = 0.797_884_6;
/// GELU's cubic coefficient.
const GELU_A: f32 = 0.044715;

/// GELU, tanh approximation: `½x·(1 + tanh(√(2/π)(x + 0.044715x³)))`.
#[inline(always)]
pub(crate) unsafe fn gelu<L: Lane>(x: L) -> L {
    let x3 = x.mul(x).mul(x);
    let t = tanh(L::splat(GELU_C).mul(L::splat(GELU_A).fmadd(x3, x)));
    L::splat(0.5).mul(x).mul(L::splat(1.0).add(t))
}

/// `f'(x)·go` for the [`Fun`] of code `F`. tanh and sigmoid read their
/// derivative off the output `y`; GELU and SiLU recompute it from `x`.
#[inline(always)]
unsafe fn grad<L: Lane, const F: u8>(x: L, y: L, go: L) -> L {
    let one = L::splat(1.0);
    if F == Fun::Tanh as u8 {
        y.fnmadd(y, one).mul(go)
    } else if F == Fun::Sigmoid as u8 {
        y.mul(one.sub(y)).mul(go)
    } else if F == Fun::Silu as u8 {
        let s = sigmoid(x);
        s.mul(x.fmadd(one.sub(s), one)).mul(go)
    } else if F == Fun::Gelu as u8 {
        // ½(1 + t) + ½x·(1 − t²)·√(2/π)(1 + 3·0.044715x²).
        let x2 = x.mul(x);
        let t = tanh(L::splat(GELU_C).mul(L::splat(GELU_A).fmadd(x2.mul(x), x)));
        let dinner = L::splat(GELU_C).mul(L::splat(3.0 * GELU_A).fmadd(x2, one));
        let slope = x.mul(t.fnmadd(t, one)).mul(dinner);
        L::splat(0.5).mul(one.add(t).add(slope)).mul(go)
    } else {
        unreachable!("no lane derivative for function {F}")
    }
}

/// `v[i] = f(v[i])` in place. A tail shorter than eight runs in
/// zero-filled lanes, so every element sees the same arithmetic wherever
/// it sits.
pub(crate) struct Map<'a>(pub Fun, pub &'a mut [f32]);

impl Kernel for Map<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(self) {
        #[inline(always)]
        unsafe fn each<L: Lane, const F: u8>(v: &mut [f32]) {
            let (n, p) = (v.len(), v.as_mut_ptr());
            for o in (0..n).step_by(8) {
                let w = 8.min(n - o);
                apply::<L, F>(L::load_first(p.add(o), w)).store_first(p.add(o), w);
            }
        }
        let Map(f, v) = self;
        match f {
            Fun::Relu => each::<L, { Fun::Relu as u8 }>(v),
            Fun::Gelu => each::<L, { Fun::Gelu as u8 }>(v),
            Fun::Silu => each::<L, { Fun::Silu as u8 }>(v),
            Fun::Tanh => each::<L, { Fun::Tanh as u8 }>(v),
            Fun::Sigmoid => each::<L, { Fun::Sigmoid as u8 }>(v),
            Fun::Exp => each::<L, { Fun::Exp as u8 }>(v),
        }
    }
}

/// `g = f'(x) ⊙ gout` for tanh, sigmoid, SiLU or GELU, given the input `x`
/// and the forward's output `y`, all of one length; the tail as in
/// [`Map`].
pub(crate) struct MapGrad<'a> {
    pub f: Fun,
    pub x: &'a [f32],
    pub y: &'a [f32],
    pub gout: &'a [f32],
    pub g: &'a mut [f32],
}

impl Kernel for MapGrad<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(self) {
        #[inline(always)]
        unsafe fn each<L: Lane, const F: u8>(x: &[f32], y: &[f32], gout: &[f32], g: &mut [f32]) {
            let n = g.len();
            // The loop reads all three through raw pointers.
            assert!(
                x.len() == n && y.len() == n && gout.len() == n,
                "lane derivative: lengths differ"
            );
            let [x, y, gout] = [x, y, gout].map(<[f32]>::as_ptr);
            for o in (0..n).step_by(8) {
                let w = 8.min(n - o);
                let [xv, yv, gv] = [
                    L::load_first(x.add(o), w),
                    L::load_first(y.add(o), w),
                    L::load_first(gout.add(o), w),
                ];
                grad::<L, F>(xv, yv, gv).store_first(g.as_mut_ptr().add(o), w);
            }
        }
        let MapGrad { f, x, y, gout, g } = self;
        match f {
            Fun::Tanh => each::<L, { Fun::Tanh as u8 }>(x, y, gout, g),
            Fun::Sigmoid => each::<L, { Fun::Sigmoid as u8 }>(x, y, gout, g),
            Fun::Silu => each::<L, { Fun::Silu as u8 }>(x, y, gout, g),
            Fun::Gelu => each::<L, { Fun::Gelu as u8 }>(x, y, gout, g),
            _ => unreachable!("no lane derivative for {f:?}"),
        }
    }
}

/// The gated activation `out = tanh(f)·σ(g)` over rows of `[f ‖ g]`, `d`
/// wide each: `src` holds rows of `2d`, `out` rows of `d`. Per element
/// this is [`tanh`] and [`sigmoid`] and one multiply; a row's tail runs in
/// zero-filled lanes.
pub(crate) struct GatedTanh<'a> {
    pub src: &'a [f32],
    pub out: &'a mut [f32],
    pub d: usize,
}

impl Kernel for GatedTanh<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(self) {
        let GatedTanh { src, out, d } = self;
        assert!(d > 0 && src.len() == 2 * out.len() && out.len().is_multiple_of(d));
        for (row, orow) in src.chunks_exact(2 * d).zip(out.chunks_exact_mut(d)) {
            for j in (0..d).step_by(8) {
                let w = 8.min(d - j);
                let t = tanh(L::load_first(row.as_ptr().add(j), w));
                let s = sigmoid(L::load_first(row.as_ptr().add(d + j), w));
                t.mul(s).store_first(orow.as_mut_ptr().add(j), w);
            }
        }
    }
}

/// The backward of [`GatedTanh`]: from `src` and the output gradient
/// `gout` (rows of `d`), writes `g` (rows of `2d`) with the filter half
/// `(1 − t²)·(σ·go)` and the gate half `σ(1 − σ)·(t·go)`, `t` and `σ`
/// recomputed with the forward's arithmetic: the tanh and sigmoid
/// derivatives of [`MapGrad`] on the products the multiply's backward
/// forms.
pub(crate) struct GatedTanhGrad<'a> {
    pub src: &'a [f32],
    pub gout: &'a [f32],
    pub g: &'a mut [f32],
    pub d: usize,
}

impl Kernel for GatedTanhGrad<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(self) {
        const TANH: u8 = Fun::Tanh as u8;
        const SIGMOID: u8 = Fun::Sigmoid as u8;
        let GatedTanhGrad { src, gout, g, d } = self;
        assert!(d > 0 && src.len() == 2 * gout.len() && g.len() == src.len());
        assert!(gout.len().is_multiple_of(d));
        let rows = src
            .chunks_exact(2 * d)
            .zip(gout.chunks_exact(d))
            .zip(g.chunks_exact_mut(2 * d));
        for ((row, grow), drow) in rows {
            for j in (0..d).step_by(8) {
                let w = 8.min(d - j);
                let t = tanh(L::load_first(row.as_ptr().add(j), w));
                let s = sigmoid(L::load_first(row.as_ptr().add(d + j), w));
                let go = L::load_first(grow.as_ptr().add(j), w);
                let unused = L::zero();
                grad::<L, TANH>(unused, t, s.mul(go)).store_first(drow.as_mut_ptr().add(j), w);
                grad::<L, SIGMOID>(unused, s, t.mul(go))
                    .store_first(drow.as_mut_ptr().add(d + j), w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::avx2_available;

    fn tiers() -> Vec<Tier> {
        let mut t = vec![Tier::Scalar];
        if avx2_available() {
            t.push(Tier::Avx2Fma);
        }
        t
    }

    /// Bit equality with any NaN equal to any NaN.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(
                same,
                "{what}: element {i} of {}: {g:e} ({:#x}) vs {w:e} ({:#x})",
                got.len(),
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Special values, every power-of-two neighbourhood, the exp clamp
    /// and saturation edges, denormals, and pseudo-random bit patterns;
    /// 1003 of them, so the last block has a tail.
    fn edge_inputs() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-45,
            -1e-45,
            1e-40,
            -3e-39,
            f32::MAX,
            f32::MIN,
            88.376_26,
            -88.376_26,
            88.4,
            -88.4,
            87.3,
            -87.3,
            44.2,
            -44.2,
            9.0,
            -9.0,
            0.5,
            -0.5,
            1e-4,
            -1e-4,
        ];
        v.extend((-40..=40).map(|e| 2f32.powi(e) * 1.3));
        let mut state = 0x2545_f491_4f6c_dd1du64;
        while v.len() < 1003 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = f32::from_bits((state >> 32) as u32);
            // Half raw bit patterns, half in the range the kernels see.
            v.push(if v.len() % 2 == 0 {
                x
            } else {
                (state >> 40) as f32 / 1e6 - 8.0
            });
        }
        v
    }

    #[test]
    fn every_function_has_one_set_of_bits() {
        if !avx2_available() {
            return;
        }
        let xs = edge_inputs();
        let gout: Vec<f32> = xs
            .iter()
            .rev()
            .map(|&x| if x.is_finite() { x } else { 0.75 })
            .collect();
        let funs = [
            Fun::Relu,
            Fun::Gelu,
            Fun::Silu,
            Fun::Tanh,
            Fun::Sigmoid,
            Fun::Exp,
        ];
        let forward = |tier, f| {
            let mut v = xs.clone();
            run(tier, Map(f, &mut v));
            v
        };
        for f in funs {
            let y = forward(Tier::Scalar, f);
            assert_same(&y, &forward(Tier::Avx2Fma, f), &format!("{f:?}"));
            if matches!(f, Fun::Gelu | Fun::Silu | Fun::Tanh | Fun::Sigmoid) {
                let backward = |tier| {
                    let mut g = vec![0.0; xs.len()];
                    run(
                        tier,
                        MapGrad {
                            f,
                            x: &xs,
                            y: &y,
                            gout: &gout,
                            g: &mut g,
                        },
                    );
                    g
                };
                assert_same(
                    &backward(Tier::Scalar),
                    &backward(Tier::Avx2Fma),
                    &format!("d{f:?}"),
                );
            }
        }
        for d in [1usize, 3, 8, 13] {
            let src = &xs[..xs.len() / (2 * d) * 2 * d];
            let gated = |tier| {
                let mut out = vec![0.0; src.len() / 2];
                run(
                    tier,
                    GatedTanh {
                        src,
                        out: &mut out,
                        d,
                    },
                );
                let mut g = vec![0.0; src.len()];
                run(
                    tier,
                    GatedTanhGrad {
                        src,
                        gout: &gout[..out.len()],
                        g: &mut g,
                        d,
                    },
                );
                (out, g)
            };
            let (want, got) = (gated(Tier::Scalar), gated(Tier::Avx2Fma));
            assert_same(&want.0, &got.0, &format!("gated_tanh d={d}"));
            assert_same(&want.1, &got.1, &format!("gated_tanh backward d={d}"));
        }
    }

    /// Every lane operation, on both backends, over all pairs of edge
    /// inputs: the kernels can only agree if each operation does.
    #[test]
    fn every_lane_operation_has_one_set_of_bits() {
        if !avx2_available() {
            return;
        }
        struct Ops<'a>(&'a [f32], &'a [f32], &'a [f32]);
        impl Kernel for Ops<'_> {
            type Out = Vec<Vec<f32>>;
            #[inline(always)]
            unsafe fn run<L: Lane>(self) -> Vec<Vec<f32>> {
                let Ops(a, b, c) = self;
                let mut out = vec![vec![0.0f32; a.len()]; 13];
                for o in (0..a.len()).step_by(8) {
                    let w = 8.min(a.len() - o);
                    let [x, y, z] = [
                        L::load_first(a.as_ptr().add(o), w),
                        L::load_first(b.as_ptr().add(o), w),
                        L::load_first(c.as_ptr().add(o), w),
                    ];
                    let h = L::load_halves(a.as_ptr().add(o), b.as_ptr().add(o));
                    let t = L::transpose4([x, y, z, h]);
                    let r = [
                        x.add(y),
                        x.sub(y),
                        x.mul(y),
                        x.div(y),
                        x.fmadd(y, z),
                        x.fnmadd(y, z),
                        x.min(y),
                        x.max(y),
                        x.floor(),
                        x.exp2i(),
                        t[0],
                        t[1],
                        t[3],
                    ];
                    for (v, r) in out.iter_mut().zip(r) {
                        r.store_first(v.as_mut_ptr().add(o), w);
                    }
                }
                out
            }
        }
        let xs = edge_inputs();
        let n = xs.len();
        let a: Vec<f32> = (0..n * 64).map(|i| xs[i % n]).collect();
        let b: Vec<f32> = (0..n * 64).map(|i| xs[(i / n * 17 + i) % n]).collect();
        let c: Vec<f32> = (0..n * 64).map(|i| xs[(i * 31 + 7) % n]).collect();
        let (want, got) = (
            run(Tier::Scalar, Ops(&a, &b, &c)),
            run(Tier::Avx2Fma, Ops(&a, &b, &c)),
        );
        let names = [
            "add", "sub", "mul", "div", "fmadd", "fnmadd", "min", "max", "floor", "exp2i", "t0",
            "t1", "t3",
        ];
        for ((w, g), name) in want.iter().zip(&got).zip(names) {
            // min, max and the data movement keep NaN payloads too.
            if matches!(name, "min" | "max" | "t0" | "t1" | "t3" | "exp2i") {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(w), bits(g), "{name}");
            } else {
                assert_same(g, w, name);
            }
        }
    }

    #[test]
    fn exp_family_matches_libm() {
        // Spans denormal-adjacent, moderate, and clamp-boundary inputs,
        // plus a non-multiple-of-8 length to exercise the padded tail.
        let xs: Vec<f32> = (-43..=43).map(|i| i as f32 * 2.07).collect();
        for tier in tiers() {
            let map = |f| {
                let mut v = xs.clone();
                run(tier, Map(f, &mut v));
                v
            };
            for (&x, &got) in xs.iter().zip(&map(Fun::Exp)) {
                let want = x.exp();
                if want.is_infinite() {
                    // The input clamp saturates overflow at exp(88.376) ≈
                    // 2.4e38 instead of producing inf.
                    assert!(got >= 2.0e38, "exp({x}) saturated to {got}");
                } else if want < f32::MIN_POSITIVE {
                    // Denormal results flush to zero in the 2^n
                    // reconstruction.
                    assert!(got.abs() <= f32::MIN_POSITIVE, "exp({x}) gave {got}");
                } else {
                    let tol = 2e-6 * want.abs().max(f32::MIN_POSITIVE);
                    assert!((got - want).abs() <= tol, "exp({x}): {got} vs {want}");
                }
            }
            let (vs, vt) = (map(Fun::Sigmoid), map(Fun::Tanh));
            let (vw, vg) = (map(Fun::Silu), map(Fun::Gelu));
            for (i, &x) in xs.iter().enumerate() {
                let sig = 1.0 / (1.0 + (-x).exp());
                assert!(
                    (vs[i] - sig).abs() <= 2e-6,
                    "sigmoid({x}): {} vs {sig}",
                    vs[i]
                );
                assert!(
                    (vt[i] - x.tanh()).abs() <= 2e-6,
                    "tanh({x}): {} vs {}",
                    vt[i],
                    x.tanh()
                );
                let rel = (vw[i] - x * sig).abs() / (x * sig).abs().max(1.0);
                assert!(rel <= 2e-6, "silu({x}): {} vs {}", vw[i], x * sig);
                let gelu = 0.5 * x * (1.0 + (GELU_C * (x + GELU_A * x * x * x)).tanh());
                let rel = (vg[i] - gelu).abs() / gelu.abs().max(1.0);
                assert!(rel <= 2e-6, "gelu({x}): {} vs {gelu}", vg[i]);
            }
        }
    }

    #[test]
    fn derivatives_match_libm() {
        // 87 inputs: ten full blocks and a padded tail.
        let xs: Vec<f32> = (-43..=43).map(|i| i as f32 * 0.11).collect();
        let gout: Vec<f32> = (0..xs.len()).map(|i| 1.0 - (i % 5) as f32 * 0.4).collect();
        let sig = |x: f32| 1.0 / (1.0 + (-x).exp());
        let ys: Vec<f32> = xs.iter().map(|&x| sig(x)).collect();
        let yt: Vec<f32> = xs.iter().map(|&x| x.tanh()).collect();
        for tier in tiers() {
            let run = |f, y: &[f32]| {
                let mut g = vec![0.0f32; xs.len()];
                run(
                    tier,
                    MapGrad {
                        f,
                        x: &xs,
                        y,
                        gout: &gout,
                        g: &mut g,
                    },
                );
                g
            };
            let (gs, gt) = (run(Fun::Sigmoid, &ys), run(Fun::Tanh, &yt));
            let (gw, gg) = (run(Fun::Silu, &xs), run(Fun::Gelu, &xs));
            for (i, &x) in xs.iter().enumerate() {
                let s = sig(x);
                let t = (GELU_C * (x + GELU_A * x * x * x)).tanh();
                let dgelu = 0.5 * (1.0 + t)
                    + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x);
                let want = [
                    ("sigmoid", gs[i], s * (1.0 - s)),
                    ("tanh", gt[i], 1.0 - x.tanh() * x.tanh()),
                    ("silu", gw[i], s + x * s * (1.0 - s)),
                    ("gelu", gg[i], dgelu),
                ];
                for (name, got, d) in want {
                    let d = d * gout[i];
                    assert!(
                        (got - d).abs() <= 4e-6 * d.abs().max(1.0),
                        "d{name}({x}): {got} vs {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn exp_propagates_nan() {
        for tier in tiers() {
            let mut v = vec![0.0f32, f32::NAN, 1.0];
            run(tier, Map(Fun::Exp, &mut v));
            assert_eq!(v[0], 1.0);
            assert!(v[1].is_nan());
            assert!((v[2] - 1.0f32.exp()).abs() <= 1e-6);
        }
    }
}
