//! Runtime-dispatched SIMD microkernels (x86-64 AVX2/FMA).
//!
//! Dispatch tiers, highest first:
//!
//! 1. **Avx2Fma** — explicit `std::arch` f32x8 register-tiled kernels
//!    (micro-tiles of up to 16 columns and 6 or 8 rows, FMA accumulation
//!    in registers over the full reduction dimension).
//! 2. **Scalar** — the cache-blocked scalar kernels in `ops::matmul`,
//!    always available.
//!
//! The tier is detected once per process via `is_x86_feature_detected!`
//! and can be forced down with `IMDIFF_SIMD=0` (A/B testing, debugging)
//! or overridden per scope with [`with_tier`] (tests, benches).
//!
//! # Determinism contract
//!
//! Every kernel here uses a fixed per-element accumulation order that does
//! not depend on thread count or call site, so results are **bit-identical
//! run to run within a tier**. Across tiers only elementwise *tolerance*
//! holds: FMA contracts multiply-add into one rounding and the vector
//! kernels reduce in a different association than the scalar loop.
//! Kernels are IEEE-faithful — no zero-skip shortcuts, so `0 * NaN = NaN`
//! propagates exactly as in the scalar path.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::ops::Act;

/// A dispatch tier for the dense kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// AVX2 + FMA f32x8 register-tiled kernels.
    Avx2Fma,
    /// Cache-blocked scalar kernels (always available).
    Scalar,
}

impl Tier {
    /// Stable lowercase name (used in bench row ids and logs).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Avx2Fma => "avx2fma",
            Tier::Scalar => "scalar",
        }
    }
}

/// Whether this host can run the AVX2/FMA kernels at all.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> Tier {
    if std::env::var("IMDIFF_SIMD").is_ok_and(|v| v.trim() == "0") {
        return Tier::Scalar;
    }
    if avx2_available() {
        Tier::Avx2Fma
    } else {
        Tier::Scalar
    }
}

static ENV_TIER: OnceLock<Tier> = OnceLock::new();

thread_local! {
    static TIER_OVERRIDE: Cell<Option<Tier>> = const { Cell::new(None) };
}

/// The dispatch tier in effect on this thread: a [`with_tier`] override if
/// one is active, otherwise the process-wide detected tier.
///
/// Kernels resolve the tier **once per public entry point** on the calling
/// thread and pass the decision into worker closures — thread-local
/// overrides do not propagate into pool workers.
pub fn tier() -> Tier {
    if let Some(t) = TIER_OVERRIDE.with(|c| c.get()) {
        return t;
    }
    *ENV_TIER.get_or_init(detect)
}

/// Runs `f` with the dispatch tier forced to `t` on this thread.
///
/// Panics when forcing [`Tier::Avx2Fma`] on a host without AVX2/FMA.
pub fn with_tier<R>(t: Tier, f: impl FnOnce() -> R) -> R {
    assert!(
        t != Tier::Avx2Fma || avx2_available(),
        "with_tier(Avx2Fma) on a host without avx2+fma"
    );
    struct Guard(Option<Tier>);
    impl Drop for Guard {
        fn drop(&mut self) {
            TIER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = TIER_OVERRIDE.with(|c| c.replace(Some(t)));
    let _guard = Guard(prev);
    f()
}

/// Panel width of the packed-B layout: two f32x8 vectors.
pub(crate) const NR: usize = 16;

/// Output rows of the matmul kernels' register tile, by the vectors of
/// accumulators each row holds (one for up to 8 live columns, two for
/// 9–16): 8 × 1 and 6 × 2 vectors, so 8 or 12 accumulators stay in
/// registers beside the B vectors and the broadcast A value.
#[cfg(target_arch = "x86_64")]
const TILE_ROWS: [usize; 2] = [8, 6];

/// [`TILE_ROWS`] for the weight gradient's `TN` kernel, whose output has
/// only `k` rows (8–32 in the models): at k = 16, tiles of 6 leave four
/// rows to single-row tiles, each one latency-bound FMA chain per
/// vector, and measured slower than four tiles of 4.
#[cfg(target_arch = "x86_64")]
const TN_TILE_ROWS: [usize; 2] = [4, 4];

/// Rows one block of the tile walk covers in every column panel before
/// the next block starts: a multiple of both tile heights, so only a
/// call's last block leaves rows for single-row tiles, and small enough
/// that the block's rows of A stay in L1 across the panels.
#[cfg(target_arch = "x86_64")]
const ROW_BLOCK: usize = 24;

/// The kernels' output modes, their `ACC` const parameter:
/// `out += a·b` reads each output element once before storing it.
pub(crate) const ACCUMULATE: bool = true;
/// `out = a·b`: the old contents of `out` are never read, so the
/// caller's buffer need not be zeroed. Each element is `z = acc + 0.0`,
/// bit for bit what accumulating into a zeroed `out` gives (`+0.0 + acc`:
/// a `-0.0` chain still lands as `+0.0`, a NaN passes through).
pub(crate) const STORE: bool = false;

/// Packs a row-major `k × n` B matrix into `⌈n/NR⌉` column panels, each
/// laid out `[p][NR]` (reduction-major), zero-padded on the right edge.
/// The AVX2 kernel streams one panel linearly per 16 output columns.
pub(crate) fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    debug_assert!(b.len() >= k * n);
    let panels = n.div_ceil(NR);
    let mut out = vec![0.0f32; panels * k * NR];
    for jp in 0..panels {
        let j0 = jp * NR;
        let nj = NR.min(n - j0);
        let dst_panel = &mut out[jp * k * NR..(jp + 1) * k * NR];
        for p in 0..k {
            let src = &b[p * n + j0..p * n + j0 + nj];
            dst_panel[p * NR..p * NR + nj].copy_from_slice(src);
        }
    }
    out
}

/// Stores up to 8 lanes of one output row: `z = (out + acc) + bias`
/// ([`ACCUMULATE`]) or `z = (acc + 0.0) + bias` ([`STORE`], `out` not
/// read), the bias add only when there is a bias; then `out = act(z)`,
/// and `z` into `pre` when the caller keeps the pre-activation. With
/// `w < 8` lanes the rest are zero-padded, so each lane sees the
/// arithmetic of a full-width store.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn store_epilogue<const ACT: u8, const ACC: bool>(
    acc: std::arch::x86_64::__m256,
    out: *mut f32,
    bias: Option<*const f32>,
    pre: Option<*mut f32>,
    w: usize,
) {
    use std::arch::x86_64::*;
    let old = if ACC { load_lanes(out, w) } else { _mm256_setzero_ps() };
    let mut z = _mm256_add_ps(old, acc);
    if let Some(b) = bias {
        z = _mm256_add_ps(z, load_lanes(b, w));
    }
    if let Some(p) = pre {
        store_lanes(p, z, w);
    }
    let y = if ACT == Act::Relu as u8 {
        // The second operand wins on NaN, as in `f32::max(z, 0.0)`; the
        // sign of a zero cannot matter, as the op's `out` starts at `+0.0`
        // and `+0.0 + -0.0` is `+0.0`.
        _mm256_max_ps(z, _mm256_setzero_ps())
    } else if ACT == Act::Gelu as u8 {
        gelu_ps(z)
    } else if ACT == Act::Silu as u8 {
        silu_ps(z)
    } else {
        z
    };
    store_lanes(out, y, w);
}

/// `out[m×n] = act(out + a[m×k] · B + bias)` ([`ACCUMULATE`]) or
/// `act(a·B + bias)` ([`STORE`]) where `B` was packed by
/// [`pack_b_panels`]; `bias` has `n` entries and `pre`, when given, gets
/// the pre-activation.
///
/// Register-tiled micro-kernel ([`tile`], walked by `for_each_tile`): for
/// each tile the full reduction runs in ymm accumulators (one FMA chain
/// per output element, `p` ascending), then lands in `out` through
/// `store_epilogue`: one add of the old value (or of `+0.0`), one of the
/// bias, then the activation, per element. The accumulation order is
/// fixed per element regardless of the tile shape or of how rows are
/// sharded across threads.
///
/// # Safety
///
/// AVX2 and FMA must have been detected at runtime, and `a` must hold
/// `m·k` values (the output, bias and `pre` lengths are asserted).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn mm_rows_avx2<const ACC: bool>(
    a: &[f32],
    bp: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    bias: Option<&[f32]>,
    act: Act,
    pre: Option<&mut [f32]>,
) {
    // One instance per activation: an inlined activation the kernel does
    // not run still costs the others registers and code size.
    let kernel = match act {
        Act::Identity => mm_rows::<{ Act::Identity as u8 }, ACC>,
        Act::Relu => mm_rows::<{ Act::Relu as u8 }, ACC>,
        Act::Gelu => mm_rows::<{ Act::Gelu as u8 }, ACC>,
        Act::Silu => mm_rows::<{ Act::Silu as u8 }, ACC>,
    };
    kernel(a, bp, m, k, n, out, bias, pre)
}

/// Runs the [`tile`] instance for `mr` rows (`$rows[v]` or 1, as
/// `for_each_tile` chose them) and `nj` columns (one vector of
/// accumulators per row up to 8, two past it) on `args`. Each shape is
/// its own instance, so the accumulators stay in registers.
#[cfg(target_arch = "x86_64")]
macro_rules! tile_shapes {
    ($act:expr, $acc:expr, $rows:expr, $mr:expr, $nj:expr, ($($arg:expr),*)) => {
        match ($mr > 1, $nj > 8) {
            (true, false) => tile::<{ $act }, $acc, { $rows[0] }, 1>($($arg),*),
            (true, true) => tile::<{ $act }, $acc, { $rows[1] }, 2>($($arg),*),
            (false, false) => tile::<{ $act }, $acc, 1, 1>($($arg),*),
            (false, true) => tile::<{ $act }, $acc, 1, 2>($($arg),*),
        }
    };
}

/// Walks a `rows × n` output in register tiles, calling `f(i, mr, j0,
/// nj)` for the tile of rows `i..i + mr` and columns `j0..j0 + nj`: in
/// blocks of [`ROW_BLOCK`] rows, and within a block each 16-column panel
/// (the last may be narrower) in tiles of `tile_rows[v]` rows for `v + 1`
/// vectors of columns, then its leftover rows one at a time. The walk
/// decides only where each element is computed, never how.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn for_each_tile(
    rows: usize,
    n: usize,
    tile_rows: [usize; 2],
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    for b0 in (0..rows).step_by(ROW_BLOCK) {
        let b1 = rows.min(b0 + ROW_BLOCK);
        for j0 in (0..n).step_by(NR) {
            let nj = NR.min(n - j0);
            let tall = tile_rows[usize::from(nj > 8)];
            let mut i = b0;
            while i < b1 {
                let mr = if i + tall <= b1 { tall } else { 1 };
                f(i, mr, j0, nj);
                i += mr;
            }
        }
    }
}

/// [`mm_rows_avx2`] with the activation fixed at compile time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn mm_rows<const ACT: u8, const ACC: bool>(
    a: &[f32],
    bp: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    bias: Option<&[f32]>,
    mut pre: Option<&mut [f32]>,
) {
    debug_assert!(a.len() >= m * k);
    assert!(out.len() >= m * n);
    assert!(bias.is_none_or(|b| b.len() == n) && pre.as_ref().is_none_or(|p| p.len() >= m * n));
    let panels = n.div_ceil(NR);
    debug_assert_eq!(bp.len(), panels * k * NR);
    // Output element (i, j) is stored at `out[i·n + j]`, its bias read from
    // `bias[j]` and its pre-activation written to `pre[i·n + j]`.
    let (optr, bias) = (out.as_mut_ptr(), bias.map(|b| b.as_ptr()));
    let pre = pre.as_mut().map(|p| p.as_mut_ptr());
    for_each_tile(m, n, TILE_ROWS, |i, mr, j0, nj| {
        let arows = a.as_ptr().add(i * k);
        // The panel is zero-padded on the right, so its loads need no
        // mask.
        let panel = bp.as_ptr().add(j0 / NR * k * NR);
        let o = i * n + j0;
        let (b, p) = (bias.map(|b| b.add(j0)), pre.map(|p| p.add(o)));
        tile_shapes!(ACT, ACC, TILE_ROWS, mr, nj, (arows, k, 1, panel, NR, false, k, nj, optr.add(o), n, b, p));
    });
}

/// `out[prows×n] += a[m×k]ᵀ · b[m×n]`, restricted to the output rows
/// `p0..p0 + prows` (`prows = out.len() / n`): the weight gradient
/// `dW = Xᵀ·dZ` read straight from the two row-major operands, with no
/// transposed or packed copy.
///
/// The same [`tile`] as [`mm_rows_avx2`], with `a` read down its
/// columns and `b` at its own row stride (masked loads at the right
/// edge): every output element is one FMA chain from zero over `i`
/// ascending, then one add into `out` through `store_epilogue`. That is
/// the arithmetic `mm_rows_avx2` gives the same product when it runs on
/// a transposed copy of `a` and packed panels of `b`, so the bits are the
/// same.
///
/// # Safety
///
/// AVX2 and FMA must have been detected at runtime. The lengths are
/// checked on entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn mm_tn_avx2(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    p0: usize,
    out: &mut [f32],
) {
    const ID: u8 = Act::Identity as u8;
    let prows = out.len() / n;
    assert!(
        a.len() == m * k && b.len() == m * n && out.len() == prows * n && p0 + prows <= k,
        "mm_tn kernel: lengths do not match {m}x{k}x{n}"
    );
    let optr = out.as_mut_ptr();
    for_each_tile(prows, n, TN_TILE_ROWS, |p, mr, j0, nj| {
        // Output row p is column p0 + p of `a`: its rows are one apart, its
        // reduction steps k apart.
        let acols = a.as_ptr().add(p0 + p);
        let (b, o) = (b.as_ptr().add(j0), optr.add(p * n + j0));
        let masked = !nj.is_multiple_of(8);
        tile_shapes!(ID, ACCUMULATE, TN_TILE_ROWS, mr, nj, (acols, 1, k, b, n, masked, m, nj, o, n, None, None));
    });
}

/// One register tile of the matmul kernels, shared by [`mm_rows_avx2`]
/// and [`mm_tn_avx2`]: `R` output rows by `nj` columns of `out += a · b`
/// or `out = a · b` (as `ACC`; `8·(V−1) < nj ≤ 8·V`), stored through
/// `store_epilogue`. The two kernels differ only in the strides they
/// pass. Element `(r, p)` of `a` is at `a + r·a_rs + p·a_cs` and row `p`
/// of `b` starts at `b + p·ldb`, for `p` in `0..kd`; output row `r` starts at
/// `out + r·ldo`, as do its `pre` lanes, and `bias` holds the tile's
/// columns. Every element is one FMA chain from zero over `p` ascending.
/// With `masked`, the `b` lanes past `nj` are loaded as zero rather than
/// read; without it they must be readable (a zero-padded panel). Lanes
/// past `nj` are never stored.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<const ACT: u8, const ACC: bool, const R: usize, const V: usize>(
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    b: *const f32,
    ldb: usize,
    masked: bool,
    kd: usize,
    nj: usize,
    out: *mut f32,
    ldo: usize,
    bias: Option<*const f32>,
    pre: Option<*mut f32>,
) {
    use std::arch::x86_64::*;
    // Live lanes of vector v: all but the last are full.
    let width = |v: usize| if v + 1 < V { 8 } else { nj - 8 * v };
    let mut masks = [_mm256_setzero_si256(); V];
    if masked {
        for (v, mask) in masks.iter_mut().enumerate() {
            *mask = lane_mask(width(v));
        }
    }
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    let mut brow = b;
    for p in 0..kd {
        let mut bv = [_mm256_setzero_ps(); V];
        for (v, bv) in bv.iter_mut().enumerate() {
            *bv = if masked {
                _mm256_maskload_ps(brow.add(8 * v), masks[v])
            } else {
                _mm256_loadu_ps(brow.add(8 * v))
            };
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*a.add(r * a_rs + p * a_cs));
            for (accv, &bv) in accr.iter_mut().zip(&bv) {
                *accv = _mm256_fmadd_ps(av, bv, *accv);
            }
        }
        brow = brow.add(ldb);
    }
    for (r, accr) in acc.iter().enumerate() {
        for (v, &accv) in accr.iter().enumerate() {
            let o = r * ldo + 8 * v;
            let (b, p) = (bias.map(|b| b.add(8 * v)), pre.map(|p| p.add(o)));
            store_epilogue::<ACT, ACC>(accv, out.add(o), b, p, width(v));
        }
    }
}

/// Fixed-order dot product `Σ x[i]·y[i]` (vector lanes reduced in a fixed
/// tree, scalar tail folded in last). Deterministic for a given input.
///
/// Test-only: with `axpy_avx2` it is the per-row reference arithmetic
/// that the `sdpa` block kernel reproduces bit for bit.
#[cfg(all(test, target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dot_avx2(x: &[f32], y: &[f32]) -> f32 {
    use std::arch::x86_64::*;

    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let chunks = n / 8;
    let mut acc = _mm256_setzero_ps();
    for c in 0..chunks {
        let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
        let vy = _mm256_loadu_ps(y.as_ptr().add(c * 8));
        acc = _mm256_fmadd_ps(vx, vy, acc);
    }
    // Horizontal reduction: lanes (0+4)(1+5)(2+6)(3+7) → pairs → scalar.
    let hi = _mm256_extractf128_ps(acc, 1);
    let lo = _mm256_castps256_ps128(acc);
    let s4 = _mm_add_ps(lo, hi);
    let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
    let mut sum = _mm_cvtss_f32(s1);
    for j in chunks * 8..n {
        sum = x.get_unchecked(j).mul_add(*y.get_unchecked(j), sum);
    }
    sum
}

/// `y[i] += alpha · x[i]`, vectorized with a scalar tail (test-only, as
/// `dot_avx2`).
#[cfg(all(test, target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::*;

    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let chunks = n / 8;
    let va = _mm256_set1_ps(alpha);
    for c in 0..chunks {
        let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
        let vy = _mm256_loadu_ps(y.as_ptr().add(c * 8));
        _mm256_storeu_ps(y.as_mut_ptr().add(c * 8), _mm256_fmadd_ps(va, vx, vy));
    }
    for j in chunks * 8..n {
        *y.get_unchecked_mut(j) = alpha.mul_add(*x.get_unchecked(j), *y.get_unchecked(j));
    }
}

/// 8-lane `exp` (Cephes-style degree-5 polynomial with split-constant
/// range reduction, ~1 ulp over the clamped range). Each lane depends only
/// on its own input, so results are position- and thread-independent. NaN
/// propagates (the clamp keeps the input operand in the NaN-passing slot);
/// inputs beyond ±88.38 saturate instead of overflowing to infinity —
/// part of the documented across-tier tolerance, like FMA contraction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
pub(crate) unsafe fn exp_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;

    let hi = _mm256_set1_ps(88.376_26);
    let lo = _mm256_set1_ps(-88.376_26);
    // min/max keep the second operand on NaN, so x must sit there.
    let x = _mm256_min_ps(hi, _mm256_max_ps(lo, x));
    // n = floor(x·log2e + ½); r = x − n·ln2 via a hi/lo constant split.
    let fx = _mm256_floor_ps(_mm256_fmadd_ps(
        x,
        _mm256_set1_ps(std::f32::consts::LOG2_E),
        _mm256_set1_ps(0.5),
    ));
    let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693_359_4), x);
    let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.121_944_4e-4), r);
    let mut y = _mm256_set1_ps(1.987_569_1e-4);
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.398_199_9e-3));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.333_452e-3));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.166_579_6e-2));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.666_666_5e-1));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.000_000_3e-1));
    y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
    // 2ⁿ assembled directly in the exponent field (n ∈ [−127, 127]).
    let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(fx),
        _mm256_set1_epi32(0x7f),
    )));
    _mm256_mul_ps(y, pow2n)
}

/// tanh via `(e−1)/(e+1)` with `e = exp(2x)`: saturates correctly for
/// large |x|; for |x| ≲ 1e-4 cancellation costs relative (not absolute)
/// accuracy — within the across-tier tolerance.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tanh_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let e = exp_ps(_mm256_add_ps(x, x));
    _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
}

/// The lane mask selecting the first `w ≤ 8` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn lane_mask(w: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

/// Loads `w ≤ 8` floats from `p` into a vector, zero in the rest (the
/// masked load reads nothing past `p + w`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn load_lanes(p: *const f32, w: usize) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    if w == 8 {
        _mm256_loadu_ps(p)
    } else {
        _mm256_maskload_ps(p, lane_mask(w))
    }
}

/// Stores the first `w ≤ 8` lanes of `v` to `p`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn store_lanes(p: *mut f32, v: std::arch::x86_64::__m256, w: usize) {
    use std::arch::x86_64::*;
    if w == 8 {
        _mm256_storeu_ps(p, v)
    } else {
        _mm256_maskstore_ps(p, lane_mask(w), v)
    }
}

/// Applies the 8-lane kernel `f` to every element of `v` in place. The
/// tail runs through the same kernel on a zero-padded block (masked
/// lanes), so every element sees identical arithmetic regardless of its
/// position.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn map_ps(
    v: &mut [f32],
    f: unsafe fn(std::arch::x86_64::__m256) -> std::arch::x86_64::__m256,
) {
    let n = v.len();
    for o in (0..n).step_by(8) {
        let (p, w) = (v.as_mut_ptr().add(o), 8.min(n - o));
        store_lanes(p, f(load_lanes(p, w)), w);
    }
}

/// In-place elementwise `exp`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn vexp_avx2(v: &mut [f32]) {
    map_ps(v, exp_ps);
}

/// 8-lane sigmoid `1/(1+exp(−x))`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sigmoid_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let e = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
    _mm256_div_ps(one, _mm256_add_ps(one, e))
}

/// 8-lane SiLU `x·sigmoid(x)`, as `x/(1+exp(−x))`. The matmul epilogue
/// and [`vsilu_avx2`] both run it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn silu_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let e = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
    _mm256_div_ps(x, _mm256_add_ps(one, e))
}

/// 8-lane GELU (tanh approximation, same formula as the scalar path:
/// `½x·(1 + tanh(√(2/π)(x + 0.044715x³)))`). The matmul epilogue and
/// [`vgelu_avx2`] both run it.
///
/// The feature attribute matters on every lane kernel: without it a
/// kernel is compiled for the baseline target, and its direct
/// `_mm256_fmadd_ps` lowers to per-lane `fmaf` libcalls behind the
/// `map_ps` function-pointer boundary — a >10x slowdown.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gelu_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let c = _mm256_set1_ps(0.797_884_6);
    let a = _mm256_set1_ps(0.044715);
    let x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
    let inner = _mm256_mul_ps(c, _mm256_fmadd_ps(a, x3, x));
    let t = tanh_ps(inner);
    _mm256_mul_ps(
        _mm256_mul_ps(_mm256_set1_ps(0.5), x),
        _mm256_add_ps(_mm256_set1_ps(1.0), t),
    )
}

/// In-place elementwise sigmoid `1/(1+exp(−x))`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn vsigmoid_avx2(v: &mut [f32]) {
    map_ps(v, sigmoid_ps);
}

/// In-place elementwise tanh.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn vtanh_avx2(v: &mut [f32]) {
    map_ps(v, tanh_ps);
}

/// In-place elementwise SiLU `x·sigmoid(x)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn vsilu_avx2(v: &mut [f32]) {
    map_ps(v, silu_ps);
}

/// In-place elementwise GELU (tanh approximation).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn vgelu_avx2(v: &mut [f32]) {
    map_ps(v, gelu_ps);
}

/// `g[i] = f(s[i], gout[i])` for the 8-lane kernel `f`. As in [`map_ps`],
/// the tail runs through the same kernel on a zero-padded block, so every
/// element sees identical arithmetic regardless of its position.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn map2_ps(
    s: &[f32],
    gout: &[f32],
    g: &mut [f32],
    f: unsafe fn(std::arch::x86_64::__m256, std::arch::x86_64::__m256) -> std::arch::x86_64::__m256,
) {
    let n = g.len();
    // The loop reads `s` and `gout` up to `n` through raw pointers.
    assert!(s.len() == n && gout.len() == n, "map2_ps length mismatch");
    for o in (0..n).step_by(8) {
        let w = 8.min(n - o);
        let v = f(load_lanes(s.as_ptr().add(o), w), load_lanes(gout.as_ptr().add(o), w));
        store_lanes(g.as_mut_ptr().add(o), v, w);
    }
}

/// The signature of the derivative kernels below: `g = f'(x) ⊙ gout`,
/// given the input `x` and the forward's output `y`, all of one length.
/// tanh and sigmoid read their derivative off `y`; GELU and SiLU
/// recompute it from `x`.
///
/// # Safety
///
/// The caller must have seen [`tier`] return [`Tier::Avx2Fma`], i.e.
/// AVX2 and FMA were detected at runtime.
pub(crate) type DerivKernel = unsafe fn(x: &[f32], y: &[f32], gout: &[f32], g: &mut [f32]);

/// 8-lane `(1 − y²)·go`, the tanh derivative read off the output `y`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dtanh_ps(
    y: std::arch::x86_64::__m256,
    go: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_mul_ps(_mm256_fnmadd_ps(y, y, _mm256_set1_ps(1.0)), go)
}

/// 8-lane `s·(1 − s)·go`, the sigmoid derivative read off the output `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dsigmoid_ps(
    s: std::arch::x86_64::__m256,
    go: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one_minus = _mm256_sub_ps(_mm256_set1_ps(1.0), s);
    _mm256_mul_ps(_mm256_mul_ps(s, one_minus), go)
}

/// `g = (1 − y²) ⊙ gout`, the tanh derivative.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dtanh_avx2(_x: &[f32], y: &[f32], gout: &[f32], g: &mut [f32]) {
    map2_ps(y, gout, g, dtanh_ps);
}

/// `g = s·(1 − s) ⊙ gout` with `s = y`, the sigmoid derivative.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dsigmoid_avx2(_x: &[f32], y: &[f32], gout: &[f32], g: &mut [f32]) {
    map2_ps(y, gout, g, dsigmoid_ps);
}

/// The gated activation `y = tanh(f)·σ(g)` over rows of `[f ‖ g]`, `d`
/// wide each: `src` holds rows of `2d`, `out` rows of `d`. Per element
/// this is `vtanh_avx2`'s and `vsigmoid_avx2`'s lane arithmetic and one
/// multiply; a row's tail goes through zero-padded lanes.
///
/// # Safety
///
/// AVX2 and FMA must have been detected at runtime (lengths are
/// asserted).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn gated_tanh_avx2(src: &[f32], out: &mut [f32], d: usize) {
    use std::arch::x86_64::*;
    assert!(d > 0 && src.len() == 2 * out.len() && out.len().is_multiple_of(d));
    for (row, orow) in src.chunks_exact(2 * d).zip(out.chunks_exact_mut(d)) {
        for j in (0..d).step_by(8) {
            let w = 8.min(d - j);
            let t = tanh_ps(load_lanes(row.as_ptr().add(j), w));
            let s = sigmoid_ps(load_lanes(row.as_ptr().add(d + j), w));
            store_lanes(orow.as_mut_ptr().add(j), _mm256_mul_ps(t, s), w);
        }
    }
}

/// The backward of [`gated_tanh_avx2`]: from `src` and the output
/// gradient `gout` (rows of `d`), writes `g` (rows of `2d`) with the
/// filter half `(1 − t²)·(σ·go)` and the gate half `σ(1 − σ)·(t·go)`,
/// `t` and `σ` recomputed with the forward's arithmetic. Each half is
/// `dtanh_avx2`'s or `dsigmoid_avx2`'s lane arithmetic on the product
/// the multiply's backward forms.
///
/// # Safety
///
/// As for [`gated_tanh_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dgated_tanh_avx2(src: &[f32], gout: &[f32], g: &mut [f32], d: usize) {
    use std::arch::x86_64::*;
    assert!(d > 0 && src.len() == 2 * gout.len() && g.len() == src.len());
    assert!(gout.len().is_multiple_of(d));
    let rows = src.chunks_exact(2 * d).zip(gout.chunks_exact(d)).zip(g.chunks_exact_mut(2 * d));
    for ((row, grow), drow) in rows {
        for j in (0..d).step_by(8) {
            let w = 8.min(d - j);
            let t = tanh_ps(load_lanes(row.as_ptr().add(j), w));
            let s = sigmoid_ps(load_lanes(row.as_ptr().add(d + j), w));
            let go = load_lanes(grow.as_ptr().add(j), w);
            store_lanes(drow.as_mut_ptr().add(j), dtanh_ps(t, _mm256_mul_ps(s, go)), w);
            store_lanes(drow.as_mut_ptr().add(d + j), dsigmoid_ps(s, _mm256_mul_ps(t, go)), w);
        }
    }
}

/// `g = s·(1 + x·(1 − s)) ⊙ gout` with `s = sigmoid(x)`, the SiLU
/// derivative.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dsilu_avx2(x: &[f32], _y: &[f32], gout: &[f32], g: &mut [f32]) {
    use std::arch::x86_64::*;
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn k(x: __m256, go: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
        let s = _mm256_div_ps(one, _mm256_add_ps(one, e));
        let d = _mm256_mul_ps(s, _mm256_fmadd_ps(x, _mm256_sub_ps(one, s), one));
        _mm256_mul_ps(d, go)
    }
    map2_ps(x, gout, g, k);
}

/// The GELU (tanh approximation) derivative
/// `½(1 + t) + ½x·(1 − t²)·√(2/π)(1 + 3·0.044715x²)`, with
/// `t = tanh(√(2/π)(x + 0.044715x³))`, times `gout`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dgelu_avx2(x: &[f32], _y: &[f32], gout: &[f32], g: &mut [f32]) {
    use std::arch::x86_64::*;
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn k(x: __m256, go: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let c = _mm256_set1_ps(0.797_884_6);
        let a = _mm256_set1_ps(0.044715);
        let x2 = _mm256_mul_ps(x, x);
        let inner = _mm256_mul_ps(c, _mm256_fmadd_ps(a, _mm256_mul_ps(x2, x), x));
        let t = tanh_ps(inner);
        let dinner = _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_set1_ps(3.0 * 0.044715), x2, one));
        let slope = _mm256_mul_ps(_mm256_mul_ps(x, _mm256_fnmadd_ps(t, t, one)), dinner);
        let d = _mm256_mul_ps(_mm256_set1_ps(0.5), _mm256_add_ps(_mm256_add_ps(one, t), slope));
        _mm256_mul_ps(d, go)
    }
    map2_ps(x, gout, g, k);
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn vexp_avx2(_v: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn vsigmoid_avx2(_v: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn vtanh_avx2(_v: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn vsilu_avx2(_v: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn vgelu_avx2(_v: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn dtanh_avx2(_x: &[f32], _y: &[f32], _gout: &[f32], _g: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn dsigmoid_avx2(_x: &[f32], _y: &[f32], _gout: &[f32], _g: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn dsilu_avx2(_x: &[f32], _y: &[f32], _gout: &[f32], _g: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn dgelu_avx2(_x: &[f32], _y: &[f32], _gout: &[f32], _g: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

// Non-x86_64 stubs keep the crate compiling everywhere; `tier()` never
// returns Avx2Fma off x86_64, so these are unreachable at runtime.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn mm_rows_avx2<const ACC: bool>(
    _a: &[f32],
    _bp: &[f32],
    _m: usize,
    _k: usize,
    _n: usize,
    _out: &mut [f32],
    _bias: Option<&[f32]>,
    _act: Act,
    _pre: Option<&mut [f32]>,
) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn mm_tn_avx2(
    _a: &[f32],
    _b: &[f32],
    _m: usize,
    _k: usize,
    _n: usize,
    _p0: usize,
    _out: &mut [f32],
) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn gated_tanh_avx2(_src: &[f32], _out: &mut [f32], _d: usize) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn dgated_tanh_avx2(_src: &[f32], _gout: &[f32], _g: &mut [f32], _d: usize) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(all(test, not(target_arch = "x86_64")))]
pub(crate) unsafe fn dot_avx2(_x: &[f32], _y: &[f32]) -> f32 {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(all(test, not(target_arch = "x86_64")))]
pub(crate) unsafe fn axpy_avx2(_alpha: f32, _x: &[f32], _y: &mut [f32]) {
    unreachable!("avx2 kernel dispatched on non-x86_64");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn pack_layout_round_trips() {
        let k = 3;
        let n = 20; // one full panel + a 4-wide edge panel
        let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
        let bp = pack_b_panels(&b, k, n);
        assert_eq!(bp.len(), 2 * k * NR);
        for p in 0..k {
            for j in 0..n {
                let (jp, j0) = (j / NR, j % NR);
                assert_eq!(bp[jp * k * NR + p * NR + j0], b[p * n + j]);
            }
        }
        // Edge padding is zero.
        assert_eq!(bp[k * NR + 4], 0.0);
    }

    #[test]
    fn avx2_kernel_matches_reference() {
        if !avx2_available() {
            return;
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 16777216.0 - 0.5
        };
        for &(m, k, n) in &[(1, 1, 1), (4, 8, 16), (5, 7, 17), (13, 31, 33), (8, 64, 48)] {
            let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let bp = pack_b_panels(&b, k, n);
            let mut out = vec![0.0f32; m * n];
            unsafe { mm_rows_avx2::<ACCUMULATE>(&a, &bp, m, k, n, &mut out, None, Act::Identity, None) };
            let want = mm_ref(&a, &b, m, k, n);
            for (got, want) in out.iter().zip(&want) {
                let tol = 1e-4 * want.abs().max(1.0);
                assert!((got - want).abs() <= tol, "{got} vs {want}");
            }
        }
    }

    #[test]
    fn tile_is_one_fma_chain_per_element() {
        // NN (`mm_rows_avx2`) and TN (`mm_tn_avx2`) share `tile`: every
        // element is an FMA chain from zero over the reduction, ascending,
        // then one add into `out`: of its old value when accumulating, of
        // `+0.0` when storing, with `out` then never read (it starts full
        // of NaN here). The shapes run the 8-, 6- and 1-row tiles, one and
        // two vectors per row, the masked right edge, several panels and
        // row blocks, and a TN shard that starts at p0 > 0.
        if !avx2_available() {
            return;
        }
        let wave = |len: usize, f: f32| (0..len).map(|i| (i as f32 * f).sin()).collect::<Vec<f32>>();
        let chain = |len: usize, x: &dyn Fn(usize) -> f32, y: &dyn Fn(usize) -> f32, init: f32| {
            init + (0..len).fold(0.0f32, |acc, t| x(t).mul_add(y(t), acc))
        };
        let ns = (1..=17).chain([24, 32]);
        for (m, n) in [1usize, 5, 7, 8, 9, 13, 912].into_iter().flat_map(|m| ns.clone().map(move |n| (m, n))) {
            for k in [1usize, 7, 9, 16] {
                let (a, b, init) = (wave(m * k, 0.37), wave(k * n, 1.13), wave(m * n, 0.71));
                let bp = pack_b_panels(&b, k, n);
                let mut acc = init.clone();
                let mut stored = vec![f32::NAN; m * n];
                unsafe {
                    mm_rows_avx2::<ACCUMULATE>(&a, &bp, m, k, n, &mut acc, None, Act::Identity, None);
                    mm_rows_avx2::<STORE>(&a, &bp, m, k, n, &mut stored, None, Act::Identity, None);
                }
                for e in 0..m * n {
                    let (i, j) = (e / n, e % n);
                    let dot = |init| chain(k, &|p| a[i * k + p], &|p| b[p * n + j], init);
                    let what = format!("{m}x{k}x{n} ({i}, {j})");
                    assert_eq!(acc[e].to_bits(), dot(init[e]).to_bits(), "nn accumulate {what}");
                    assert_eq!(stored[e].to_bits(), dot(0.0).to_bits(), "nn store {what}");
                }
                // TN: out[p][j] = init + Σ_i x[i][p]·d[i][j] over output rows p0..k.
                let (x, d, init) = (wave(m * k, 0.53), wave(m * n, 0.29), wave(k * n, 0.83));
                for p0 in [0, k / 2] {
                    let mut out = init[p0 * n..].to_vec();
                    unsafe { mm_tn_avx2(&x, &d, m, k, n, p0, &mut out) };
                    for (e, got) in out.iter().enumerate() {
                        let (p, j) = (p0 + e / n, e % n);
                        let want = chain(m, &|i| x[i * k + p], &|i| d[i * n + j], init[p * n + j]);
                        assert_eq!(got.to_bits(), want.to_bits(), "tn {m}x{k}x{n} p0={p0} ({p}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn dot_and_axpy_match_scalar() {
        if !avx2_available() {
            return;
        }
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..37).map(|i| (i as f32 * 0.53).cos()).collect();
        let want: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got = unsafe { dot_avx2(&x, &y) };
        assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));

        let mut acc = y.clone();
        unsafe { axpy_avx2(0.7, &x, &mut acc) };
        for ((a, &xv), &yv) in acc.iter().zip(&x).zip(&y) {
            let want = 0.7 * xv + yv;
            assert!((a - want).abs() <= 1e-5);
        }
    }

    #[test]
    fn with_tier_overrides_and_restores() {
        let base = tier();
        with_tier(Tier::Scalar, || {
            assert_eq!(tier(), Tier::Scalar);
            if avx2_available() {
                with_tier(Tier::Avx2Fma, || assert_eq!(tier(), Tier::Avx2Fma));
                assert_eq!(tier(), Tier::Scalar);
            }
        });
        assert_eq!(tier(), base);
    }

    #[test]
    fn vectorized_exp_family_matches_libm() {
        if !avx2_available() {
            return;
        }
        // Spans denormal-adjacent, moderate, and clamp-boundary inputs,
        // plus a non-multiple-of-8 length to exercise the padded tail.
        let xs: Vec<f32> = (-43..=43).map(|i| i as f32 * 2.07).collect();
        let mut ve = xs.clone();
        unsafe { vexp_avx2(&mut ve) };
        for (&x, &got) in xs.iter().zip(&ve) {
            let want = x.exp();
            if want.is_infinite() {
                // The input clamp saturates overflow at exp(88.376) ≈ 2.4e38
                // instead of producing inf.
                assert!(got >= 2.0e38, "exp({x}) saturated to {got}");
            } else if want < f32::MIN_POSITIVE {
                // Denormal results flush to zero in the 2^n reconstruction.
                assert!(got.abs() <= f32::MIN_POSITIVE, "exp({x}) gave {got}");
            } else {
                assert!(
                    (got - want).abs() <= 2e-6 * want.abs().max(f32::MIN_POSITIVE),
                    "exp({x}): {got} vs {want}"
                );
            }
        }

        let mut vs = xs.clone();
        let mut vt = xs.clone();
        let mut vw = xs.clone();
        let mut vg = xs.clone();
        unsafe {
            vsigmoid_avx2(&mut vs);
            vtanh_avx2(&mut vt);
            vsilu_avx2(&mut vw);
            vgelu_avx2(&mut vg);
        }
        const C: f32 = 0.797_884_6;
        for (i, &x) in xs.iter().enumerate() {
            let sig = 1.0 / (1.0 + (-x).exp());
            assert!((vs[i] - sig).abs() <= 2e-6, "sigmoid({x}): {} vs {sig}", vs[i]);
            assert!((vt[i] - x.tanh()).abs() <= 2e-6, "tanh({x}): {} vs {}", vt[i], x.tanh());
            let rel = (vw[i] - x * sig).abs() / (x * sig).abs().max(1.0);
            assert!(rel <= 2e-6, "silu({x}): {} vs {}", vw[i], x * sig);
            let gelu = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
            let rel = (vg[i] - gelu).abs() / gelu.abs().max(1.0);
            assert!(rel <= 2e-6, "gelu({x}): {} vs {gelu}", vg[i]);
        }
    }

    #[test]
    fn vectorized_derivatives_match_libm() {
        if !avx2_available() {
            return;
        }
        // 87 inputs: ten full blocks and a padded tail.
        let xs: Vec<f32> = (-43..=43).map(|i| i as f32 * 0.11).collect();
        let gout: Vec<f32> = (0..xs.len()).map(|i| 1.0 - (i % 5) as f32 * 0.4).collect();
        let run = |k: DerivKernel, y: &[f32]| {
            let mut g = vec![0.0f32; xs.len()];
            unsafe { k(&xs, y, &gout, &mut g) };
            g
        };
        let sig = |x: f32| 1.0 / (1.0 + (-x).exp());
        let ys: Vec<f32> = xs.iter().map(|&x| sig(x)).collect();
        let yt: Vec<f32> = xs.iter().map(|&x| x.tanh()).collect();
        let (gs, gt) = (run(dsigmoid_avx2, &ys), run(dtanh_avx2, &yt));
        let (gw, gg) = (run(dsilu_avx2, &xs), run(dgelu_avx2, &xs));
        const C: f32 = 0.797_884_6;
        for (i, &x) in xs.iter().enumerate() {
            let s = sig(x);
            let t = (C * (x + 0.044715 * x * x * x)).tanh();
            let want = [
                ("sigmoid", gs[i], s * (1.0 - s)),
                ("tanh", gt[i], 1.0 - x.tanh() * x.tanh()),
                ("silu", gw[i], s + x * s * (1.0 - s)),
                (
                    "gelu",
                    gg[i],
                    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x),
                ),
            ];
            for (name, got, d) in want {
                let d = d * gout[i];
                assert!((got - d).abs() <= 4e-6 * d.abs().max(1.0), "d{name}({x}): {got} vs {d}");
            }
        }
    }

    #[test]
    fn vectorized_exp_propagates_nan() {
        if !avx2_available() {
            return;
        }
        let mut v = vec![0.0f32, f32::NAN, 1.0];
        unsafe { vexp_avx2(&mut v) };
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan());
        assert!((v[2] - 1.0f32.exp()).abs() <= 1e-6);
    }

    #[test]
    fn avx2_kernel_propagates_zero_times_nan() {
        if !avx2_available() {
            return;
        }
        // IEEE faithfulness: a NaN in B must poison outputs even when the
        // matching A entry is zero — no zero-skip shortcut.
        let a = vec![0.0f32, 1.0];
        let mut b = vec![1.0f32; 2 * NR];
        b[3] = f32::NAN; // row p=0, column 3
        let bp = pack_b_panels(&b, 2, NR);
        let mut out = vec![0.0f32; NR];
        unsafe { mm_rows_avx2::<STORE>(&a, &bp, 1, 2, NR, &mut out, None, Act::Identity, None) };
        assert!(out[3].is_nan());
        assert_eq!(out[0], 1.0);
    }
}
