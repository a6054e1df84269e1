//! Dispatch tiers, and the matmul kernels written once over the lane type.
//!
//! Dispatch tiers, highest first:
//!
//! 1. **Avx2Fma** — every tiered kernel instantiated over `__m256` inside
//!    an `avx2` + `fma` entry point.
//! 2. **Scalar** — the same kernels instantiated over a portable
//!    eight-lane array whose every operation does what one AVX lane does,
//!    always available.
//!
//! Each kernel (the matmul tiles here, the activations and their
//! derivatives, the gated activation, softmax's `exp` and the attention
//! tiles) is written once over the lane type of `crate::lanes`; the tier
//! only picks the instantiation. So the tiers are one arithmetic at two
//! speeds. The Scalar tier is the slower one: where the build has no FMA,
//! each fused multiply-add is a call into libm.
//!
//! The tier is detected once per process via `is_x86_feature_detected!`
//! and can be forced down with `IMDIFF_SIMD=0` (A/B testing, debugging)
//! or overridden per scope with [`with_tier`] (tests, benches).
//!
//! # Determinism contract
//!
//! Every kernel uses a fixed per-element order of operations that does
//! not depend on the thread count, the call site or the tier, so results
//! are **bit-identical run to run, at any thread count and on every
//! tier**. Kernels are IEEE-faithful — no zero-skip shortcuts, so
//! `0 * NaN = NaN` propagates.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::lanes::{self, Kernel, Lane};
use crate::ops::Act;

/// A dispatch tier for the dense kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// The kernels on AVX2 + FMA `f32x8` registers.
    Avx2Fma,
    /// The same kernels on portable eight-lane arrays (always available).
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

/// Panel width of the packed-B layout: two vectors of eight lanes.
pub(crate) const NR: usize = 16;

/// Output rows of the matmul kernels' register tile, by the vectors of
/// accumulators each row holds (one for up to 8 live columns, two for
/// 9–16): 8 × 1 and 6 × 2 vectors, so 8 or 12 accumulators stay in
/// registers beside the B vectors and the broadcast A value.
const TILE_ROWS: [usize; 2] = [8, 6];

/// [`TILE_ROWS`] for the weight gradient's `TN` kernel, whose output has
/// only `k` rows (8–32 in the models): at k = 16, tiles of 6 leave four
/// rows to single-row tiles, each one latency-bound FMA chain per
/// vector, and measured slower than four tiles of 4.
const TN_TILE_ROWS: [usize; 2] = [4, 4];

/// Rows one block of the tile walk covers in every column panel before
/// the next block starts: a multiple of both tile heights, so only a
/// call's last block leaves rows for single-row tiles, and small enough
/// that the block's rows of A stay in L1 across the panels.
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
/// The kernel streams one panel linearly per 16 output columns.
pub(crate) fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    pack_panels(b, k, n, n, 1)
}

/// [`pack_b_panels`] of the transpose of a row-major `n × k` matrix `bt`,
/// read straight from `bt`: one pass, no transposed copy.
pub(crate) fn pack_bt_panels(bt: &[f32], k: usize, n: usize) -> Vec<f32> {
    pack_panels(bt, k, n, 1, k)
}

/// The panels of the `k × n` matrix whose element `(p, j)` is
/// `b[p·rs + j·cs]`.
fn pack_panels(b: &[f32], k: usize, n: usize, rs: usize, cs: usize) -> Vec<f32> {
    assert!(
        b.len() >= k * n,
        "pack: {} values for a {k}x{n} matrix",
        b.len()
    );
    let mut out = vec![0.0f32; n.div_ceil(NR) * k * NR];
    if k == 0 {
        return out;
    }
    for (jp, panel) in out.chunks_exact_mut(k * NR).enumerate() {
        let j0 = jp * NR;
        let nj = NR.min(n - j0);
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let src = p * rs + j0 * cs;
            if cs == 1 {
                dst[..nj].copy_from_slice(&b[src..src + nj]);
            } else {
                for (jj, d) in dst[..nj].iter_mut().enumerate() {
                    *d = b[src + jj * cs];
                }
            }
        }
    }
    out
}

/// `out[m×n] = act(out + a[m×k] · B + bias)` ([`ACCUMULATE`]) or
/// `act(a·B + bias)` ([`STORE`]) on the lanes of `tier`, where `B` was
/// packed by [`pack_b_panels`]; `bias` has `n` entries and `pre`, when
/// given, gets the pre-activation. The lengths are checked.
///
/// Register-tiled micro-kernel ([`tile`], walked by `for_each_tile!`):
/// for each tile the full reduction runs in register accumulators (one
/// FMA chain per output element, `p` ascending), then lands in `out`
/// through [`store_epilogue`]: one add of the old value (or of `+0.0`),
/// one of the bias, then the activation, per element. The order is fixed
/// per element regardless of the tile shape or of how rows are sharded
/// across threads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_rows<const ACC: bool>(
    tier: Tier,
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
    macro_rules! with_act {
        ($act:expr) => {
            lanes::run(
                tier,
                MmRows::<{ $act as u8 }, ACC> {
                    a,
                    bp,
                    m,
                    k,
                    n,
                    out,
                    bias,
                    pre,
                },
            )
        };
    }
    match act {
        Act::Identity => with_act!(Act::Identity),
        Act::Relu => with_act!(Act::Relu),
        Act::Gelu => with_act!(Act::Gelu),
        Act::Silu => with_act!(Act::Silu),
    }
}

/// The arguments of [`mm_rows`], with the activation fixed at compile
/// time.
struct MmRows<'a, const ACT: u8, const ACC: bool> {
    a: &'a [f32],
    bp: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    out: &'a mut [f32],
    bias: Option<&'a [f32]>,
    pre: Option<&'a mut [f32]>,
}

/// `out[prows×n] += a[m×k]ᵀ · b[m×n]`, restricted to the output rows
/// `p0..p0 + prows` (`prows = out.len() / n`), run by `lanes::run`: the
/// weight gradient `dW = Xᵀ·dZ` read straight from the two row-major
/// operands, with no transposed or packed copy.
///
/// The same [`tile`] as [`mm_rows`], with `a` read down its columns and
/// `b` at its own row stride (masked loads at the right edge): every
/// output element is one FMA chain from zero over `i` ascending, then one
/// add into `out` through [`store_epilogue`]. That is the arithmetic
/// `mm_rows` gives the same product when it runs on a transposed copy of
/// `a` and packed panels of `b`, so the bits are the same. The lengths
/// are checked.
pub(crate) struct MmTn<'a> {
    pub a: &'a [f32],
    pub b: &'a [f32],
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub p0: usize,
    pub out: &'a mut [f32],
}

/// Walks a `$rows × $n` output in register tiles, running `$body` with
/// `$i, $mr, $j0, $nj` bound to the tile of rows `i..i + mr` and columns
/// `j0..j0 + nj`: in blocks of [`ROW_BLOCK`] rows, and within a block
/// each 16-column panel (the last may be narrower) in tiles of
/// `$tile_rows[v]` rows for `v + 1` vectors of columns, then its leftover
/// rows one at a time. The walk decides only where each element is
/// computed, never how. A macro, not a function taking a closure: the
/// body calls lane operations (see `crate::lanes`).
macro_rules! for_each_tile {
    ($rows:expr, $n:expr, $tile_rows:expr, |$i:ident, $mr:ident, $j0:ident, $nj:ident| $body:block) => {
        let (rows, n, tile_rows): (usize, usize, [usize; 2]) = ($rows, $n, $tile_rows);
        for b0 in (0..rows).step_by(ROW_BLOCK) {
            let b1 = rows.min(b0 + ROW_BLOCK);
            for $j0 in (0..n).step_by(NR) {
                let $nj = NR.min(n - $j0);
                let tall = tile_rows[usize::from($nj > 8)];
                let mut $i = b0;
                while $i < b1 {
                    let $mr = if $i + tall <= b1 { tall } else { 1 };
                    $body
                    $i += $mr;
                }
            }
        }
    };
}

/// Runs the [`tile`] instance for `$mr` rows (`$rows[v]` or 1, as
/// `for_each_tile!` chose them) and `$nj` columns (one vector of
/// accumulators per row up to 8, two past it) at the [`TileAt`]
/// `$at`. Each shape is its own instance, so the accumulators stay in
/// registers.
macro_rules! tile_shapes {
    ($lane:ty, $act:expr, $acc:expr, $rows:expr, $mr:expr, $nj:expr, $at:expr) => {
        match ($mr > 1, $nj > 8) {
            (true, false) => tile::<$lane, { $act }, $acc, { $rows[0] }, 1>($at),
            (true, true) => tile::<$lane, { $act }, $acc, { $rows[1] }, 2>($at),
            (false, false) => tile::<$lane, { $act }, $acc, 1, 1>($at),
            (false, true) => tile::<$lane, { $act }, $acc, 1, 2>($at),
        }
    };
}

impl<const ACT: u8, const ACC: bool> Kernel for MmRows<'_, ACT, ACC> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(self) {
        let (a, bp, m, k, n) = (self.a, self.bp, self.m, self.k, self.n);
        let (out, bias, pre) = (self.out, self.bias, self.pre);
        assert!(
            a.len() >= m * k && out.len() >= m * n,
            "mm_rows: lengths do not match {m}x{k}x{n}"
        );
        assert!(bias.is_none_or(|b| b.len() == n) && pre.as_ref().is_none_or(|p| p.len() >= m * n));
        assert_eq!(
            bp.len(),
            n.div_ceil(NR) * k * NR,
            "mm_rows: panels do not match {k}x{n}"
        );
        // Output element (i, j) is stored at `out[i·n + j]`, its bias read
        // from `bias[j]` and its pre-activation written to `pre[i·n + j]`.
        let (optr, bias) = (out.as_mut_ptr(), bias.map(<[f32]>::as_ptr));
        let pre = pre.map(<[f32]>::as_mut_ptr);
        for_each_tile!(m, n, TILE_ROWS, |i, mr, j0, nj| {
            let arows = a.as_ptr().add(i * k);
            // The panel is zero-padded on the right, so its loads need no
            // mask.
            let panel = bp.as_ptr().add(j0 / NR * k * NR);
            let o = i * n + j0;
            let (b, p) = (bias.map(|b| b.add(j0)), pre.map(|p| p.add(o)));
            let at = TileAt {
                a: arows,
                a_rs: k,
                a_cs: 1,
                b: panel,
                ldb: NR,
                masked: false,
                kd: k,
                nj,
                out: optr.add(o),
                ldo: n,
                bias: b,
                pre: p,
            };
            tile_shapes!(L, ACT, ACC, TILE_ROWS, mr, nj, at);
        });
    }
}

impl Kernel for MmTn<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(self) {
        const ID: u8 = Act::Identity as u8;
        let (a, b, m, k, n, p0, out) = (self.a, self.b, self.m, self.k, self.n, self.p0, self.out);
        let prows = out.len() / n;
        assert!(
            a.len() == m * k && b.len() == m * n && out.len() == prows * n && p0 + prows <= k,
            "mm_tn kernel: lengths do not match {m}x{k}x{n}"
        );
        let optr = out.as_mut_ptr();
        for_each_tile!(prows, n, TN_TILE_ROWS, |p, mr, j0, nj| {
            // Output row p is column p0 + p of `a`: its rows are one apart,
            // its reduction steps k apart.
            let acols = a.as_ptr().add(p0 + p);
            let (b, o) = (b.as_ptr().add(j0), optr.add(p * n + j0));
            let masked = !nj.is_multiple_of(8);
            let at = TileAt {
                a: acols,
                a_rs: 1,
                a_cs: k,
                b,
                ldb: n,
                masked,
                kd: m,
                nj,
                out: o,
                ldo: n,
                bias: None,
                pre: None,
            };
            tile_shapes!(L, ID, ACCUMULATE, TN_TILE_ROWS, mr, nj, at);
        });
    }
}

/// Where one register tile reads and writes. Element `(r, p)` of `a` is
/// at `a + r·a_rs + p·a_cs` and row `p` of `b` starts at `b + p·ldb`, for
/// `p` in `0..kd`; output row `r` starts at `out + r·ldo`, as do its `pre`
/// lanes, and `bias` holds the tile's `nj` columns. With `masked`, the
/// `b` lanes past `nj` are loaded as zero rather than read; without it
/// they must be readable (a zero-padded panel).
#[derive(Clone, Copy)]
struct TileAt {
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
}

/// One register tile of the matmul kernels, shared by [`mm_rows`] and
/// [`MmTn`]: `R` output rows by `nj` columns of `out += a · b` or
/// `out = a · b` (as `ACC`; `8·(V−1) < nj ≤ 8·V`), stored through
/// [`store_epilogue`]. The two kernels differ only in the strides they
/// pass (see [`TileAt`]). Every element is one FMA chain from zero over
/// `p` ascending. Lanes past `nj` are never stored.
#[inline(always)]
unsafe fn tile<L: Lane, const ACT: u8, const ACC: bool, const R: usize, const V: usize>(
    at: TileAt,
) {
    let (a, b, masked, nj) = (at.a, at.b, at.masked, at.nj);
    // Live lanes of vector v: all but the last are full.
    let width = |v: usize| if v + 1 < V { 8 } else { nj - 8 * v };
    let mut masks = [L::mask(8); V];
    if masked {
        for (v, mask) in masks.iter_mut().enumerate() {
            *mask = L::mask(width(v));
        }
    }
    let mut acc = [[L::zero(); V]; R];
    let mut brow = b;
    for p in 0..at.kd {
        let mut bv = [L::zero(); V];
        for (v, bv) in bv.iter_mut().enumerate() {
            *bv = if masked {
                L::load_masked(brow.add(8 * v), masks[v])
            } else {
                L::load(brow.add(8 * v))
            };
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = L::splat(*a.add(r * at.a_rs + p * at.a_cs));
            for (accv, &bv) in accr.iter_mut().zip(&bv) {
                *accv = av.fmadd(bv, *accv);
            }
        }
        brow = brow.add(at.ldb);
    }
    store_epilogue::<L, ACT, ACC, R, V>(acc, at.out, at.ldo, at.bias, at.pre, nj);
}

/// Stores a tile's accumulators: `z = (out + acc) + bias` ([`ACCUMULATE`])
/// or `z = (acc + 0.0) + bias` ([`STORE`], `out` not read), the bias add
/// only when there is a bias; then `out = act(z)`, and `z` into `pre` when
/// the caller keeps the pre-activation. Output row `r` starts at
/// `out + r·ldo`, as do its `pre` lanes, and `bias` holds the tile's `nj`
/// columns. A last vector of `w < 8` lanes runs with the rest zero-filled,
/// so each lane sees the arithmetic of a full-width store.
///
/// Each step is one pass over the whole tile, so whether there is a bias
/// or a `pre` is asked once per tile, and each pass unrolls into
/// straight-line code with the accumulators in registers.
#[inline(always)]
unsafe fn store_epilogue<
    L: Lane,
    const ACT: u8,
    const ACC: bool,
    const R: usize,
    const V: usize,
>(
    acc: [[L; V]; R],
    out: *mut f32,
    ldo: usize,
    bias: Option<*const f32>,
    pre: Option<*mut f32>,
    nj: usize,
) {
    // Live lanes of vector v: all but the last are full.
    let width = |v: usize| if v + 1 < V { 8 } else { nj - 8 * v };
    let mut z = acc;
    for (r, zr) in z.iter_mut().enumerate() {
        for (v, zv) in zr.iter_mut().enumerate() {
            let old = if ACC {
                L::load_first(out.add(r * ldo + 8 * v), width(v))
            } else {
                L::zero()
            };
            *zv = old.add(*zv);
        }
    }
    if let Some(b) = bias {
        for v in 0..V {
            let bv = L::load_first(b.add(8 * v), width(v));
            for zr in z.iter_mut() {
                zr[v] = zr[v].add(bv);
            }
        }
    }
    if let Some(p) = pre {
        for (r, zr) in z.iter().enumerate() {
            for (v, zv) in zr.iter().enumerate() {
                zv.store_first(p.add(r * ldo + 8 * v), width(v));
            }
        }
    }
    // ReLU: the sign of a zero cannot matter, as `z` is never `-0.0`: the
    // op's `out` starts at `+0.0` and `+0.0 + -0.0` is `+0.0`.
    for (r, zr) in z.iter().enumerate() {
        for (v, zv) in zr.iter().enumerate() {
            lanes::apply::<L, ACT>(*zv).store_first(out.add(r * ldo + 8 * v), width(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers() -> Vec<Tier> {
        let mut t = vec![Tier::Scalar];
        if avx2_available() {
            t.push(Tier::Avx2Fma);
        }
        t
    }

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
        // The transposed pack reads the same panels from Bᵀ.
        let bt: Vec<f32> = (0..n * k).map(|e| b[e % k * n + e / k]).collect();
        assert_eq!(pack_bt_panels(&bt, k, n), bp);
    }

    #[test]
    fn kernel_matches_reference() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 16777216.0 - 0.5
        };
        // Leftover rows after the register tiles, a masked right edge,
        // several panels and long reductions.
        let shapes = [
            (1, 1, 1),
            (4, 8, 16),
            (5, 3, 7),
            (5, 7, 17),
            (13, 31, 33),
            (8, 64, 48),
            (9, 300, 11),
            (4, 256, 8),
        ];
        for (m, k, n) in shapes {
            let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let bp = pack_b_panels(&b, k, n);
            let want = mm_ref(&a, &b, m, k, n);
            for tier in tiers() {
                let mut out = vec![0.0f32; m * n];
                mm_rows::<ACCUMULATE>(tier, &a, &bp, m, k, n, &mut out, None, Act::Identity, None);
                for (got, want) in out.iter().zip(&want) {
                    let tol = 1e-4 * want.abs().max(1.0);
                    assert!(
                        (got - want).abs() <= tol,
                        "{}: {got} vs {want}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tile_is_one_fma_chain_per_element() {
        // NN (`mm_rows`) and TN (`MmTn`) share `tile`: on every
        // tier, every element is an FMA chain from zero over the
        // reduction, ascending, then one add into `out`: of its old value
        // when accumulating, of `+0.0` when storing, with `out` then never
        // read (it starts full of NaN here). The shapes run the 8-, 6- and
        // 1-row tiles, one and two vectors per row, the masked right edge,
        // several panels and row blocks, and a TN shard that starts at
        // p0 > 0.
        let wave =
            |len: usize, f: f32| (0..len).map(|i| (i as f32 * f).sin()).collect::<Vec<f32>>();
        let chain = |len: usize, x: &dyn Fn(usize) -> f32, y: &dyn Fn(usize) -> f32, init: f32| {
            init + (0..len).fold(0.0f32, |acc, t| x(t).mul_add(y(t), acc))
        };
        let ns = (1..=17).chain([24, 32]);
        let shapes = [1usize, 5, 7, 8, 9, 13, 912]
            .into_iter()
            .flat_map(|m| ns.clone().map(move |n| (m, n)));
        for tier in tiers() {
            for (m, n) in shapes.clone() {
                for k in [1usize, 7, 9, 16] {
                    let (a, b, init) = (wave(m * k, 0.37), wave(k * n, 1.13), wave(m * n, 0.71));
                    let bp = pack_b_panels(&b, k, n);
                    let mut acc = init.clone();
                    let mut stored = vec![f32::NAN; m * n];
                    let id = Act::Identity;
                    mm_rows::<ACCUMULATE>(tier, &a, &bp, m, k, n, &mut acc, None, id, None);
                    mm_rows::<STORE>(tier, &a, &bp, m, k, n, &mut stored, None, id, None);
                    for e in 0..m * n {
                        let (i, j) = (e / n, e % n);
                        let dot = |init| chain(k, &|p| a[i * k + p], &|p| b[p * n + j], init);
                        let what = format!("{} {m}x{k}x{n} ({i}, {j})", tier.name());
                        assert_eq!(
                            acc[e].to_bits(),
                            dot(init[e]).to_bits(),
                            "nn accumulate {what}"
                        );
                        assert_eq!(stored[e].to_bits(), dot(0.0).to_bits(), "nn store {what}");
                    }
                    // TN: out[p][j] = init + Σ_i x[i][p]·d[i][j] over rows p0..k.
                    let (x, d, init) = (wave(m * k, 0.53), wave(m * n, 0.29), wave(k * n, 0.83));
                    for p0 in [0, k / 2] {
                        let mut out = init[p0 * n..].to_vec();
                        lanes::run(
                            tier,
                            MmTn {
                                a: &x,
                                b: &d,
                                m,
                                k,
                                n,
                                p0,
                                out: &mut out,
                            },
                        );
                        for (e, got) in out.iter().enumerate() {
                            let (p, j) = (p0 + e / n, e % n);
                            let want =
                                chain(m, &|i| x[i * k + p], &|i| d[i * n + j], init[p * n + j]);
                            let what = format!("{} {m}x{k}x{n} p0={p0} ({p}, {j})", tier.name());
                            assert_eq!(got.to_bits(), want.to_bits(), "tn {what}");
                        }
                    }
                }
            }
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
    fn kernel_propagates_zero_times_nan() {
        // IEEE faithfulness: a NaN in B must poison outputs even when the
        // matching A entry is zero — no zero-skip shortcut.
        let a = vec![0.0f32, 1.0];
        let mut b = vec![1.0f32; 2 * NR];
        b[3] = f32::NAN; // row p=0, column 3
        let bp = pack_b_panels(&b, 2, NR);
        for tier in tiers() {
            let mut out = vec![0.0f32; NR];
            mm_rows::<STORE>(tier, &a, &bp, 1, 2, NR, &mut out, None, Act::Identity, None);
            assert!(out[3].is_nan());
            assert_eq!(out[0], 1.0);
        }
    }
}
