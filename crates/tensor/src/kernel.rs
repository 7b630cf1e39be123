//! Micro-kernel implementations and runtime kernel selection.
//!
//! The packed GEMM driver in [`matmul`](crate::matmul) is generic over a
//! [`MicroKernel`]: the one piece of the BLIS recipe that touches ISA
//! specifics. The kernels:
//!
//! * [`Scalar4x8`] — the portable fallback, a 4×8 register tile whose
//!   `NR`-wide inner update auto-vectorises to whatever the target
//!   baseline offers (two 128-bit lanes on plain x86-64). Always
//!   available, byte-identical on every platform.
//! * `FmaTile<R, V>` (x86-64 only) — a hand-written AVX2+FMA `R`×`8V`
//!   tile using `core::arch` intrinsics, in two shapes: `Fma6x16` (12
//!   ymm accumulators, two B loads and one A broadcast per k step — 15 of
//!   the 16 ymm registers) and `Fma4x24` (12 accumulators, three B loads,
//!   one broadcast — all 16). Every shape computes each C element as the
//!   same in-order fma chain, so the choice never changes a bit.
//!
//! Selection happens once per GEMM call, not per tile: `avx2`+`fma` are
//! runtime-detected (`is_x86_feature_detected!`), and when present the
//! tile is the one that pads C less for the call's `(m, n)`
//! (`fma_4x24_pads_less`) — a function of the shape alone. The
//! `SPATL_FORCE_SCALAR` environment variable pins the portable kernel
//! for A/B testing and for CI runners whose hardware has AVX but whose
//! job wants the portable path exercised, and [`force_scalar`] toggles
//! the same pin programmatically so one process can ladder
//! scalar-vs-SIMD benchmarks.
//!
//! Numerical note: the FMA kernels contract each multiply-add to one
//! rounding, so their results differ from the scalar kernel's in the last
//! ulps (they are *more* accurate, not less). Nothing in the workspace
//! claims bit-identity between matmul and a reference — the packed-vs-
//! naive tests use an epsilon — but anything downstream that hashes
//! model bytes must run all compared processes on the same ISA path;
//! the FL determinism tests do (same process or same machine).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Largest tile height any kernel uses; accumulator tiles are statically
/// sized by this so the driver needs no const generics.
pub(crate) const MAX_MR: usize = 8;
/// Largest tile width any kernel uses.
pub(crate) const MAX_NR: usize = 24;

/// One register-tiled inner loop: everything the GEMM driver needs to
/// know about an ISA-specific kernel.
///
/// # Safety contract for [`MicroKernel::tile`]
///
/// `tile` is `unsafe fn` because implementations may require ISA
/// extensions: the caller must only invoke a kernel after confirming its
/// requirements hold on the running CPU ([`Scalar4x8`] has none;
/// `Fma6x16` requires AVX2+FMA, which [`use_fma`] checks). Slices must
/// satisfy `ap.len() >= kc * MR` and `bp.len() >= (kc − 1)·ldb + NR`,
/// where `ldb` is the distance between the panel's k rows of B (`NR` for
/// a packed panel, B's own row stride for one read in place).
pub(crate) trait MicroKernel {
    /// Tile height: rows of C accumulated in registers at once.
    const MR: usize;
    /// Tile width: columns of C accumulated in registers at once.
    const NR: usize;
    /// Is this an AVX2+FMA kernel? For such kernels the driver reads the
    /// full panels of a row-major B in place instead of packing them, and
    /// the packs that remain transpose with AVX; the portable kernel
    /// packs exactly as it always has.
    const SIMD: bool = false;

    /// Compute the `MR×NR` panel product over one k-block into `acc`.
    ///
    /// On entry `acc` is zeroed; on exit `acc[r][j]` for `r < MR`,
    /// `j < NR` holds `Σ_p ap[p·MR + r] · bp[p·ldb + j]`; entries beyond
    /// the tile are unspecified. See the trait-level safety contract.
    unsafe fn tile(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        ldb: usize,
        acc: &mut [[f32; MAX_NR]; MAX_MR],
    );

    /// Full-tile fast path: compute the panel product and store (or
    /// accumulate, per `accumulate`) a complete `MR×NR` tile straight
    /// into C at `c` with row stride `ldc`, skipping the intermediate
    /// accumulator buffer. Only called for interior tiles; edge tiles go
    /// through [`MicroKernel::tile`] plus the scalar write path.
    ///
    /// # Safety
    ///
    /// Everything [`MicroKernel::tile`] requires, plus: `c` must point
    /// into a live `f32` buffer such that `c[r·ldc + j]` is in-bounds
    /// and writable for all `r < MR`, `j < NR`, with no other thread
    /// concurrently accessing those elements.
    unsafe fn tile_into(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        accumulate: bool,
    ) {
        let mut acc = [[0.0f32; MAX_NR]; MAX_MR];
        // SAFETY: forwarded caller contract.
        unsafe { Self::tile(kc, ap, bp, ldb, &mut acc) };
        for (r, row) in acc.iter().enumerate().take(Self::MR) {
            // SAFETY: the caller guarantees rows `r < MR` of `NR`
            // elements at stride `ldc` are in-bounds and unaliased.
            let dst = unsafe { std::slice::from_raw_parts_mut(c.add(r * ldc), Self::NR) };
            if accumulate {
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d += v;
                }
            } else {
                dst.copy_from_slice(&row[..Self::NR]);
            }
        }
    }
}

/// Portable scalar/auto-vectorised fallback kernel (4×8 tile).
///
/// `MR·NR/4 + NR/4 + 1` SSE registers must fit in the 16 available on
/// baseline x86-64, so 4×8 (8 accumulator registers) is the sweet spot;
/// an 8×8 tile spills and runs ~40% slower.
pub(crate) struct Scalar4x8;

impl MicroKernel for Scalar4x8 {
    const MR: usize = 4;
    const NR: usize = 8;

    #[inline(always)]
    unsafe fn tile(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        ldb: usize,
        acc: &mut [[f32; MAX_NR]; MAX_MR],
    ) {
        // No ISA requirement; entirely safe code.
        for (p, a) in ap.chunks_exact(Self::MR).take(kc).enumerate() {
            let a: &[f32; 4] = a.try_into().unwrap();
            let b: &[f32; 8] = bp[p * ldb..p * ldb + 8].try_into().unwrap();
            for r in 0..4 {
                let ar = a[r];
                for j in 0..8 {
                    acc[r][j] += ar * b[j];
                }
            }
        }
    }
}

/// AVX2+FMA micro-kernel with an `R`×`8V` tile (`R` rows of C, `V` ymm
/// vectors of 8 columns each), x86-64 only.
///
/// Register allocation per k step: `R·V` ymm accumulators, `V` ymm
/// holding the current B row, 1 ymm for the broadcast A element. Each C
/// element is one fma chain over the k-block in ascending k, starting
/// from zero, whatever `R` and `V` are — so every tile shape gives the
/// same bits (DESIGN.md §7).
#[cfg(target_arch = "x86_64")]
pub(crate) struct FmaTile<const R: usize, const V: usize>;

/// 6×16: 12 accumulators + 2 B vectors + 1 broadcast = 15 of the 16 ymm
/// registers. The tile for tall products.
#[cfg(target_arch = "x86_64")]
pub(crate) type Fma6x16 = FmaTile<6, 2>;

/// 4×24: 12 accumulators + 3 B vectors + 1 broadcast = all 16 ymm
/// registers (its k loop is hand-written, `fma_panel_4x24`). The tile for
/// products with few rows (conv layers with 4, 8 or 16 output channels),
/// where a 6-row tile would be mostly padding.
#[cfg(target_arch = "x86_64")]
pub(crate) type Fma4x24 = FmaTile<4, 3>;

/// Does the 4×24 tile leave less of C as padding than 6×16 for an
/// `m`×`n` product? The padded areas are `⌈m/4⌉·4·⌈n/24⌉·24` and
/// `⌈m/6⌉·6·⌈n/16⌉·16`; a tie keeps 6×16. A function of the shape
/// alone, so a given product always runs the same tile.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_4x24_pads_less(m: usize, n: usize) -> bool {
    m.div_ceil(4) * 4 * (n.div_ceil(24) * 24) < m.div_ceil(6) * 6 * (n.div_ceil(16) * 16)
}

#[cfg(target_arch = "x86_64")]
impl<const R: usize, const V: usize> MicroKernel for FmaTile<R, V> {
    const MR: usize = R;
    const NR: usize = 8 * V;
    const SIMD: bool = true;

    #[inline]
    unsafe fn tile(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        ldb: usize,
        acc: &mut [[f32; MAX_NR]; MAX_MR],
    ) {
        // SAFETY: per the trait contract the caller has verified AVX2+FMA
        // (the GEMM driver only instantiates this kernel when `use_fma()`
        // returned true) and the panel-length preconditions.
        unsafe { fma_tile::<R, V>(kc, ap, bp, ldb, acc) }
    }

    #[inline]
    unsafe fn tile_into(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        accumulate: bool,
    ) {
        // SAFETY: same ISA argument as `tile`; the C-tile bounds are the
        // caller's contract, forwarded unchanged.
        unsafe { fma_tile_into::<R, V>(kc, ap, bp, ldb, c, ldc, accumulate) }
    }
}

/// The AVX2+FMA inner loop shared by every [`FmaTile`]: the `R`×`8V`
/// panel product over one k-block, left in registers.
///
/// # Safety
///
/// AVX2+FMA must be available; `ap.len() >= kc·R`,
/// `bp.len() >= (kc − 1)·ldb + 8V`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn fma_panel<const R: usize, const V: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
) -> [[core::arch::x86_64::__m256; V]; R] {
    use core::arch::x86_64::*;
    const { assert!(R <= MAX_MR && 8 * V <= MAX_NR) };
    debug_assert!(kc >= 1 && ap.len() >= kc * R && bp.len() >= (kc - 1) * ldb + 8 * V);
    if R == 4 && V == 3 {
        // SAFETY: the caller's contract is `fma_panel_4x24`'s, and the
        // debug-asserted lengths cover its reads.
        let c = unsafe { fma_panel_4x24(kc, ap.as_ptr(), bp.as_ptr(), ldb) };
        // SAFETY: `R == 4` and `V == 3`, so `[[__m256; 3]; 4]` is exactly
        // the return type.
        return unsafe { core::mem::transmute_copy(&c) };
    }
    let mut c = [[_mm256_setzero_ps(); V]; R];
    let mut bv = [_mm256_setzero_ps(); V];
    let (mut a, mut b) = (ap.as_ptr(), bp.as_ptr());
    // SAFETY: the loop reads exactly `kc` steps of `R` floats of `ap` and
    // `8V` floats `ldb` apart of `bp`, which the caller's panel-length
    // contract covers; `_mm256_loadu_ps` has no alignment requirement.
    unsafe {
        for _ in 0..kc {
            for (v, bv) in bv.iter_mut().enumerate() {
                *bv = _mm256_loadu_ps(b.add(8 * v));
            }
            for (r, row) in c.iter_mut().enumerate() {
                let ar = _mm256_set1_ps(*a.add(r));
                for (acc, &bv) in row.iter_mut().zip(&bv) {
                    *acc = _mm256_fmadd_ps(ar, bv, *acc);
                }
            }
            a = a.add(R);
            b = b.add(ldb);
        }
    }
    c
}

/// [`fma_panel`] of the 4×24 tile, its k loop written out: the tile
/// needs all 16 ymm registers (12 accumulators, 3 B vectors, 1
/// broadcast), and the compiler's schedule of the intrinsic loop holds two
/// broadcasts at once and spills an accumulator to the stack on every k
/// step. Each accumulator is the same fma chain (`c = a·b + c`, ascending
/// k) the intrinsic loop forms.
///
/// # Safety
///
/// AVX2+FMA must be available; `kc >= 1`; `a` must be readable for `4·kc`
/// floats and `b` for `(kc − 1)·ldb + 24`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_panel_4x24(
    kc: usize,
    a: *const f32,
    b: *const f32,
    ldb: usize,
) -> [[core::arch::x86_64::__m256; 3]; 4] {
    use core::arch::x86_64::*;
    assert!(kc >= 1, "an empty k-block would run the loop 2^64 times");
    let mut c = [[_mm256_setzero_ps(); 3]; 4];
    // SAFETY: the loop runs `kc >= 1` times, reading 4 floats at `a` and
    // 24 at `b` per step, then advancing `a` by 4 floats and `b` by `ldb`:
    // exactly the caller's readable ranges. It writes no memory and no
    // stack; the flags it changes are not declared preserved.
    unsafe {
        core::arch::asm!(
            "2:",
            "vmovups {b0}, ymmword ptr [{b}]",
            "vmovups {b1}, ymmword ptr [{b} + 32]",
            "vmovups {b2}, ymmword ptr [{b} + 64]",
            "vbroadcastss {t}, dword ptr [{a} + 0]",
            "vfmadd231ps {c00}, {t}, {b0}",
            "vfmadd231ps {c01}, {t}, {b1}",
            "vfmadd231ps {c02}, {t}, {b2}",
            "vbroadcastss {t}, dword ptr [{a} + 4]",
            "vfmadd231ps {c10}, {t}, {b0}",
            "vfmadd231ps {c11}, {t}, {b1}",
            "vfmadd231ps {c12}, {t}, {b2}",
            "vbroadcastss {t}, dword ptr [{a} + 8]",
            "vfmadd231ps {c20}, {t}, {b0}",
            "vfmadd231ps {c21}, {t}, {b1}",
            "vfmadd231ps {c22}, {t}, {b2}",
            "vbroadcastss {t}, dword ptr [{a} + 12]",
            "vfmadd231ps {c30}, {t}, {b0}",
            "vfmadd231ps {c31}, {t}, {b1}",
            "vfmadd231ps {c32}, {t}, {b2}",
            "add {a}, 16",
            "add {b}, {ldb}",
            "dec {k}",
            "jnz 2b",
            a = inout(reg) a => _,
            b = inout(reg) b => _,
            k = inout(reg) kc => _,
            ldb = in(reg) ldb * 4,
            b0 = out(ymm_reg) _,
            b1 = out(ymm_reg) _,
            b2 = out(ymm_reg) _,
            t = out(ymm_reg) _,
            c00 = inout(ymm_reg) c[0][0],
            c01 = inout(ymm_reg) c[0][1],
            c02 = inout(ymm_reg) c[0][2],
            c10 = inout(ymm_reg) c[1][0],
            c11 = inout(ymm_reg) c[1][1],
            c12 = inout(ymm_reg) c[1][2],
            c20 = inout(ymm_reg) c[2][0],
            c21 = inout(ymm_reg) c[2][1],
            c22 = inout(ymm_reg) c[2][2],
            c30 = inout(ymm_reg) c[3][0],
            c31 = inout(ymm_reg) c[3][1],
            c32 = inout(ymm_reg) c[3][2],
            options(nostack, readonly),
        );
    }
    c
}

/// [`fma_panel`] stored into the accumulator buffer (edge tiles).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_tile<const R: usize, const V: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    acc: &mut [[f32; MAX_NR]; MAX_MR],
) {
    use core::arch::x86_64::*;
    // SAFETY: ISA and panel lengths are the caller's contract; the stores
    // hit `acc[r][8v..8v + 8]` for `r < R ≤ MAX_MR`, `8V ≤ MAX_NR`
    // (checked at compile time in `fma_panel`).
    unsafe {
        let c = fma_panel::<R, V>(kc, ap, bp, ldb);
        for (row, dst) in c.iter().zip(acc.iter_mut()) {
            for (v, &x) in row.iter().enumerate() {
                _mm256_storeu_ps(dst.as_mut_ptr().add(8 * v), x);
            }
        }
    }
}

/// Full-tile path: [`fma_panel`] goes straight from ymm registers into C
/// (vector load+add+store when accumulating) — no intermediate buffer,
/// no scalar write.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_tile_into<const R: usize, const V: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    cp: *mut f32,
    ldc: usize,
    accumulate: bool,
) {
    use core::arch::x86_64::*;
    // SAFETY: panel reads as in `fma_panel`; C accesses touch
    // `cp[r·ldc + j]` for `r < R`, `j < 8V`, exactly the region the
    // caller's contract declares in-bounds and exclusively ours; all
    // loads/stores are the unaligned variants.
    unsafe {
        let c = fma_panel::<R, V>(kc, ap, bp, ldb);
        for (r, row) in c.iter().enumerate() {
            let dst = cp.add(r * ldc);
            for (v, &x) in row.iter().enumerate() {
                let d = dst.add(8 * v);
                if accumulate {
                    _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), x));
                } else {
                    _mm256_storeu_ps(d, x);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

const OVERRIDE_UNSET: u8 = 0;
const OVERRIDE_SCALAR: u8 = 1;
const OVERRIDE_AUTO: u8 = 2;

/// Programmatic override; when unset, the `SPATL_FORCE_SCALAR`
/// environment default applies.
static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_UNSET);

fn env_default_scalar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SPATL_FORCE_SCALAR")
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false)
    })
}

fn scalar_forced() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_SCALAR => true,
        OVERRIDE_AUTO => false,
        _ => env_default_scalar(),
    }
}

/// Does this CPU support the AVX2+FMA kernel? Detected once, cached.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn fma_available() -> bool {
    false
}

/// Should the GEMM driver take the FMA kernel on this call?
pub(crate) fn use_fma() -> bool {
    fma_available() && !scalar_forced()
}

/// Pin (or un-pin) the portable scalar micro-kernel for subsequent
/// matmuls in this process, overriding both hardware detection and the
/// `SPATL_FORCE_SCALAR` environment default.
///
/// Thread-visible immediately (relaxed atomic): in-flight matmuls keep
/// the kernel they dispatched with; new calls observe the change. The
/// bench harness uses this to measure the scalar→SIMD ladder in one
/// process.
pub fn force_scalar(on: bool) {
    OVERRIDE.store(
        if on { OVERRIDE_SCALAR } else { OVERRIDE_AUTO },
        Ordering::Relaxed,
    );
}

/// Name of the ISA path the next matmul will dispatch to: `"fma"` when
/// AVX2+FMA is detected and not overridden (the tile, 6×16 or 4×24, is
/// then chosen per call from the product's shape), `"scalar4x8"`
/// otherwise. Recorded in every `roundbench` run's provenance line so the
/// `tensor.*` metrics are attributable to a code path.
pub fn active_kernel() -> &'static str {
    if use_fma() {
        "fma"
    } else {
        "scalar4x8"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_overrides_detection() {
        force_scalar(true);
        assert_eq!(active_kernel(), "scalar4x8");
        force_scalar(false);
        // Whatever the hardware offers; just must not be pinned scalar
        // if FMA exists.
        if fma_available() {
            assert_eq!(active_kernel(), "fma");
        } else {
            assert_eq!(active_kernel(), "scalar4x8");
        }
        // Leave the process in auto mode for other tests.
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn narrow_tile_is_taken_where_it_pads_less() {
        // (m, n, 4×24?) — the conv GEMMs of ResNet-20 × 0.25 at batch 16
        // (forward 4/8/16 × spatial, weight-grad 4/8/16 × 36/72/144),
        // VGG-11's 1×1 tail (n = 16), ties, and tiny products.
        for (m, n, narrow) in [
            (4, 4096, true),
            (8, 1024, true),
            (16, 256, true),
            (4, 36, true),
            (8, 72, true),
            (16, 144, true),
            (36, 4096, false),
            (128, 16, false),
            (128, 64, false),
            (6, 16, false),
            (12, 48, false),
            (4, 16, false),
            (1, 1, false),
            (4, 24, true),
            (6, 24, false),
        ] {
            assert_eq!(fma_4x24_pads_less(m, n), narrow, "m={m} n={n}");
        }
    }

    #[test]
    fn scalar_tile_matches_reference() {
        let kc = 7;
        let ap: Vec<f32> = (0..kc * 4).map(|i| i as f32 * 0.25 - 3.0).collect();
        let bp: Vec<f32> = (0..kc * 8).map(|i| 1.5 - i as f32 * 0.125).collect();
        let mut acc = [[0.0f32; MAX_NR]; MAX_MR];
        // SAFETY: Scalar4x8 has no ISA requirement; panels sized above.
        unsafe { Scalar4x8::tile(kc, &ap, &bp, 8, &mut acc) };
        for r in 0..4 {
            for j in 0..8 {
                let want: f32 = (0..kc).map(|p| ap[p * 4 + r] * bp[p * 8 + j]).sum();
                assert!((acc[r][j] - want).abs() < 1e-4);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_tile_matches_scalar_reference() {
        if !fma_available() {
            return; // nothing to test on this CPU
        }
        let kc = 13;
        let ap: Vec<f32> = (0..kc * 6).map(|i| (i as f32).sin()).collect();
        let bp: Vec<f32> = (0..kc * 16).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut acc = [[0.0f32; MAX_NR]; MAX_MR];
        // SAFETY: fma_available() confirmed AVX2+FMA; panels sized above.
        unsafe { Fma6x16::tile(kc, &ap, &bp, 16, &mut acc) };
        for r in 0..6 {
            for j in 0..16 {
                let want: f32 = (0..kc).map(|p| ap[p * 6 + r] * bp[p * 16 + j]).sum();
                assert!(
                    (acc[r][j] - want).abs() < 1e-4,
                    "r={r} j={j}: {} vs {want}",
                    acc[r][j]
                );
            }
        }
    }
}
