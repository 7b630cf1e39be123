//! Micro-kernel implementations and runtime kernel selection.
//!
//! The packed GEMM driver in [`matmul`](crate::matmul) is generic over a
//! [`MicroKernel`]: the one piece of the BLIS recipe that touches ISA
//! specifics. Two kernels exist:
//!
//! * [`Scalar4x8`] — the portable fallback, a 4×8 register tile whose
//!   `NR`-wide inner update auto-vectorises to whatever the target
//!   baseline offers (two 128-bit lanes on plain x86-64). Always
//!   available, byte-identical on every platform.
//! * `Fma6x16` (x86-64 only) — a hand-written AVX2+FMA 6×16 tile using
//!   `core::arch` intrinsics: 12 ymm accumulators, two ymm B loads and
//!   one A broadcast per k step — 15 of the 16 ymm registers, the widest
//!   tile that fits without spilling.
//!
//! Selection happens once per GEMM call, not per tile: `avx2`+`fma` are
//! runtime-detected (`is_x86_feature_detected!`), the `SPATL_FORCE_SCALAR`
//! environment variable pins the fallback for A/B testing and for CI
//! runners whose hardware has AVX but whose job wants the portable path
//! exercised, and [`force_scalar`] toggles the same pin programmatically
//! so one process can ladder scalar-vs-SIMD benchmarks.
//!
//! Numerical note: the FMA kernel contracts each multiply-add to one
//! rounding, so its results differ from the scalar kernel's in the last
//! ulps (it is *more* accurate, not less). Nothing in the workspace
//! claims bit-identity between matmul and a reference — the packed-vs-
//! naive tests use an epsilon — but anything downstream that hashes
//! model bytes must run all compared processes with the same kernel;
//! the FL determinism tests do (same process or same machine).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Largest tile height any kernel uses; accumulator tiles are statically
/// sized by this so the driver needs no const generics.
pub(crate) const MAX_MR: usize = 8;
/// Largest tile width any kernel uses.
pub(crate) const MAX_NR: usize = 16;

/// One register-tiled inner loop: everything the GEMM driver needs to
/// know about an ISA-specific kernel.
///
/// # Safety contract for [`MicroKernel::tile`]
///
/// `tile` is `unsafe fn` because implementations may require ISA
/// extensions: the caller must only invoke a kernel after confirming its
/// requirements hold on the running CPU ([`Scalar4x8`] has none;
/// `Fma6x16` requires AVX2+FMA, which [`use_fma`] checks). Slices must
/// satisfy `ap.len() >= kc * MR` and `bp.len() >= kc * NR`.
pub(crate) trait MicroKernel {
    /// Tile height: rows of C accumulated in registers at once.
    const MR: usize;
    /// Tile width: columns of C accumulated in registers at once.
    const NR: usize;
    /// Human-readable kernel name, recorded by the bench harness.
    const NAME: &'static str;

    /// Compute the `MR×NR` panel product over one k-block into `acc`.
    ///
    /// On entry `acc` is zeroed; on exit `acc[r][j]` for `r < MR`,
    /// `j < NR` holds `Σ_p ap[p·MR + r] · bp[p·NR + j]`; entries beyond
    /// the tile are unspecified. See the trait-level safety contract.
    unsafe fn tile(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; MAX_NR]; MAX_MR]);

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
        c: *mut f32,
        ldc: usize,
        accumulate: bool,
    ) {
        let mut acc = [[0.0f32; MAX_NR]; MAX_MR];
        // SAFETY: forwarded caller contract.
        unsafe { Self::tile(kc, ap, bp, &mut acc) };
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
    const NAME: &'static str = "scalar4x8";

    #[inline(always)]
    unsafe fn tile(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; MAX_NR]; MAX_MR]) {
        // No ISA requirement; entirely safe code.
        debug_assert!(ap.len() >= kc * Self::MR && bp.len() >= kc * Self::NR);
        for (a, b) in ap
            .chunks_exact(Self::MR)
            .zip(bp.chunks_exact(Self::NR))
            .take(kc)
        {
            let a: &[f32; 4] = a.try_into().unwrap();
            let b: &[f32; 8] = b.try_into().unwrap();
            for r in 0..4 {
                let ar = a[r];
                for j in 0..8 {
                    acc[r][j] += ar * b[j];
                }
            }
        }
    }
}

/// AVX2+FMA micro-kernel (6×16 tile), x86-64 only.
///
/// Register allocation per k step: 12 ymm accumulators (6 rows × 2
/// vectors of 8 columns), 2 ymm holding the current B row, 1 ymm for the
/// broadcast A element — 15 of 16 ymm registers, leaving one for the
/// compiler. Each k step issues 12 FMAs on 8 lanes = 192 FLOPs.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Fma6x16;

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Fma6x16 {
    const MR: usize = 6;
    const NR: usize = 16;
    const NAME: &'static str = "fma6x16";

    #[inline]
    unsafe fn tile(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; MAX_NR]; MAX_MR]) {
        // SAFETY: per the trait contract the caller has verified AVX2+FMA
        // (the GEMM driver only instantiates this kernel when `use_fma()`
        // returned true) and the panel-length preconditions.
        unsafe { fma_tile_6x16(kc, ap, bp, acc) }
    }

    #[inline]
    unsafe fn tile_into(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: *mut f32,
        ldc: usize,
        accumulate: bool,
    ) {
        // SAFETY: same ISA argument as `tile`; the C-tile bounds are the
        // caller's contract, forwarded unchanged.
        unsafe { fma_tile_into_6x16(kc, ap, bp, c, ldc, accumulate) }
    }
}

/// The actual AVX2+FMA inner loop; split out so `#[target_feature]` can
/// let the compiler use ymm registers and fuse multiply-adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_tile_6x16(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; MAX_NR]; MAX_MR]) {
    use core::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * 6 && bp.len() >= kc * 16);
    // SAFETY (whole body): pointer arithmetic stays inside `ap`/`bp` —
    // the loop reads exactly `kc` steps of 6 (resp. 16) floats, which the
    // debug-asserted preconditions cover; `_mm256_loadu_ps`/`storeu` are
    // the unaligned variants, so no alignment requirement; the final
    // stores hit `acc[r][0..16]`, in-bounds for `[f32; MAX_NR]` rows.
    unsafe {
        let mut c: [[__m256; 2]; 6] = [[_mm256_setzero_ps(); 2]; 6];
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            for (r, row) in c.iter_mut().enumerate() {
                let ar = _mm256_set1_ps(*a.add(r));
                row[0] = _mm256_fmadd_ps(ar, b0, row[0]);
                row[1] = _mm256_fmadd_ps(ar, b1, row[1]);
            }
            a = a.add(6);
            b = b.add(16);
        }
        for (r, row) in c.iter().enumerate() {
            _mm256_storeu_ps(acc[r].as_mut_ptr(), row[0]);
            _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), row[1]);
        }
    }
}

/// Full-tile AVX2+FMA path: identical compute loop, but the 6×16 result
/// goes straight from ymm registers into C (vector load+add+store when
/// accumulating) — no intermediate accumulator buffer, no scalar write.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_tile_into_6x16(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    cp: *mut f32,
    ldc: usize,
    accumulate: bool,
) {
    use core::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * 6 && bp.len() >= kc * 16);
    // SAFETY (whole body): panel reads as in `fma_tile_6x16`; C accesses
    // touch `cp[r·ldc + j]` for `r < 6`, `j < 16`, exactly the region the
    // caller's contract declares in-bounds and exclusively ours; all
    // loads/stores are the unaligned variants.
    unsafe {
        let mut c: [[__m256; 2]; 6] = [[_mm256_setzero_ps(); 2]; 6];
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            for (r, row) in c.iter_mut().enumerate() {
                let ar = _mm256_set1_ps(*a.add(r));
                row[0] = _mm256_fmadd_ps(ar, b0, row[0]);
                row[1] = _mm256_fmadd_ps(ar, b1, row[1]);
            }
            a = a.add(6);
            b = b.add(16);
        }
        for (r, row) in c.iter().enumerate() {
            let dst = cp.add(r * ldc);
            if accumulate {
                let lo = _mm256_add_ps(_mm256_loadu_ps(dst), row[0]);
                let hi = _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), row[1]);
                _mm256_storeu_ps(dst, lo);
                _mm256_storeu_ps(dst.add(8), hi);
            } else {
                _mm256_storeu_ps(dst, row[0]);
                _mm256_storeu_ps(dst.add(8), row[1]);
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

/// Name of the micro-kernel the next matmul will dispatch to:
/// `"fma6x16"` when AVX2+FMA is detected and not overridden,
/// `"scalar4x8"` otherwise. Recorded in every `roundbench` run's
/// provenance line so the `tensor.*` metrics are attributable to a code
/// path.
pub fn active_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if use_fma() {
        return Fma6x16::NAME;
    }
    Scalar4x8::NAME
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
            assert_eq!(active_kernel(), "fma6x16");
        } else {
            assert_eq!(active_kernel(), "scalar4x8");
        }
        // Leave the process in auto mode for other tests.
    }

    #[test]
    fn scalar_tile_matches_reference() {
        let kc = 7;
        let ap: Vec<f32> = (0..kc * 4).map(|i| i as f32 * 0.25 - 3.0).collect();
        let bp: Vec<f32> = (0..kc * 8).map(|i| 1.5 - i as f32 * 0.125).collect();
        let mut acc = [[0.0f32; MAX_NR]; MAX_MR];
        // SAFETY: Scalar4x8 has no ISA requirement; panels sized above.
        unsafe { Scalar4x8::tile(kc, &ap, &bp, &mut acc) };
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
        unsafe { Fma6x16::tile(kc, &ap, &bp, &mut acc) };
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
