//! Packed, register-tiled, rayon-parallel matrix multiplication.
//!
//! Essentially all training time in this project is spent here (convolution
//! is lowered to matmul via `im2col`), so the kernel follows the classic
//! BLIS-style CPU recipe:
//!
//! * The output is computed in `MR`×`NR` **register tiles**: the micro-kernel
//!   keeps a full accumulator tile in registers across an entire k-block, so
//!   C traffic is one store (or load+store) per tile per k-block instead of
//!   one load+store per scalar multiply.
//! * Operands are read through **packed panels**: for each k-block a worker
//!   packs its A rows into `MR`-high column-interleaved panels and each B
//!   column strip into an `NR`-wide row-interleaved panel, so the
//!   micro-kernel's inner loop reads two short contiguous runs per k step
//!   regardless of the original layouts. Packing also zero-pads edge tiles,
//!   which keeps the micro-kernel free of bounds logic for arbitrary m/n/k.
//!   (When few A panels share a row-major B, an AVX2+FMA kernel reads
//!   its full panels where they lie instead: there each k step already is
//!   one contiguous run.)
//! * The transposed variants [`matmul_tn`] / [`matmul_nt`] reuse the same
//!   micro-kernel — only the packing routines differ — so the gradient
//!   GEMMs run at the same throughput as the forward one (the old
//!   dot-product `nt` loop could not vectorise at all).
//!
//! The micro-kernel itself is pluggable (see [`kernel`](crate::kernel)):
//! on x86-64 CPUs with AVX2+FMA a 6×16 or a 4×24 tile, whichever pads C
//! less for the call's `(m, n)`; the portable 4×8 auto-vectorised tile
//! everywhere else. The driver is generic over the kernel's tile shape,
//! so packing, edge handling, and parallel partitioning are written once;
//! for the FMA tiles the transposing packs (a transposed B, a row-major
//! A at `MR = 4`) move 8×8 / 4×4 blocks through SIMD registers.
//!
//! Work is parallelised over blocks of C — at most `NC` columns by groups
//! of `MC`-row blocks — on the persistent worker pool in the vendored
//! `rayon`; each worker packs into a stack A buffer and a thread-local B
//! strip, so on one thread a matmul performs no heap allocation beyond
//! its output (and none at all through the `_into` variants); a parallel
//! call adds its list of task ids to the pool's own bookkeeping.
//! Tile/block constants and retuning notes live in DESIGN.md §7 and §13.

use crate::kernel::{MicroKernel, Scalar4x8, MAX_MR, MAX_NR};
use crate::Tensor;
use rayon::prelude::*;

/// Tile height of the portable fallback micro-kernel (`Scalar4x8` in
/// the `kernel` module); the AVX2+FMA tiles are 6×16 and 4×24. Kept
/// public as the canonical reference point for blocking math in docs
/// and benches.
pub const MR: usize = 4;
/// Tile width of the portable fallback micro-kernel.
pub const NR: usize = 8;
/// k-block: one A panel plus one B panel stay L1-resident for every
/// kernel (worst case 4·128·4 B + 128·24·4 B = 14 KiB of 32 KiB L1d).
pub const KC: usize = 128;
/// Row block: the unit of A packing and of row partitioning
/// (≤ `(MC+MAX_MR)·KC` floats = 36 KiB packed, L2-resident next to
/// streamed B panels).
pub const MC: usize = 64;
/// Column block: the widest packed-B strip (`KC·NC` floats = 512 KiB per
/// thread) and the coarsest unit of column partitioning.
pub const NC: usize = 1024;

/// Most A panels (`MR`-row tiles of C) for which an AVX2+FMA kernel reads
/// a row-major B in place instead of packing it (see `gemm_with`).
const IN_PLACE_PANELS: usize = 4;

/// How the left operand is stored relative to the product `C = A·B`.
#[derive(Clone, Copy)]
enum AKind {
    /// `A: [m,k]` row-major; element `(i,p)` at `a[i·k + p]`.
    RowMajor,
    /// `A` stored `[k,m]` (the product uses `Aᵀ`); `(i,p)` at `a[p·m + i]`.
    Transposed,
}

/// How the right operand is stored relative to the product `C = A·B`.
#[derive(Clone, Copy)]
enum BKind {
    /// `B: [k,n]` row-major; element `(p,j)` at `b[p·n + j]`.
    RowMajor,
    /// `B` stored `[n,k]` (the product uses `Bᵀ`); `(p,j)` at `b[j·k + p]`.
    Transposed,
}

/// `C = A · B` for row-major `A: [m,k]`, `B: [k,n]`.
///
/// Panics if the inner dimensions disagree; shape errors here are programmer
/// bugs (layer wiring), not runtime data errors.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros([a.dims()[0], b.dims()[1]]);
    matmul_into(a, b, &mut c);
    c
}

/// `C = A · B` writing into a preallocated output tensor. Every element of
/// `c` is overwritten, so the buffer's previous contents are irrelevant.
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    assert_eq!(a.dims().len(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.dims().len(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    assert_eq!(c.dims(), &[m, n], "matmul output shape mismatch");
    gemm(
        a.data(),
        AKind::RowMajor,
        b.data(),
        BKind::RowMajor,
        m,
        n,
        k,
        c.data_mut(),
    );
}

/// `C = Aᵀ · B` for `A: [k,m]`, `B: [k,n]` → `C: [m,n]`, without
/// materialising the transpose. Used for weight gradients.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros([a.dims()[1], b.dims()[1]]);
    matmul_tn_into(a, b, &mut c);
    c
}

/// `C = Aᵀ · B` writing into a preallocated output tensor.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    assert_eq!(a.dims().len(), 2, "matmul_tn lhs must be rank 2");
    assert_eq!(b.dims().len(), 2, "matmul_tn rhs must be rank 2");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn inner dimension mismatch: {k} vs {k2}");
    assert_eq!(c.dims(), &[m, n], "matmul_tn output shape mismatch");
    gemm(
        a.data(),
        AKind::Transposed,
        b.data(),
        BKind::RowMajor,
        m,
        n,
        k,
        c.data_mut(),
    );
}

/// `C = A · Bᵀ` for `A: [m,k]`, `B: [n,k]` → `C: [m,n]`, without
/// materialising the transpose. Used for input gradients and for the
/// `y = x·Wᵀ` forward of conv/linear layers.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros([a.dims()[0], b.dims()[0]]);
    matmul_nt_into(a, b, &mut c);
    c
}

/// `C = A · Bᵀ` writing into a preallocated output tensor.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    assert_eq!(a.dims().len(), 2, "matmul_nt lhs must be rank 2");
    assert_eq!(b.dims().len(), 2, "matmul_nt rhs must be rank 2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt inner dimension mismatch: {k} vs {k2}");
    assert_eq!(c.dims(), &[m, n], "matmul_nt output shape mismatch");
    gemm(
        a.data(),
        AKind::RowMajor,
        b.data(),
        BKind::Transposed,
        m,
        n,
        k,
        c.data_mut(),
    );
}

/// Blocked driver shared by all three layout variants: dispatches once
/// per call to the FMA tile that pads C less (if the CPU, and any
/// override, allows FMA) or the portable tile, then runs the
/// kernel-generic blocked loop.
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: &[f32],
    akind: AKind,
    b: &[f32],
    bkind: BKind,
    m: usize,
    n: usize,
    k: usize,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    // Small products stay on the calling thread, where dispatch would cost
    // more than the work.
    let threads = if m * n >= rayon::PAR_CHUNK_ELEMENTS {
        rayon::current_num_threads()
    } else {
        1
    };
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::use_fma() {
        if crate::kernel::fma_4x24_pads_less(m, n) {
            gemm_with::<crate::kernel::Fma4x24>(a, akind, b, bkind, m, n, k, c, threads);
        } else {
            gemm_with::<crate::kernel::Fma6x16>(a, akind, b, bkind, m, n, k, c, threads);
        }
        return;
    }
    gemm_with::<Scalar4x8>(a, akind, b, bkind, m, n, k, c, threads);
}

thread_local! {
    /// Reusable packed-B strip: one task's column block of B, packed once
    /// per k-block and read by every row block of the task. At most
    /// `KC × NC` floats, grown once per thread, so steady-state matmuls
    /// perform no heap allocation. Taken out of the cell for the duration
    /// of a task (and restored after), so a re-entrant matmul on the same
    /// thread — possible when the pool's help-first wait runs another
    /// call's job — simply allocates its own buffer instead of aliasing
    /// this one.
    static BSTRIP: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// C's base pointer, shared by the tasks of one [`gemm_with`] call.
#[derive(Clone, Copy)]
struct CPtr(*mut f32);

// SAFETY: the tasks of one call write disjoint row × column blocks of C
// (they partition it), and the `&mut [f32]` the pointer was taken from
// stays borrowed until the parallel call has joined every task.
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

impl CPtr {
    /// Address of element `(i, j)` of the row-major, `ldc`-wide C.
    fn at(self, i: usize, j: usize, ldc: usize) -> *mut f32 {
        self.0.wrapping_add(i * ldc + j)
    }
}

/// The kernel-generic blocked loop.
///
/// C is cut into tasks, enough to give each of `threads` workers one: a
/// column block of whole `NR` panels (at most `NC` columns) times a group
/// of `MC`-row blocks. Per k-block a task packs its B columns once into
/// the thread-local strip, then each of its row blocks packs its A rows
/// and runs the register-tiled micro-kernel over the strip, one A panel
/// at a time across every B panel: each tile row of C is written in one
/// sweep, which keeps the stores of short-k products (the conv
/// input-gradient GEMM has k = output channels) streaming. On one thread
/// a task owns every row block of its columns, so each B element is
/// packed once; with more threads, shapes with fewer row blocks than
/// threads (conv forward and weight-gradient GEMMs have `m` = output
/// channels) split their columns finer, and tall ones also split their
/// rows. Interior tiles take the kernel's direct-to-C vector store path
/// ([`MicroKernel::tile_into`]); edge tiles (zero-padded in the packed
/// panels) use the accumulator-buffer path with a scalar partial write.
/// The first k-block *stores* (so `c` need not be zeroed beforehand);
/// later k-blocks accumulate. How C is cut never changes a result: each
/// element is one task's in-order k-block chain.
#[allow(clippy::too_many_arguments)]
fn gemm_with<K: MicroKernel>(
    a: &[f32],
    akind: AKind,
    b: &[f32],
    bkind: BKind,
    m: usize,
    n: usize,
    k: usize,
    c: &mut [f32],
    threads: usize,
) {
    let astride = match akind {
        AKind::RowMajor => k,
        AKind::Transposed => m,
    };
    let bstride = match bkind {
        BKind::RowMajor => n,
        BKind::Transposed => k,
    };
    let (bpanels, row_blocks) = (n.div_ceil(K::NR), m.div_ceil(MC));
    let col_tasks = n
        .div_ceil(NC)
        .max(threads.div_ceil(row_blocks))
        .min(bpanels);
    let panels_per_task = bpanels.div_ceil(col_tasks);
    let col_tasks = bpanels.div_ceil(panels_per_task);
    let row_tasks = row_blocks.min(threads.div_ceil(col_tasks));
    let blocks_per_task = row_blocks.div_ceil(row_tasks);
    let row_tasks = row_blocks.div_ceil(blocks_per_task);
    let c = CPtr(c.as_mut_ptr());
    // Packing a B panel pays when many A panels reuse it. When at most
    // `IN_PLACE_PANELS` do (the conv forward GEMMs of 4–16 channels), an
    // AVX2+FMA kernel reads a row-major B's full panels where they lie
    // (`ldb = n`; each k step is one contiguous run); edge panels are
    // still packed (zero-padded). Taller products keep packing: their
    // reads of a panel's k rows `n` floats apart would be repeated per A
    // panel.
    let in_place = K::SIMD && matches!(bkind, BKind::RowMajor) && m <= IN_PLACE_PANELS * K::MR;

    let task = |t: usize| {
        let (rt, ct) = (t / col_tasks, t % col_tasks);
        let panels = ct * panels_per_task..((ct + 1) * panels_per_task).min(bpanels);
        let blocks = rt * blocks_per_task..((rt + 1) * blocks_per_task).min(row_blocks);
        // The strip only ever grows: shrinking and regrowing it would
        // zero-fill the regrown part on every call.
        let mut strip = BSTRIP.take();
        let need = panels.len() * KC.min(k) * K::NR;
        if strip.len() < need {
            strip.resize(need, 0.0);
        }
        // Stack-allocated A pack buffer sized for the widest kernel,
        // allowing one partially-out-of-range panel (`MC` need not divide
        // `K::MR`).
        let mut apack = [0.0f32; (MC + MAX_MR) * KC];
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let strip = &mut strip[..panels.len() * kc * K::NR];
            for (slot, bp) in strip.chunks_exact_mut(kc * K::NR).zip(panels.clone()) {
                let j0 = bp * K::NR;
                let nr = K::NR.min(n - j0);
                if !(in_place && nr == K::NR) {
                    pack_b::<K>(slot, b, bkind, bstride, j0, nr, pc, kc);
                }
            }
            for blk in blocks.clone() {
                let row0 = blk * MC;
                let rows = MC.min(m - row0);
                pack_a::<K>(&mut apack, a, akind, astride, row0, rows, pc, kc);
                for p in 0..rows.div_ceil(K::MR) {
                    let ap = &apack[p * kc * K::MR..(p + 1) * kc * K::MR];
                    let i0 = row0 + p * K::MR;
                    let mr = K::MR.min(row0 + rows - i0);
                    for (packed, bp) in strip.chunks_exact(kc * K::NR).zip(panels.clone()) {
                        let j0 = bp * K::NR;
                        let nr = K::NR.min(n - j0);
                        let (bpanel, ldb) = if in_place && nr == K::NR {
                            (&b[pc * n + j0..], n)
                        } else {
                            (packed, K::NR)
                        };
                        let ctile = c.at(i0, j0, n);
                        if mr == K::MR && nr == K::NR {
                            // SAFETY: `gemm` selected this kernel after its
                            // ISA check (`use_fma`; the scalar kernel needs
                            // none); `ap` holds `kc·MR` floats and `bpanel`
                            // `(kc − 1)·ldb + NR` (a packed panel, or B from
                            // row `pc`, column `j0 + NR ≤ n` on); the full `MR×NR` tile at
                            // `ctile` (row stride `n`) lies inside C and in
                            // this task's block, which no other task writes.
                            unsafe { K::tile_into(kc, ap, bpanel, ldb, ctile, n, pc > 0) };
                        } else {
                            let mut acc = [[0.0f32; MAX_NR]; MAX_MR];
                            // SAFETY: as above, minus the C-tile clause.
                            unsafe { K::tile(kc, ap, bpanel, ldb, &mut acc) };
                            // SAFETY: the valid `mr × nr` corner of the tile
                            // lies inside C and in this task's block.
                            unsafe { write_tile(ctile, n, mr, nr, &acc, pc > 0) };
                        }
                    }
                }
            }
            pc += KC;
        }
        BSTRIP.set(strip);
    };
    let tasks = row_tasks * col_tasks;
    if threads > 1 {
        let ids: Vec<usize> = (0..tasks).collect();
        ids.par_iter().for_each(|&t| task(t));
    } else {
        (0..tasks).for_each(task);
    }
}

/// Pack A rows `[row0, row0+rows)` × k `[pc, pc+kc)` into `K::MR`-high
/// panels (the active kernel's tile height).
///
/// Panel `p` holds rows `row0 + p·MR ..`, laid out k-major (`MR`
/// contiguous values per k step, zero-padded past the last real row) so
/// the micro-kernel reads one short contiguous run per k step. Generic
/// over the kernel so a full panel's runs have a compile-time length and
/// copy inline instead of through `memcpy`.
#[allow(clippy::too_many_arguments)]
fn pack_a<K: MicroKernel>(
    apack: &mut [f32],
    a: &[f32],
    kind: AKind,
    stride: usize,
    row0: usize,
    rows: usize,
    pc: usize,
    kc: usize,
) {
    let panels = rows.div_ceil(K::MR);
    debug_assert!(
        apack.len() >= panels * kc * K::MR,
        "A pack buffer too small: {} < {}",
        apack.len(),
        panels * kc * K::MR
    );
    for p in 0..panels {
        let r0 = row0 + p * K::MR;
        let mr = K::MR.min(row0 + rows - r0);
        let dst = &mut apack[p * kc * K::MR..(p + 1) * kc * K::MR];
        debug_assert!(mr >= 1, "empty A panel: rows={rows} p={p}");
        if mr < K::MR {
            dst.fill(0.0); // zero-pad the edge panel once, then overwrite
        }
        match kind {
            #[cfg(target_arch = "x86_64")]
            AKind::RowMajor if K::SIMD && K::MR == 4 && mr == 4 => {
                pack_rows4(dst, a, stride, r0, pc, kc);
            }
            AKind::RowMajor => {
                for r in 0..mr {
                    let src = &a[(r0 + r) * stride + pc..(r0 + r) * stride + pc + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * K::MR + r] = v;
                    }
                }
            }
            AKind::Transposed => {
                for kk in 0..kc {
                    let src = &a[(pc + kk) * stride + r0..];
                    let run = &mut dst[kk * K::MR..(kk + 1) * K::MR];
                    if mr == K::MR {
                        run.copy_from_slice(&src[..K::MR]);
                    } else {
                        run[..mr].copy_from_slice(&src[..mr]);
                    }
                }
            }
        }
    }
}

/// Pack the B strip columns `[j0, j0+nr)` × k `[pc, pc+kc)` into one
/// `K::NR`-wide panel, k-major (`NR` contiguous values per k step),
/// zero-padded past the last real column. Generic over the kernel for the
/// same reason as [`pack_a`].
#[allow(clippy::too_many_arguments)]
fn pack_b<K: MicroKernel>(
    bpack: &mut [f32],
    b: &[f32],
    kind: BKind,
    stride: usize,
    j0: usize,
    nr: usize,
    pc: usize,
    kc: usize,
) {
    debug_assert!(
        bpack.len() >= kc * K::NR && (1..=K::NR).contains(&nr),
        "B pack: len={} kc={kc} nr={nr}",
        bpack.len()
    );
    match kind {
        BKind::RowMajor => {
            for kk in 0..kc {
                let src = &b[(pc + kk) * stride + j0..];
                let dst = &mut bpack[kk * K::NR..(kk + 1) * K::NR];
                if nr == K::NR {
                    dst.copy_from_slice(&src[..K::NR]);
                } else {
                    dst[..nr].copy_from_slice(&src[..nr]);
                    dst[nr..].fill(0.0);
                }
            }
        }
        BKind::Transposed => {
            if nr < K::NR {
                bpack[..kc * K::NR].fill(0.0);
            }
            let mut done = 0;
            #[cfg(target_arch = "x86_64")]
            if K::SIMD {
                // SAFETY: `SIMD` kernels only run after `use_fma()`
                // confirmed AVX2+FMA; B rows `j0..j0 + nr` each hold
                // `pc + kc` floats at `stride`, and `bpack` holds
                // `kc·NR` with `nr ≤ NR` (asserted above).
                done = unsafe { pack_cols8(bpack, K::NR, b, stride, j0, nr, pc, kc) };
            }
            for j in done..nr {
                let src = &b[(j0 + j) * stride + pc..(j0 + j) * stride + pc + kc];
                for (kk, &v) in src.iter().enumerate() {
                    bpack[kk * K::NR + j] = v;
                }
            }
        }
    }
}

/// Pack the 4 A rows `r0..r0 + 4` × k `[pc, pc+kc)` of a row-major A into
/// one 4-high panel (`dst[kk·4 + r]`): 4×4 SSE transposes (SSE is part of
/// every x86-64) over each full group of 4 k steps, the `kc % 4` tail
/// element by element. Bit-for-bit the scalar pack.
#[cfg(target_arch = "x86_64")]
fn pack_rows4(dst: &mut [f32], a: &[f32], stride: usize, r0: usize, pc: usize, kc: usize) {
    use core::arch::x86_64::*;
    let dst = &mut dst[..kc * 4];
    let rows: [&[f32]; 4] = std::array::from_fn(|r| &a[(r0 + r) * stride + pc..][..kc]);
    let full = kc / 4 * 4;
    debug_assert!(kc - full < 4, "k tail {}", kc - full);
    for kk in (0..full).step_by(4) {
        // SAFETY: `kk + 4 ≤ full ≤ kc`, the length of every row slice, and
        // `(kk + 4)·4 ≤ kc·4 ≤ dst.len()`; loads/stores are unaligned.
        unsafe {
            let r: [__m128; 4] = std::array::from_fn(|i| _mm_loadu_ps(rows[i].as_ptr().add(kk)));
            let t0 = _mm_unpacklo_ps(r[0], r[1]);
            let t1 = _mm_unpacklo_ps(r[2], r[3]);
            let t2 = _mm_unpackhi_ps(r[0], r[1]);
            let t3 = _mm_unpackhi_ps(r[2], r[3]);
            let out = dst.as_mut_ptr().add(kk * 4);
            _mm_storeu_ps(out, _mm_movelh_ps(t0, t1));
            _mm_storeu_ps(out.add(4), _mm_movehl_ps(t1, t0));
            _mm_storeu_ps(out.add(8), _mm_movelh_ps(t2, t3));
            _mm_storeu_ps(out.add(12), _mm_movehl_ps(t3, t2));
        }
    }
    for kk in full..kc {
        for (r, row) in rows.iter().enumerate() {
            dst[kk * 4 + r] = row[kk];
        }
    }
}

/// Pack the whole groups of 8 columns among B columns `j0..j0 + nr` of a
/// transposed B (`(p, j)` at `b[j·stride + p]`) into an `nr_panel`-wide
/// panel (`bpack[kk·nr_panel + j]`): 8×8 AVX transposes over each full
/// block of 8 k steps, the `kc % 8` tail element by element. Returns the
/// number of columns packed (`nr` rounded down to 8); the caller packs
/// the rest. Bit-for-bit the scalar pack.
///
/// # Safety
///
/// AVX must be available. (`b`'s rows, `nr ≤ nr_panel` and
/// `bpack.len() >= kc·nr_panel` are checked here.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn pack_cols8(
    bpack: &mut [f32],
    nr_panel: usize,
    b: &[f32],
    stride: usize,
    j0: usize,
    nr: usize,
    pc: usize,
    kc: usize,
) -> usize {
    use core::arch::x86_64::*;
    assert!(nr <= nr_panel, "B panel: {nr} columns of {nr_panel}");
    let (groups, full) = (nr / 8, kc / 8 * 8);
    debug_assert!(kc - full < 8, "k tail {}", kc - full);
    let bpack = &mut bpack[..kc * nr_panel];
    for g in 0..groups {
        let jb = g * 8;
        let rows: [&[f32]; 8] = std::array::from_fn(|r| &b[(j0 + jb + r) * stride + pc..][..kc]);
        for kk in (0..full).step_by(8) {
            // SAFETY: `kk + 8 ≤ full ≤ kc`, the length of every row slice;
            // the stores hit `bpack[(kk + t)·nr_panel + jb ..][..8]` with
            // `jb + 8 ≤ nr ≤ nr_panel` and `kk + t < kc`, inside the
            // `kc·nr_panel` slice; loads/stores are unaligned.
            unsafe {
                let mut r = [_mm256_setzero_ps(); 8];
                for (v, row) in r.iter_mut().zip(&rows) {
                    *v = _mm256_loadu_ps(row.as_ptr().add(kk));
                }
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
                let q = [
                    _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                    _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
                    _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                    _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
                    _mm256_shuffle_ps::<0x44>(t[4], t[6]),
                    _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
                    _mm256_shuffle_ps::<0x44>(t[5], t[7]),
                    _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
                ];
                let out = bpack.as_mut_ptr().add(kk * nr_panel + jb);
                for i in 0..4 {
                    let lo = _mm256_permute2f128_ps::<0x20>(q[i], q[i + 4]);
                    let hi = _mm256_permute2f128_ps::<0x31>(q[i], q[i + 4]);
                    _mm256_storeu_ps(out.add(i * nr_panel), lo);
                    _mm256_storeu_ps(out.add((i + 4) * nr_panel), hi);
                }
            }
        }
        for kk in full..kc {
            for (j, row) in rows.iter().enumerate() {
                bpack[kk * nr_panel + jb + j] = row[kk];
            }
        }
    }
    groups * 8
}

/// Write the valid `mr × nr` part of an accumulator tile to C at `c`
/// (row stride `ldc`).
///
/// # Safety
///
/// `c[r·ldc + j]` must be in-bounds and writable for all `r < mr`,
/// `j < nr`, with no other thread concurrently accessing those elements.
#[inline]
unsafe fn write_tile(
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
    acc: &[[f32; MAX_NR]; MAX_MR],
    accumulate: bool,
) {
    debug_assert!(
        (1..=MAX_MR).contains(&mr) && (1..=MAX_NR).contains(&nr),
        "edge tile {mr}x{nr}"
    );
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        // SAFETY: forwarded caller contract, row `r < mr`.
        let dst = unsafe { std::slice::from_raw_parts_mut(c.add(r * ldc), nr) };
        if accumulate {
            for (d, &v) in dst.iter_mut().zip(acc_row) {
                *d += v;
            }
        } else {
            dst.copy_from_slice(&acc_row[..nr]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                c.data_mut()[i * n + j] = s;
            }
        }
        c
    }

    fn rand_t(dims: [usize; 2], seed: u64) -> Tensor {
        // Small deterministic pseudo-random fill without pulling in rand here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
        t
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matches_naive_on_odd_sizes() {
        // Deliberately straddles every blocking boundary: m/n around MR/NR
        // and MC multiples, k around KC.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (33, 129, 17),
            (64, 64, 64),
            (70, 130, 40),
            (8, 8, 8),
            (9, 127, 9),
            (65, 128, 8),
            (63, 257, 15),
            (129, 256, 65),
        ] {
            let a = rand_t([m, k], (m * k) as u64);
            let b = rand_t([k, n], (k * n + 7) as u64);
            assert_close(&matmul(&a, &b), &naive(&a, &b));
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        for &(k, m, n) in &[(9, 5, 4), (130, 33, 17), (257, 8, 9)] {
            let a = rand_t([k, m], (k + m) as u64);
            let b = rand_t([k, n], (k + n + 3) as u64);
            assert_close(&matmul_tn(&a, &b), &matmul(&a.transpose2(), &b));
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        for &(m, k, n) in &[(6, 8, 7), (33, 130, 19), (9, 257, 8)] {
            let a = rand_t([m, k], (m + k) as u64);
            let b = rand_t([n, k], (n + k + 5) as u64);
            assert_close(&matmul_nt(&a, &b), &matmul(&a, &b.transpose2()));
        }
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        // `_into` outputs must not depend on prior buffer contents.
        let a = rand_t([13, 21], 1);
        let b = rand_t([21, 11], 2);
        let mut c = Tensor::full([13, 11], f32::NAN);
        matmul_into(&a, &b, &mut c);
        assert_close(&c, &naive(&a, &b));

        let at = rand_t([21, 13], 3);
        let mut c2 = Tensor::full([13, 11], 1e30);
        matmul_tn_into(&at, &b, &mut c2);
        assert_close(&c2, &matmul(&at.transpose2(), &b));

        let bt = rand_t([11, 21], 4);
        let mut c3 = Tensor::full([13, 11], -7.0);
        matmul_nt_into(&a, &bt, &mut c3);
        assert_close(&c3, &matmul(&a, &bt.transpose2()));
    }

    #[test]
    fn zero_inner_dimension_yields_zeros() {
        let a = Tensor::zeros([3, 0]);
        let b = Tensor::zeros([0, 4]);
        let mut c = Tensor::full([3, 4], 9.0);
        matmul_into(&a, &b, &mut c);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_t([5, 5], 11);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.data_mut()[i * 5 + i] = 1.0;
        }
        assert_close(&matmul(&a, &eye), &a);
        assert_close(&matmul(&eye, &a), &a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dim_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }

    /// Run one shape through a specific kernel, bypassing dispatch, cut
    /// for `threads` workers.
    fn gemm_k<K: MicroKernel>(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros([m, n]);
        gemm_with::<K>(
            a.data(),
            AKind::RowMajor,
            b.data(),
            BKind::RowMajor,
            m,
            n,
            k,
            c.data_mut(),
            threads,
        );
        c
    }

    #[test]
    fn every_kernel_matches_naive_on_odd_sizes() {
        // Same boundary-straddling shapes as `matches_naive_on_odd_sizes`,
        // but pinned per kernel so both code paths are exercised in one
        // process regardless of dispatch state. Shapes around 6/16 edges
        // matter for the FMA tile; 4/8 edges for the scalar tile.
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 3, 15),
            (6, 128, 16),
            (7, 129, 17),
            (12, 64, 33),
            (65, 128, 31),
            (66, 130, 48),
            (129, 256, 65),
        ] {
            let a = rand_t([m, k], (m * k + 13) as u64);
            let b = rand_t([k, n], (k * n + 29) as u64);
            let want = naive(&a, &b);
            assert_close(&gemm_k::<Scalar4x8>(&a, &b, 1), &want);
            #[cfg(target_arch = "x86_64")]
            if crate::kernel::fma_available() {
                assert_close(&gemm_k::<crate::kernel::Fma6x16>(&a, &b, 1), &want);
                assert_close(&gemm_k::<crate::kernel::Fma4x24>(&a, &b, 1), &want);
            }
        }
    }

    fn same_bits(x: &Tensor, y: &Tensor) -> bool {
        x.dims() == y.dims()
            && x.data()
                .iter()
                .zip(y.data())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// Every conv GEMM of ResNet-20 and VGG-11 × 0.25 on 16×16 at batch
    /// 16 as `(layout, m, k, n)`: forward `nn` (`W·cols`), input-grad `tn`
    /// (`Wᵀ·gy`), weight-grad `nt` (`gy·colsᵀ`).
    fn conv_gemms() -> Vec<(AKind, BKind, usize, usize, usize)> {
        // (in_c, out_c, kernel, stride, padding, in_hw)
        let layers = [
            (3, 4, 3, 1, 1, 16),
            (4, 4, 3, 1, 1, 16),
            (4, 8, 3, 2, 1, 16),
            (8, 8, 3, 1, 1, 8),
            (4, 8, 1, 2, 0, 16),
            (8, 16, 3, 2, 1, 8),
            (16, 16, 3, 1, 1, 4),
            (8, 16, 1, 2, 0, 8),
            (3, 16, 3, 1, 1, 16),
            (16, 32, 3, 1, 1, 8),
            (32, 64, 3, 1, 1, 4),
            (64, 64, 3, 1, 1, 4),
            (64, 128, 3, 1, 1, 2),
            (128, 128, 3, 1, 1, 2),
            (128, 128, 3, 1, 1, 1),
        ];
        let mut shapes = Vec::new();
        for (ci, co, k, s, p, h) in layers {
            let o = (h + 2 * p - k) / s + 1;
            let (patch, r) = (ci * k * k, 16 * o * o);
            shapes.push((AKind::RowMajor, BKind::RowMajor, co, patch, r));
            shapes.push((AKind::Transposed, BKind::RowMajor, patch, co, r));
            shapes.push((AKind::RowMajor, BKind::Transposed, co, r, patch));
        }
        shapes
    }

    /// One `layout` product through kernel `K` cut for `threads`, from
    /// operands stored as that layout stores them.
    fn gemm_layout<K: MicroKernel>(
        (ak, bk, m, k, n): (AKind, BKind, usize, usize, usize),
        a: &Tensor,
        b: &Tensor,
        threads: usize,
    ) -> Tensor {
        let mut c = Tensor::full([m, n], f32::NAN);
        gemm_with::<K>(a.data(), ak, b.data(), bk, m, n, k, c.data_mut(), threads);
        c
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_fma_tile_gives_the_same_bits() {
        use crate::kernel::{fma_available, Fma4x24, Fma6x16};
        if !fma_available() {
            return; // nothing to test on this CPU
        }
        let mut shapes = conv_gemms();
        // m and n around the 4/6/16/24 tile edges, k around `KC`.
        for m in [1, 3, 4, 5, 6, 7, 12, 16, 23, 24, 25] {
            for n in [1, 4, 6, 8, 15, 16, 17, 23, 24, 25, 48, 49] {
                for k in [1, KC - 1, KC, KC + 1] {
                    shapes.push((AKind::RowMajor, BKind::RowMajor, m, k, n));
                }
                shapes.push((AKind::Transposed, BKind::RowMajor, m, 9, n));
                shapes.push((AKind::RowMajor, BKind::Transposed, m, 2 * KC + 3, n));
            }
        }
        for (i, &shape) in shapes.iter().enumerate() {
            let (ak, bk, m, k, n) = shape;
            let ad = match ak {
                AKind::RowMajor => [m, k],
                AKind::Transposed => [k, m],
            };
            let bd = match bk {
                BKind::RowMajor => [k, n],
                BKind::Transposed => [n, k],
            };
            let a = rand_t(ad, 2 * i as u64);
            let b = rand_t(bd, 2 * i as u64 + 1);
            let want = gemm_layout::<Fma6x16>(shape, &a, &b, 1);
            let dispatched = match (ak, bk) {
                (AKind::RowMajor, BKind::RowMajor) => matmul(&a, &b),
                (AKind::Transposed, _) => matmul_tn(&a, &b),
                (_, BKind::Transposed) => matmul_nt(&a, &b),
            };
            let case = format!("m{m} k{k} n{n} ({i})");
            assert!(same_bits(&dispatched, &want), "{case}: dispatch");
            for threads in [1, 2, 3, 8] {
                let six = gemm_layout::<Fma6x16>(shape, &a, &b, threads);
                assert!(same_bits(&six, &want), "{case}: 6x16, {threads} threads");
                let four = gemm_layout::<Fma4x24>(shape, &a, &b, threads);
                assert!(same_bits(&four, &want), "{case}: 4x24, {threads} threads");
            }
        }
    }

    /// The pack a kernel must produce, element by element.
    fn naive_packs<K: MicroKernel>(
        a: &[f32],
        b: &[f32],
        (ak, bk): (AKind, BKind),
        (m, k, n): (usize, usize, usize),
        (pc, kc): (usize, usize),
    ) -> (Vec<f32>, Vec<Vec<f32>>) {
        let mut apack = vec![0.0; m.div_ceil(K::MR) * kc * K::MR];
        for i in 0..m {
            for kk in 0..kc {
                let v = match ak {
                    AKind::RowMajor => a[i * k + pc + kk],
                    AKind::Transposed => a[(pc + kk) * m + i],
                };
                apack[(i / K::MR * kc + kk) * K::MR + i % K::MR] = v;
            }
        }
        let panels = (0..n.div_ceil(K::NR))
            .map(|p| {
                let mut bpack = vec![0.0; kc * K::NR];
                for j in p * K::NR..n.min((p + 1) * K::NR) {
                    for kk in 0..kc {
                        bpack[kk * K::NR + j % K::NR] = match bk {
                            BKind::RowMajor => b[(pc + kk) * n + j],
                            BKind::Transposed => b[j * k + pc + kk],
                        };
                    }
                }
                bpack
            })
            .collect();
        (apack, panels)
    }

    fn check_packs<K: MicroKernel>() {
        // kc not a multiple of 8 (or 4), panels narrower than 8 and than
        // `NR`, edge row panels, and a k-block that starts past zero.
        for (m, n) in [(4, 24), (8, 48), (5, 17), (12, 36), (3, 7), (16, 40)] {
            for (k, pc) in [(8, 0), (13, 0), (29, 3), (140, 128), (4, 0), (3, 0)] {
                let kc = (k - pc).min(KC);
                for (ak, bk) in [
                    (AKind::RowMajor, BKind::RowMajor),
                    (AKind::RowMajor, BKind::Transposed),
                    (AKind::Transposed, BKind::RowMajor),
                ] {
                    let a = rand_t([m, k], (m * k + pc) as u64);
                    let b = rand_t([k, n], (k * n + pc) as u64);
                    let (want_a, want_b) =
                        naive_packs::<K>(a.data(), b.data(), (ak, bk), (m, k, n), (pc, kc));
                    let (astride, bstride) = (
                        if matches!(ak, AKind::RowMajor) { k } else { m },
                        if matches!(bk, BKind::RowMajor) { n } else { k },
                    );
                    let case = format!("{} m{m} n{n} k{k} pc{pc}", K::MR);
                    let mut apack = vec![f32::NAN; want_a.len()];
                    pack_a::<K>(&mut apack, a.data(), ak, astride, 0, m, pc, kc);
                    assert_eq!(bits(&apack), bits(&want_a), "{case}: A pack");
                    for (p, want) in want_b.iter().enumerate() {
                        let j0 = p * K::NR;
                        let mut bpack = vec![f32::NAN; kc * K::NR];
                        let nr = K::NR.min(n - j0);
                        pack_b::<K>(&mut bpack, b.data(), bk, bstride, j0, nr, pc, kc);
                        assert_eq!(bits(&bpack), bits(want), "{case}: B panel {p}");
                    }
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn simd_packs_equal_scalar_packs() {
        check_packs::<Scalar4x8>();
        #[cfg(target_arch = "x86_64")]
        if crate::kernel::fma_available() {
            check_packs::<crate::kernel::Fma4x24>();
            check_packs::<crate::kernel::Fma6x16>();
        }
    }

    #[test]
    fn cutting_c_for_more_threads_changes_no_bit() {
        // Column blocks past `NC`, row blocks past `MC`, k past `KC`, and
        // thread counts that split columns only, rows too, or leave one
        // task per block: every cut must reproduce the one-thread bits.
        for &(m, k, n) in &[(4, 36, 4100), (130, 140, 1040), (1152, 16, 40), (3, 5, 7)] {
            let a = rand_t([m, k], (m + k) as u64);
            let b = rand_t([k, n], (k + n) as u64);
            let one = gemm_k::<Scalar4x8>(&a, &b, 1);
            assert_close(&one, &naive(&a, &b));
            for threads in [2, 3, 5, 8, 64] {
                let cut = gemm_k::<Scalar4x8>(&a, &b, threads);
                assert!(same_bits(&one, &cut), "{m}x{k}x{n}, {threads} threads");
            }
            #[cfg(target_arch = "x86_64")]
            if crate::kernel::fma_available() {
                let one = gemm_k::<crate::kernel::Fma6x16>(&a, &b, 1);
                for threads in [2, 3, 8] {
                    let cut = gemm_k::<crate::kernel::Fma6x16>(&a, &b, threads);
                    assert!(same_bits(&one, &cut), "{m}x{k}x{n}, {threads} threads");
                    let cut = gemm_k::<crate::kernel::Fma4x24>(&a, &b, threads);
                    assert!(
                        same_bits(&one, &cut),
                        "{m}x{k}x{n}, 4x24, {threads} threads"
                    );
                }
            }
        }
    }
}
