//! Explicit-SIMD micro-kernels over the [`crate::simd`] lane layer.
//!
//! Each kernel is the paper's generated-kernel main loop (§III-A) made
//! explicit: an `(m_r, n_r)` register tile of accumulators fed by a
//! broadcast-A / vector-B FMA chain, with `n_r = 4·n̄_r` (`NRV = n̄_r`
//! 4-lane columns, mirroring Table II). One generic body serves every
//! backend; vector width is a parameter of it, not a second kernel:
//!
//! * on 4-lane backends (NEON, SSE2/FMA, scalar) the tile is `n̄_r`
//!   [`F32x4`] columns;
//! * on [`SimdBackend::X86Avx2`] it is `⌊n̄_r/2⌋` 256-bit [`F32x8`]
//!   columns plus one 128-bit [`F32x4`] tail column when `n̄_r` is odd.
//!
//! Per k-step the body issues `m_r · c` FMAs, `m_r` A broadcasts and `c`
//! B loads for `c` vector columns, so achieved-vs-predicted ratios
//! measured by the `microkernel` bench bin stay per-tile-shape.
//!
//! Two C paths per kernel:
//!
//! * **full tile** (`eff_rows == MR`, `eff_cols == NR`): `C` is read and
//!   written with vector loads/stores in place.
//! * **edge tile**: the same main loop (A/B reads are always in-bounds
//!   for the *full* tile by the packing contract — see
//!   [`crate::packing`]), but `C`'s effective region is staged through a
//!   full-tile buffer element-wise.
//!
//! The k-loop is unrolled by 4; instruction-level parallelism comes from
//! the independent accumulator chains (the register tile), so each
//! output cell still sums its products in ascending-`k` order with one
//! rounding per step — on fused backends the results are bit-identical
//! to the scalar reference kernel ([`crate::native::micro_kernel_ref`])
//! whatever the vector width.
//!
//! Runtime dispatch: [`micro_kernel_simd`] probes [`SimdBackend`] once
//! and routes to the baseline build (NEON / SSE2 / scalar — whatever the
//! compile target guarantees), to the `#[target_feature(enable =
//! "fma")]` 128-bit build, or to the `#[target_feature(enable =
//! "avx2,fma")]` 256-bit build; the last two are only reachable after
//! `is_x86_feature_detected!` has confirmed the host.

use crate::native::CTile;
#[cfg(simd_x86)]
use crate::simd::F32x8;
use crate::simd::{F32x4, Lanes, SimdBackend, LANES};

/// One input operand as the kernel layer sees it: a packed panel, or a
/// strided row-major window of the caller's matrix (packing elided by
/// the input-aware dispatch layer).
///
/// The micro-kernels themselves are stride-generic — they always read
/// `a[i·lda + p]` and `b[p·ldb + j]` — so the two forms differ only in
/// their *bounds contract*:
///
/// * **Packed** panels are padded by [`crate::packing`] so a full
///   `(m_r, n_r)` tile's reads are in bounds even on edge tiles; any
///   menu kernel may run against them unconditionally.
/// * **Unpacked** windows expose exactly `avail` valid rows (for A) or
///   columns (for B) from their origin. A vector kernel whose full tile
///   would read past `avail` must be rerouted to a bounds-exact edge
///   kernel by the dispatcher ([`crate::native`] does this per
///   placement).
#[derive(Clone, Copy)]
pub enum Operand<'a> {
    /// Packed panel (leading dimension `ld`), padded per the packing
    /// contract: full-tile reads never go out of bounds.
    Packed { data: &'a [f32], ld: usize },
    /// Strided row-major window with `avail` valid rows (A operand) or
    /// columns (B operand) from its origin.
    Unpacked { data: &'a [f32], ld: usize, avail: usize },
}

impl<'a> Operand<'a> {
    #[inline(always)]
    pub fn data(&self) -> &'a [f32] {
        match self {
            Operand::Packed { data, .. } | Operand::Unpacked { data, .. } => data,
        }
    }

    #[inline(always)]
    pub fn ld(&self) -> usize {
        match self {
            Operand::Packed { ld, .. } | Operand::Unpacked { ld, .. } => *ld,
        }
    }

    /// Rows (A) or columns (B) a kernel may read from the origin without
    /// leaving the operand. Packed panels are padded for any menu tile,
    /// so their extent is unbounded for dispatch purposes.
    #[inline(always)]
    pub fn avail(&self) -> usize {
        match self {
            Operand::Packed { .. } => usize::MAX,
            Operand::Unpacked { avail, .. } => *avail,
        }
    }

    pub fn is_packed(&self) -> bool {
        matches!(self, Operand::Packed { .. })
    }
}

/// The `V` columns of an `NRV`-column tile (one `V` holds one or two
/// 4-lane columns), and whether one 4-lane tail column is left over.
#[inline(always)]
const fn columns<V: Lanes, const NRV: usize>() -> (usize, bool) {
    let per = V::LANES / LANES;
    (NRV / per, !NRV.is_multiple_of(per))
}

/// One k-step: load row `p` of B into the `V` columns and the tail, then
/// for each row broadcast `a[i * lda + p]` and accumulate the outer
/// product.
///
/// # Safety
/// `a` must be readable at `i * lda + p` for all `i < MR`; `b` must be
/// readable for `NRV * LANES` elements from `p * ldb`. See [`Lanes`] for
/// the target-feature contract of `V` and `FMA`.
#[inline(always)]
unsafe fn kstep<const MR: usize, const NRV: usize, const FMA: bool, V: Lanes>(
    wide: &mut [[V; NRV]; MR],
    tail: &mut [F32x4; MR],
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    p: usize,
) {
    let (nw, has_tail) = columns::<V, NRV>();
    let brow = b.add(p * ldb);
    let mut bv = [V::splat(0.0); NRV];
    for (jw, v) in bv.iter_mut().enumerate().take(nw) {
        *v = V::load(brow.add(jw * V::LANES));
    }
    let bt = if has_tail { F32x4::load(brow.add(nw * V::LANES)) } else { F32x4::zero() };
    for (i, (row, t)) in wide.iter_mut().zip(tail.iter_mut()).enumerate() {
        let ai = V::splat(*a.add(i * lda + p));
        for (cell, &bj) in row.iter_mut().zip(&bv).take(nw) {
            *cell = cell.fmadd::<FMA>(ai, bj);
        }
        if has_tail {
            *t = t.fmadd::<FMA>(ai.low(), bt);
        }
    }
}

/// The generic kernel body, monomorphized per `(MR, NRV, FMA, V)`: `V`
/// is the widest vector the backend runs ([`F32x4`], or [`F32x8`] on
/// AVX2), and an odd 4-lane column left over runs as an [`F32x4`] tail.
///
/// # Safety
/// The packing contract of [`crate::packing`] must hold: `a` readable for
/// `MR` rows of `kc` elements at stride `lda`, `b` readable for `kc` rows
/// of `NRV * LANES` elements at stride `ldb`, and `c`'s effective cells
/// owned by this thread. See [`Lanes`] for the target-feature contract
/// of `V` and `FMA`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn kernel_body<const MR: usize, const NRV: usize, const FMA: bool, V: Lanes>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    debug_assert!(MR == 0 || a.len() >= (MR - 1) * lda + kc, "A panel too short for {MR} rows");
    debug_assert!(
        kc == 0 || b.len() >= (kc - 1) * ldb + NRV * LANES,
        "B panel too short for {NRV} lane columns"
    );
    debug_assert!(eff_rows <= MR && eff_cols <= NRV * LANES);
    let (nw, has_tail) = columns::<V, NRV>();
    let full = eff_rows == MR && eff_cols == NRV * LANES;
    // Edge tiles stage C's effective region through a full-tile buffer,
    // so both paths load and store whole vector rows.
    let mut stage = [[[0.0f32; LANES]; NRV]; MR];
    let row_ptr = |stage: &mut [[[f32; LANES]; NRV]; MR], i: usize| -> *mut f32 {
        if full {
            c.row_ptr(i, NRV * LANES)
        } else {
            stage[i].as_mut_ptr().cast::<f32>()
        }
    };
    let mut wide = [[V::splat(0.0); NRV]; MR];
    let mut tail = [F32x4::zero(); MR];
    if accumulate {
        if !full {
            for (i, srow) in stage.iter_mut().enumerate().take(eff_rows) {
                for j in 0..eff_cols {
                    srow[j / LANES][j % LANES] = c.get(i, j);
                }
            }
        }
        for i in 0..MR {
            let row = row_ptr(&mut stage, i);
            for (jw, cell) in wide[i].iter_mut().enumerate().take(nw) {
                *cell = V::load(row.add(jw * V::LANES));
            }
            if has_tail {
                tail[i] = F32x4::load(row.add(nw * V::LANES));
            }
        }
    }

    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut p = 0usize;
    while p + 4 <= kc {
        kstep::<MR, NRV, FMA, V>(&mut wide, &mut tail, ap, lda, bp, ldb, p);
        kstep::<MR, NRV, FMA, V>(&mut wide, &mut tail, ap, lda, bp, ldb, p + 1);
        kstep::<MR, NRV, FMA, V>(&mut wide, &mut tail, ap, lda, bp, ldb, p + 2);
        kstep::<MR, NRV, FMA, V>(&mut wide, &mut tail, ap, lda, bp, ldb, p + 3);
        p += 4;
    }
    while p < kc {
        kstep::<MR, NRV, FMA, V>(&mut wide, &mut tail, ap, lda, bp, ldb, p);
        p += 1;
    }

    for i in 0..MR {
        let row = row_ptr(&mut stage, i);
        for (jw, cell) in wide[i].iter().enumerate().take(nw) {
            cell.store(row.add(jw * V::LANES));
        }
        if has_tail {
            tail[i].store(row.add(nw * V::LANES));
        }
    }
    if !full {
        for (i, srow) in stage.iter().enumerate().take(eff_rows) {
            for j in 0..eff_cols {
                c.set(i, j, srow[j / LANES][j % LANES]);
            }
        }
    }
}

/// Baseline build: whatever vector ISA the compile target guarantees
/// (NEON on aarch64, SSE2 on x86_64, the array fallback elsewhere).
#[allow(clippy::too_many_arguments)]
fn kernel_base<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    // SAFETY: packing contract (see `kernel_body`); F32x4 with FMA=false
    // needs no extra target features.
    unsafe {
        kernel_body::<MR, NRV, false, F32x4>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
    }
}

/// 128-bit FMA build: the whole body is re-monomorphized under
/// `target_feature(enable = "fma")` so `_mm_fmadd_ps` inlines into the
/// main loop.
///
/// # Safety
/// Host must support FMA — only reachable via [`micro_kernel_simd`]'s
/// [`SimdBackend::X86Fma`] arm, which is gated on runtime detection.
#[cfg(simd_x86)]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma")]
unsafe fn kernel_x86_fma<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    kernel_body::<MR, NRV, true, F32x4>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
}

/// 256-bit AVX2 build: the same body over [`F32x8`] columns under
/// `target_feature(enable = "avx2,fma")`.
///
/// # Safety
/// Host must support AVX2 and FMA — only reachable via
/// [`micro_kernel_simd`]'s [`SimdBackend::X86Avx2`] arm, which is gated
/// on runtime detection.
#[cfg(simd_x86)]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_x86_avx2<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    kernel_body::<MR, NRV, true, F32x8>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
}

/// The dispatched SIMD micro-kernel:
/// `C[0..eff_rows][0..eff_cols] (+)= A[0..MR][0..kc] · B[0..kc][0..NRV*4]`.
///
/// Drop-in replacement for the scalar reference kernel (same contract as
/// [`crate::native::micro_kernel_ref`], with `NR` expressed as `NRV`
/// 4-lane columns). The backend probe is one cached atomic load per
/// call — noise next to the `2·MR·NRV·4·kc` flops it dispatches.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn micro_kernel_simd<const MR: usize, const NRV: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: CTile,
    accumulate: bool,
    eff_rows: usize,
    eff_cols: usize,
) {
    match SimdBackend::detect() {
        #[cfg(simd_x86)]
        // SAFETY: the detect() probe confirmed AVX2 and FMA on this host.
        SimdBackend::X86Avx2 => unsafe {
            kernel_x86_avx2::<MR, NRV>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
        },
        #[cfg(simd_x86)]
        // SAFETY: the detect() probe confirmed FMA on this host.
        SimdBackend::X86Fma => unsafe {
            kernel_x86_fma::<MR, NRV>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols)
        },
        _ => kernel_base::<MR, NRV>(kc, a, lda, b, ldb, c, accumulate, eff_rows, eff_cols),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::micro_kernel_ref;

    fn data(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) as f32 / 8192.0 - 4.0
            })
            .collect()
    }

    /// Run `kernel` and the scalar reference on one `MR × NR` tile and
    /// compare: bit for bit when `exact`, within rounding otherwise.
    #[allow(clippy::too_many_arguments)]
    fn check<const MR: usize, const NR: usize>(
        kernel: impl Fn(usize, &[f32], usize, &[f32], usize, CTile, bool, usize, usize),
        exact: bool,
        kc: usize,
        accumulate: bool,
        eff_rows: usize,
        eff_cols: usize,
    ) {
        let lda = kc + 8;
        let a = data(MR * lda, 1);
        let ldb = NR + 4;
        let b = data((kc + 2) * ldb, 2);
        let c0 = data(MR * NR, 3);
        let mut c_simd = c0.clone();
        let mut c_ref = c0.clone();
        let t_simd = unsafe { CTile::new(c_simd.as_mut_ptr(), NR, c_simd.len()) };
        let t_ref = unsafe { CTile::new(c_ref.as_mut_ptr(), NR, c_ref.len()) };
        kernel(kc, &a, lda, &b, ldb, t_simd, accumulate, eff_rows, eff_cols);
        micro_kernel_ref::<MR, NR>(kc, &a, lda, &b, ldb, t_ref, accumulate, eff_rows, eff_cols);
        for (i, (&got, &want)) in c_simd.iter().zip(&c_ref).enumerate() {
            let tol = if exact { 0.0 } else { 1e-3 * want.abs().max(1.0) };
            assert!(
                (got - want).abs() <= tol,
                "{MR}x{NR} kc={kc} acc={accumulate} eff=({eff_rows},{eff_cols}) \
                 C[{i}]: {got} vs {want}"
            );
        }
    }

    /// The dispatched kernel against the reference.
    fn run_pair<const MR: usize, const NRV: usize, const NR: usize>(
        kc: usize,
        accumulate: bool,
        eff_rows: usize,
        eff_cols: usize,
    ) {
        check::<MR, NR>(
            micro_kernel_simd::<MR, NRV>,
            SimdBackend::detect().fused(),
            kc,
            accumulate,
            eff_rows,
            eff_cols,
        );
    }

    /// A kernel build a test calls directly, whatever the dispatcher
    /// would pick on this host.
    #[derive(Clone, Copy)]
    enum Build {
        /// The compile target's baseline: SSE2 on x86_64 (two roundings),
        /// NEON or the scalar fallback elsewhere (fused).
        Base,
        /// The 128-bit FMA build.
        #[cfg(simd_x86)]
        Fma,
        /// The 256-bit AVX2 build.
        #[cfg(simd_x86)]
        Avx2,
    }

    /// One build against the reference — bit for bit when the build is
    /// fused, within rounding otherwise — on a full and two edge tiles,
    /// overwriting and accumulating, across the k-loop's unrolled body
    /// and remainder.
    fn sweep<const MR: usize, const NRV: usize, const NR: usize>(build: Build) {
        let kernel = |kc: usize,
                      a: &[f32],
                      lda: usize,
                      b: &[f32],
                      ldb: usize,
                      c: CTile,
                      acc: bool,
                      er: usize,
                      ec: usize| match build {
            Build::Base => kernel_base::<MR, NRV>(kc, a, lda, b, ldb, c, acc, er, ec),
            // SAFETY (both x86 arms): callers check the host has the
            // build's features; the operands of `check` satisfy the
            // packing contract.
            #[cfg(simd_x86)]
            Build::Fma => unsafe { kernel_x86_fma::<MR, NRV>(kc, a, lda, b, ldb, c, acc, er, ec) },
            #[cfg(simd_x86)]
            Build::Avx2 => unsafe {
                kernel_x86_avx2::<MR, NRV>(kc, a, lda, b, ldb, c, acc, er, ec)
            },
        };
        let exact = !(cfg!(simd_x86) && matches!(build, Build::Base));
        for (er, ec) in [(MR, NR), (MR.div_ceil(2), NR - 1), (MR, NR / 2 + 1)] {
            for accumulate in [false, true] {
                for kc in [1, 6, 37] {
                    check::<MR, NR>(kernel, exact, kc, accumulate, er, ec);
                }
            }
        }
    }

    /// [`sweep`] over every [`KERNEL_MENU`](crate::native::KERNEL_MENU)
    /// shape.
    fn menu_sweep(build: Build) {
        let mut swept = Vec::new();
        macro_rules! menu {
            ($(($mr:literal, $nrv:literal, $nr:literal)),* $(,)?) => {$(
                sweep::<$mr, $nrv, $nr>(build);
                swept.push(($mr, $nr));
            )*};
        }
        menu!(
            (1, 1, 4),
            (1, 2, 8),
            (1, 3, 12),
            (1, 4, 16),
            (1, 5, 20),
            (1, 6, 24),
            (1, 7, 28),
            (2, 1, 4),
            (2, 2, 8),
            (2, 3, 12),
            (2, 4, 16),
            (2, 5, 20),
            (2, 6, 24),
            (2, 7, 28),
            (3, 1, 4),
            (3, 2, 8),
            (3, 3, 12),
            (3, 4, 16),
            (3, 5, 20),
            (3, 6, 24),
            (3, 7, 28),
            (4, 1, 4),
            (4, 2, 8),
            (4, 3, 12),
            (4, 4, 16),
            (4, 5, 20),
            (5, 1, 4),
            (5, 2, 8),
            (5, 3, 12),
            (5, 4, 16),
            (6, 1, 4),
            (6, 2, 8),
            (6, 3, 12),
            (7, 1, 4),
            (7, 2, 8),
            (7, 3, 12),
            (8, 1, 4),
            (8, 2, 8),
        );
        assert_eq!(swept, crate::native::KERNEL_MENU);
    }

    #[cfg(simd_x86)]
    #[test]
    fn avx2_build_is_bit_identical_to_reference_on_every_menu_shape() {
        if SimdBackend::detect() != SimdBackend::X86Avx2 {
            return;
        }
        menu_sweep(Build::Avx2);
    }

    #[cfg(simd_x86)]
    #[test]
    fn fma_build_is_bit_identical_to_reference_on_every_menu_shape() {
        // The 128-bit build keeps its coverage on AVX2 hosts, where the
        // dispatcher never picks it.
        if !matches!(SimdBackend::detect(), SimdBackend::X86Avx2 | SimdBackend::X86Fma) {
            return;
        }
        menu_sweep(Build::Fma);
    }

    #[test]
    fn base_build_matches_reference_on_every_menu_shape() {
        // On x86_64 this is the SSE2 build, which only hosts without FMA
        // dispatch to.
        menu_sweep(Build::Base);
    }

    #[test]
    fn full_tiles_match_reference() {
        for kc in [1, 3, 4, 7, 17, 64] {
            run_pair::<8, 2, 8>(kc, false, 8, 8);
            run_pair::<5, 4, 16>(kc, true, 5, 16);
            run_pair::<4, 5, 20>(kc, true, 4, 20);
            run_pair::<1, 7, 28>(kc, false, 1, 28);
        }
    }

    #[test]
    fn edge_tiles_match_reference() {
        for (er, ec) in [(1, 1), (3, 5), (8, 7), (2, 8), (7, 3)] {
            run_pair::<8, 2, 8>(13, true, er, ec);
        }
        run_pair::<6, 3, 12>(9, false, 4, 10);
        run_pair::<5, 4, 16>(21, true, 5, 13);
    }

    #[test]
    fn edge_stores_leave_rest_of_c_untouched() {
        let kc = 4;
        let a = vec![1.0f32; 5 * (kc + 8)];
        let b = vec![1.0f32; (kc + 2) * 16];
        let mut c = vec![7.0f32; 5 * 16];
        let tile = unsafe { CTile::new(c.as_mut_ptr(), 16, c.len()) };
        micro_kernel_simd::<5, 4>(kc, &a, kc + 8, &b, 16, tile, false, 2, 3);
        assert_eq!(c[0], kc as f32);
        assert_eq!(c[2], kc as f32);
        assert_eq!(c[3], 7.0, "col 3 out of eff_cols must be untouched");
        assert_eq!(c[2 * 16], 7.0, "row 2 out of eff_rows must be untouched");
    }

    #[test]
    fn zero_kc_only_handles_accumulate() {
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 8];
        let mut c = vec![3.0f32; 2 * 4];
        let tile = unsafe { CTile::new(c.as_mut_ptr(), 4, c.len()) };
        micro_kernel_simd::<2, 1>(0, &a, 4, &b, 4, tile, false, 2, 4);
        assert!(c.iter().all(|&v| v == 0.0), "kc=0 without accumulate zeroes C");
    }
}
