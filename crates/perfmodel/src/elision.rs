//! Packing-elision heuristic for the input-aware dispatch layer.
//!
//! The GotoBLAS pipeline the paper builds on packs both operands
//! unconditionally, which taxes exactly the irregular Table V shapes the
//! paper targets: a pack is one strided read plus one contiguous write of
//! the whole operand (`pack_traffic_bytes`), and it only pays for itself
//! when the packed panel is then *re-streamed* by the kernel loop.
//!
//! Panel reuse is fully determined by the cache-block grid:
//!
//! * each A panel `(bi, kb)` is streamed once per column-block trip —
//!   reuse = `tn`;
//! * each B panel `(kb, bj)` is streamed once per row-block trip —
//!   reuse = `tm`.
//!
//! With reuse 1 the kernel reads the operand exactly once either way, so
//! the packed copy is strictly extra traffic (the pack pass itself pays
//! the very strided read it is meant to avoid). With reuse ≥ 2 the pack
//! cost amortizes over `reuse − 1` saved strided passes and the
//! historical behaviour is kept. The tall-skinny ResNet layers (L16–L20,
//! `n = 49`) land on `tn = 1` and skip the A pack of their dominant
//! operand entirely.
//!
//! Reuse is not the whole story for B, though: the vector kernels read B
//! in σ_lane-wide column vectors, and a packed B panel is *padded* to a
//! lane multiple, which is what keeps the lane-rounded rightmost tiles
//! full-tile safe. Streaming B unpacked when `n` is not a lane multiple
//! reroutes every overhanging right-edge tile to the bounds-exact scalar
//! edge kernel — measured at ~2× whole-GEMM cost on the `n = 49` ResNet
//! layers, far more than the pack copy ever costs. So the B pack is
//! elided only when its panels are single-use *and* `n` is a lane
//! multiple. A is read as scalar broadcasts by every kernel, packed or
//! not, so A elision carries no such penalty.

/// The elision decision for one GEMM, with the inputs that produced it
/// (surfaced so telemetry and docs can explain the routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackRouting {
    /// Pack A into panels (`false` = stream A strided from row-major).
    pub pack_a: bool,
    /// Pack B into panels.
    pub pack_b: bool,
    /// Times each A panel is streamed by the kernel loop (= `tn`).
    pub a_reuse: usize,
    /// Times each B panel is streamed by the kernel loop (= `tm`).
    pub b_reuse: usize,
    /// Projected traffic of packing all of A: one read + one write of
    /// `m·k` f32 elements.
    pub a_pack_bytes: u64,
    /// Projected traffic of packing all of B.
    pub b_pack_bytes: u64,
}

/// The SIMD lane width the generated kernels are built on (σ_lane = 4
/// f32 lanes on every backend: NEON, SSE2/FMA and the portable
/// fallback; AVX2 pairs these columns into 8-lane vectors). B panels
/// are padded to this width when packed.
pub const SIGMA_LANE: usize = 4;

/// Decide packed/unpacked routing per operand from the problem shape and
/// the tuned cache-block grid `(tm, tn)` (trip counts along M and N).
///
/// `pack_a` follows reuse alone; `pack_b` additionally keeps the pack
/// whenever `n` is not a lane multiple, because only the padded panel
/// keeps the lane-rounded right-edge tiles on the vector kernels (see
/// the module docs for the measured penalty).
pub fn route_packing(m: usize, n: usize, k: usize, tm: usize, tn: usize) -> PackRouting {
    PackRouting {
        pack_a: tn >= 2,
        pack_b: tm >= 2 || !n.is_multiple_of(SIGMA_LANE),
        a_reuse: tn,
        b_reuse: tm,
        a_pack_bytes: 2 * 4 * (m as u64) * (k as u64),
        b_pack_bytes: 2 * 4 * (k as u64) * (n as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_block_grids_elide_both_packs() {
        // n = 44 is a lane multiple, so nothing forces the B pack.
        let r = route_packing(31, 44, 29, 1, 1);
        assert!(!r.pack_a && !r.pack_b);
        assert_eq!((r.a_reuse, r.b_reuse), (1, 1));
        assert_eq!(r.a_pack_bytes, 2 * 4 * 31 * 29);
        assert_eq!(r.b_pack_bytes, 2 * 4 * 29 * 44);
    }

    #[test]
    fn lane_tail_forces_the_b_pack() {
        // L20-like: n = 49 leaves a lane tail, so streaming B unpacked
        // would push the right-edge tiles onto the scalar edge kernel —
        // the pack stays even though the panels are single-use. A has no
        // lane constraint and still elides.
        let r = route_packing(64, 49, 64, 1, 1);
        assert!(!r.pack_a, "single-use A panels elide regardless of n");
        assert!(r.pack_b, "a lane-tail n must keep the padded B pack");
    }

    #[test]
    fn reused_panels_keep_packing() {
        let r = route_packing(256, 256, 256, 4, 4);
        assert!(r.pack_a && r.pack_b);
    }

    #[test]
    fn tall_skinny_elides_the_dominant_a_operand() {
        // L18-like: 2048×49×512 — n fits one column block, so every A
        // panel is single-use and the 4 MiB A pack is pure overhead.
        let r = route_packing(2048, 49, 512, 16, 1);
        assert!(!r.pack_a, "single-use A panels must not be packed");
        assert!(r.pack_b, "B panels reused 16× keep the pack");
    }

    #[test]
    fn long_rectangular_elides_b_when_m_fits_one_block() {
        let r = route_packing(64, 3136, 64, 1, 8);
        assert!(r.pack_a);
        assert!(!r.pack_b);
    }
}
