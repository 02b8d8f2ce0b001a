//! The explicit SIMD lane layer: a 4-lane `f32` vector ([`F32x4`])
//! matching the paper's `σ_lane = 4` NEON register model, an 8-lane AVX2
//! vector ([`F32x8`]) for x86_64 hosts that have one, the [`Lanes`]
//! trait the one generic micro-kernel body is written against, and the
//! runtime backend selection the micro-kernels dispatch on.
//!
//! ## Backends
//!
//! * **aarch64** — `core::arch::aarch64` NEON intrinsics
//!   (`vld1q_f32` / `vfmaq_f32` / `vst1q_f32`). NEON is baseline on
//!   aarch64, so this backend needs no runtime detection and multiplies
//!   are always fused.
//! * **x86_64 + AVX2** — 256-bit `YMM` accumulator columns
//!   (`_mm256_fmadd_ps`), with one 128-bit column for an odd count of
//!   4-lane columns. AVX2 and FMA are probed **at runtime** with
//!   `is_x86_feature_detected!`; kernels compiled for them carry
//!   `#[target_feature(enable = "avx2,fma")]` and are only reachable
//!   through the probe (see [`SimdBackend::detect`]). Vector width is a
//!   per-ISA parameter of the same kernel template, as in Exo-style
//!   micro-kernel generation.
//! * **x86_64** without AVX2 — SSE2 intrinsics (baseline on x86_64). The
//!   fused path (`_mm_fmadd_ps`) additionally requires the FMA extension,
//!   probed the same way and compiled under
//!   `#[target_feature(enable = "fma")]`.
//! * **scalar** — a `[f32; 4]` array fallback for every other
//!   architecture, and for any architecture when the `force-scalar`
//!   cargo feature is on (CI builds it so the fallback cannot rot). It
//!   uses `f32::mul_add`, so its results are bit-identical to the fused
//!   vector backends and to the scalar reference kernel.
//!
//! ## Alignment contract
//!
//! Loads and stores use the unaligned-tolerant instructions
//! (`_mm_loadu_ps`, `_mm256_loadu_ps`, `vld1q_f32`), so correctness never
//! depends on alignment; packed panels are nevertheless 64-byte aligned
//! by [`crate::packing::AlignedVec`] so vector loads of panel rows never
//! split a cache line at the panel base (asserted in debug builds).

#![allow(clippy::missing_safety_doc)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Lanes of an [`F32x4`] — the paper's NEON `σ_lane`, and the width of
/// the 4-lane vector columns kernels and packing are laid out in.
pub const LANES: usize = 4;

/// Vector registers the native micro-kernels can keep live at once on
/// the compile target: the 32 NEON `v` registers on aarch64, the 16
/// XMM/YMM registers the SSE2/FMA/AVX2 kernels are encoded for on x86_64
/// (no AVX-512 encoding, so registers 16–31 are out of reach), and 16 on
/// every other target — the least a 128-bit vector unit offers, so the
/// portable fallback never plans a tile that is sure to spill.
pub const REGISTER_BUDGET: usize = if cfg!(target_arch = "aarch64") { 32 } else { 16 };

/// Which micro-kernel flavour [`detect`](SimdBackend::detect) resolved
/// to on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// aarch64 NEON: `vfmaq_f32` main loop (always fused).
    Neon,
    /// x86_64 with AVX2 and FMA: 256-bit `_mm256_fmadd_ps` main loop.
    X86Avx2,
    /// x86_64 with the FMA extension: `_mm_fmadd_ps` main loop.
    X86Fma,
    /// x86_64 baseline: SSE2 `_mm_mul_ps` + `_mm_add_ps` (not fused).
    X86Sse2,
    /// Portable `[f32; 4]` arrays with `f32::mul_add` (fused).
    Scalar,
}

impl SimdBackend {
    /// Probe the host once and cache the answer (relaxed atomic — the
    /// probe is idempotent, so a benign race only repeats it).
    pub fn detect() -> SimdBackend {
        const UNKNOWN: u8 = 0xff;
        static CACHE: AtomicU8 = AtomicU8::new(UNKNOWN);
        let cached = CACHE.load(Ordering::Relaxed);
        if cached != UNKNOWN {
            return Self::from_u8(cached);
        }
        let detected = Self::probe();
        CACHE.store(detected as u8, Ordering::Relaxed);
        detected
    }

    #[cfg(simd_scalar)]
    fn probe() -> SimdBackend {
        SimdBackend::Scalar
    }

    #[cfg(simd_neon)]
    fn probe() -> SimdBackend {
        SimdBackend::Neon
    }

    #[cfg(simd_x86)]
    fn probe() -> SimdBackend {
        if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2")
        {
            SimdBackend::X86Avx2
        } else if std::arch::is_x86_feature_detected!("fma") {
            SimdBackend::X86Fma
        } else {
            SimdBackend::X86Sse2
        }
    }

    fn from_u8(v: u8) -> SimdBackend {
        match v {
            x if x == SimdBackend::Neon as u8 => SimdBackend::Neon,
            x if x == SimdBackend::X86Avx2 as u8 => SimdBackend::X86Avx2,
            x if x == SimdBackend::X86Fma as u8 => SimdBackend::X86Fma,
            x if x == SimdBackend::X86Sse2 as u8 => SimdBackend::X86Sse2,
            _ => SimdBackend::Scalar,
        }
    }

    /// Whether the backend's multiply-accumulate rounds once (hardware
    /// FMA). Fused backends are bit-identical to the scalar reference
    /// kernel; [`SimdBackend::X86Sse2`] rounds twice and only matches it
    /// within tolerance.
    pub fn fused(self) -> bool {
        !matches!(self, SimdBackend::X86Sse2)
    }

    /// `f32` lanes of the widest vector the backend's kernels use: 8 on
    /// [`SimdBackend::X86Avx2`], [`LANES`] elsewhere.
    pub fn lanes(self) -> usize {
        if self == SimdBackend::X86Avx2 {
            8
        } else {
            LANES
        }
    }

    /// Stable name for bench artifacts and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Neon => "neon",
            SimdBackend::X86Avx2 => "x86_avx2",
            SimdBackend::X86Fma => "x86_fma",
            SimdBackend::X86Sse2 => "x86_sse2",
            SimdBackend::Scalar => "scalar",
        }
    }
}

// The three mutually exclusive representation cfgs are spelled out by
// build.rs as `simd_neon` / `simd_x86` / `simd_scalar` so every cfg'd
// item below names exactly one condition (`force-scalar` beats both
// architecture cfgs).

#[cfg(simd_neon)]
use core::arch::aarch64 as arch;
#[cfg(simd_x86)]
use core::arch::x86_64 as arch;

#[cfg(simd_neon)]
type Repr = arch::float32x4_t;
#[cfg(simd_x86)]
type Repr = arch::__m128;
#[cfg(simd_scalar)]
type Repr = [f32; LANES];

/// Four `f32` lanes — one NEON/SSE vector register, or a plain array on
/// the scalar fallback. All operations are `#[inline(always)]` so the
/// micro-kernels see straight-line vector code after monomorphization.
#[derive(Clone, Copy)]
pub struct F32x4(Repr);

impl F32x4 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> F32x4 {
        F32x4::splat(0.0)
    }

    /// Broadcast `v` to every lane (the kernels' A-element broadcast).
    #[inline(always)]
    pub fn splat(v: f32) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vdupq_n_f32(v))
        }
        #[cfg(simd_x86)]
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe {
            F32x4(arch::_mm_set1_ps(v))
        }
        #[cfg(simd_scalar)]
        F32x4([v; LANES])
    }

    /// Load four lanes from `ptr` (unaligned tolerated).
    ///
    /// # Safety
    /// `ptr` must be valid for reading 4 consecutive `f32`s.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f32) -> F32x4 {
        #[cfg(simd_neon)]
        return F32x4(arch::vld1q_f32(ptr));
        #[cfg(simd_x86)]
        return F32x4(arch::_mm_loadu_ps(ptr));
        #[cfg(simd_scalar)]
        return F32x4([*ptr, *ptr.add(1), *ptr.add(2), *ptr.add(3)]);
    }

    /// Store four lanes to `ptr` (unaligned tolerated).
    ///
    /// # Safety
    /// `ptr` must be valid for writing 4 consecutive `f32`s.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f32) {
        #[cfg(simd_neon)]
        arch::vst1q_f32(ptr, self.0);
        #[cfg(simd_x86)]
        arch::_mm_storeu_ps(ptr, self.0);
        #[cfg(simd_scalar)]
        for (i, v) in self.0.iter().enumerate() {
            *ptr.add(i) = *v;
        }
    }

    /// Lane-wise `self + o` (also available as the `+` operator).
    #[inline(always)]
    fn add_impl(self, o: F32x4) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vaddq_f32(self.0, o.0))
        }
        #[cfg(simd_x86)]
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe {
            F32x4(arch::_mm_add_ps(self.0, o.0))
        }
        #[cfg(simd_scalar)]
        {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a += b;
            }
            F32x4(r)
        }
    }

    /// Lane-wise `self * o` (also available as the `*` operator).
    #[inline(always)]
    fn mul_impl(self, o: F32x4) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vmulq_f32(self.0, o.0))
        }
        #[cfg(simd_x86)]
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe {
            F32x4(arch::_mm_mul_ps(self.0, o.0))
        }
        #[cfg(simd_scalar)]
        {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a *= b;
            }
            F32x4(r)
        }
    }

    /// Baseline multiply-accumulate `self + a*b`: fused on NEON
    /// (`vfmaq_f32`) and the scalar fallback (`f32::mul_add`), two
    /// roundings on plain SSE2.
    #[inline(always)]
    pub fn mul_acc(self, a: F32x4, b: F32x4) -> F32x4 {
        #[cfg(simd_neon)]
        // SAFETY: NEON is baseline on aarch64.
        unsafe {
            F32x4(arch::vfmaq_f32(self.0, a.0, b.0))
        }
        #[cfg(simd_x86)]
        {
            self + a * b
        }
        #[cfg(simd_scalar)]
        {
            let mut r = self.0;
            for ((acc, x), y) in r.iter_mut().zip(a.0).zip(b.0) {
                *acc = x.mul_add(y, *acc);
            }
            F32x4(r)
        }
    }

    /// Fused multiply-accumulate `self + a*b` via `_mm_fmadd_ps`.
    ///
    /// # Safety
    /// The host must support the FMA extension ([`SimdBackend::X86Fma`]),
    /// and the caller must sit (after inlining) inside a
    /// `#[target_feature(enable = "fma")]` region so the intrinsic is
    /// inlined rather than called.
    #[cfg(simd_x86)]
    #[inline(always)]
    pub unsafe fn mul_acc_fma(self, a: F32x4, b: F32x4) -> F32x4 {
        F32x4(arch::_mm_fmadd_ps(a.0, b.0, self.0))
    }

    /// Copy the lanes out to an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        // SAFETY: `out` has exactly LANES writable f32s.
        unsafe { self.store(out.as_mut_ptr()) };
        out
    }

    /// Build a vector from an array.
    #[inline(always)]
    pub fn from_array(v: [f32; LANES]) -> F32x4 {
        // SAFETY: `v` has exactly LANES readable f32s.
        unsafe { F32x4::load(v.as_ptr()) }
    }
}

/// A vector of `f32` lanes, as the one generic micro-kernel body
/// ([`crate::kernels`]) uses it for its accumulator columns: [`F32x4`] on
/// every backend, [`F32x8`] on [`SimdBackend::X86Avx2`].
///
/// # Safety
/// Every method may use instructions beyond the compile target's
/// baseline: for [`F32x8`] the caller must sit (after inlining) inside a
/// `#[target_feature(enable = "avx2,fma")]` region on a host that has
/// both. Pointer methods need `Self::LANES` valid `f32`s at `ptr`.
pub(crate) trait Lanes: Copy {
    /// `f32` lanes per vector.
    const LANES: usize;
    /// Broadcast `v` to every lane.
    unsafe fn splat(v: f32) -> Self;
    /// Load `Self::LANES` lanes from `ptr` (unaligned tolerated).
    unsafe fn load(ptr: *const f32) -> Self;
    /// Store `Self::LANES` lanes to `ptr` (unaligned tolerated).
    unsafe fn store(self, ptr: *mut f32);
    /// The low four lanes (a free register view on [`F32x8`]): the
    /// 128-bit tail column reuses the wide A broadcast through it.
    unsafe fn low(self) -> F32x4;
    /// `self + a*b`, rounded once when `FMA` is set (the caller must then
    /// be inside an FMA target-feature region) or when the baseline
    /// multiply-accumulate is already fused.
    unsafe fn fmadd<const FMA: bool>(self, a: Self, b: Self) -> Self;
}

impl Lanes for F32x4 {
    const LANES: usize = LANES;

    #[inline(always)]
    unsafe fn splat(v: f32) -> F32x4 {
        F32x4::splat(v)
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> F32x4 {
        F32x4::load(ptr)
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        F32x4::store(self, ptr)
    }

    #[inline(always)]
    unsafe fn low(self) -> F32x4 {
        self
    }

    #[inline(always)]
    unsafe fn fmadd<const FMA: bool>(self, a: F32x4, b: F32x4) -> F32x4 {
        #[cfg(simd_x86)]
        if FMA {
            return self.mul_acc_fma(a, b);
        }
        self.mul_acc(a, b)
    }
}

/// Eight `f32` lanes in one 256-bit AVX `YMM` register — the wide
/// accumulator column of the [`SimdBackend::X86Avx2`] kernels. Only used
/// inside their `avx2,fma` target-feature region (see [`Lanes`]); its
/// multiply-accumulate is always fused.
#[cfg(simd_x86)]
#[derive(Clone, Copy)]
pub(crate) struct F32x8(arch::__m256);

#[cfg(simd_x86)]
impl Lanes for F32x8 {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn splat(v: f32) -> F32x8 {
        F32x8(arch::_mm256_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> F32x8 {
        F32x8(arch::_mm256_loadu_ps(ptr))
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        arch::_mm256_storeu_ps(ptr, self.0)
    }

    #[inline(always)]
    unsafe fn low(self) -> F32x4 {
        F32x4(arch::_mm256_castps256_ps128(self.0))
    }

    #[inline(always)]
    unsafe fn fmadd<const FMA: bool>(self, a: F32x8, b: F32x8) -> F32x8 {
        F32x8(arch::_mm256_fmadd_ps(a.0, b.0, self.0))
    }
}

impl std::ops::Add for F32x4 {
    type Output = F32x4;
    #[inline(always)]
    fn add(self, o: F32x4) -> F32x4 {
        self.add_impl(o)
    }
}

impl std::ops::Mul for F32x4 {
    type Output = F32x4;
    #[inline(always)]
    fn mul(self, o: F32x4) -> F32x4 {
        self.mul_impl(o)
    }
}

impl std::fmt::Debug for F32x4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F32x4({:?})", self.to_array())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_roundtrip() {
        let src = [1.0f32, -2.5, 3.25, 0.0];
        let v = F32x4::from_array(src);
        assert_eq!(v.to_array(), src);
        assert_eq!(F32x4::splat(7.0).to_array(), [7.0; 4]);
    }

    #[test]
    fn arithmetic_lanes_are_independent() {
        let a = F32x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F32x4::from_array([10.0, 20.0, 30.0, 40.0]);
        assert_eq!((a + b).to_array(), [11.0, 22.0, 33.0, 44.0]);
        assert_eq!((a * b).to_array(), [10.0, 40.0, 90.0, 160.0]);
        let acc = F32x4::splat(1.0);
        assert_eq!(acc.mul_acc(a, b).to_array(), [11.0, 41.0, 91.0, 161.0]);
    }

    #[test]
    fn detect_is_stable_and_consistent_with_arch() {
        let b = SimdBackend::detect();
        assert_eq!(b, SimdBackend::detect(), "cached probe must be stable");
        #[cfg(simd_scalar)]
        assert_eq!(b, SimdBackend::Scalar);
        #[cfg(simd_neon)]
        assert_eq!(b, SimdBackend::Neon);
        #[cfg(simd_x86)]
        assert!(matches!(b, SimdBackend::X86Avx2 | SimdBackend::X86Fma | SimdBackend::X86Sse2));
        assert_eq!(b.lanes(), if b == SimdBackend::X86Avx2 { 8 } else { LANES });
    }

    #[cfg(simd_x86)]
    #[test]
    fn fma_path_matches_mul_acc_when_available() {
        if !matches!(SimdBackend::detect(), SimdBackend::X86Avx2 | SimdBackend::X86Fma) {
            return;
        }
        #[target_feature(enable = "fma")]
        unsafe fn fused(acc: F32x4, a: F32x4, b: F32x4) -> F32x4 {
            acc.mul_acc_fma(a, b)
        }
        let a = F32x4::from_array([1.5, 2.5, -3.0, 4.0]);
        let b = F32x4::from_array([2.0, -1.0, 0.5, 3.0]);
        let acc = F32x4::splat(1.0);
        // Products here are exact, so fused and unfused agree bitwise.
        let got = unsafe { fused(acc, a, b) };
        assert_eq!(got.to_array(), acc.mul_acc(a, b).to_array());
    }

    #[cfg(simd_x86)]
    #[test]
    fn avx2_lanes_roundtrip_and_fuse_when_available() {
        if SimdBackend::detect() != SimdBackend::X86Avx2 {
            return;
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn run(x: &[f32; 8], y: &[f32; 8], out: &mut [f32; 8]) {
            let acc = F32x8::splat(1.0);
            acc.fmadd::<true>(F32x8::load(x.as_ptr()), F32x8::load(y.as_ptr()))
                .store(out.as_mut_ptr());
        }
        let x = [1.5f32, 2.5, -3.0, 4.0, 0.5, -1.0, 8.0, 0.25];
        let y = [2.0f32, -1.0, 0.5, 3.0, 4.0, 6.0, -0.5, 16.0];
        let mut out = [0.0f32; 8];
        // SAFETY: the probe above confirmed AVX2 and FMA.
        unsafe { run(&x, &y, &mut out) };
        let want: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a.mul_add(*b, 1.0)).collect();
        assert_eq!(out.to_vec(), want);
    }
}
