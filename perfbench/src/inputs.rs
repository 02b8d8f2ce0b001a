//! Seeded inputs and the scalar reference every output is checked
//! against.

use autogemm_baselines::naive::naive_gemm;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// gives the same inputs, schedule and shape draws on every run.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    fn matrix(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| (2.0 * self.unit() - 1.0) as f32).collect()
    }
}

/// One GEMM problem `C (m×n) = A (m×k) · B (k×n)`, row-major.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl Shape {
    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.n * self.k) as f64
    }
}

/// A shape's generated operands, its reference output and the per-element
/// error bound the output must meet.
pub struct Case {
    pub shape: Shape,
    pub a: Vec<f32>,
    pub b: Vec<f32>,
    reference: Vec<f32>,
    tolerance: Vec<f32>,
}

/// The safety factor and absolute floor `autogemm::verify` applies to its
/// rounding-error bound.
const TOLERANCE_SAFETY: f64 = 16.0;
const TOLERANCE_FLOOR: f64 = 1e-6;

impl Case {
    /// Operands drawn uniformly from `[-1, 1)`. The reference is the
    /// scalar triple loop of `autogemm-baselines`; element `(i, j)` may
    /// differ from it by `16·k·ε·Σ_p |A_ip|·|B_pj| + 16·ε·|C_ij| + 1e-6`,
    /// the element form of the bound the Freivalds check uses.
    pub fn new(shape: Shape, rng: &mut Rng) -> Case {
        let Case { a, b, .. } = Case::unchecked(shape, rng);
        let Shape { m, n, k, .. } = shape;
        let mut reference = vec![0.0f32; m * n];
        naive_gemm(m, n, k, &a, &b, &mut reference);
        let abs_a: Vec<f32> = a.iter().map(|v| v.abs()).collect();
        let abs_b: Vec<f32> = b.iter().map(|v| v.abs()).collect();
        let mut magnitude = vec![0.0f32; m * n];
        naive_gemm(m, n, k, &abs_a, &abs_b, &mut magnitude);
        let eps = f64::from(f32::EPSILON) * TOLERANCE_SAFETY;
        let tolerance = magnitude
            .iter()
            .zip(&reference)
            .map(|(&mag, &r)| {
                (eps * k as f64 * f64::from(mag) + eps * f64::from(r.abs()) + TOLERANCE_FLOOR)
                    as f32
            })
            .collect();
        Case { shape, a, b, reference, tolerance }
    }

    /// The same operands as [`Case::new`] without the reference, for a
    /// set-up whose outputs are not checked; [`Case::check`] rejects
    /// every output of such a case.
    pub fn unchecked(shape: Shape, rng: &mut Rng) -> Case {
        let a = rng.matrix(shape.m * shape.k);
        let b = rng.matrix(shape.k * shape.n);
        Case { shape, a, b, reference: Vec::new(), tolerance: Vec::new() }
    }

    /// A `C` buffer filled with NaN, so an output the engine never wrote
    /// fails [`Case::check`].
    pub fn poisoned_output(&self) -> Vec<f32> {
        vec![f32::NAN; self.shape.m * self.shape.n]
    }

    /// The scalar reference product.
    pub fn reference(&self) -> &[f32] {
        &self.reference
    }

    pub fn poison(c: &mut [f32]) {
        c.fill(f32::NAN);
    }

    /// Whether every element of `c` is within its bound of the reference.
    pub fn check(&self, c: &[f32]) -> bool {
        c.len() == self.reference.len()
            && c.iter()
                .zip(&self.reference)
                .zip(&self.tolerance)
                .all(|((&got, &want), &tol)| (got - want).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let s = Shape { name: "t", m: 3, n: 5, k: 7 };
        let (x, y) = (Case::new(s, &mut Rng::new(9)), Case::new(s, &mut Rng::new(9)));
        assert_eq!(x.a, y.a);
        assert_eq!(x.b, y.b);
        assert_ne!(x.a, Case::new(s, &mut Rng::new(10)).a);
    }

    #[test]
    fn check_accepts_reference_and_rejects_corruption() {
        let case = Case::new(Shape { name: "t", m: 8, n: 9, k: 33 }, &mut Rng::new(1));
        let mut c = case.reference.clone();
        assert!(case.check(&c));
        assert!(!case.check(&case.poisoned_output()));
        c[17] += 0.01;
        assert!(!case.check(&c));
    }
}
