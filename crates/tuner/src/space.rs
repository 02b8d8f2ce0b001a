//! The tuning parameter space (§IV-C2).

use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{tiles, MicroTile};
use serde::{Deserialize, Serialize};

/// The five blocked loops of the GEMM nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopIndex {
    Mc,
    Nc,
    Kc,
    Mr,
    Nr,
}

/// A permutation of the five loops, outermost first — `σ_order`
/// (`5! = 120` possibilities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LoopOrder(pub [LoopIndex; 5]);

impl LoopOrder {
    /// The Goto-style default: `N_c` outermost, then `K_c`, `M_c`, and the
    /// register loops innermost.
    pub fn goto() -> Self {
        use LoopIndex::*;
        LoopOrder([Nc, Kc, Mc, Mr, Nr])
    }

    /// All 120 permutations, deterministic order.
    pub fn all() -> Vec<LoopOrder> {
        use LoopIndex::*;
        let items = [Mc, Nc, Kc, Mr, Nr];
        let mut out = Vec::with_capacity(120);
        let mut idx = [0usize; 5];
        // Simple recursive permutation without allocation churn.
        fn permute(
            items: &[LoopIndex; 5],
            used: &mut [bool; 5],
            cur: &mut [LoopIndex; 5],
            depth: usize,
            out: &mut Vec<LoopOrder>,
        ) {
            if depth == 5 {
                out.push(LoopOrder(*cur));
                return;
            }
            for i in 0..5 {
                if !used[i] {
                    used[i] = true;
                    cur[depth] = items[i];
                    permute(items, used, cur, depth + 1, out);
                    used[i] = false;
                }
            }
        }
        let _ = &mut idx;
        let mut used = [false; 5];
        let mut cur = [Mc; 5];
        permute(&items, &mut used, &mut cur, 0, &mut out);
        out
    }

    /// Position of a loop in the nest (0 = outermost).
    pub fn position(&self, idx: LoopIndex) -> usize {
        self.0.iter().position(|&l| l == idx).unwrap()
    }

    /// Loop orders are only *valid* when the register loops nest inside
    /// their cache loops (a micro-kernel cannot span cache blocks).
    pub fn valid(&self) -> bool {
        self.position(LoopIndex::Mr) > self.position(LoopIndex::Mc)
            && self.position(LoopIndex::Nr) > self.position(LoopIndex::Nc)
            && self.position(LoopIndex::Mr) > self.position(LoopIndex::Kc)
            && self.position(LoopIndex::Nr) > self.position(LoopIndex::Kc)
    }
}

/// `σ_packing`: how operand panels are laid out (§IV-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Packing {
    /// Operate on the caller's row-major buffers directly.
    None,
    /// Pack `B` ahead of time, outside the timed region (LibShalom-style).
    Offline,
    /// Pack panels inside the GEMM call; the packing cost is paid at
    /// runtime but amortized over panel reuse.
    Online,
}

impl Packing {
    pub fn all() -> [Packing; 3] {
        [Packing::None, Packing::Offline, Packing::Online]
    }
}

/// One point of the search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub mc: usize,
    pub nc: usize,
    pub kc: usize,
    pub order: LoopOrder,
    pub packing: Packing,
}

impl Schedule {
    /// Trip counts of the three cache loops.
    pub fn block_trips(&self) -> (usize, usize, usize) {
        (self.m / self.mc, self.n / self.nc, self.k / self.kc)
    }

    /// Bytes of one block's working set (A + B + C panels).
    pub fn block_working_set(&self) -> usize {
        4 * (self.mc * self.kc + self.kc * self.nc + self.mc * self.nc)
    }
}

/// Divisors of `n` (ascending).
pub fn divisors(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            out.push(i);
            if i != n / i {
                out.push(n / i);
            }
        }
        i += 1;
    }
    out.sort_unstable();
    out
}

/// Enumerate cache-block candidates for a problem on a chip: divisor
/// triples, pruned to plausible working sets (fits in the last-level
/// private cache, `n_c` a lane multiple or the whole of N, and blocks at
/// least one register tile tall/wide where possible).
pub fn enumerate_blocks(
    m: usize,
    n: usize,
    k: usize,
    chip: &ChipSpec,
) -> Vec<(usize, usize, usize)> {
    let sigma = chip.sigma_lane();
    let last_private = chip
        .caches
        .iter()
        .rfind(|c| !c.shared)
        .or(chip.caches.last())
        .map(|c| c.size_bytes)
        .unwrap_or(1 << 20);
    let mut out = Vec::new();
    for &mc in &divisors(m) {
        if mc > 512 {
            continue;
        }
        for &nc in &divisors(n) {
            if nc % sigma != 0 && nc != n {
                continue;
            }
            if nc > 4096 {
                continue;
            }
            for &kc in &divisors(k) {
                let ws = 4 * (mc * kc + kc * nc + mc * nc);
                if ws <= 2 * last_private {
                    out.push((mc, nc, kc));
                }
            }
        }
    }
    if out.is_empty() {
        out.push((m, n, k));
    }
    out
}

/// The full search space for a problem.
pub struct SearchSpace {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub block_candidates: Vec<(usize, usize, usize)>,
    pub orders: Vec<LoopOrder>,
    /// Whether offline packing is on the menu. Offline packing moves the
    /// pack cost outside the timed region, so it is only a fair candidate
    /// when the caller actually reuses the packed operand (LibShalom-style
    /// usage); it must be explicitly enabled.
    pub allow_offline: bool,
    /// Micro-kernel shapes DMT tiles each block with when a schedule is
    /// scored: the chip's Table II menu unless [`Self::with_menu`]
    /// narrows it (native runs plan over the host's register-feasible
    /// menu).
    pub menu: Vec<MicroTile>,
}

impl SearchSpace {
    pub fn new(m: usize, n: usize, k: usize, chip: &ChipSpec) -> Self {
        let orders = LoopOrder::all().into_iter().filter(LoopOrder::valid).collect();
        SearchSpace {
            m,
            n,
            k,
            block_candidates: enumerate_blocks(m, n, k, chip),
            orders,
            allow_offline: false,
            menu: tiles::table_menu(chip.sigma_lane()),
        }
    }

    /// Score schedules with blocks DMT-tiled over `menu` instead of
    /// Table II.
    pub fn with_menu(mut self, menu: &[MicroTile]) -> Self {
        self.menu = menu.to_vec();
        self
    }

    /// Enable offline packing as a candidate (the caller promises reuse).
    pub fn with_offline(mut self) -> Self {
        self.allow_offline = true;
        self
    }

    /// The packing modes on the menu.
    pub fn packings(&self) -> &'static [Packing] {
        if self.allow_offline {
            &[Packing::None, Packing::Offline, Packing::Online]
        } else {
            &[Packing::None, Packing::Online]
        }
    }

    /// Total unpruned combinations (for reporting the pruning factor).
    pub fn unpruned_size(&self) -> usize {
        // All divisor triples × 120 orders × 3 packing modes.
        self.block_candidates.len() * 120 * 3
    }

    /// The pruned candidate list the exhaustive pass scores: every block
    /// candidate under the Goto order and one N-major alternative, with
    /// all three packing modes.
    pub fn pruned_candidates(&self) -> impl Iterator<Item = Schedule> + '_ {
        use LoopIndex::*;
        let orders = [LoopOrder::goto(), LoopOrder([Kc, Nc, Mc, Mr, Nr])];
        let packings = self.packings();
        self.block_candidates.iter().flat_map(move |&(mc, nc, kc)| {
            orders.into_iter().flat_map(move |order| {
                packings.iter().map(move |&packing| Schedule {
                    m: self.m,
                    n: self.n,
                    k: self.k,
                    mc,
                    nc,
                    kc,
                    order,
                    packing,
                })
            })
        })
    }

    /// A uniformly random schedule (for annealing moves).
    pub fn random(&self, rng: &mut impl rand::Rng) -> Schedule {
        let (mc, nc, kc) = self.block_candidates[rng.random_range(0..self.block_candidates.len())];
        let order = self.orders[rng.random_range(0..self.orders.len())];
        let packings = self.packings();
        let packing = packings[rng.random_range(0..packings.len())];
        Schedule { m: self.m, n: self.n, k: self.k, mc, nc, kc, order, packing }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_120_loop_orders() {
        let all = LoopOrder::all();
        assert_eq!(all.len(), 120);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 120);
    }

    #[test]
    fn valid_orders_keep_register_loops_inside() {
        let valid: Vec<_> = LoopOrder::all().into_iter().filter(LoopOrder::valid).collect();
        assert!(valid.contains(&LoopOrder::goto()));
        assert!(!valid.is_empty() && valid.len() < 120);
        for o in &valid {
            assert!(o.position(LoopIndex::Mr) > o.position(LoopIndex::Mc));
        }
    }

    #[test]
    fn divisors_are_correct() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(64).len(), 7);
        assert_eq!(divisors(1), vec![1]);
    }

    #[test]
    fn block_candidates_satisfy_divisibility_and_capacity() {
        let chip = ChipSpec::kp920();
        let cands = enumerate_blocks(256, 3136, 64, &chip);
        assert!(!cands.is_empty());
        for (mc, nc, kc) in cands {
            assert_eq!(256 % mc, 0);
            assert_eq!(3136 % nc, 0);
            assert_eq!(64 % kc, 0);
            assert!(4 * (mc * kc + kc * nc + mc * nc) <= 2 * (512 << 10));
        }
    }

    #[test]
    fn awkward_primes_still_get_a_candidate() {
        let chip = ChipSpec::m2();
        let cands = enumerate_blocks(13, 17, 19, &chip);
        assert!(!cands.is_empty());
    }

    #[test]
    fn pruning_reduces_the_space_substantially() {
        let chip = ChipSpec::graviton2();
        let space = SearchSpace::new(256, 3136, 64, &chip);
        let pruned = space.pruned_candidates().count();
        assert!(pruned * 10 < space.unpruned_size(), "{pruned} vs {}", space.unpruned_size());
    }
}
