//! Simulated-annealing search over the schedule space, guided by the
//! boosted-stumps surrogate — the AutoTVM workflow (§II-B): measure a
//! seed batch, train the cost model, anneal on the model's predictions,
//! verify the short-list with real measurements, retrain, repeat.

use crate::cost::schedule_cost;
use crate::space::{Schedule, SearchSpace};
use crate::surrogate::Surrogate;
use autogemm_arch::ChipSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Annealer configuration.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Initial random measurements used to seed the surrogate.
    pub seed_batch: usize,
    /// Annealing steps per round.
    pub steps_per_round: usize,
    /// Measure-and-retrain rounds.
    pub rounds: usize,
    /// Initial Metropolis temperature (relative to median cost).
    pub temp0: f64,
    /// RNG seed for reproducibility.
    pub rng_seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            seed_batch: 32,
            steps_per_round: 200,
            rounds: 4,
            temp0: 0.5,
            rng_seed: 0x5eed,
        }
    }
}

/// Move to a neighbouring schedule: re-draw one coordinate.
fn neighbour(space: &SearchSpace, cur: &Schedule, rng: &mut StdRng) -> Schedule {
    let mut next = cur.clone();
    match rng.random_range(0..3) {
        0 => {
            let (mc, nc, kc) =
                space.block_candidates[rng.random_range(0..space.block_candidates.len())];
            next.mc = mc;
            next.nc = nc;
            next.kc = kc;
        }
        1 => {
            next.order = space.orders[rng.random_range(0..space.orders.len())];
        }
        _ => {
            let packings = space.packings();
            next.packing = packings[rng.random_range(0..packings.len())];
        }
    }
    next
}

/// One measure-and-retrain round's log: how far the surrogate's
/// predictions sat from the true cost model on the candidates it was
/// verified against — the tuner-side twin of the telemetry layer's
/// measured-vs-model cycle ratio. A surrogate whose error stays high
/// across rounds is proposing blind; a shrinking error means the
/// retraining loop is converging on the true cost surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundLog {
    /// Measure-and-retrain round index (0-based).
    pub round: usize,
    /// Shortlist candidates verified with the true cost model.
    pub verified: usize,
    /// Mean relative error `|predicted − true| / true` over the
    /// verified shortlist (0 when nothing was verified).
    pub mean_model_error: f64,
    /// Best true cost known after this round.
    pub best_cost: f64,
}

/// Surrogate-guided simulated annealing. Returns the best schedule found
/// by *true-cost* evaluation (the surrogate only proposes).
pub fn anneal(space: &SearchSpace, chip: &ChipSpec, cfg: &AnnealConfig) -> Schedule {
    anneal_logged(space, chip, cfg).0
}

/// [`anneal`] with the per-round search log: every measure-and-retrain
/// round reports the surrogate's model error against the true costs it
/// was verified with (see [`RoundLog`]).
pub fn anneal_logged(
    space: &SearchSpace,
    chip: &ChipSpec,
    cfg: &AnnealConfig,
) -> (Schedule, Vec<RoundLog>) {
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed);

    // Seed batch: random configs, truly measured.
    let mut measured: Vec<(Schedule, f64)> = (0..cfg.seed_batch)
        .map(|_| {
            let s = space.random(&mut rng);
            let c = schedule_cost(&s, chip, &space.menu).total();
            (s, c)
        })
        .collect();

    let mut best = measured.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap().clone();
    let mut log = Vec::with_capacity(cfg.rounds);

    for round in 0..cfg.rounds {
        let model = Surrogate::fit(&measured, 60);
        let mut cur = best.0.clone();
        let mut cur_pred = model.predict(&cur);
        let scale = cur_pred.max(1.0);
        let mut proposals: Vec<Schedule> = Vec::new();

        let mut temp = cfg.temp0;
        for _ in 0..cfg.steps_per_round {
            let cand = neighbour(space, &cur, &mut rng);
            let cand_pred = model.predict(&cand);
            let delta = (cand_pred - cur_pred) / scale;
            if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
                cur = cand;
                cur_pred = cand_pred;
                proposals.push(cur.clone());
            }
            temp *= 0.985;
        }

        // Verify the most promising distinct proposals with the true model,
        // logging how far the surrogate's predictions sat from the truth.
        proposals.sort_by(|a, b| model.predict(a).partial_cmp(&model.predict(b)).unwrap());
        proposals.dedup();
        let mut verified = 0usize;
        let mut error_sum = 0.0f64;
        for cand in proposals.into_iter().take(8) {
            let c = schedule_cost(&cand, chip, &space.menu).total();
            if c > 0.0 {
                error_sum += (model.predict(&cand) - c).abs() / c;
                verified += 1;
            }
            if c < best.1 {
                best = (cand.clone(), c);
            }
            measured.push((cand, c));
        }
        log.push(RoundLog {
            round,
            verified,
            mean_model_error: if verified > 0 { error_sum / verified as f64 } else { 0.0 },
            best_cost: best.1,
        });
    }
    (best.0, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anneal_finds_a_schedule_no_worse_than_random_median() {
        let chip = ChipSpec::graviton2();
        let space = SearchSpace::new(128, 784, 128, &chip);
        let cfg = AnnealConfig { rounds: 2, steps_per_round: 80, ..Default::default() };
        let tuned = anneal(&space, &chip, &cfg);
        let tuned_cost = schedule_cost(&tuned, &chip, &space.menu).total();

        let mut rng = StdRng::seed_from_u64(7);
        let mut random_costs: Vec<f64> = (0..24)
            .map(|_| schedule_cost(&space.random(&mut rng), &chip, &space.menu).total())
            .collect();
        random_costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = random_costs[random_costs.len() / 2];
        assert!(tuned_cost <= median, "tuned {tuned_cost:.0} worse than random median {median:.0}");
    }

    #[test]
    fn anneal_is_deterministic_for_a_seed() {
        let chip = ChipSpec::m2();
        let space = SearchSpace::new(64, 192, 64, &chip);
        let cfg = AnnealConfig { rounds: 1, steps_per_round: 50, ..Default::default() };
        let a = anneal(&space, &chip, &cfg);
        let b = anneal(&space, &chip, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn logged_search_reports_every_round() {
        let chip = ChipSpec::graviton2();
        let space = SearchSpace::new(128, 784, 128, &chip);
        let cfg = AnnealConfig { rounds: 3, steps_per_round: 80, ..Default::default() };
        let (tuned, log) = anneal_logged(&space, &chip, &cfg);
        assert_eq!(log.len(), cfg.rounds);
        for (i, r) in log.iter().enumerate() {
            assert_eq!(r.round, i);
            assert!(r.mean_model_error >= 0.0 && r.mean_model_error.is_finite());
            assert!(r.best_cost > 0.0 && r.best_cost.is_finite());
        }
        // best_cost is monotone non-increasing: rounds only improve it.
        for w in log.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
        }
        assert_eq!(
            log.last().unwrap().best_cost,
            schedule_cost(&tuned, &chip, &space.menu).total()
        );
        // The wrapper must agree with the logged variant's winner.
        assert_eq!(anneal(&space, &chip, &cfg), tuned);
    }

    #[test]
    fn neighbour_moves_stay_in_space() {
        let chip = ChipSpec::kp920();
        let space = SearchSpace::new(256, 256, 256, &chip);
        let mut rng = StdRng::seed_from_u64(1);
        let mut cur = space.random(&mut rng);
        for _ in 0..100 {
            cur = neighbour(&space, &cur, &mut rng);
            assert_eq!(256 % cur.mc, 0);
            assert_eq!(256 % cur.nc, 0);
            assert_eq!(256 % cur.kc, 0);
            assert!(cur.order.valid());
        }
    }
}
