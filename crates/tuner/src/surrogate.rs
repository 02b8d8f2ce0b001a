//! A gradient-boosted-stumps cost regressor — the reproduction's stand-in
//! for AutoTVM's XGBoost model (§II-B).
//!
//! Each boosting round fits a depth-1 regression tree (a stump: one
//! feature, one threshold, two leaf values) to the residuals, exactly the
//! additive-tree structure XGBoost builds, minus the second-order niceties
//! that don't matter at this scale. Features are simple schedule
//! descriptors; the target is log-cycles from the analytic cost model or a
//! measurement.

use crate::space::{LoopIndex, Packing, Schedule};

/// Number of features extracted from a schedule.
pub const N_FEATURES: usize = 8;

/// Extract the feature vector of a schedule.
pub fn features(s: &Schedule) -> [f64; N_FEATURES] {
    [
        (s.mc as f64).ln(),
        (s.nc as f64).ln(),
        (s.kc as f64).ln(),
        (s.block_working_set() as f64).ln(),
        s.order.position(LoopIndex::Kc) as f64,
        s.order.position(LoopIndex::Mc) as f64 - s.order.position(LoopIndex::Nc) as f64,
        match s.packing {
            Packing::None => 0.0,
            Packing::Offline => 1.0,
            Packing::Online => 2.0,
        },
        ((s.m / s.mc) * (s.n / s.nc) * (s.k / s.kc)) as f64,
    ]
}

#[derive(Debug, Clone, Copy)]
struct Stump {
    feature: usize,
    threshold: f64,
    left: f64,
    right: f64,
}

impl Stump {
    fn predict(&self, x: &[f64; N_FEATURES]) -> f64 {
        if x[self.feature] <= self.threshold {
            self.left
        } else {
            self.right
        }
    }
}

/// The boosted ensemble.
#[derive(Debug, Clone, Default)]
pub struct Surrogate {
    base: f64,
    stumps: Vec<Stump>,
    learning_rate: f64,
}

impl Surrogate {
    /// Fit `rounds` stumps to `(schedule, cost)` pairs. Costs are modelled
    /// in log space (cycle counts span orders of magnitude).
    pub fn fit(samples: &[(Schedule, f64)], rounds: usize) -> Surrogate {
        assert!(!samples.is_empty(), "cannot fit surrogate on no samples");
        let xs: Vec<[f64; N_FEATURES]> = samples.iter().map(|(s, _)| features(s)).collect();
        let ys: Vec<f64> = samples.iter().map(|(_, c)| c.max(1.0).ln()).collect();
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut model = Surrogate { base, stumps: Vec::new(), learning_rate: 0.3 };
        let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();

        for _ in 0..rounds {
            let Some(stump) = best_stump(&xs, &residuals) else { break };
            for (i, x) in xs.iter().enumerate() {
                residuals[i] -= model.learning_rate * stump.predict(x);
            }
            model.stumps.push(stump);
        }
        model
    }

    /// Predicted cost (cycles) for a schedule.
    pub fn predict(&self, s: &Schedule) -> f64 {
        let x = features(s);
        let mut y = self.base;
        for st in &self.stumps {
            y += self.learning_rate * st.predict(&x);
        }
        y.exp()
    }

    pub fn rounds(&self) -> usize {
        self.stumps.len()
    }
}

/// Exhaustively find the squared-error-optimal stump over all features and
/// candidate thresholds (midpoints of sorted unique values).
fn best_stump(xs: &[[f64; N_FEATURES]], residuals: &[f64]) -> Option<Stump> {
    let n = xs.len();
    let mut best: Option<(f64, Stump)> = None;
    for f in 0..N_FEATURES {
        let mut vals: Vec<f64> = xs.iter().map(|x| x[f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        for w in vals.windows(2) {
            let thr = (w[0] + w[1]) / 2.0;
            let (mut sl, mut nl, mut sr, mut nr) = (0.0, 0usize, 0.0, 0usize);
            for i in 0..n {
                if xs[i][f] <= thr {
                    sl += residuals[i];
                    nl += 1;
                } else {
                    sr += residuals[i];
                    nr += 1;
                }
            }
            if nl == 0 || nr == 0 {
                continue;
            }
            let left = sl / nl as f64;
            let right = sr / nr as f64;
            // Error reduction = sum of squares explained.
            let gain = left * sl + right * sr;
            if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                best = Some((gain, Stump { feature: f, threshold: thr, left, right }));
            }
        }
    }
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::schedule_cost;
    use crate::space::SearchSpace;
    use autogemm_arch::ChipSpec;

    fn training_data(chip: &ChipSpec) -> Vec<(Schedule, f64)> {
        let space = SearchSpace::new(256, 256, 256, chip);
        space
            .pruned_candidates()
            .map(|s| {
                let c = schedule_cost(&s, chip, &space.menu).total();
                (s, c)
            })
            .collect()
    }

    #[test]
    fn surrogate_learns_the_cost_landscape() {
        let chip = ChipSpec::graviton2();
        let data = training_data(&chip);
        assert!(data.len() > 20, "need a meaningful training set");
        let (train, test): (Vec<_>, Vec<_>) =
            data.iter().cloned().enumerate().partition(|(i, _)| i % 3 != 0);
        let train: Vec<_> = train.into_iter().map(|(_, d)| d).collect();
        let test: Vec<_> = test.into_iter().map(|(_, d)| d).collect();
        let model = Surrogate::fit(&train, 60);
        assert!(model.rounds() > 10);

        // Rank correlation on held-out data must be clearly positive.
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..test.len() {
            for j in i + 1..test.len() {
                let d_true = test[i].1 - test[j].1;
                let d_pred = model.predict(&test[i].0) - model.predict(&test[j].0);
                if d_true * d_pred > 0.0 {
                    concordant += 1;
                } else if d_true * d_pred < 0.0 {
                    discordant += 1;
                }
            }
        }
        let tau = (concordant - discordant) as f64 / (concordant + discordant).max(1) as f64;
        assert!(tau > 0.4, "Kendall tau {tau:.2} too weak");
    }

    #[test]
    fn predictions_are_positive_and_finite() {
        let chip = ChipSpec::kp920();
        let data = training_data(&chip);
        let model = Surrogate::fit(&data, 40);
        for (s, _) in &data {
            let p = model.predict(s);
            assert!(p.is_finite() && p > 0.0);
        }
    }

    #[test]
    fn single_sample_fits_constant() {
        let chip = ChipSpec::m2();
        let data = training_data(&chip);
        let one = vec![data[0].clone()];
        let model = Surrogate::fit(&one, 10);
        let p = model.predict(&data[0].0);
        assert!((p.ln() - data[0].1.ln()).abs() < 0.01);
    }
}
