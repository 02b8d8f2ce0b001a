//! Watch the auto-tuner work: the pruned search space (§IV-B/C), the cost
//! model's ranking, the boosted-stumps surrogate and the annealer — our
//! stand-in for the paper's TVM/AutoTVM workflow.
//!
//! ```sh
//! cargo run --release --example tuning_session [M N K]
//! ```

use autogemm_arch::ChipSpec;
use autogemm_tuner::{anneal, schedule_cost, AnnealConfig, SearchSpace};

fn main() {
    let args: Vec<usize> = std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
    let (m, n, k) = match args.as_slice() {
        [m, n, k] => (*m, *n, *k),
        _ => (128, 784, 256), // Table V L6-like
    };
    let chip = ChipSpec::graviton2();
    let space = SearchSpace::new(m, n, k, &chip);
    println!(
        "search space for {m}x{n}x{k} on {}: {} block candidates x 120 loop orders x 3 packings = {} points",
        chip.name,
        space.block_candidates.len(),
        space.unpruned_size()
    );
    let pruned: Vec<_> = space.pruned_candidates().collect();
    println!(
        "model pruning keeps {} candidates ({}x reduction)\n",
        pruned.len(),
        space.unpruned_size() / pruned.len().max(1)
    );

    // Rank the pruned candidates with the Eqn 13 cost model.
    let mut scored: Vec<_> =
        pruned.iter().map(|s| (schedule_cost(s, &chip, &space.menu).total(), s)).collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    println!("top 5 candidates by the pruning cost model:");
    for (cost, s) in scored.iter().take(5) {
        println!(
            "  block {:>3}x{:<4}x{:<3} packing {:<8} -> {:>12.0} projected cycles",
            s.mc,
            s.nc,
            s.kc,
            format!("{:?}", s.packing),
            cost
        );
    }

    // Run the surrogate-guided annealer over the same space.
    let cfg = AnnealConfig::default();
    let best = anneal(&space, &chip, &cfg);
    let best_cost = schedule_cost(&best, &chip, &space.menu).total();
    println!(
        "\nannealer (boosted-stumps surrogate, {} rounds x {} steps) found:",
        cfg.rounds, cfg.steps_per_round
    );
    println!(
        "  block {}x{}x{} packing {:?} -> {:.0} projected cycles",
        best.mc, best.nc, best.kc, best.packing, best_cost
    );
    println!(
        "  vs exhaustive-pruned best {:.0} cycles ({:+.1}%)",
        scored[0].0,
        (best_cost / scored[0].0 - 1.0) * 100.0
    );
}
