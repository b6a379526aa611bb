//! Cost functions over seeds.

use cc_hash::BitSeed;

/// A cost function `q(seed) = Σ_x q_x(seed)` decomposed over logical
/// machines, as required by the distributed method of conditional
/// expectations.
///
/// Implementors describe *what* is being minimized (e.g. "number of bad nodes
/// plus 𝔫 × number of bad bins" for `Partition`); the seed selectors decide
/// *how* the seed is searched.
pub trait SeedCost {
    /// Number of logical machines holding cost terms. Machine indices are
    /// `0..machine_count()`.
    fn machine_count(&self) -> usize;

    /// Every machine's local cost `q_x(seed)` for a fully specified seed, in
    /// machine order. Work the terms share (hashing every node, simulating a
    /// phase) is done once per call.
    fn local_costs(&self, seed: &BitSeed) -> Vec<f64>;

    /// The bound `Q` such that `E[q(seed)] <= Q` over a uniformly random
    /// seed. The probabilistic method guarantees some seed achieves `q <= Q`;
    /// selectors verify their chosen seed against this bound.
    fn expectation_bound(&self) -> f64;

    /// Total cost of a fully specified seed: the sum of its local costs.
    fn total_cost(&self, seed: &BitSeed) -> f64 {
        self.local_costs(seed).iter().sum()
    }
}

/// A simple cost function for tests and examples: counts, over a set of
/// keys, how many keys hash to bin 0 under a
/// [`cc_hash::PolynomialHashFamily`] member — a quantity whose expectation is
/// `keys/range`.
#[derive(Debug, Clone)]
pub struct BinZeroLoadCost {
    family: cc_hash::PolynomialHashFamily,
    keys: Vec<u64>,
}

impl BinZeroLoadCost {
    /// Creates the cost function over the given keys.
    pub fn new(family: cc_hash::PolynomialHashFamily, keys: Vec<u64>) -> Self {
        BinZeroLoadCost { family, keys }
    }
}

impl SeedCost for BinZeroLoadCost {
    fn machine_count(&self) -> usize {
        self.keys.len()
    }

    fn local_costs(&self, seed: &BitSeed) -> Vec<f64> {
        let h = self.family.with_seed(seed.clone());
        self.keys
            .iter()
            .map(|&key| if h.eval(key) == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    fn expectation_bound(&self) -> f64 {
        // Each key lands in bin 0 with probability ~1/range.
        self.keys.len() as f64 / self.family.range() as f64 + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_hash::PolynomialHashFamily;

    #[test]
    fn total_cost_is_sum_of_locals() {
        let family = PolynomialHashFamily::new(2, 100, 4);
        let cost = BinZeroLoadCost::new(family.clone(), (0..100).collect());
        let seed = BitSeed::zeros(family.seed_bits());
        // Zero seed maps everything to bin 0, so every key costs 1.
        assert_eq!(cost.total_cost(&seed), 100.0);
        assert_eq!(cost.machine_count(), 100);
        assert!(cost.expectation_bound() < 100.0);
    }

    #[test]
    fn local_costs_are_zero_one_per_machine() {
        let family = PolynomialHashFamily::new(2, 10, 2);
        let cost = BinZeroLoadCost::new(family.clone(), vec![1, 2, 3]);
        let seed = BitSeed::zeros(family.seed_bits());
        let costs = cost.local_costs(&seed);
        assert_eq!(costs.len(), cost.machine_count());
        assert!(costs.iter().all(|&c| c == 0.0 || c == 1.0));
    }
}
