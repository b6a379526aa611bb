//! Cost functions over seeds.

use cc_hash::BitSeed;

/// A cost function `q(seed) = Σ_x q_x(seed)` decomposed over logical
/// machines, as required by the distributed method of conditional
/// expectations.
///
/// Implementors describe *what* is being minimized (e.g. "number of bad nodes
/// plus 𝔫 × number of bad bins" for `Partition`); the seed selector decides
/// *how* the seed is searched, and charges the aggregation of every
/// machine's term.
pub trait SeedCost {
    /// Number of logical machines holding cost terms `q_x`.
    fn machine_count(&self) -> usize;

    /// Total cost `q(seed)` of a fully specified seed: the sum of every
    /// machine's local cost, as the paper's aggregation delivers it. Work
    /// the terms share (hashing every node, simulating a phase) is done once
    /// per call.
    fn total_cost(&self, seed: &BitSeed) -> f64;

    /// The bound `Q` such that `E[q(seed)] <= Q` over a uniformly random
    /// seed. The probabilistic method guarantees some seed achieves `q <= Q`;
    /// the selector verifies its chosen seed against this bound.
    fn expectation_bound(&self) -> f64;
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

    fn total_cost(&self, seed: &BitSeed) -> f64 {
        let h = self.family.with_seed(seed.clone());
        self.keys.iter().filter(|&&key| h.eval(key) == 0).count() as f64
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
    fn total_cost_counts_keys_in_bin_zero() {
        let family = PolynomialHashFamily::new(2, 100, 4);
        let cost = BinZeroLoadCost::new(family.clone(), (0..100).collect());
        let seed = BitSeed::zeros(family.seed_bits());
        // Zero seed maps everything to bin 0, so every key costs 1.
        assert_eq!(cost.total_cost(&seed), 100.0);
        assert_eq!(cost.machine_count(), 100);
        assert!(cost.expectation_bound() < 100.0);
    }
}
