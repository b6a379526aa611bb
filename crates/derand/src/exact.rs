//! Textbook method of conditional expectations by exhaustive enumeration.
//!
//! For every candidate value of the next chunk, the conditional expectation
//! `E[q(seed) | prefix, chunk = value]` is computed *exactly* by averaging
//! the cost over every completion of the remaining bits. This is exponential
//! in the number of unfixed bits and therefore only usable for small seed
//! spaces; it exists to validate the framework (the classic invariant — the
//! final cost never exceeds the initial expectation — is checked by this
//! module's tests).

use cc_hash::BitSeed;
use cc_sim::primitives::{aggregate_f64_vectors, broadcast_word};
use cc_sim::ClusterContext;

use crate::cost::SeedCost;
use crate::selector::{SeedSelector, SelectionOutcome};

/// Maximum seed length (in bits) the exact selector accepts.
pub const MAX_EXACT_SEED_BITS: usize = 24;

/// Exact conditional-expectation seed selection (exponential; small seeds
/// only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactMceSelector {
    chunk_bits: usize,
}

impl Default for ExactMceSelector {
    fn default() -> Self {
        ExactMceSelector { chunk_bits: 4 }
    }
}

impl ExactMceSelector {
    /// Creates a selector fixing `chunk_bits` bits per stage.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits` is 0 or larger than [`MAX_EXACT_SEED_BITS`].
    pub fn new(chunk_bits: usize) -> Self {
        assert!(
            (1..=MAX_EXACT_SEED_BITS).contains(&chunk_bits),
            "chunk_bits must be in 1..={MAX_EXACT_SEED_BITS}"
        );
        ExactMceSelector { chunk_bits }
    }

    /// Exact expected total cost given that bits `0..fixed_bits` of `seed`
    /// are fixed and the rest are uniformly random.
    pub fn conditional_expectation(cost: &dyn SeedCost, seed: &BitSeed, fixed_bits: usize) -> f64 {
        let free_bits = seed.len().saturating_sub(fixed_bits);
        assert!(
            free_bits <= MAX_EXACT_SEED_BITS,
            "exact conditional expectation over {free_bits} free bits is infeasible"
        );
        let completions = 1u64 << free_bits;
        let mut total = 0.0;
        for completion in 0..completions {
            let mut full = seed.clone();
            // Write the completion into the free suffix, chunk by chunk.
            let mut remaining = free_bits;
            let mut offset = fixed_bits;
            let mut bits = completion;
            while remaining > 0 {
                let width = remaining.min(32);
                full.set_chunk(offset, width, bits & ((1u64 << width) - 1));
                bits >>= width;
                offset += width;
                remaining -= width;
            }
            total += cost.total_cost(&full);
        }
        total / completions as f64
    }
}

impl SeedSelector for ExactMceSelector {
    fn select(
        &self,
        ctx: &mut ClusterContext,
        label: &str,
        seed_bits: usize,
        cost: &dyn SeedCost,
    ) -> SelectionOutcome {
        assert!(
            seed_bits <= MAX_EXACT_SEED_BITS,
            "ExactMceSelector supports at most {MAX_EXACT_SEED_BITS} seed bits, got {seed_bits}"
        );
        let bound = cost.expectation_bound();
        let mut seed = BitSeed::zeros(seed_bits);
        let machines = cost.machine_count();
        let chunks = seed.chunk_count(self.chunk_bits);
        let mut candidates_evaluated = 0u64;
        for chunk_index in 0..chunks {
            let start = chunk_index * self.chunk_bits;
            let width = self.chunk_bits.min(seed_bits - start);
            let values = 1u64 << width;
            // Machines report, per candidate, their share of the conditional
            // expectation; here that share is computed centrally per machine
            // to keep the accounting identical to the greedy selector.
            let mut per_machine: Vec<Vec<f64>> =
                vec![Vec::with_capacity(values as usize); machines.max(1)];
            let mut totals_direct = Vec::with_capacity(values as usize);
            for value in 0..values {
                let mut trial = seed.clone();
                trial.set_chunk(start, width, value);
                let expectation = Self::conditional_expectation(cost, &trial, start + width);
                totals_direct.push(expectation);
                for (machine, row) in per_machine.iter_mut().enumerate() {
                    // Attribute the expectation evenly for accounting; the
                    // exact split across machines does not affect the sum.
                    let share = if machine == 0 { expectation } else { 0.0 };
                    row.push(share);
                }
            }
            candidates_evaluated += values;
            let totals = aggregate_f64_vectors(ctx, label, &per_machine).unwrap_or(totals_direct);
            let (best_value, _) = totals
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one candidate");
            seed.set_chunk(start, width, best_value as u64);
            broadcast_word(ctx, label, best_value as u64);
        }
        let achieved_cost = cost.total_cost(&seed);
        SelectionOutcome {
            seed,
            achieved_cost,
            bound,
            met_bound: achieved_cost <= bound,
            candidates_evaluated,
            escalations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sim::ExecutionModel;

    /// A toy cost function given by an explicit table: machine `x` costs
    /// `table[x][seed_value]`.
    struct TableCost {
        table: Vec<Vec<f64>>,
        seed_bits: usize,
    }

    impl TableCost {
        fn new(table: Vec<Vec<f64>>) -> Self {
            let width = table[0].len();
            assert!(width.is_power_of_two());
            TableCost {
                seed_bits: width.trailing_zeros() as usize,
                table,
            }
        }

        fn mean_total(&self) -> f64 {
            let width = self.table[0].len();
            (0..width)
                .map(|s| self.table.iter().map(|row| row[s]).sum::<f64>())
                .sum::<f64>()
                / width as f64
        }
    }

    impl SeedCost for TableCost {
        fn machine_count(&self) -> usize {
            self.table.len()
        }
        fn local_costs(&self, seed: &BitSeed) -> Vec<f64> {
            let value = seed.chunk(0, self.seed_bits) as usize;
            self.table.iter().map(|row| row[value]).collect()
        }
        fn expectation_bound(&self) -> f64 {
            self.mean_total()
        }
    }

    fn context() -> ClusterContext {
        ClusterContext::new(ExecutionModel::congested_clique(16))
    }

    #[test]
    fn exact_mce_never_exceeds_the_mean() {
        // A table where most seeds are bad and only a few are good; the MCE
        // invariant guarantees the final cost is at most the mean.
        let table = vec![
            vec![5.0, 1.0, 5.0, 5.0, 5.0, 0.5, 5.0, 5.0],
            vec![3.0, 3.0, 0.0, 3.0, 3.0, 0.5, 3.0, 3.0],
        ];
        let cost = TableCost::new(table);
        let selector = ExactMceSelector::new(1);
        let outcome = selector.select(&mut context(), "exact", 3, &cost);
        assert!(outcome.met_bound);
        assert!(outcome.achieved_cost <= cost.mean_total());
    }

    #[test]
    fn exact_mce_finds_global_optimum_with_single_chunk() {
        let table = vec![vec![4.0, 2.0, 9.0, 1.0]];
        let cost = TableCost::new(table);
        let selector = ExactMceSelector::new(2);
        let outcome = selector.select(&mut context(), "exact", 2, &cost);
        // With one chunk covering the whole seed, MCE is exhaustive search.
        assert_eq!(outcome.achieved_cost, 1.0);
        assert_eq!(outcome.seed.chunk(0, 2), 3);
    }

    #[test]
    fn conditional_expectation_matches_hand_computation() {
        let table = vec![vec![1.0, 3.0, 5.0, 7.0]];
        let cost = TableCost::new(table);
        let seed = BitSeed::zeros(2);
        // Nothing fixed: mean of all four entries = 4.
        assert_eq!(
            ExactMceSelector::conditional_expectation(&cost, &seed, 0),
            4.0
        );
        // Bit 0 fixed to 0: entries {0, 2} -> mean 3.
        assert_eq!(
            ExactMceSelector::conditional_expectation(&cost, &seed, 1),
            3.0
        );
        // Everything fixed: exactly entry 0.
        assert_eq!(
            ExactMceSelector::conditional_expectation(&cost, &seed, 2),
            1.0
        );
    }

    #[test]
    fn charges_rounds() {
        let table = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let cost = TableCost::new(table);
        let mut ctx = context();
        ExactMceSelector::new(1).select(&mut ctx, "exact", 1, &cost);
        assert!(ctx.rounds() > 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rejects_large_seed_spaces() {
        let table = vec![vec![0.0; 2]];
        let cost = TableCost::new(table);
        ExactMceSelector::default().select(&mut context(), "exact", 60, &cost);
    }
}
