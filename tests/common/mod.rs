//! Helpers shared by the integration tests.

use congested_clique_coloring::coloring::trace::{PartitionRecord, RecursionTrace};

/// The partitions whose seed search scored a cost other than the one their
/// classification gives, bad nodes + 𝔫·bad bins (Equation (1)), bit for
/// bit: none, when the search and the final classification agree.
pub fn mismatched_searches(trace: &RecursionTrace, global_nodes: usize) -> Vec<&PartitionRecord> {
    trace
        .calls()
        .iter()
        .filter_map(|call| call.partition.as_ref())
        .filter(|p| {
            let cost = p.bad_nodes as f64 + (global_nodes * p.bad_bins) as f64;
            p.seed_outcome.achieved_cost.to_bits() != cost.to_bits()
        })
        .collect()
}
