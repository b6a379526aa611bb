//! Maximal-independent-set (MIS) substrate and the coloring → MIS reduction.
//!
//! The low-space MPC coloring algorithm (Section 4 of the paper) colors its
//! low-degree residual graph by Luby's classical reduction: build a graph
//! with one vertex per (node, palette color) pair — a clique per node plus
//! conflict edges between neighbors sharing a color — and observe that any
//! MIS of that graph selects exactly one color per node and never the same
//! color on both ends of an edge (Section 4.1). The paper then runs the
//! deterministic MIS algorithm of Czumaj–Davies–Parter (SPAA'20) on the
//! reduction graph.
//!
//! This crate provides:
//!
//! * [`reduction::ReductionGraph`] — the coloring → MIS reduction and the
//!   inverse mapping from an MIS back to a coloring,
//! * [`greedy`] — sequential greedy MIS (ground truth / baseline),
//! * [`derand`] — a deterministic Luby MIS: per-phase pairwise-independent
//!   priorities selected by the method of conditional expectations. It
//!   stands in for the algorithm of \[7\] (substitution #3 in the README's
//!   Substitutions list);
//!   experiment E5 reports its measured phase counts separately so the
//!   substitution is visible.
//! * [`verify`] — independence/maximality checking used by every test.
//! * [`engine`] — Luby's randomized MIS, run on the `cc-runtime`
//!   message-passing engine with real per-node mailboxes; the crate's only
//!   randomized algorithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod derand;
pub mod engine;
pub mod greedy;
pub mod reduction;
pub mod verify;

/// The result of running an MIS algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisResult {
    /// `in_set[v]` is true iff node `v` belongs to the independent set.
    pub in_set: Vec<bool>,
    /// Number of algorithm phases executed (each phase is O(1) simulated
    /// communication rounds plus, for the derandomized variant, the seed
    /// selection rounds).
    pub phases: u64,
}

impl MisResult {
    /// Number of nodes in the set.
    pub fn size(&self) -> usize {
        self.in_set.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mis_result_size_counts_the_set() {
        let r = MisResult {
            in_set: vec![true, false, true],
            phases: 2,
        };
        assert_eq!(r.size(), 2);
    }
}
