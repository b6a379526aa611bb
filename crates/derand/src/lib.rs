//! The distributed method of conditional expectations (Section 2.4 of the
//! paper): deterministic selection of hash-function seeds.
//!
//! The derandomization recipe the paper follows is:
//!
//! 1. show that the randomized procedure works when its random choices come
//!    from a c-wise independent family, i.e. from an O(log 𝔫)-bit seed;
//! 2. define a cost function `q(seed) = Σ_machines q_x(seed)` whose
//!    expectation over a random seed is at most some bound `Q`;
//! 3. fix the seed a chunk of δ·log 𝔫 bits at a time: for every candidate
//!    value of the next chunk, machines evaluate their local conditional
//!    costs, the per-candidate totals are aggregated in O(1) rounds, and the
//!    minimizing candidate is broadcast.
//!
//! This crate provides the machinery for steps 2–3:
//!
//! * [`cost::SeedCost`] — the cost-function interface implemented by
//!   `clique-coloring`'s partitions and `cc-mis`'s derandomized Luby phase;
//!   one [`SeedCost::total_cost`] call scores a candidate: the total the
//!   paper's aggregation delivers. [`SeedCost::total_costs`] scores all of
//!   a chunk's candidates in one call; by default it calls `total_cost` once
//!   per candidate, and the partitions override it to score 64 candidates in
//!   one bit-sliced pass over the edges,
//! * [`greedy::GreedyChunkSelector`] — the paper's chunked search where each
//!   candidate chunk is scored by the *true* cost under a canonical
//!   deterministic completion, with a runtime check of the expectation bound
//!   and deterministic escalation if it is missed (substitution #2 in the
//!   README's Substitutions list). A cost whose
//!   [`SeedCost::stop_threshold`] is `Some` ends a pass at the first chunk
//!   whose minimizer totals at most it, returning that candidate's
//!   completion; `Partition`'s cost stops at its bound, the default
//!   (`None`) scores every chunk.
//!
//! The selector charges its communication — one
//! [`cc_sim::primitives::charge_aggregation`] and one broadcast per chunk —
//! to a [`cc_sim::ClusterContext`], so the round counts reported by
//! experiments include the cost of the derandomization itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod greedy;

pub use cost::SeedCost;
pub use greedy::{GreedyChunkSelector, SelectionOutcome};
