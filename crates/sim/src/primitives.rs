//! Constant-round communication primitives.
//!
//! Each function *charges* the [`ClusterContext`] the rounds, words, and
//! space checks an operation costs in the model; those given in-memory data
//! (sorting, prefix sums) also *perform* the operation:
//!
//! * sorting and prefix sums — Lemma 2.1 (Goodrich–Sitchinava–Zhang via
//!   MapReduce), O(1) rounds for 𝔫^δ local space;
//! * Lenzen routing — constant-round all-to-all routing in the CONGESTED
//!   CLIQUE as long as every node sends and receives O(𝔫) words;
//! * broadcast of an O(log 𝔫)-bit value (a seed chunk decision);
//! * aggregation of per-machine partial sums (the communication pattern of
//!   the method of conditional expectations), whose totals the caller
//!   computes itself;
//! * collecting a small instance onto a single machine.

use crate::cluster::ClusterContext;
use crate::constants::{
    BROADCAST_ROUNDS, COLLECT_AND_SOLVE_ROUNDS, LENZEN_ROUTING_ROUNDS, PREFIX_SUM_ROUNDS,
    SORT_ROUNDS,
};
use crate::error::SimError;

/// Broadcasts one O(log 𝔫)-bit word to every machine (e.g. the chosen value
/// of the next seed chunk). Returns the value unchanged for call-site
/// convenience.
pub fn broadcast_word(ctx: &mut ClusterContext, label: &str, value: u64) -> u64 {
    ctx.charge_rounds(label, BROADCAST_ROUNDS);
    ctx.charge_communication(ctx.model().machines as u64);
    value
}

/// Computes all prefix sums of `values` (one value per logical machine),
/// charging one Lemma 2.1 prefix-sum pass.
pub fn prefix_sum(ctx: &mut ClusterContext, label: &str, values: &[u64]) -> Vec<u64> {
    ctx.charge_rounds(label, PREFIX_SUM_ROUNDS);
    ctx.charge_communication(values.len() as u64);
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u64;
    for &v in values {
        acc += v;
        out.push(acc);
    }
    out
}

/// Sums one value per machine into a single global value (a prefix-sum pass
/// where only the last output is consumed).
pub fn aggregate_sum(ctx: &mut ClusterContext, label: &str, values: &[u64]) -> u64 {
    prefix_sum(ctx, label, values).last().copied().unwrap_or(0)
}

/// Charges one aggregation of per-machine partial sums: each of `machines`
/// machines holds `width` values, and their element-wise totals are needed
/// globally.
///
/// This is the communication pattern of one step of the method of
/// conditional expectations: every machine holds one cost value per
/// candidate (seed-chunk value), and the candidates' totals are aggregated
/// in one Lemma 2.1 prefix-sum pass. Each machine sends `width` words, so
/// the per-round bandwidth check is against that width.
///
/// # Errors
///
/// In strict mode, returns an error if `width` exceeds the per-round
/// bandwidth.
pub fn charge_aggregation(
    ctx: &mut ClusterContext,
    label: &str,
    machines: usize,
    width: usize,
) -> Result<(), SimError> {
    ctx.charge_rounds(label, PREFIX_SUM_ROUNDS);
    ctx.observe_bandwidth(label, width)?;
    ctx.charge_communication((machines * width) as u64);
    Ok(())
}

/// Sorts `items` with a deterministic MapReduce-style sort (Lemma 2.1),
/// charging the sort rounds and checking that the data fits in total space.
///
/// `words_per_item` is the storage cost of one item in machine words.
///
/// # Errors
///
/// In strict mode, returns an error if the data exceeds the total space.
pub fn distributed_sort<T: Ord>(
    ctx: &mut ClusterContext,
    label: &str,
    items: &mut [T],
    words_per_item: usize,
) -> Result<(), SimError> {
    ctx.charge_rounds(label, SORT_ROUNDS);
    let total_words = items.len() * words_per_item;
    ctx.observe_total_space(label, total_words)?;
    ctx.charge_communication(total_words as u64);
    items.sort_unstable();
    Ok(())
}

/// Charges one invocation of Lenzen routing where machine `i` sends
/// `send_words[i]` words and receives `receive_words[i]` words.
///
/// # Errors
///
/// In strict mode, returns an error if any machine exceeds the per-round
/// bandwidth.
pub fn lenzen_route(
    ctx: &mut ClusterContext,
    label: &str,
    send_words: &[usize],
    receive_words: &[usize],
) -> Result<(), SimError> {
    ctx.charge_rounds(label, LENZEN_ROUTING_ROUNDS);
    let mut max_load = 0usize;
    for &w in send_words.iter().chain(receive_words) {
        max_load = max_load.max(w);
    }
    // Communication volume counts each sent word once.
    let volume: usize = send_words.iter().sum();
    ctx.charge_communication(volume as u64);
    ctx.observe_bandwidth(label, max_load)
}

/// Collects an object of `words` words onto a single machine (and later
/// redistributes the answer), as the paper does for instances of size O(𝔫).
///
/// # Errors
///
/// In strict mode, returns an error if the object does not fit in one
/// machine's local space.
pub fn collect_to_single_machine(
    ctx: &mut ClusterContext,
    label: &str,
    words: usize,
) -> Result<(), SimError> {
    ctx.charge_rounds(label, COLLECT_AND_SOLVE_ROUNDS);
    ctx.charge_communication(words as u64);
    ctx.observe_local_space(label, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ExecutionModel;

    fn ctx() -> ClusterContext {
        ClusterContext::strict(ExecutionModel::congested_clique(100))
    }

    #[test]
    fn prefix_sum_matches_reference() {
        let mut c = ctx();
        let values = vec![3u64, 0, 7, 1];
        assert_eq!(prefix_sum(&mut c, "ps", &values), vec![3, 3, 10, 11]);
        assert_eq!(c.rounds(), PREFIX_SUM_ROUNDS);
        assert_eq!(aggregate_sum(&mut c, "sum", &values), 11);
    }

    #[test]
    fn aggregate_sum_of_empty_is_zero() {
        let mut c = ctx();
        assert_eq!(aggregate_sum(&mut c, "sum", &[]), 0);
    }

    #[test]
    fn aggregation_charges_one_prefix_sum_pass() {
        let mut c = ctx();
        charge_aggregation(&mut c, "mce", 7, 5).unwrap();
        assert_eq!(c.rounds(), PREFIX_SUM_ROUNDS);
        // The bandwidth observation counts `width` words, then every
        // machine sends `width` more.
        assert_eq!(c.communication_words(), 5 + 7 * 5);
    }

    #[test]
    fn aggregate_vectors_respects_bandwidth() {
        let mut c = ctx();
        let too_many = c.model().per_round_bandwidth_words + 1;
        assert!(charge_aggregation(&mut c, "mce", 1, too_many).is_err());
    }

    #[test]
    fn sort_sorts_and_charges() {
        let mut c = ctx();
        let mut items = vec![5, 1, 4, 2];
        distributed_sort(&mut c, "sort", &mut items, 2).unwrap();
        assert_eq!(items, vec![1, 2, 4, 5]);
        assert_eq!(c.rounds(), SORT_ROUNDS);
        assert_eq!(c.communication_words(), 8);
    }

    #[test]
    fn sort_rejects_oversized_data_in_strict_mode() {
        let mut c = ctx();
        let limit = c.model().total_space_words;
        let mut items = vec![0u8; 8];
        assert!(distributed_sort(&mut c, "sort", &mut items, limit).is_err());
    }

    #[test]
    fn lenzen_route_checks_per_machine_load() {
        let mut c = ctx();
        let ok = vec![10usize; 100];
        lenzen_route(&mut c, "route", &ok, &ok).unwrap();
        let bw = c.model().per_round_bandwidth_words;
        let bad = vec![bw + 1];
        assert!(lenzen_route(&mut c, "route", &bad, &[0]).is_err());
    }

    #[test]
    fn collect_checks_single_machine_space() {
        let mut c = ctx();
        let limit = c.model().local_space_words;
        collect_to_single_machine(&mut c, "collect", limit).unwrap();
        assert!(collect_to_single_machine(&mut c, "collect", limit + 1).is_err());
        assert_eq!(c.rounds(), 2 * COLLECT_AND_SOLVE_ROUNDS);
    }

    #[test]
    fn broadcast_returns_value_and_charges_one_round_block() {
        let mut c = ctx();
        assert_eq!(broadcast_word(&mut c, "bcast", 42), 42);
        assert_eq!(c.rounds(), BROADCAST_ROUNDS);
        assert_eq!(c.communication_words(), 100);
    }
}
