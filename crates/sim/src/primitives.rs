//! Constant-round communication primitives.
//!
//! Each function *charges* the [`ClusterContext`] the rounds, words, and
//! space checks an operation costs in the model; the caller computes the
//! operation's result itself:
//!
//! * aggregation of per-machine partial sums (the communication pattern of
//!   the method of conditional expectations) in one prefix-sum pass —
//!   Lemma 2.1 (Goodrich–Sitchinava–Zhang via MapReduce), O(1) rounds for
//!   𝔫^δ local space;
//! * Lenzen routing — constant-round all-to-all routing in the CONGESTED
//!   CLIQUE as long as every node sends and receives O(𝔫) words;
//! * broadcast of an O(log 𝔫)-bit value (a seed chunk decision);
//! * collecting a small instance onto a single machine.

use crate::cluster::ClusterContext;
use crate::constants::{
    BROADCAST_ROUNDS, COLLECT_AND_SOLVE_ROUNDS, LENZEN_ROUTING_ROUNDS, PREFIX_SUM_ROUNDS,
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
    use crate::ViolationPolicy;

    fn ctx() -> ClusterContext {
        ClusterContext::with_policy(
            ExecutionModel::congested_clique(100),
            ViolationPolicy::FailFast,
        )
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
