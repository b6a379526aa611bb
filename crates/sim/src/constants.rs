//! Round-charging policy.
//!
//! The paper (and the primitives it cites) establish that each of these
//! operations takes O(1) rounds; the concrete constants below are the charge
//! the simulator applies. They are deliberately small integers so reported
//! round counts stay interpretable ("one partition level costs X rounds"),
//! and they are defined in exactly one place so every experiment uses the
//! same policy. Changing a constant rescales every algorithm's round count
//! identically and therefore never changes a comparison's verdict.

/// Rounds charged for one prefix-sum / aggregation pass (Lemma 2.1).
pub const PREFIX_SUM_ROUNDS: u64 = 2;

/// Rounds charged for broadcasting an O(log 𝔫)-bit value (e.g. a seed chunk
/// decision) to all machines.
pub const BROADCAST_ROUNDS: u64 = 1;

/// Rounds charged for one invocation of Lenzen's constant-round routing
/// scheme in the CONGESTED CLIQUE (every node sends/receives at most O(𝔫)
/// words).
pub const LENZEN_ROUTING_ROUNDS: u64 = 2;

/// Rounds charged for collecting an O(𝔫)-word instance onto a single machine
/// and announcing the locally computed answer (one gather + one scatter, both
/// via routing).
pub const COLLECT_AND_SOLVE_ROUNDS: u64 = 2 * LENZEN_ROUTING_ROUNDS;

/// Slack factor applied to "O(𝔫)" space/bandwidth limits. The paper's O(·)
/// notation hides constants (the collection bound of Lemma 3.14 carries a
/// 6⁹-ish factor); the simulator uses this single, much smaller multiplier
/// when turning an asymptotic bound into a checkable numeric limit, so
/// reported space utilizations stay interpretable.
pub const BIG_O_SLACK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_small_positive_integers() {
        for c in [
            PREFIX_SUM_ROUNDS,
            BROADCAST_ROUNDS,
            LENZEN_ROUTING_ROUNDS,
            COLLECT_AND_SOLVE_ROUNDS,
        ] {
            assert!((1..=16).contains(&c));
        }
        const { assert!(BIG_O_SLACK >= 1) }
    }

    #[test]
    fn collect_charge_is_two_routings() {
        assert_eq!(COLLECT_AND_SOLVE_ROUNDS, 2 * LENZEN_ROUTING_ROUNDS);
    }
}
