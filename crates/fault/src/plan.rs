//! Seeded, reproducible fault schedules.
//!
//! A [`FaultPlan`] answers "what happens to this message / this node /
//! this chunk" as a pure function of the plan's seed and *model-level*
//! coordinates: the round, the retry attempt, the `(src, dst)` pair, and
//! the message's sequence index within its sender's outbox run. Nothing
//! about the host — wall clocks, thread ids, addresses — enters the key,
//! so a plan replays identically across thread counts and processes. That
//! invariant is what lets the chaos proptests assert bit-identical
//! recovered ledgers at 1/2/4 threads.

use cc_hash::seed::splitmix64;

/// Domain-separation salts so the per-fault-kind decisions draw from
/// independent streams of the same seed.
const SALT_MESSAGE: u64 = 0x6d73_675f_6661_756c; // "msg_faul"
const SALT_CORRUPT: u64 = 0x636f_7272_7570_7431; // "corrupt1"
const SALT_STALL: u64 = 0x7374_616c_6c5f_3031; // "stall_01"

/// What the network does to one staged message on one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFault {
    /// The message never arrives.
    Drop,
    /// The message arrives twice (the copy is delivered adjacent to the
    /// original, so receive order stays deterministic).
    Duplicate,
    /// The message arrives with its word XORed by `mask` — always nonzero
    /// and always within the model's word-width limit, so corruption is
    /// damage the *detection* machinery must catch, not a width violation
    /// the existing model checks would flag for free.
    Corrupt {
        /// The nonzero XOR mask applied to the message word.
        mask: u64,
    },
}

/// A seeded, reproducible fault schedule, and the engine's one fault
/// source: `Engine::with_faults(plan)` attaches it as is.
///
/// Rates are in permille (0–1000) per delivery attempt; the drop,
/// duplicate, and corrupt rates partition one roll, so their sum must stay
/// ≤ 1000. Crash-stops are an explicit per-node schedule, not a rate: a
/// crashed node is a permanent, attempt-independent event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_permille: u16,
    duplicate_permille: u16,
    corrupt_permille: u16,
    stall_permille: u16,
    stall_spins: u32,
    /// `(node, round)` pairs sorted by node: the node crash-stops at the
    /// start of the given round.
    crashes: Vec<(u32, u64)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults. Compose with the
    /// `with_*` builders.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_permille: 0,
            duplicate_permille: 0,
            corrupt_permille: 0,
            stall_permille: 0,
            stall_spins: 0,
            crashes: Vec::new(),
        }
    }

    /// Drops each staged message with probability `permille`/1000 per
    /// attempt.
    ///
    /// # Panics
    ///
    /// Panics if the combined drop + duplicate + corrupt rate exceeds 1000.
    #[must_use]
    pub fn with_drop(mut self, permille: u16) -> Self {
        self.drop_permille = permille;
        self.check_rates();
        self
    }

    /// Duplicates each staged message with probability `permille`/1000 per
    /// attempt.
    ///
    /// # Panics
    ///
    /// Panics if the combined drop + duplicate + corrupt rate exceeds 1000.
    #[must_use]
    pub fn with_duplicate(mut self, permille: u16) -> Self {
        self.duplicate_permille = permille;
        self.check_rates();
        self
    }

    /// Corrupts each staged message's word (nonzero XOR within the width
    /// limit) with probability `permille`/1000 per attempt.
    ///
    /// # Panics
    ///
    /// Panics if the combined drop + duplicate + corrupt rate exceeds 1000.
    #[must_use]
    pub fn with_corrupt(mut self, permille: u16) -> Self {
        self.corrupt_permille = permille;
        self.check_rates();
        self
    }

    /// Stalls a sealing chunk for `spins` busy-wait iterations with
    /// probability `permille`/1000 per round — barrier-skew amplification
    /// that perturbs timing without touching any compared state.
    #[must_use]
    pub fn with_stall(mut self, permille: u16, spins: u32) -> Self {
        self.stall_permille = permille;
        self.stall_spins = spins;
        self
    }

    /// Crash-stops `node` at the start of `round`: it stops stepping and
    /// sending from that round on, permanently.
    #[must_use]
    pub fn with_crash(mut self, node: u32, round: u64) -> Self {
        match self.crashes.binary_search_by_key(&node, |&(v, _)| v) {
            Ok(i) => self.crashes[i].1 = self.crashes[i].1.min(round),
            Err(i) => self.crashes.insert(i, (node, round)),
        }
        self
    }

    fn check_rates(&self) {
        let sum = u32::from(self.drop_permille)
            + u32::from(self.duplicate_permille)
            + u32::from(self.corrupt_permille);
        assert!(
            sum <= 1000,
            "drop + duplicate + corrupt rates exceed 1000 permille ({sum})"
        );
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled crash-stops, sorted by node.
    #[must_use]
    pub fn crashes(&self) -> &[(u32, u64)] {
        &self.crashes
    }

    // cc-lint: region(no_alloc) — fault decisions run inside the router's
    // sealed hot path every round.

    /// The raw fault roll for one message on one specific attempt: `None`
    /// means clean delivery. Keyed on model coordinates only — `seq` is
    /// the message's index within its sender's outbox this round, which is
    /// thread-count-invariant because each sender's run is appended by
    /// exactly one worker in program order.
    #[inline]
    #[must_use]
    pub fn message_fault(
        &self,
        round: u64,
        attempt: u32,
        src: u32,
        dst: u32,
        seq: u32,
        bits_limit: u32,
    ) -> Option<MessageFault> {
        if !self.has_message_faults() {
            return None;
        }
        let mut h = splitmix64(self.seed ^ SALT_MESSAGE ^ round);
        h = splitmix64(h ^ ((u64::from(src) << 32) | u64::from(dst)));
        h = splitmix64(h ^ ((u64::from(attempt) << 32) | u64::from(seq)));
        let roll = (h >> 32) % 1000;
        let drop = u64::from(self.drop_permille);
        let dup = drop + u64::from(self.duplicate_permille);
        let corrupt = dup + u64::from(self.corrupt_permille);
        if roll < drop {
            Some(MessageFault::Drop)
        } else if roll < dup {
            Some(MessageFault::Duplicate)
        } else if roll < corrupt {
            let width_mask = if bits_limit >= u64::BITS {
                u64::MAX
            } else {
                (1u64 << bits_limit) - 1
            };
            let mask = splitmix64(h ^ SALT_CORRUPT) & width_mask;
            Some(MessageFault::Corrupt {
                mask: if mask == 0 { 1 } else { mask },
            })
        } else {
            None
        }
    }

    /// The *settled* outcome for one staged message at the given retry
    /// attempt (`None` = deliver clean): a message settles (delivers
    /// clean, permanently) at the first attempt whose roll is clean; until
    /// then, each attempt sees that attempt's fault. This makes retries
    /// converge geometrically — the probability a message is still
    /// faulted after `a` attempts is `rateᵃ` — instead of requiring one
    /// attempt where *every* message rolls clean at once.
    #[inline]
    #[must_use]
    pub fn message_outcome(
        &self,
        round: u64,
        attempt: u32,
        src: u32,
        dst: u32,
        seq: u32,
        bits_limit: u32,
    ) -> Option<MessageFault> {
        for earlier in 0..attempt {
            self.message_fault(round, earlier, src, dst, seq, bits_limit)?;
        }
        self.message_fault(round, attempt, src, dst, seq, bits_limit)
    }

    /// Busy-wait iterations to inject into one chunk's seal this round.
    #[inline]
    #[must_use]
    pub fn stall_spins(&self, round: u64, chunk: usize) -> u32 {
        if self.stall_permille == 0 {
            return 0;
        }
        let h = splitmix64(self.seed ^ SALT_STALL ^ splitmix64(round ^ ((chunk as u64) << 40)));
        if (h >> 32) % 1000 < u64::from(self.stall_permille) {
            self.stall_spins
        } else {
            0
        }
    }

    /// The round at whose start `node` crash-stops, if scheduled.
    #[inline]
    #[must_use]
    pub fn crash_round(&self, node: u32) -> Option<u64> {
        self.crashes
            .binary_search_by_key(&node, |&(v, _)| v)
            .ok()
            .map(|i| self.crashes[i].1)
    }

    /// Whether any message-delivery fault can ever fire (lets the engine
    /// skip the fault pass, and its delivered-side buffers, for crash- or
    /// stall-only plans).
    #[inline]
    #[must_use]
    pub fn has_message_faults(&self) -> bool {
        self.drop_permille > 0 || self.duplicate_permille > 0 || self.corrupt_permille > 0
    }
}
// cc-lint: end_region

#[cfg(test)]
mod tests {
    use super::*;

    const BITS: u32 = 10;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(7).with_drop(100).with_corrupt(100);
        let b = FaultPlan::new(7).with_drop(100).with_corrupt(100);
        for round in 0..8 {
            for src in 0..16 {
                for seq in 0..4 {
                    assert_eq!(
                        a.message_fault(round, 0, src, src ^ 1, seq, BITS),
                        b.message_fault(round, 0, src, src ^ 1, seq, BITS),
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1).with_drop(500);
        let b = FaultPlan::new(2).with_drop(500);
        let diverges = (0..64u32)
            .any(|i| a.message_fault(0, 0, i, 0, 0, BITS) != b.message_fault(0, 0, i, 0, 0, BITS));
        assert!(diverges, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn zero_rate_plan_never_faults() {
        let plan = FaultPlan::new(99);
        for i in 0..1000u32 {
            assert_eq!(plan.message_fault(u64::from(i), 0, i, i, i, BITS), None);
            assert_eq!(plan.stall_spins(u64::from(i), i as usize), 0);
        }
    }

    #[test]
    fn observed_rate_tracks_the_configured_rate() {
        let plan = FaultPlan::new(3).with_drop(250);
        let trials = 20_000u32;
        let faults = (0..trials)
            .filter(|&i| {
                plan.message_fault(u64::from(i) >> 8, 0, i % 97, i % 89, i % 7, BITS)
                    .is_some()
            })
            .count();
        let rate = faults as f64 / f64::from(trials);
        assert!(
            (0.22..0.28).contains(&rate),
            "observed drop rate {rate:.3}, configured 0.250"
        );
    }

    #[test]
    fn corrupt_masks_are_nonzero_and_within_width() {
        let plan = FaultPlan::new(11).with_corrupt(1000);
        for i in 0..512u32 {
            match plan.message_fault(u64::from(i), 0, i, i + 1, 0, BITS) {
                Some(MessageFault::Corrupt { mask }) => {
                    assert_ne!(mask, 0);
                    assert_eq!(mask >> BITS, 0, "mask {mask:#x} exceeds {BITS} bits");
                }
                other => panic!("corrupt-only plan produced {other:?}"),
            }
        }
    }

    #[test]
    fn settled_messages_stay_clean_on_later_attempts() {
        let plan = FaultPlan::new(5).with_drop(400);
        for src in 0..64u32 {
            let mut settled = None;
            for attempt in 0..16u32 {
                let outcome = plan.message_outcome(3, attempt, src, 0, 0, BITS);
                if let Some(at) = settled {
                    assert_eq!(
                        outcome, None,
                        "message settled at attempt {at} re-faulted at {attempt}"
                    );
                } else if outcome.is_none() {
                    settled = Some(attempt);
                }
            }
            assert!(settled.is_some(), "src {src} never settled in 16 attempts");
        }
    }

    #[test]
    fn crash_schedule_looks_up_by_node() {
        let plan = FaultPlan::new(0).with_crash(9, 4).with_crash(2, 1);
        assert_eq!(plan.crash_round(2), Some(1));
        assert_eq!(plan.crash_round(9), Some(4));
        assert_eq!(plan.crash_round(5), None);
        // Re-crashing the same node keeps the earliest round.
        let plan = plan.with_crash(9, 2);
        assert_eq!(plan.crash_round(9), Some(2));
        assert_eq!(plan.crashes(), &[(2, 1), (9, 2)]);
        // A crash-only plan faults no message.
        assert!(!plan.has_message_faults());
        assert!(plan.with_drop(500).has_message_faults());
    }

    #[test]
    #[should_panic(expected = "exceed 1000 permille")]
    fn rates_beyond_one_roll_are_rejected() {
        let _ = FaultPlan::new(0).with_drop(600).with_corrupt(600);
    }
}
