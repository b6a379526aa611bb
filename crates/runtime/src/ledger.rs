//! A deterministic record of every message the engine delivered.
//!
//! The ledger is the engine's determinism witness. Senders are partitioned
//! into a fixed number of chunks that depends only on the clique size
//! (never on the thread count); each chunk folds its own message stream —
//! in sender order, then send order — into a running digest, and the ledger
//! folds the chunk digests in chunk order, together with per-round load
//! statistics. Two executions are byte-identical exactly when their ledgers
//! are equal, regardless of how many worker threads produced them; the E9
//! experiment and CI compare ledgers across thread counts to enforce the
//! guarantee.

/// Load statistics for one engine round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// The round number (0-based).
    pub round: u64,
    /// Messages delivered out of this round.
    pub messages: u64,
    /// Largest number of words any single node sent.
    pub max_send_words: usize,
    /// Largest number of words any single node received.
    pub max_recv_words: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Mixes one message into a single word, for digesting. The round is part
/// of the mix so that reordering messages across rounds changes the digest.
#[inline]
pub fn message_mix(round: u64, src: u32, dst: u32, word: u64) -> u64 {
    let addressing = (u64::from(src) << 32) | u64::from(dst);
    let mut h = addressing ^ word.rotate_left(23) ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// An order-sensitive running digest (FNV-1a over pre-mixed words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest(u64);

impl StreamDigest {
    /// A fresh digest.
    pub fn new() -> Self {
        StreamDigest(FNV_OFFSET)
    }

    /// Folds one pre-mixed word (see [`message_mix`]) into the digest.
    #[inline]
    pub fn fold(&mut self, mixed: u64) {
        self.0 = (self.0 ^ mixed).wrapping_mul(FNV_PRIME);
    }

    /// The current digest value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for StreamDigest {
    fn default() -> Self {
        StreamDigest::new()
    }
}

/// The merged, order-fixed message record of one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageLedger {
    rounds: Vec<RoundStats>,
    total_messages: u64,
    digest: StreamDigest,
}

impl Default for MessageLedger {
    fn default() -> Self {
        MessageLedger::new()
    }
}

impl MessageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        MessageLedger {
            rounds: Vec::new(),
            total_messages: 0,
            digest: StreamDigest::new(),
        }
    }

    /// Reserves room for `rounds` further [`RoundStats`] entries, so that
    /// a bounded run's steady-state rounds never grow the ledger. The
    /// engine calls this once at start-up as part of its zero-allocation-
    /// per-round guarantee.
    pub fn reserve_rounds(&mut self, rounds: usize) {
        self.rounds.reserve(rounds);
    }

    /// Releases the room reserved for rounds that never ran. An adapter
    /// calls this where an outcome leaves for its caller, since a ledger
    /// reserved for a long round cap usually records a few rounds; the
    /// engine never does, so that no allocation inside a run depends on
    /// its round count.
    pub fn trim(&mut self) {
        self.rounds.shrink_to_fit();
    }

    /// Folds one sender-chunk's stream digest into the ledger. Must be
    /// called in chunk order within each round — the engine's barrier does
    /// this on the driving thread.
    pub fn fold_chunk(&mut self, chunk_digest: u64) {
        self.digest.fold(chunk_digest);
    }

    /// Closes one round with its load statistics.
    pub fn end_round(&mut self, stats: RoundStats) {
        self.total_messages += stats.messages;
        self.rounds.push(stats);
    }

    /// The per-round statistics, in round order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Total messages delivered over the whole execution.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// The hierarchical digest of the full message stream. Equal digests
    /// (plus equal round statistics) mean byte-identical communication.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}

impl std::fmt::Display for MessageLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, digest {:016x}",
            self.rounds.len(),
            self.total_messages,
            self.digest.value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_fields() {
        // Swapping src and dst, or moving a word across rounds, changes the
        // mix.
        assert_ne!(message_mix(0, 1, 2, 7), message_mix(0, 2, 1, 7));
        assert_ne!(message_mix(0, 1, 2, 7), message_mix(1, 1, 2, 7));
        assert_ne!(message_mix(0, 1, 2, 7), message_mix(0, 1, 2, 8));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (a, b) = (message_mix(0, 1, 2, 7), message_mix(0, 2, 1, 7));
        let mut x = StreamDigest::new();
        x.fold(a);
        x.fold(b);
        let mut y = StreamDigest::new();
        y.fold(b);
        y.fold(a);
        assert_ne!(x.value(), y.value());
        let mut z = StreamDigest::new();
        z.fold(a);
        z.fold(b);
        assert_eq!(x, z);
    }

    #[test]
    fn empty_ledgers_are_equal() {
        assert_eq!(MessageLedger::new(), MessageLedger::default());
        assert_eq!(MessageLedger::new().total_messages(), 0);
    }

    #[test]
    fn round_stats_accumulate() {
        let mut l = MessageLedger::new();
        l.end_round(RoundStats {
            round: 0,
            messages: 4,
            max_send_words: 2,
            max_recv_words: 3,
        });
        assert_eq!(l.rounds().len(), 1);
        assert_eq!(l.rounds()[0].messages, 4);
        assert_eq!(l.total_messages(), 4);
        assert!(l.to_string().contains("1 rounds"));
    }

    #[test]
    fn a_trimmed_ledger_holds_only_its_rounds() {
        let mut l = MessageLedger::new();
        l.reserve_rounds(512);
        for round in 0..5 {
            l.end_round(RoundStats {
                round,
                messages: round + 1,
                max_send_words: 1,
                max_recv_words: 1,
            });
        }
        let before = l.clone();
        l.trim();
        assert_eq!(l.rounds.capacity(), 5);
        assert_eq!(l, before);
        let mut empty = MessageLedger::new();
        empty.reserve_rounds(512);
        empty.trim();
        assert_eq!(empty.rounds.capacity(), 0);
    }

    #[test]
    fn chunk_folds_change_the_digest() {
        let mut l = MessageLedger::new();
        let before = l.digest();
        l.fold_chunk(123);
        assert_ne!(l.digest(), before);
    }
}
