//! Columnar (structure-of-arrays) message storage and the views programs
//! run against.
//!
//! The message plane never materializes `Vec<Message>`s on the hot path:
//! messages live in [`MessageColumns`] — three parallel `src`/`dst`/`word`
//! columns inside a per-chunk arena that is allocated once and reused every
//! round. A program writes through a [`SendSink`] (an appender pinned to
//! the sending node) and reads through an [`Inbox`] (a zero-copy
//! concatenated view of the per-chunk slices addressed to it). The
//! [`crate::message::Message`] struct survives only as the *iteration item*
//! of these views and in tests — it is never the storage format.

use crate::message::Message;

/// Structure-of-arrays storage for a batch of messages: three parallel
/// columns, one entry per message.
///
/// Keeping the fields in separate columns lets the router run each pass
/// over exactly the bytes it needs — the width check folds only `word`,
/// the counting sort keys only on `dst` — and lets capacity be reused
/// across rounds without re-allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageColumns {
    src: Vec<u32>,
    dst: Vec<u32>,
    word: Vec<u64>,
}

impl MessageColumns {
    /// Empty columns.
    #[must_use]
    pub fn new() -> Self {
        MessageColumns::default()
    }

    // Everything below runs every round on every message; the arena's
    // capacity is the only allocation, made once at start-up.
    // cc-lint: region(no_alloc)

    /// Number of messages stored.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.dst.len()
    }

    /// Whether no messages are stored.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Removes all messages, keeping the allocated capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.word.clear();
    }

    /// Appends one message.
    #[inline]
    pub fn push(&mut self, src: u32, dst: u32, word: u64) {
        self.src.push(src);
        self.dst.push(dst);
        self.word.push(word);
    }

    /// Appends one copy of `word` from `src` to every destination in
    /// `dsts`, in order — the bulk form of [`MessageColumns::push`],
    /// column-wise (a memcpy and two fills) instead of element-wise.
    #[inline]
    pub fn push_to_all(&mut self, src: u32, dsts: &[u32], word: u64) {
        self.src.resize(self.src.len() + dsts.len(), src);
        self.dst.extend_from_slice(dsts);
        self.word.resize(self.word.len() + dsts.len(), word);
    }

    /// The `i`-th message, rematerialized.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> Message {
        Message {
            src: self.src[i],
            dst: self.dst[i],
            word: self.word[i],
        }
    }

    /// The sender column.
    #[inline]
    #[must_use]
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// The destination column.
    #[inline]
    #[must_use]
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// The payload column.
    #[inline]
    #[must_use]
    pub fn word(&self) -> &[u64] {
        &self.word
    }

    /// Iterates the stored messages in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Message> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// 64-bit words of column data one routing pass moves for this batch:
    /// per message, the placement scatter rewrites the `u32` sender and
    /// the `u64` payload (1.5 words) and reads the `u32` destination key
    /// (0.5 words) — 2 words per message. (The former counting pass is
    /// gone: per-destination counts are maintained at send time by the
    /// [`SendSink`].) The traffic metric behind the trace plane's
    /// "words-moved" counter.
    #[inline]
    #[must_use]
    pub fn words_moved(&self) -> u64 {
        2 * self.len() as u64
    }
    // cc-lint: end_region
}

/// A chunk's staging area for one round: the raw message columns plus a
/// per-destination **count shard** maintained incrementally at send time.
///
/// Counting at the sink is what kills the router's count pass: the staging
/// write already touches the destination id, so by the time the last
/// program of the chunk returns, the per-destination loads are complete
/// and the `router` module's seal starts straight at the prefix sum. The
/// shard belongs to one arena (it is never shared across chunks), so
/// worker count stays unobservable in results and ledgers — the barrier
/// merge combines the shards in fixed chunk order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Staging {
    columns: MessageColumns,
    /// `counts[d]` = messages staged for destination `d` this round.
    counts: Vec<u32>,
}

impl Staging {
    /// An empty staging area for an `n`-node clique. The count shard is
    /// allocated here, once — clearing between rounds keeps it.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Staging {
            columns: MessageColumns::new(),
            counts: vec![0; n],
        }
    }

    // Everything below runs every round; the constructor above is the only
    // allocation.
    // cc-lint: region(no_alloc)

    /// Number of messages staged.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether no messages are staged.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The staged columns.
    #[inline]
    #[must_use]
    pub fn columns(&self) -> &MessageColumns {
        &self.columns
    }

    /// The per-destination count shard: `counts()[d]` staged messages are
    /// addressed to `d`. Complete at all times — the sink updates it on
    /// every push.
    #[inline]
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Appends one message directly, bumping the count shard exactly as a
    /// [`SendSink`] push would. This is the router's fault-pass entry
    /// point: rebuilding a post-fault delivered batch must keep the shard
    /// consistent with the columns, and the fields are private to this
    /// module. The destination is trusted — the original send already
    /// validated it.
    #[inline]
    pub(crate) fn push_message(&mut self, src: u32, dst: u32, word: u64) {
        self.counts[dst as usize] += 1;
        self.columns.push(src, dst, word);
    }

    /// Clears the staged batch, keeping every allocation. Zeroing the
    /// count shard is skipped entirely after rounds that staged nothing
    /// (the shard is already all zeros), so communication-free rounds pay
    /// no O(𝔫) reset.
    #[inline]
    pub fn clear(&mut self) {
        if !self.columns.is_empty() {
            self.counts.fill(0);
        }
        self.columns.clear();
    }
    // cc-lint: end_region
}

/// A write-only appender into a [`Staging`] arena, pinned to one sending
/// node.
///
/// This is the outbox a [`crate::program::NodeProgram`] sees (through
/// [`crate::env::NodeEnv::send`]): sends go straight into the owning
/// chunk's staging columns, so there is no per-node outbox to allocate,
/// copy out of, or clear. Every push also bumps the staging area's
/// per-destination count shard — the send already validated and wrote the
/// destination, so the increment rides on a line the sink is touching
/// anyway, and the router's seal never has to re-scan the batch to count.
#[derive(Debug)]
pub struct SendSink<'a> {
    src: u32,
    n: u32,
    columns: &'a mut MessageColumns,
    counts: &'a mut [u32],
}

impl<'a> SendSink<'a> {
    /// An appender writing messages from `src` into `staging`, in an
    /// `n`-node clique.
    ///
    /// # Panics
    ///
    /// Panics if `staging`'s count shard was not built for `n` nodes.
    pub fn new(src: u32, n: usize, staging: &'a mut Staging) -> Self {
        assert_eq!(
            staging.counts.len(),
            n,
            "staging count shard was built for a different clique size"
        );
        SendSink {
            src,
            n: u32::try_from(n).expect("clique size exceeds u32"),
            columns: &mut staging.columns,
            counts: &mut staging.counts,
        }
    }

    // The per-send path of every program: stays allocation-free.
    // cc-lint: region(no_alloc)

    /// Appends one word addressed to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is outside `0..n` — a bug in the program, not a
    /// model violation: out-of-range destinations would corrupt the
    /// counting sort, so they are rejected at the door.
    #[inline]
    pub fn push(&mut self, dst: u32, word: u64) {
        assert!(
            dst < self.n,
            "node {} sent to non-existent node {dst} (n = {})",
            self.src,
            self.n
        );
        self.counts[dst as usize] += 1;
        self.columns.push(self.src, dst, word);
    }

    /// Appends one copy of `word` addressed to every destination in
    /// `dsts`, in order — the bulk form of [`SendSink::push`].
    ///
    /// # Panics
    ///
    /// Panics if any destination is outside `0..n`.
    pub fn push_all(&mut self, dsts: &[u32], word: u64) {
        let max = dsts.iter().copied().max().unwrap_or(0);
        assert!(
            max < self.n || dsts.is_empty(),
            "node {} sent to non-existent node {max} (n = {})",
            self.src,
            self.n
        );
        for &dst in dsts {
            self.counts[dst as usize] += 1;
        }
        self.columns.push_to_all(self.src, dsts, word);
    }

    /// Messages currently staged in the underlying columns (all senders,
    /// not just this one).
    #[inline]
    #[must_use]
    pub fn staged(&self) -> usize {
        self.columns.len()
    }
    // cc-lint: end_region
}

/// The maximum number of segments an [`Inbox`] concatenates — one per
/// sender chunk (see the `router` module).
pub const MAX_INBOX_SEGMENTS: usize = 16;

/// One inbox segment: the sender and payload columns one chunk delivers to
/// a node. The destination column is implicit (it is the node itself).
pub type InboxSegment<'a> = (&'a [u32], &'a [u64]);

/// A node's inbox for one round: a zero-copy concatenation of the slices
/// each sender chunk's sorted arena holds for this node, in chunk order —
/// i.e. ordered by sender id.
///
/// The view is `Copy`, so `env.inbox()` hands it out by value and a
/// program can hold it while sending.
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a> {
    node: u32,
    len: usize,
    segments: &'a [InboxSegment<'a>],
}

// Inbox views are rebuilt per node per round from borrowed slices; reading
// them must never touch the heap.
// cc-lint: region(no_alloc)
impl<'a> Inbox<'a> {
    /// An inbox for `node` over per-chunk `segments` (each a matched pair
    /// of sender and payload slices).
    ///
    /// # Panics
    ///
    /// Panics if a segment's column lengths disagree.
    #[must_use]
    pub fn new(node: u32, segments: &'a [InboxSegment<'a>]) -> Self {
        let mut len = 0;
        for (src, word) in segments {
            assert_eq!(src.len(), word.len(), "ragged inbox segment");
            len += src.len();
        }
        Inbox {
            node,
            len,
            segments,
        }
    }

    /// An inbox with no messages.
    #[must_use]
    pub fn empty(node: u32) -> Self {
        Inbox {
            node,
            len: 0,
            segments: &[],
        }
    }

    /// Number of messages delivered.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no messages were delivered.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th delivered message (ordered by sender id), if any.
    #[must_use]
    pub fn get(&self, mut i: usize) -> Option<Message> {
        for (src, word) in self.segments {
            if i < src.len() {
                return Some(Message {
                    src: src[i],
                    dst: self.node,
                    word: word[i],
                });
            }
            i -= src.len();
        }
        None
    }

    /// Iterates the delivered messages in sender order.
    #[must_use]
    pub fn iter(&self) -> InboxIter<'a> {
        InboxIter {
            node: self.node,
            segments: self.segments,
            segment: 0,
            offset: 0,
        }
    }
}

impl<'a> IntoIterator for Inbox<'a> {
    type Item = Message;
    type IntoIter = InboxIter<'a>;

    fn into_iter(self) -> InboxIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding rematerialized [`Message`]s.
#[derive(Debug, Clone)]
pub struct InboxIter<'a> {
    node: u32,
    segments: &'a [InboxSegment<'a>],
    segment: usize,
    offset: usize,
}

impl Iterator for InboxIter<'_> {
    type Item = Message;

    #[inline]
    fn next(&mut self) -> Option<Message> {
        while let Some((src, word)) = self.segments.get(self.segment) {
            if self.offset < src.len() {
                let i = self.offset;
                self.offset += 1;
                return Some(Message {
                    src: src[i],
                    dst: self.node,
                    word: word[i],
                });
            }
            self.segment += 1;
            self.offset = 0;
        }
        None
    }
}
// cc-lint: end_region

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_push_get_iterate() {
        let mut cols = MessageColumns::new();
        assert!(cols.is_empty());
        cols.push(0, 1, 7);
        cols.push(2, 0, 9);
        assert_eq!(cols.len(), 2);
        assert_eq!(
            cols.get(1),
            Message {
                src: 2,
                dst: 0,
                word: 9
            }
        );
        let all: Vec<Message> = cols.iter().collect();
        assert_eq!(all.len(), 2);
        cols.clear();
        assert!(cols.is_empty());
    }

    #[test]
    fn sink_stamps_the_sender_and_counts_destinations() {
        let mut staging = Staging::new(8);
        let mut sink = SendSink::new(3, 8, &mut staging);
        sink.push(1, 10);
        sink.push(7, 11);
        sink.push(7, 12);
        assert_eq!(sink.staged(), 3);
        assert_eq!(staging.columns().src(), &[3, 3, 3]);
        assert_eq!(staging.columns().dst(), &[1, 7, 7]);
        assert_eq!(staging.columns().word(), &[10, 11, 12]);
        assert_eq!(staging.counts(), &[0, 1, 0, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn bulk_sends_count_every_destination() {
        let mut staging = Staging::new(4);
        let mut sink = SendSink::new(0, 4, &mut staging);
        sink.push_all(&[1, 3, 1], 5);
        assert_eq!(staging.counts(), &[0, 2, 0, 1]);
        staging.clear();
        assert!(staging.is_empty());
        assert_eq!(staging.counts(), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "non-existent node")]
    fn sink_rejects_out_of_range_destinations() {
        let mut staging = Staging::new(2);
        let mut sink = SendSink::new(0, 2, &mut staging);
        sink.push(2, 1);
    }

    #[test]
    fn inbox_concatenates_segments_in_order() {
        let seg_a: InboxSegment<'_> = (&[0, 2], &[10, 12]);
        let seg_b: InboxSegment<'_> = (&[], &[]);
        let seg_c: InboxSegment<'_> = (&[5], &[15]);
        let segments = [seg_a, seg_b, seg_c];
        let inbox = Inbox::new(9, &segments);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        let all: Vec<Message> = inbox.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].src, 0);
        assert_eq!(all[2].src, 5);
        assert!(all.iter().all(|m| m.dst == 9));
        assert_eq!(inbox.get(2).unwrap().word, 15);
        assert!(inbox.get(3).is_none());
        // The view is Copy: iterating twice works on the same value.
        assert_eq!(inbox.iter().count(), inbox.iter().count());
    }

    #[test]
    fn empty_inbox_yields_nothing() {
        let inbox = Inbox::empty(4);
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().next(), None);
        assert!(inbox.get(0).is_none());
    }
}
