//! Columnar (structure-of-arrays) message storage: the staging area
//! programs send into and the inbox views they read.
//!
//! The message plane never materializes `Vec<Message>`s on the hot path.
//! A round's sends live in a [`Staging`] area — three parallel
//! `src`/`dst`/`word` columns plus a per-destination count shard, inside a
//! per-group arena that is allocated once and reused every round.
//! [`crate::env::NodeEnv`] appends to it directly, and a program reads
//! through an [`Inbox`] (a zero-copy concatenated view of the per-chunk
//! slices addressed to it). [`Message`] survives only as the *iteration
//! item* of that view — it is never the storage format.

use crate::message::Message;

/// A group's staging area for one round: the raw message columns, one
/// entry per message in generation order, plus a per-destination **count
/// shard** maintained at send time.
///
/// Keeping the fields in separate columns lets the router run each pass
/// over exactly the bytes it needs — the width check folds only `word`,
/// the placement keys only on `dst` — and lets capacity be reused across
/// rounds without re-allocation. Counting at send time is what kills the
/// router's count pass: the append already touches the destination id, so
/// by the time the last program of the group returns, the per-destination
/// loads are complete and the `router` module's seal starts straight at
/// the prefix sum. The shard belongs to one arena (it is never shared
/// across groups), so worker count stays unobservable in results and
/// ledgers — the barrier merge combines the shards in fixed group order.
#[derive(Debug, Default)]
pub(crate) struct Staging {
    src: Vec<u32>,
    dst: Vec<u32>,
    word: Vec<u64>,
    /// `counts[d]` = messages staged for destination `d` this round.
    counts: Vec<u32>,
}

impl Staging {
    /// An empty staging area for an `n`-node clique. The count shard is
    /// allocated here, once — clearing between rounds keeps it.
    pub(crate) fn new(n: usize) -> Self {
        Staging {
            counts: vec![0; n],
            ..Staging::default()
        }
    }

    /// Empties the staging area and sizes its count shard for an `n`-node
    /// clique, keeping the columns' capacity: what a recycled arena does
    /// when the next run has another clique size.
    pub(crate) fn refit(&mut self, n: usize) {
        self.clear();
        self.counts.resize(n, 0);
    }

    // Everything below runs every round on every message; the constructor
    // and the refit above are the only allocations.
    // cc-lint: region(no_alloc)

    /// Number of messages staged.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.dst.len()
    }

    /// Whether no messages are staged.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// The sender column.
    #[inline]
    pub(crate) fn src(&self) -> &[u32] {
        &self.src
    }

    /// The destination column.
    #[inline]
    pub(crate) fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// The payload column.
    #[inline]
    pub(crate) fn word(&self) -> &[u64] {
        &self.word
    }

    /// The per-destination count shard: `counts()[d]` staged messages are
    /// addressed to `d`. Complete at all times — every append updates it.
    #[inline]
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Appends one message and bumps its destination's count. The caller
    /// has checked `dst` against the clique size: a program's send checks
    /// it, and the router's fault pass only re-appends sent messages.
    #[inline]
    pub(crate) fn push(&mut self, src: u32, dst: u32, word: u64) {
        self.counts[dst as usize] += 1;
        self.src.push(src);
        self.dst.push(dst);
        self.word.push(word);
    }

    /// Appends one copy of `word` from `src` to every destination in
    /// `dsts`, in order — the bulk form of [`Staging::push`], column-wise
    /// (a memcpy and two fills) instead of element-wise. The caller has
    /// checked every destination.
    #[inline]
    pub(crate) fn push_all(&mut self, src: u32, dsts: &[u32], word: u64) {
        for &dst in dsts {
            self.counts[dst as usize] += 1;
        }
        self.src.resize(self.src.len() + dsts.len(), src);
        self.dst.extend_from_slice(dsts);
        self.word.resize(self.word.len() + dsts.len(), word);
    }

    /// Clears the staged batch, keeping every allocation. Zeroing the
    /// count shard is skipped entirely after rounds that staged nothing
    /// (the shard is already all zeros), so communication-free rounds pay
    /// no O(𝔫) reset.
    #[inline]
    pub(crate) fn clear(&mut self) {
        if !self.is_empty() {
            self.counts.fill(0);
        }
        self.src.clear();
        self.dst.clear();
        self.word.clear();
    }
    // cc-lint: end_region
}

/// One inbox segment: the sender and payload columns one chunk delivers to
/// a node. The destination column is implicit (it is the node itself).
pub(crate) type InboxSegment<'a> = (&'a [u32], &'a [u64]);

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
    pub(crate) fn new(node: u32, segments: &'a [InboxSegment<'a>]) -> Self {
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
    fn staging_appends_count_destinations_and_clear() {
        let mut staging = Staging::new(4);
        assert!(staging.is_empty());
        staging.push(3, 1, 10);
        staging.push_all(3, &[1, 3, 1], 5);
        staging.push(0, 2, 9);
        assert_eq!(staging.len(), 5);
        assert_eq!(staging.src(), &[3, 3, 3, 3, 0]);
        assert_eq!(staging.dst(), &[1, 1, 3, 1, 2]);
        assert_eq!(staging.word(), &[10, 5, 5, 5, 9]);
        assert_eq!(staging.counts(), &[0, 3, 1, 1]);
        staging.clear();
        assert!(staging.is_empty());
        assert_eq!(staging.counts(), &[0, 0, 0, 0]);
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
        assert_eq!(all[2].word, 15);
        assert!(all.iter().all(|m| m.dst == 9));
        // The view is Copy: iterating twice works on the same value.
        assert_eq!(inbox.iter().count(), inbox.iter().count());
    }

    #[test]
    fn empty_inbox_yields_nothing() {
        let inbox = Inbox::empty(4);
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().next(), None);
    }
}
