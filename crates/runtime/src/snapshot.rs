//! Round checkpointing: flat-word snapshots of node-program state.
//!
//! When the engine runs with a fault plan attached, it checkpoints
//! every live program at the start of each round so a damaged round
//! (dropped, duplicated, or corrupted deliveries detected at the barrier)
//! can be re-executed from the same state. The snapshot format is
//! deliberately primitive — a flat stream of `u64` words the program
//! writes through a [`SnapshotSink`] and reads back through a
//! [`SnapshotSource`] — because the buffers live in the per-chunk slots
//! and are reused every round: after the first rounds reach their
//! high-water capacity, checkpointing allocates nothing.
//!
//! A program opts in by implementing
//! [`crate::program::NodeProgram::snapshot`] /
//! [`crate::program::NodeProgram::restore`]; the defaults return `false`
//! (unsupported), in which case the engine cannot retry a damaged round
//! and commits it as-is (see the engine docs on degraded outcomes).

/// A write-only word stream a program serializes its state into.
///
/// The sink appends to a buffer owned by the engine's per-chunk slots;
/// the buffer is cleared and reused every round, so steady-state
/// checkpoints stay within its high-water capacity.
#[derive(Debug)]
pub struct SnapshotSink<'a> {
    words: &'a mut Vec<u64>,
}

// Checkpoints are taken inside the engine's per-round worker body; pushes
// are amortized-free once the buffer reaches its high-water capacity.
// cc-lint: region(no_alloc)
impl<'a> SnapshotSink<'a> {
    /// A sink appending to `words`.
    pub(crate) fn new(words: &'a mut Vec<u64>) -> Self {
        SnapshotSink { words }
    }

    /// Appends one word.
    #[inline]
    pub fn push(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Appends a slice of words.
    #[inline]
    pub fn push_slice(&mut self, words: &[u64]) {
        self.words.extend_from_slice(words);
    }

    /// Words written through this sink's buffer so far.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// A read-once cursor over a previously taken snapshot.
///
/// Reads must mirror the writes exactly; reading past the end panics,
/// because it means the program's `restore` disagrees with its own
/// `snapshot` — a bug, not a recoverable condition.
#[derive(Debug)]
pub struct SnapshotSource<'a> {
    words: &'a [u64],
    cursor: usize,
}

impl<'a> SnapshotSource<'a> {
    /// A cursor over `words`.
    pub(crate) fn new(words: &'a [u64]) -> Self {
        SnapshotSource { words, cursor: 0 }
    }

    /// Reads the next word.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is exhausted.
    #[inline]
    pub fn next_word(&mut self) -> u64 {
        let word = self.words[self.cursor];
        self.cursor += 1;
        word
    }

    /// Reads the next `len` words as a slice.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` words remain.
    #[inline]
    pub fn take(&mut self, len: usize) -> &'a [u64] {
        let slice = &self.words[self.cursor..self.cursor + len];
        self.cursor += len;
        slice
    }

    /// Words not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.words.len() - self.cursor
    }
}
// cc-lint: end_region

/// Encodes an `Option<u64>` as two words (tag, value) — the fixed-width
/// helper the ported programs use so snapshot layouts stay positional.
#[inline]
pub fn push_option(sink: &mut SnapshotSink<'_>, value: Option<u64>) {
    match value {
        Some(v) => {
            sink.push(1);
            sink.push(v);
        }
        None => {
            sink.push(0);
            sink.push(0);
        }
    }
}

/// Decodes the two-word `Option<u64>` encoding written by [`push_option`].
#[inline]
#[must_use]
pub fn take_option(source: &mut SnapshotSource<'_>) -> Option<u64> {
    let tag = source.next_word();
    let value = source.next_word();
    (tag != 0).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_through_sink_and_source() {
        let mut buf = Vec::new();
        let mut sink = SnapshotSink::new(&mut buf);
        assert!(sink.is_empty());
        sink.push(7);
        sink.push_slice(&[8, 9]);
        push_option(&mut sink, Some(42));
        push_option(&mut sink, None);
        assert_eq!(sink.len(), 7);
        let mut source = SnapshotSource::new(&buf);
        assert_eq!(source.next_word(), 7);
        assert_eq!(source.take(2), &[8, 9]);
        assert_eq!(take_option(&mut source), Some(42));
        assert_eq!(take_option(&mut source), None);
        assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn reused_buffers_keep_their_capacity() {
        let mut buf = Vec::with_capacity(16);
        for _ in 0..3 {
            buf.clear();
            let mut sink = SnapshotSink::new(&mut buf);
            sink.push_slice(&[1, 2, 3, 4]);
        }
        assert_eq!(buf.capacity(), 16);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    #[should_panic]
    fn reading_past_the_end_panics() {
        let mut source = SnapshotSource::new(&[1]);
        source.next_word();
        source.next_word();
    }
}
