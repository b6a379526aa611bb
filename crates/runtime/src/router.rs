//! Deterministic message delivery: a columnar, allocation-free counting
//! sort per sender group, merged in fixed order at the barrier.
//!
//! Senders are partitioned at two granularities. The **digest chunking**
//! ([`digest_chunk_count`], a function of the clique size only) fixes the
//! granularity at which message streams are digested into the ledger — it
//! never changes, so ledgers are comparable across thread counts and
//! engine versions. The **execution grouping** ([`exec_chunk_count`], each
//! group a union of consecutive digest chunks) fixes the unit of parallel
//! work: one [`ChunkArena`] of flat `src`/`dst`/`word` column buffers per
//! group, allocated once and reused every round, and refit in place when
//! the next run has another clique size or group count. A single-threaded
//! run, and any clique under 512 nodes, uses one group — every inbox is
//! then one contiguous slice and no worker is woken — while larger cliques
//! split into at most two groups per thread of at least 256 nodes each;
//! the grouping is unobservable in results, reports, and ledgers. During
//! the parallel step phase, programs
//! append sends directly into the chunk's *staging* area (generation
//! order: ascending sender, then send order) — a [`Staging`] that pairs
//! the columns with a per-destination count shard maintained at send time,
//! so the counting sort's first O(batch) scan never runs.
//! [`ChunkArena::seal`] then routes the batch keyed on `dst ∈ [0, 𝔫)`: a
//! prefix sum over the pre-counted shard turns counts into offsets; the
//! stream digest folds per *sender run* (the digest-chunk cursor advances
//! at run boundaries found by binary search on the ascending `src` column,
//! not per message); the width mask ORs over the word column in 8-wide
//! u64 lanes; and a placement pass scatters the `src`/`word` columns into
//! destination-grouped order (the `dst` column becomes implicit). The width
//! check is branch-light: only if the OR-accumulated mask of the whole
//! chunk exceeds the O(log 𝔫)-bit limit is the batch rescanned for the
//! offending messages.
//!
//! At the barrier the driving thread merges the chunks **in fixed chunk
//! order** ([`merge_round`]): it folds chunk digests into the ledger,
//! combines the per-chunk count shards into a [`MergeScratch`] receive
//! tally with one fixed-order pass (no rescan of the merged columns),
//! records violations in canonical order, and charges the context. Next
//! round, a receiver's inbox is the zero-copy concatenation of its slices
//! from every chunk arena in chunk order — i.e. ordered by sender id — so
//! inbox contents, the ledger, and every violation are identical for any
//! worker-thread count.

use std::sync::{RwLock, RwLockReadGuard};

use cc_fault::{FaultPlan, MessageFault};
use cc_sim::error::{Violation, ViolationKind};
use cc_sim::{ClusterContext, SimError};
use cc_trace::{Counter, HistKind, RingRecorder, DRIVER_LANE};

use crate::columns::Staging;
use crate::ledger::{message_mix, MessageLedger, RoundStats, StreamDigest};
use crate::message::bits_of;

/// Upper bound on the number of digest chunks and execution groups;
/// stack-allocated gather tables are sized by it.
pub(crate) const MAX_CHUNKS: usize = 16;

/// The number of *digest* chunks for an 𝔫-node execution: the granularity
/// at which sender streams are digested and folded into the ledger. Fixed
/// by 𝔫 alone — never by the thread count or the execution grouping — so
/// the ledger is invariant under both.
pub(crate) fn digest_chunk_count(n: usize) -> usize {
    n.clamp(1, MAX_CHUNKS)
}

/// The fewest nodes an execution group holds when a clique is split.
///
/// Measured on a 2-CPU host as the time of one trial-coloring run in a
/// warm session, 1 thread over 2 threads with four groups (above 1 means
/// the split pays), over three runs: sparse G(n, 16/n) reads 0.56–0.85 at
/// n = 256 and 0.81–0.95 at 512, and gains from 2048 nodes on (1.18–1.33
/// at 4096); the dense gnp(512, 0.25) reads 1.30–1.47 and
/// gnp(1024, 0.1) 1.44–1.60. Groups of at least 256 nodes keep every
/// clique that gains 1.3× or more split and run every clique under 512
/// nodes as one group; the one case given up is gnp(256, 0.25), at
/// 0.92–1.08.
const MIN_GROUP_NODES: usize = 256;

/// The number of *execution* groups: the unit of parallel work (one arena,
/// one claimed chunk index per round). Each group is a union of consecutive
/// digest chunks, so grouping cannot be observed in inbox order (senders
/// stay ascending), digests (sub-digests are kept per digest chunk), or
/// violations (canonical node order either way) — which is what makes a
/// thread-dependent choice safe. One thread gets one group (no fan-in at
/// all: every inbox is a single slice). Parallel runs get at most two
/// groups per stepping thread, the caller included, and each group holds
/// at least [`MIN_GROUP_NODES`] nodes, so a clique under 512 nodes runs as
/// one group on the calling thread at any thread count: no dispatch wakes
/// a worker, and no inbox fans in. Threads claim groups from the
/// executor's cursor, so one that finishes early claims another, and what
/// imbalance remains shows up as barrier wait: the time from each group's
/// seal to the dispatch's return, summed over groups.
pub(crate) fn exec_chunk_count(n: usize, threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        digest_chunk_count(n)
            .min(2 * threads)
            .min((n / MIN_GROUP_NODES).max(1))
    }
}

/// The contiguous range owned by part `k` when `n` items split into
/// `parts` near-equal contiguous parts.
pub(crate) fn chunk_range(n: usize, parts: usize, k: usize) -> std::ops::Range<usize> {
    let q = n / parts;
    let r = n % parts;
    let start = k * q + k.min(r);
    let len = q + usize::from(k < r);
    start..(start + len).min(n)
}

/// The digest chunks covered by execution group `k` of `exec_chunks`.
pub(crate) fn group_digest_range(n: usize, exec_chunks: usize, k: usize) -> std::ops::Range<usize> {
    chunk_range(digest_chunk_count(n), exec_chunks, k)
}

/// The contiguous node range owned by execution group `k` of `exec_chunks`
/// (the union of its digest chunks' node ranges).
pub(crate) fn group_node_range(n: usize, exec_chunks: usize, k: usize) -> std::ops::Range<usize> {
    let digest = digest_chunk_count(n);
    let chunks = group_digest_range(n, exec_chunks, k);
    if chunks.is_empty() {
        return 0..0;
    }
    let start = chunk_range(n, digest, chunks.start).start;
    let end = chunk_range(n, digest, chunks.end - 1).end;
    start..end
}

/// One sender chunk's columnar delivery state for one round.
///
/// All buffers are allocated once (at engine start) and reach a high-water
/// capacity after the first rounds; steady-state rounds perform no heap
/// allocation. [`ChunkArena::refit`] moves an arena to another clique size
/// or group, keeping that capacity.
#[derive(Debug, Default)]
pub(crate) struct ChunkArena {
    /// The clique size the arena routes for.
    n: usize,
    /// Staged messages in generation order (ascending sender, send order),
    /// plus the per-destination count shard maintained at send time. A
    /// faulted seal swaps the delivered batch in, so after the seal it is
    /// always the batch receivers see.
    stage: Staging,
    /// Destination-grouped sender column (valid after [`ChunkArena::seal`]).
    sorted_src: Vec<u32>,
    /// Destination-grouped payload column (parallel to `sorted_src`).
    sorted_word: Vec<u64>,
    /// Group-end offsets: after [`ChunkArena::seal`], destination `d`'s
    /// sorted range is `index[d - 1]..index[d]` (with 0 for `d = 0`).
    /// The prefix sum over the staging count shard writes `index[d]` as
    /// group starts, and the placement pass advances each start to its
    /// group end — the classic in-place counting-sort cursor trick, so no
    /// separate cursor array exists. Sized `n + 1` by every refit; every
    /// non-empty seal overwrites it wholesale, so neither `reset` nor a
    /// refit re-zeroes it.
    index: Vec<u32>,
    /// Whether `seal` wrote `index` this round (so [`ChunkArena::range_for`]
    /// can ignore a stale `index` after communication-free rounds).
    routed: bool,
    /// Node-range ends (exclusive) of the digest chunks this group covers,
    /// ascending: a staged message from `src` belongs to the first digest
    /// chunk with `src < boundaries[sub]`.
    boundaries: Vec<u32>,
    /// One stream digest per covered digest chunk, over that chunk's
    /// staged messages in generation order.
    sub_digests: Vec<StreamDigest>,
    /// Largest single-sender outbox in this chunk.
    max_send: usize,
    /// Nodes of this chunk that are halted after the round.
    halted: usize,
    /// Senders exceeding the per-round bandwidth, in node order.
    send_overflows: Vec<(u32, usize)>,
    /// Too-wide messages `(sender, bits)`, in generation order.
    wide_messages: Vec<(u32, u32)>,
    /// The seal's fault pass rebuilds the delivered batch here, then swaps
    /// it with `stage`. Allocated lazily on the first faulted seal — `None`
    /// forever when no fault plan is attached, so fault-free runs pay
    /// no memory.
    scratch: Option<Staging>,
    /// One stream digest per covered digest chunk over the *intended*
    /// (pre-fault) staged stream. Only folded on faulted seals; the driver
    /// compares it against `sub_digests` (which then cover the delivered
    /// stream) to detect round damage before the merge commits anything.
    intended_digests: Vec<StreamDigest>,
    /// Whether this round's seal ran the fault pass.
    faulted: bool,
    /// Message faults the seal applied this round (drops + duplicates +
    /// corruptions).
    faults: u64,
}

impl ChunkArena {
    /// An arena covering all of `0..n` as a single execution group (the
    /// one-thread layout; also the unit tests' default).
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> Self {
        Self::for_group(n, 1, 0)
    }

    /// The arena of execution group `k` of `exec_chunks`.
    pub(crate) fn for_group(n: usize, exec_chunks: usize, k: usize) -> Self {
        let mut arena = ChunkArena::default();
        arena.refit(n, exec_chunks, k);
        arena
    }

    /// Makes this the cleared arena of execution group `k` of
    /// `exec_chunks` over an `n`-node clique. Everything sized by the
    /// clique or the group is resized: both staging count shards (the
    /// fault pass's included, since a faulted seal swaps it in as the
    /// stage), `index`, the digest boundaries and sub-digests. Every
    /// message column keeps its capacity. A stale shard would fail
    /// [`crate::env::NodeEnv::new`]'s length check at the next step, or,
    /// if longer, make the seal's prefix sum run over the wrong length.
    pub(crate) fn refit(&mut self, n: usize, exec_chunks: usize, k: usize) {
        let digest = digest_chunk_count(n);
        self.n = n;
        self.stage.refit(n);
        if let Some(scratch) = &mut self.scratch {
            scratch.refit(n);
        }
        self.index.resize(n + 1, 0);
        self.boundaries.clear();
        self.boundaries.extend(
            group_digest_range(n, exec_chunks, k).map(|d| chunk_range(n, digest, d).end as u32),
        );
        let covered = self.boundaries.len();
        self.sub_digests.resize(covered, StreamDigest::new());
        self.intended_digests.resize(covered, StreamDigest::new());
        self.reset();
    }

    /// The clique size the arena was built for.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Clears the arena for a new round, keeping every allocation.
    // cc-lint: region(no_alloc)
    pub(crate) fn reset(&mut self) {
        // `index` is deliberately not cleared: a non-empty seal overwrites
        // it wholesale via the prefix sum, and `routed` guards reads after
        // rounds that never sealed.
        self.stage.clear();
        self.routed = false;
        self.sub_digests.fill(StreamDigest::new());
        self.intended_digests.fill(StreamDigest::new());
        self.max_send = 0;
        self.halted = 0;
        self.send_overflows.clear();
        self.wide_messages.clear();
        self.faulted = false;
        self.faults = 0;
    }
    // cc-lint: end_region

    /// The staging area programs append into (via
    /// [`crate::env::NodeEnv`]).
    pub(crate) fn stage_mut(&mut self) -> &mut Staging {
        &mut self.stage
    }

    /// Messages staged so far this round; after the seal, the messages
    /// the merge will deliver.
    pub(crate) fn staged(&self) -> usize {
        self.stage.len()
    }

    /// Notes one halted node of this chunk (for termination detection).
    pub(crate) fn note_halted(&mut self) {
        self.halted += 1;
    }

    /// Nodes of this chunk halted after the round.
    pub(crate) fn halted(&self) -> usize {
        self.halted
    }

    /// Records one sender's per-round accounting after it stepped:
    /// `sent` is the number of words the node appended this round. Must be
    /// called in ascending sender order so overflow violations come out in
    /// canonical (node) order.
    pub(crate) fn note_sender(&mut self, sender: u32, sent: usize, bandwidth_limit: usize) {
        self.max_send = self.max_send.max(sent);
        if sent > bandwidth_limit {
            self.send_overflows.push((sender, sent));
        }
    }

    /// Routes the staged batch. The counting sort's count pass is already
    /// paid: the staging count shard was filled at send time, so sealing
    /// starts straight at the prefix sum (counts → offsets). The stream
    /// digest folds per *sender run* — the ascending `src` column is cut at
    /// digest-chunk boundaries by binary search, so the chunk cursor
    /// advances once per run instead of once per message. The width mask
    /// ORs over the word column in 8-wide u64 lanes ([`lane_or_fold`]), and
    /// a placement pass scatters `src`/`word` into destination-grouped
    /// order. Only if the OR mask exceeds `bits_limit` is the batch
    /// rescanned to attribute the too-wide messages (the rare path).
    ///
    /// When a recorder is attached, a non-empty seal also emits its
    /// routing telemetry on `lane` at `ts_ns` (nanoseconds since the
    /// engine's epoch): messages routed, column words moved, count passes
    /// skipped (always 1 — the shard made it free), and whether the
    /// width-mask rescan fired — as counter events and as per-chunk-round
    /// histogram observations.
    ///
    /// When a fault plan with message faults is attached, a **fault
    /// pass** runs first: the intended digests fold over the pristine
    /// staged stream, then the batch is rebuilt message by message into
    /// the lazily-allocated scratch staging with the plan's
    /// per-message outcome applied (drop, adjacent duplicate, payload
    /// corruption), and the rebuilt batch is swapped in as the stage. The
    /// routing below — and the merge and next round's inboxes after it —
    /// only ever read the stage, so `sub_digests`, the sorted columns, and
    /// the count shard all describe what receivers actually see. The fault
    /// keys are `(round, attempt, src, dst, seq-within-sender)` — all
    /// thread-invariant, so faulted executions stay byte-identical across
    /// worker counts.
    ///
    /// `resize` on the high-water-capacity columns and the rare-path
    /// `push`es are amortized-free in steady state (the `alloc_free` test
    /// pins this); the allocating *constructors* stay banned in the region.
    // Crossing 7 arguments is the injection tax: the seal is where staged
    // messages become delivered ones, so the fault hook must thread here.
    #[allow(clippy::too_many_arguments)]
    // cc-lint: region(no_alloc)
    pub(crate) fn seal(
        &mut self,
        round: u64,
        attempt: u32,
        bits_limit: u32,
        lane: usize,
        ts_ns: u64,
        recorder: Option<&RingRecorder>,
        plan: Option<&FaultPlan>,
    ) {
        if self.stage.is_empty() {
            // Communication-free round: `routed` stays false, so every
            // sorted group reads back empty. No O(𝔫) work is spent on a
            // chunk that sent nothing. (Message faults cannot apply — they
            // only act on messages that exist.)
            return;
        }
        self.routed = true;
        let n = self.n;
        if let Some(plan) = plan.filter(|plan| plan.has_message_faults()) {
            self.faulted = true;
            // Equal intended and delivered digests ⇔ undamaged round.
            fold_runs(
                round,
                &self.boundaries,
                &self.stage,
                &mut self.intended_digests,
            );
            // Rebuild the delivered batch. Senders ascend in generation
            // order, so the per-sender sequence number restarts at each
            // run boundary; duplicates land adjacent to their original,
            // keeping the `src` column ascending for the digest fold.
            let delivered = self.scratch.get_or_insert_with(|| Staging::new(n));
            delivered.clear();
            let (src, dst, word) = (self.stage.src(), self.stage.dst(), self.stage.word());
            // Senders are `< n ≤ u32::MAX`, so MAX is a safe "no previous
            // sender" sentinel.
            let mut cur_src = u32::MAX;
            let mut seq = 0u32;
            for ((&s, &d), &w) in src.iter().zip(dst).zip(word) {
                if s != cur_src {
                    cur_src = s;
                    seq = 0;
                }
                match plan.message_outcome(round, attempt, s, d, seq, bits_limit) {
                    None => delivered.push(s, d, w),
                    Some(MessageFault::Drop) => self.faults += 1,
                    Some(MessageFault::Duplicate) => {
                        delivered.push(s, d, w);
                        delivered.push(s, d, w);
                        self.faults += 1;
                    }
                    Some(MessageFault::Corrupt { mask }) => {
                        delivered.push(s, d, w ^ mask);
                        self.faults += 1;
                    }
                }
                seq += 1;
            }
            std::mem::swap(&mut self.stage, delivered);
        }
        let counts = self.stage.counts();
        let (src, dst, word) = (self.stage.src(), self.stage.dst(), self.stage.word());
        // Prefix sum over the send-time count shard: counts → group starts
        // (`index[d]` = start of `d`). This is the only O(𝔫) pass left —
        // the O(batch) count scan happened for free at send time.
        self.index[0] = 0;
        let mut running = 0u32;
        for (slot, &count) in self.index[1..].iter_mut().zip(counts) {
            running += count;
            *slot = running;
        }
        // Invariant: the per-destination counts sum to the batch size —
        // every staged message is placed exactly once.
        debug_assert_eq!(
            self.index[n] as usize,
            dst.len(),
            "prefix-sum total disagrees with the staged message count"
        );
        fold_runs(round, &self.boundaries, &self.stage, &mut self.sub_digests);
        // Width pass: OR the whole word column in u64 lanes.
        let or_mask = lane_or_fold(word);
        // Placement pass: scatter into destination-grouped columns,
        // advancing each group's start to its end in place. The sorted
        // columns only ever grow (high-water), so steady-state rounds skip
        // the resize entirely; `range_for` bounds every read by `index`.
        if self.sorted_src.len() < dst.len() {
            self.sorted_src.resize(dst.len(), 0);
            self.sorted_word.resize(dst.len(), 0);
        }
        for ((&s, &d), &w) in src.iter().zip(dst).zip(word) {
            let cursor = &mut self.index[d as usize];
            self.sorted_src[*cursor as usize] = s;
            self.sorted_word[*cursor as usize] = w;
            *cursor += 1;
        }
        // Invariants of the in-place cursor trick: every group's cursor
        // advanced exactly to the next group's start (so `index[d]` is now
        // the *end* of group `d`, non-decreasing), and the last group ends
        // at the batch boundary.
        debug_assert!(
            (1..n).all(|d| self.index[d - 1] <= self.index[d]),
            "placement cursors are not monotone: some group over/under-ran"
        );
        debug_assert_eq!(
            self.index[n - 1] as usize,
            dst.len(),
            "final placement cursor did not land on the segment boundary"
        );
        if bits_of(or_mask) > bits_limit {
            // Rare path: attribute the offenders, in generation order.
            for (&s, &w) in src.iter().zip(word) {
                let bits = bits_of(w);
                if bits > bits_limit {
                    self.wide_messages.push((s, bits));
                }
            }
        }
        // Invariant: the OR-mask fast path and the per-message rescan agree
        // on how many words are too wide (zero when the mask stayed within
        // the limit).
        debug_assert_eq!(
            self.wide_messages.len(),
            word.iter().filter(|&&w| bits_of(w) > bits_limit).count(),
            "width-mask fast path and attribution rescan disagree"
        );
        if let Some(recorder) = recorder {
            let messages = dst.len() as u64;
            // Column words one routing pass moves: per message, the
            // placement rewrites the `u32` sender and the `u64` payload
            // (1.5 words) and reads the `u32` destination key (0.5 words).
            let moved = 2 * messages;
            let rescans = u64::from(bits_of(or_mask) > bits_limit);
            recorder.count(lane, Counter::Messages, round, ts_ns, messages);
            recorder.count(lane, Counter::Words, round, ts_ns, moved);
            // Every non-empty seal skips one count pass: the shard was
            // filled at send time.
            recorder.count(lane, Counter::CountSkips, round, ts_ns, 1);
            if rescans > 0 {
                recorder.count(lane, Counter::Rescans, round, ts_ns, rescans);
            }
            recorder.observe(lane, HistKind::Messages, messages);
            recorder.observe(lane, HistKind::Words, moved);
            recorder.observe(lane, HistKind::Rescans, rescans);
        }
    }

    /// The sorted range for destination `d` (valid after
    /// [`ChunkArena::seal`], which leaves `index[d]` at the *end* of
    /// group `d`).
    #[inline]
    fn range_for(&self, d: usize) -> std::ops::Range<usize> {
        if !self.routed {
            // Nothing was sealed this round; `index` may not even be
            // allocated yet.
            return 0..0;
        }
        let start = if d == 0 {
            0
        } else {
            self.index[d - 1] as usize
        };
        start..self.index[d] as usize
    }

    /// The `(src, word)` columns this chunk delivers to destination `d`
    /// (valid after [`ChunkArena::seal`]), ordered by sender.
    #[inline]
    pub(crate) fn slices_for(&self, d: usize) -> (&[u32], &[u64]) {
        let std::ops::Range { start, end } = self.range_for(d);
        (&self.sorted_src[start..end], &self.sorted_word[start..end])
    }

    /// Message faults this round's seal applied.
    pub(crate) fn faults_injected(&self) -> u64 {
        self.faults
    }

    /// Whether this round's delivered stream differs from the intended
    /// one — the driver's damage predicate, checked at the barrier
    /// *before* the merge commits anything. Detection is the same
    /// machinery the ledger trusts: the per-digest-chunk stream digests
    /// (drops, duplicates, and corruptions all perturb the fold).
    pub(crate) fn damaged(&self) -> bool {
        self.faulted
            && self
                .sub_digests
                .iter()
                .zip(&self.intended_digests)
                .any(|(delivered, intended)| delivered.value() != intended.value())
    }
    // cc-lint: end_region
}

/// Folds `batch` into `digests`, one per digest chunk whose node-range end
/// is the matching entry of `boundaries`. Senders ascend in generation
/// order, so each digest chunk's messages form one contiguous run: binary
/// search finds the run end, and inside a run the fold is branch-free, in
/// generation order.
// cc-lint: region(no_alloc)
#[inline]
fn fold_runs(round: u64, boundaries: &[u32], batch: &Staging, digests: &mut [StreamDigest]) {
    let (src, dst, word) = (batch.src(), batch.dst(), batch.word());
    let mut run_start = 0usize;
    for (&bound, digest) in boundaries.iter().zip(digests) {
        let run_end = run_start + src[run_start..].partition_point(|&s| s < bound);
        for ((&s, &d), &w) in src[run_start..run_end]
            .iter()
            .zip(&dst[run_start..run_end])
            .zip(&word[run_start..run_end])
        {
            digest.fold(message_mix(round, s, d, w));
        }
        run_start = run_end;
    }
    debug_assert_eq!(
        run_start,
        src.len(),
        "digest runs did not cover the whole batch"
    );
}
// cc-lint: end_region

/// ORs a word column together in 8-wide u64 lanes: the main loop keeps
/// eight independent accumulators so the compiler can keep them in vector
/// registers (or at least break the serial OR dependency chain), and the
/// tail folds the remainder scalar-wise. Equivalent to
/// `words.iter().fold(0, |m, &w| m | w)` — the unit tests pin that.
// cc-lint: region(no_alloc)
#[inline]
pub(crate) fn lane_or_fold(words: &[u64]) -> u64 {
    const LANES: usize = 8;
    let mut acc = [0u64; LANES];
    let mut chunks = words.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for (a, &w) in acc.iter_mut().zip(chunk) {
            *a |= w;
        }
    }
    let tail = chunks.remainder().iter().fold(0u64, |m, &w| m | w);
    acc.iter().fold(tail, |m, &a| m | a)
}
// cc-lint: end_region

/// The driver-side read-out of one merged round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundMerge {
    pub messages: u64,
    pub halted: usize,
}

/// Driver-owned scratch for the barrier merge, refit to each run's clique
/// size.
///
/// [`merge_round`] combines every chunk's send-time count shard into
/// `recv_words` with one fixed-order pass, then reads receive loads off the
/// tally — it never rescans the merged columns. Keeping the buffer here
/// (instead of in an arena) keeps the arenas read-locked-only at the
/// barrier.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    /// `recv_words[d]` = words delivered to node `d` this round, summed
    /// over chunks. Zeroed at the start of every merge, so a strict-mode
    /// early abort cannot leave stale loads behind.
    recv_words: Vec<u32>,
}

impl MergeScratch {
    /// Scratch for an `n`-node clique.
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> Self {
        let mut scratch = MergeScratch::default();
        scratch.refit(n);
        scratch
    }

    /// Resizes the tally to an `n`-node clique, keeping its capacity
    /// (every merge zeroes it before use).
    pub(crate) fn refit(&mut self, n: usize) {
        self.recv_words.resize(n, 0);
    }
}

/// Read-locks every chunk of a bank into a stack table (the driver at the
/// barrier, or a worker gathering inboxes; never contended across phases).
pub(crate) fn read_bank(
    bank: &[RwLock<ChunkArena>],
) -> [Option<RwLockReadGuard<'_, ChunkArena>>; MAX_CHUNKS] {
    std::array::from_fn(|k| {
        bank.get(k)
            .map(|lock| lock.read().expect("chunk arena poisoned"))
    })
}

/// Merges the sealed chunks of one round in fixed chunk order: folds
/// digests into the ledger, combines the per-chunk count shards into
/// `scratch`, records violations canonically, and charges the context.
/// Rounds in which no node sends are free: synchronous rounds without
/// communication are pure local computation, which the model does not
/// charge.
///
/// The receive tally is shard arithmetic, not a column scan: each chunk
/// contributes its send-time counts once, in fixed chunk order, and the
/// per-destination loads fall out of one O(𝔫·chunks) add — independent of
/// the number of messages.
///
/// When a recorder is attached, communicating rounds also emit the
/// driver-lane telemetry at `ts_ns`: the round charge and the chunk load
/// imbalance in permille (1000 = perfectly even; 2000 = the fullest chunk
/// carried twice its fair share).
///
/// # Errors
///
/// In strict mode, the first violated constraint aborts the execution with
/// [`SimError::ConstraintViolated`].
// Crossing 7 arguments is the telemetry tax: the merge is the one place
// that sees every chunk of a round at once, so the driver-lane counters
// have to be emitted from here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_round(
    round: u64,
    bank: &[RwLock<ChunkArena>],
    scratch: &mut MergeScratch,
    ctx: &mut ClusterContext,
    ledger: &mut MessageLedger,
    label: &str,
    bits_limit: u32,
    ts_ns: u64,
    recorder: Option<&RingRecorder>,
) -> Result<RoundMerge, SimError> {
    let guards = read_bank(bank);
    let chunks = || guards.iter().flatten();
    let n = chunks().next().map_or(0, |c| c.n());
    let mut messages = 0u64;
    let mut max_send = 0usize;
    let mut halted = 0usize;
    for chunk in chunks() {
        messages += chunk.stage.len() as u64;
        max_send = max_send.max(chunk.max_send);
        halted += chunk.halted();
        // Groups cover consecutive digest chunks, so walking the groups in
        // order folds all digest-chunk digests in global (0..16) order —
        // exactly the pre-grouping fold sequence.
        for digest in &chunk.sub_digests {
            ledger.fold_chunk(digest.value());
        }
    }
    let mut max_recv = 0usize;
    if messages > 0 {
        ctx.charge_rounds(label, 1);
        ctx.charge_communication(messages);
        let limit = ctx.model().per_round_bandwidth_words;
        for chunk in chunks() {
            for &(sender, bits) in &chunk.wide_messages {
                ctx.record_violation(Violation {
                    label: format!("{label}:r{round}:v{sender}"),
                    kind: ViolationKind::MessageTooWide {
                        bits,
                        limit: bits_limit,
                    },
                })?;
            }
        }
        for chunk in chunks() {
            for &(sender, words) in &chunk.send_overflows {
                ctx.record_violation(Violation {
                    label: format!("{label}:r{round}:v{sender}:send"),
                    kind: ViolationKind::BandwidthExceeded { words, limit },
                })?;
            }
        }
        // Combine the send-time count shards in fixed chunk order. Zero
        // first: a strict-mode `?` above may have aborted a previous merge
        // mid-flight, and this keeps the tally self-contained either way.
        scratch.recv_words.fill(0);
        for chunk in chunks() {
            for (tally, &count) in scratch.recv_words.iter_mut().zip(chunk.stage.counts()) {
                *tally += count;
            }
        }
        for (d, &tally) in scratch.recv_words.iter().enumerate().take(n) {
            let words = tally as usize;
            max_recv = max_recv.max(words);
            if words > limit {
                ctx.record_violation(Violation {
                    label: format!("{label}:r{round}:v{d}:recv"),
                    kind: ViolationKind::BandwidthExceeded { words, limit },
                })?;
            }
        }
    }
    ledger.end_round(RoundStats {
        round,
        messages,
        max_send_words: max_send,
        max_recv_words: max_recv,
    });
    if let Some(recorder) = recorder.filter(|_| messages > 0) {
        recorder.count(DRIVER_LANE, Counter::Rounds, round, ts_ns, 1);
        let fullest = chunks().map(|c| c.stage.len() as u64).max().unwrap_or(0);
        let parts = chunks().count() as u64;
        let permille = fullest * parts * 1000 / messages;
        recorder.count(
            DRIVER_LANE,
            Counter::ImbalancePermille,
            round,
            ts_ns,
            permille,
        );
        recorder.observe(DRIVER_LANE, HistKind::ImbalancePermille, permille);
    }
    Ok(RoundMerge { messages, halted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::Inbox;
    use crate::env::NodeEnv;
    use cc_fault::FaultPlan;
    use cc_sim::{ExecutionModel, ViolationPolicy};

    /// Stages `outbox` for `sender` and records its accounting, mimicking
    /// the engine's step loop.
    fn stage_outbox(arena: &mut ChunkArena, sender: u32, outbox: &[(u32, u64)], limit: usize) {
        let n = arena.n();
        let before = arena.staged();
        let mut env = NodeEnv::new(sender, n, 0, Inbox::empty(sender), arena.stage_mut());
        for &(dst, word) in outbox {
            env.send(dst, word);
        }
        let sent = arena.staged() - before;
        arena.note_sender(sender, sent, limit);
    }

    fn bank(arena: ChunkArena) -> [RwLock<ChunkArena>; 1] {
        [RwLock::new(arena)]
    }

    #[test]
    fn chunk_ranges_partition_the_nodes() {
        for n in [1usize, 5, 63, 64, 65, 1000] {
            let chunks = digest_chunk_count(n);
            let mut covered = 0;
            for k in 0..chunks {
                let range = chunk_range(n, chunks, k);
                assert_eq!(range.start, covered, "n={n} k={k}");
                covered = range.end;
            }
            assert_eq!(covered, n, "n={n}");
        }
    }

    #[test]
    fn digest_chunk_count_is_thread_independent_and_bounded() {
        assert_eq!(digest_chunk_count(1), 1);
        assert_eq!(digest_chunk_count(10), 10);
        assert_eq!(digest_chunk_count(16), 16);
        assert_eq!(digest_chunk_count(100_000), 16);
    }

    #[test]
    fn exec_groups_partition_the_nodes_and_respect_digest_boundaries() {
        for n in [1usize, 5, 17, 64, 513, 1300, 4100] {
            for threads in [1usize, 2, 3, 4, 8, 32] {
                let exec = exec_chunk_count(n, threads);
                assert!(exec <= digest_chunk_count(n), "n={n} threads={threads}");
                assert!(
                    exec == 1 || n / exec >= MIN_GROUP_NODES,
                    "n={n} threads={threads}"
                );
                let mut covered_nodes = 0;
                let mut covered_chunks = 0;
                for k in 0..exec {
                    let nodes = group_node_range(n, exec, k);
                    let chunks = group_digest_range(n, exec, k);
                    assert_eq!(nodes.start, covered_nodes, "n={n} threads={threads} k={k}");
                    assert_eq!(chunks.start, covered_chunks);
                    // Group boundaries are digest-chunk boundaries.
                    assert_eq!(
                        nodes.start,
                        chunk_range(n, digest_chunk_count(n), chunks.start).start
                    );
                    covered_nodes = nodes.end;
                    covered_chunks = chunks.end;
                }
                assert_eq!(covered_nodes, n, "n={n} threads={threads}");
                assert_eq!(covered_chunks, digest_chunk_count(n));
            }
        }
        assert_eq!(exec_chunk_count(512, 1), 1);
        assert_eq!(exec_chunk_count(511, 4), 1);
        assert_eq!(exec_chunk_count(512, 4), 2);
        assert_eq!(exec_chunk_count(1024, 2), 4);
        assert_eq!(exec_chunk_count(4096, 4), 8);
        assert_eq!(exec_chunk_count(4096, 64), 16);
    }

    #[test]
    fn grouping_does_not_change_the_folded_digests() {
        // The same message stream routed through one group or many must
        // fold the identical sub-digest sequence into the ledger.
        let n = 40;
        let send = |arena: &mut ChunkArena, lo: usize, hi: usize| {
            for s in lo..hi {
                stage_outbox(arena, s as u32, &[((s as u32 + 1) % n as u32, 7)], 100);
            }
        };
        let mut ctx1 = ClusterContext::new(ExecutionModel::congested_clique(n));
        let mut one = MessageLedger::new();
        let mut scratch = MergeScratch::new(n);
        let mut whole = ChunkArena::for_group(n, 1, 0);
        send(&mut whole, 0, n);
        whole.seal(0, 0, 16, 0, 0, None, None);
        merge_round(
            0,
            &bank(whole),
            &mut scratch,
            &mut ctx1,
            &mut one,
            "t",
            16,
            0,
            None,
        )
        .unwrap();

        let mut ctx2 = ClusterContext::new(ExecutionModel::congested_clique(n));
        let mut many = MessageLedger::new();
        let exec = 4;
        let split: Vec<RwLock<ChunkArena>> = (0..exec)
            .map(|k| {
                let mut arena = ChunkArena::for_group(n, exec, k);
                let nodes = group_node_range(n, exec, k);
                send(&mut arena, nodes.start, nodes.end);
                arena.seal(0, 0, 16, 0, 0, None, None);
                RwLock::new(arena)
            })
            .collect();
        merge_round(
            0,
            &split,
            &mut scratch,
            &mut ctx2,
            &mut many,
            "t",
            16,
            0,
            None,
        )
        .unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn seal_groups_messages_by_destination_in_sender_order() {
        let mut arena = ChunkArena::new(4);
        stage_outbox(&mut arena, 0, &[(2, 10), (1, 11)], 100);
        stage_outbox(&mut arena, 1, &[(2, 12)], 100);
        arena.seal(0, 0, 16, 0, 0, None, None);
        assert_eq!(arena.slices_for(2), (&[0u32, 1][..], &[10u64, 12][..]));
        assert_eq!(arena.slices_for(1), (&[0u32][..], &[11u64][..]));
        assert_eq!(arena.slices_for(0), (&[][..], &[][..]));
        assert_eq!(arena.stage.len(), 3);
    }

    #[test]
    fn reset_clears_state_for_reuse() {
        let mut arena = ChunkArena::new(3);
        stage_outbox(&mut arena, 0, &[(1, u64::MAX)], 0);
        arena.note_halted();
        arena.seal(0, 0, 16, 0, 0, None, None);
        assert_eq!(arena.wide_messages.len(), 1);
        assert_eq!(arena.send_overflows.len(), 1);
        let digest_before = arena.sub_digests[0].value();
        arena.reset();
        assert_eq!(arena.stage.len(), 0);
        assert_eq!(arena.halted(), 0);
        assert!(arena.wide_messages.is_empty());
        assert!(arena.send_overflows.is_empty());
        assert_ne!(arena.sub_digests[0].value(), digest_before);
        arena.seal(1, 0, 16, 0, 0, None, None);
        assert_eq!(arena.slices_for(1), (&[][..], &[][..]));
    }

    #[test]
    fn merge_charges_rounds_and_finds_violations() {
        let n = 4;
        let mut ctx = ClusterContext::new(ExecutionModel::congested_clique(n));
        let mut ledger = MessageLedger::new();
        let limit = ctx.model().per_round_bandwidth_words;
        let mut arena = ChunkArena::new(n);
        // Node 0 floods node 1 past the budget; also one too-wide word.
        let flood: Vec<(u32, u64)> = (0..=limit).map(|_| (1, 1)).collect();
        stage_outbox(&mut arena, 0, &flood, limit);
        stage_outbox(&mut arena, 2, &[(3, u64::MAX)], limit);
        arena.seal(3, 0, 32, 0, 0, None, None);
        let merge = merge_round(
            3,
            &bank(arena),
            &mut MergeScratch::new(n),
            &mut ctx,
            &mut ledger,
            "test",
            32,
            0,
            None,
        )
        .unwrap();
        assert_eq!(merge.messages as usize, limit + 2);
        assert_eq!(ctx.rounds(), 1);
        // Wide word, send overflow, receive overflow — in that canonical
        // order.
        assert_eq!(ctx.violations().len(), 3);
        assert!(matches!(
            ctx.violations()[0].kind,
            ViolationKind::MessageTooWide { .. }
        ));
        assert!(ctx.violations()[1].label.contains("v0:send"));
        assert!(ctx.violations()[2].label.contains("v1:recv"));
        assert_eq!(ledger.rounds()[0].max_recv_words, limit + 1);
    }

    #[test]
    fn empty_rounds_are_free() {
        let mut ctx = ClusterContext::with_policy(
            ExecutionModel::congested_clique(2),
            ViolationPolicy::FailFast,
        );
        let mut ledger = MessageLedger::new();
        let mut arena = ChunkArena::new(2);
        arena.seal(0, 0, 16, 0, 0, None, None);
        let merge = merge_round(
            0,
            &bank(arena),
            &mut MergeScratch::new(2),
            &mut ctx,
            &mut ledger,
            "test",
            16,
            0,
            None,
        )
        .unwrap();
        assert_eq!(merge.messages, 0);
        assert_eq!(ctx.rounds(), 0);
        assert_eq!(ledger.rounds().len(), 1);
    }

    #[test]
    fn strict_mode_aborts_on_wide_words() {
        let mut ctx = ClusterContext::with_policy(
            ExecutionModel::congested_clique(2),
            ViolationPolicy::FailFast,
        );
        let mut ledger = MessageLedger::new();
        let mut arena = ChunkArena::new(2);
        stage_outbox(&mut arena, 0, &[(1, u64::MAX)], 100);
        arena.seal(0, 0, 16, 0, 0, None, None);
        let err = merge_round(
            0,
            &bank(arena),
            &mut MergeScratch::new(2),
            &mut ctx,
            &mut ledger,
            "test",
            16,
            0,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::ConstraintViolated(_)));
    }

    #[test]
    fn wide_rescan_attributes_only_offenders() {
        let mut arena = ChunkArena::new(4);
        stage_outbox(&mut arena, 0, &[(1, 3), (2, u64::MAX), (3, 1)], 100);
        stage_outbox(&mut arena, 1, &[(0, 1 << 20)], 100);
        arena.seal(0, 0, 16, 0, 0, None, None);
        assert_eq!(arena.wide_messages, vec![(0, 64), (1, 21)]);
    }

    #[test]
    fn wide_rescan_finds_offenders_across_lane_boundaries() {
        // The width OR runs in 8-wide lanes with a scalar tail; put
        // offenders in the first full lane block, a later block, and the
        // remainder, with narrow filler between, and make the batch long
        // enough (>2 blocks + tail) that every code path executes.
        let n = 8;
        let mut arena = ChunkArena::new(n);
        let mut offenders = Vec::new();
        for s in 0..n as u32 {
            // 8 narrow words each => 64 staged; then a few tail sends.
            let outbox: Vec<(u32, u64)> = (0..8).map(|j| ((s + j) % n as u32, 1)).collect();
            stage_outbox(&mut arena, s, &outbox, 100);
        }
        // Overwrite positions by staging three extra wide sends from the
        // last sender: they land at indices 64, 65, 66 — i.e. lane block 8
        // and the chunks_exact remainder.
        stage_outbox(&mut arena, 7, &[(0, 1 << 30), (1, 1), (2, u64::MAX)], 100);
        offenders.push((7, 31));
        offenders.push((7, 64));
        arena.seal(0, 0, 16, 0, 0, None, None);
        assert_eq!(arena.wide_messages, offenders);
    }

    #[test]
    fn lane_or_fold_matches_scalar_fold_on_fixed_patterns() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let words: Vec<u64> = (0..len as u64).map(|i| 1 << (i % 64)).collect();
            let scalar = words.iter().fold(0u64, |m, &w| m | w);
            assert_eq!(lane_or_fold(&words), scalar, "len = {len}");
        }
    }

    mod properties {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The 8-lane OR fold is exactly the scalar OR fold, and the
            /// width verdict it implies agrees with a per-message
            /// `bits_of` scan, for arbitrary word columns (including lane
            /// remainders of every size).
            #[test]
            fn lane_fold_agrees_with_per_message_scan(
                words in pvec(any::<u64>(), 0..100),
                limit in 1u32..64,
            ) {
                let mask = lane_or_fold(&words);
                prop_assert_eq!(mask, words.iter().fold(0u64, |m, &w| m | w));
                let lane_verdict = bits_of(mask) > limit;
                let scan_verdict = words.iter().any(|&w| bits_of(w) > limit);
                prop_assert_eq!(lane_verdict, scan_verdict);
            }

            /// Sharded per-worker count shards, combined in fixed chunk
            /// order, equal the single-arena reference counts for
            /// arbitrary outbox scripts at every group count.
            #[test]
            fn sharded_counts_match_the_single_arena_reference(
                scripts in (2usize..24).prop_flat_map(|n| pvec(
                    pvec((0u32..n as u32, 0u64..1024), 0..8),
                    n..=n,
                )),
            ) {
                let n = scripts.len();
                // Reference: one arena covering every sender.
                let mut whole = ChunkArena::for_group(n, 1, 0);
                for (s, outbox) in scripts.iter().enumerate() {
                    stage_outbox(&mut whole, s as u32, outbox, usize::MAX);
                }
                let reference: Vec<u32> = whole.stage.counts().to_vec();
                let direct: Vec<u32> = (0..n as u32).map(|d| {
                    scripts.iter().flatten().filter(|&&(dst, _)| dst == d).count() as u32
                }).collect();
                prop_assert_eq!(&reference, &direct);
                for exec in 1..=digest_chunk_count(n) {
                    let mut combined = vec![0u32; n];
                    // Fixed chunk order, exactly as `merge_round` walks
                    // the bank.
                    for k in 0..exec {
                        let mut arena = ChunkArena::for_group(n, exec, k);
                        for s in group_node_range(n, exec, k) {
                            stage_outbox(&mut arena, s as u32, &scripts[s], usize::MAX);
                        }
                        for (tally, &count) in combined.iter_mut().zip(arena.stage.counts()) {
                            *tally += count;
                        }
                    }
                    prop_assert!(combined == reference, "groups = {exec}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-existent node")]
    fn out_of_range_destination_panics() {
        let mut arena = ChunkArena::new(2);
        stage_outbox(&mut arena, 0, &[(7, 1)], 100);
    }

    #[test]
    fn planless_seal_never_marks_fault_state() {
        let mut arena = ChunkArena::new(4);
        stage_outbox(&mut arena, 0, &[(1, 5), (2, 6)], 100);
        arena.seal(0, 0, 16, 0, 0, None, None);
        assert!(!arena.damaged());
        assert_eq!(arena.faults_injected(), 0);
        assert!(arena.scratch.is_none(), "no scratch staging allocated");
    }

    #[test]
    fn zero_rate_plans_route_exactly_like_fault_free_seals() {
        let n = 6;
        let stage = |arena: &mut ChunkArena| {
            for s in 0..n as u32 {
                stage_outbox(arena, s, &[((s + 1) % n as u32, u64::from(s) + 10)], 100);
            }
        };
        let mut clean = ChunkArena::new(n);
        stage(&mut clean);
        clean.seal(2, 0, 16, 0, 0, None, None);
        let mut faulty = ChunkArena::new(n);
        stage(&mut faulty);
        faulty.seal(2, 0, 16, 0, 0, None, Some(&FaultPlan::new(99)));
        assert!(!faulty.damaged());
        for d in 0..n {
            assert_eq!(clean.slices_for(d), faulty.slices_for(d), "dst {d}");
        }
        for (a, b) in clean.sub_digests.iter().zip(&faulty.sub_digests) {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn message_faults_mark_damage_and_keep_intended_digests_pristine() {
        let n = 8;
        let plan = FaultPlan::new(7).with_drop(300).with_corrupt(200);
        let stage = |arena: &mut ChunkArena| {
            for s in 0..n as u32 {
                let outbox: Vec<(u32, u64)> = (0..4).map(|j| ((s + j + 1) % n as u32, 3)).collect();
                stage_outbox(arena, s, &outbox, 100);
            }
        };
        let mut clean = ChunkArena::new(n);
        stage(&mut clean);
        clean.seal(0, 0, 16, 0, 0, None, None);
        let mut faulty = ChunkArena::new(n);
        stage(&mut faulty);
        faulty.seal(0, 0, 16, 0, 0, None, Some(&plan));
        assert!(
            faulty.faults_injected() > 0,
            "seeded plan at 50% applied none"
        );
        assert!(faulty.damaged());
        // The intended digests equal the fault-free delivered digests: the
        // damage predicate compares against exactly what should have been.
        for (intended, reference) in faulty.intended_digests.iter().zip(&clean.sub_digests) {
            assert_eq!(intended.value(), reference.value());
        }
        // Delivered accounting follows the post-fault batch.
        assert_eq!(
            faulty.stage.counts().iter().sum::<u32>() as usize,
            faulty.stage.len()
        );
        assert_ne!(faulty.stage.len(), clean.stage.len());
    }

    #[test]
    fn duplicates_keep_the_sorted_src_columns_ascending() {
        let n = 8;
        let plan = FaultPlan::new(11).with_duplicate(400);
        let mut arena = ChunkArena::new(n);
        for s in 0..n as u32 {
            let outbox: Vec<(u32, u64)> = (0..3).map(|j| ((s + j + 1) % n as u32, 9)).collect();
            stage_outbox(&mut arena, s, &outbox, 100);
        }
        arena.seal(0, 0, 16, 0, 0, None, Some(&plan));
        assert!(arena.faults_injected() > 0);
        assert!(
            arena.stage.len() > 24,
            "duplicates add to the delivered batch"
        );
        for d in 0..n {
            let (src, _) = arena.slices_for(d);
            assert!(src.windows(2).all(|w| w[0] <= w[1]), "dst {d}: {src:?}");
        }
    }

    #[test]
    fn settled_attempts_clear_the_damage_flag() {
        // At a high enough attempt every message has had a clean roll; the
        // delivered digests then equal the intended ones and the round
        // reads undamaged — the convergence the retry loop relies on.
        let n = 6;
        let plan = FaultPlan::new(3)
            .with_drop(200)
            .with_duplicate(150)
            .with_corrupt(150);
        let mut damaged_at_0 = false;
        for attempt in 0..32u32 {
            let mut arena = ChunkArena::new(n);
            for s in 0..n as u32 {
                stage_outbox(
                    &mut arena,
                    s,
                    &[((s + 1) % n as u32, 4), ((s + 2) % n as u32, 5)],
                    100,
                );
            }
            arena.seal(1, attempt, 16, 0, 0, None, Some(&plan));
            if attempt == 0 {
                damaged_at_0 = arena.damaged();
            }
            if !arena.damaged() {
                assert_eq!(arena.faults_injected(), 0, "clean attempt still faulted");
                return;
            }
        }
        panic!("no attempt settled within 32 tries (damaged at 0: {damaged_at_0})");
    }
}
