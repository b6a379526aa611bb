//! [`RingRecorder`]: lock-free, steady-state-allocation-free recording
//! into per-lane preallocated ring buffers.
//!
//! All storage — event rings, their cursors, and the histogram buckets —
//! is allocated once in [`RingRecorder::with_capacity`] and never grows.
//! Each **lane** is a fixed slice of the flat atomic word array plus its
//! own head counter: worker chunk `k` writes lane `k`, the engine driver
//! writes [`DRIVER_LANE`], and a centralized [`ClusterContext`] writes
//! [`CONTEXT_LANE`], so no two writers share a cursor within a phase and
//! every write is a handful of `Relaxed` atomic stores — no locks, no
//! heap, no fences on the hot path. (Relaxed suffices: readers only look
//! after the run's thread joins, which are the synchronization edge.)
//!
//! When a lane's ring fills, new events overwrite the oldest —
//! [`RingRecorder::dropped_events`] reports how many were lost, and the
//! summary carries the count so truncated traces are never mistaken for
//! complete ones.
//!
//! [`ClusterContext`]: https://docs.rs/cc-sim

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{
    pack_count, pack_span, unpack, Counter, HistKind, Phase, TraceEvent, EVENT_WORDS,
};
use crate::hist::AtomicHistogram;
use crate::summary::TraceSummary;

/// Lanes reserved for execution chunks (the engine's parallel work units;
/// its chunk count is bounded by the same constant).
pub const WORKER_LANES: usize = 16;

/// The lane the engine's driving thread records on (barrier merges,
/// round charges, imbalance).
pub const DRIVER_LANE: usize = WORKER_LANES;

/// The lane a centralized simulation context records on.
pub const CONTEXT_LANE: usize = WORKER_LANES + 1;

/// Total lanes a recorder preallocates.
pub const NUM_LANES: usize = WORKER_LANES + 2;

/// Default per-lane event capacity (events, not words).
pub const DEFAULT_CAPACITY: usize = 4096;

const NUM_HISTS: usize = HistKind::ALL.len();

/// A fixed-capacity, lock-free recorder. See the module docs.
#[derive(Debug)]
pub struct RingRecorder {
    /// Per-lane event capacity; a power of two.
    capacity: usize,
    /// Per-lane total events ever written (the ring cursor).
    heads: [AtomicU64; NUM_LANES],
    /// `NUM_LANES * capacity * EVENT_WORDS` flat event words.
    slots: Box<[AtomicU64]>,
    /// `NUM_LANES * NUM_HISTS` bucket arrays.
    hists: Box<[AtomicHistogram]>,
}

impl Default for RingRecorder {
    fn default() -> Self {
        RingRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl RingRecorder {
    /// A recorder whose every lane holds `capacity_per_lane` events
    /// (rounded up to a power of two, minimum 16). This is the only
    /// allocation the recorder ever performs.
    #[must_use]
    pub fn with_capacity(capacity_per_lane: usize) -> Self {
        let capacity = capacity_per_lane.max(16).next_power_of_two();
        let words = NUM_LANES * capacity * EVENT_WORDS;
        RingRecorder {
            capacity,
            heads: std::array::from_fn(|_| AtomicU64::new(0)),
            slots: (0..words).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..NUM_LANES * NUM_HISTS)
                .map(|_| AtomicHistogram::new())
                .collect(),
        }
    }

    /// Per-lane event capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    // The recording hot path: event packing plus a cursor bump and
    // EVENT_WORDS relaxed stores, or one bucket increment. It runs inside
    // the engine's steady-state rounds, concurrently from worker threads,
    // and must never lock or touch the allocator. `lane` names the writer
    // (one lane per execution chunk plus the driver and context lanes);
    // callers keep one writer per lane within a phase, so atomics suffice.
    // cc-lint: region(no_alloc)

    /// Records a timed phase of one round on one lane. Timestamps are
    /// nanoseconds since an epoch the caller fixed for the whole run.
    #[inline]
    pub fn span(&self, lane: usize, phase: Phase, round: u64, start_ns: u64, end_ns: u64) {
        self.write(
            lane,
            pack_span(lane as u16, phase, round as u32, start_ns, end_ns),
        );
    }

    /// Records a per-round counted quantity on one lane.
    #[inline]
    pub fn count(&self, lane: usize, counter: Counter, round: u64, ts_ns: u64, value: u64) {
        self.write(
            lane,
            pack_count(lane as u16, counter, round as u32, ts_ns, value),
        );
    }

    /// Folds one observation into a power-of-two histogram.
    #[inline]
    pub fn observe(&self, lane: usize, hist: HistKind, value: u64) {
        let lane = lane.min(NUM_LANES - 1);
        self.hists[lane * NUM_HISTS + hist as usize].observe(value);
    }

    #[inline]
    fn write(&self, lane: usize, words: [u64; EVENT_WORDS]) {
        let lane = lane.min(NUM_LANES - 1);
        let head = self.heads[lane].fetch_add(1, Ordering::Relaxed);
        let slot = (head as usize & (self.capacity - 1)) * EVENT_WORDS;
        let base = lane * self.capacity * EVENT_WORDS + slot;
        for (i, &word) in words.iter().enumerate() {
            self.slots[base + i].store(word, Ordering::Relaxed);
        }
    }
    // cc-lint: end_region

    /// Events ever written to any lane (including overwritten ones).
    #[must_use]
    pub fn recorded_events(&self) -> u64 {
        self.heads.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// Events lost to ring wrap-around across all lanes.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.heads
            .iter()
            .map(|h| {
                h.load(Ordering::Relaxed)
                    .saturating_sub(self.capacity as u64)
            })
            .sum()
    }

    /// Decodes the surviving events, lane by lane in write order. Lanes
    /// that wrapped yield only their newest `capacity` events. Allocates —
    /// call after the run, never on the hot path.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for lane in 0..NUM_LANES {
            let head = self.heads[lane].load(Ordering::Relaxed);
            let kept = head.min(self.capacity as u64);
            let lane_base = lane * self.capacity * EVENT_WORDS;
            for i in (head - kept)..head {
                let slot = lane_base + (i as usize & (self.capacity - 1)) * EVENT_WORDS;
                let words = std::array::from_fn(|w| self.slots[slot + w].load(Ordering::Relaxed));
                if let Some(event) = unpack(words) {
                    out.push(event);
                }
            }
        }
        out
    }

    /// The accumulated histogram of `kind`, summed over all lanes.
    #[must_use]
    pub fn histogram(&self, kind: HistKind) -> crate::hist::Histogram {
        let mut counts = [0u64; crate::hist::BUCKETS];
        for lane in 0..NUM_LANES {
            let snap = self.hists[lane * NUM_HISTS + kind as usize].snapshot();
            for (total, &c) in counts.iter_mut().zip(snap.counts()) {
                *total += c;
            }
        }
        crate::hist::Histogram::from_counts(counts)
    }

    /// The per-round aggregation of everything recorded so far. Allocates
    /// — call after the run.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::from_recorder(self)
    }

    /// Clears all events and histograms for reuse. Not safe to race with
    /// writers — call between runs, not during one.
    pub fn reset(&self) {
        for head in &self.heads {
            head.store(0, Ordering::Relaxed);
        }
        for hist in self.hists.iter() {
            hist.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_write_order_per_lane() {
        let rec = RingRecorder::with_capacity(64);
        rec.span(0, Phase::Step, 0, 10, 20);
        rec.span(0, Phase::Route, 0, 20, 30);
        rec.count(DRIVER_LANE, Counter::Messages, 0, 30, 7);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            TraceEvent::Span {
                lane: 0,
                phase: Phase::Step,
                round: 0,
                start_ns: 10,
                end_ns: 20
            }
        );
        assert!(matches!(events[2], TraceEvent::Count { lane, .. } if lane == DRIVER_LANE as u16));
        assert_eq!(rec.recorded_events(), 3);
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn full_rings_overwrite_oldest_and_report_drops() {
        let rec = RingRecorder::with_capacity(16);
        assert_eq!(rec.capacity(), 16);
        for round in 0..20u64 {
            rec.span(3, Phase::Step, round, round, round + 1);
        }
        assert_eq!(rec.dropped_events(), 4);
        let events = rec.events();
        assert_eq!(events.len(), 16);
        // The four oldest rounds were overwritten.
        assert_eq!(events[0].round(), 4);
        assert_eq!(events[15].round(), 19);
    }

    #[test]
    fn out_of_range_lanes_clamp_instead_of_panicking() {
        let rec = RingRecorder::with_capacity(16);
        rec.span(999, Phase::Check, 1, 0, 1);
        rec.observe(999, HistKind::InboxLen, 5);
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.histogram(HistKind::InboxLen).total(), 1);
    }

    #[test]
    fn histograms_sum_across_lanes_and_reset_clears_everything() {
        let rec = RingRecorder::with_capacity(16);
        rec.observe(0, HistKind::Messages, 4);
        rec.observe(1, HistKind::Messages, 5);
        rec.observe(CONTEXT_LANE, HistKind::Messages, 0);
        let hist = rec.histogram(HistKind::Messages);
        assert_eq!(hist.total(), 3);
        assert_eq!(hist.counts()[0], 1);
        assert_eq!(hist.counts()[3], 2);
        rec.count(CONTEXT_LANE, Counter::Rounds, 0, 0, 1);
        rec.reset();
        assert_eq!(rec.recorded_events(), 0);
        assert!(rec.events().is_empty());
        assert!(rec.histogram(HistKind::Messages).is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(RingRecorder::with_capacity(0).capacity(), 16);
        assert_eq!(RingRecorder::with_capacity(100).capacity(), 128);
        assert_eq!(RingRecorder::default().capacity(), DEFAULT_CAPACITY);
    }

    #[test]
    fn concurrent_writers_on_distinct_lanes_lose_nothing() {
        let rec = std::sync::Arc::new(RingRecorder::with_capacity(1024));
        let mut handles = Vec::new();
        for lane in 0..4 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for round in 0..500u64 {
                    rec.span(lane, Phase::Step, round, round, round + 1);
                    rec.observe(lane, HistKind::InboxLen, round);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(rec.recorded_events(), 2000);
        assert_eq!(rec.dropped_events(), 0);
        assert_eq!(rec.events().len(), 2000);
        assert_eq!(rec.histogram(HistKind::InboxLen).total(), 2000);
    }
}
