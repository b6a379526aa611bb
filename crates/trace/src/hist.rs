//! Power-of-two-bucket histograms, accumulated in place.
//!
//! Distributions (inbox sizes, per-chunk batch sizes, imbalance ratios)
//! would blow a ring's capacity if every observation were an event, so
//! they are folded into fixed atomic bucket arrays instead: bucket 0
//! counts zero-valued observations, bucket `b ≥ 1` counts values in
//! `[2^(b-1), 2^b)`. An observation is one relaxed `fetch_add` — no locks,
//! no heap, no ordering requirements beyond the run's final join.

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per histogram: bucket 0 for zero, buckets 1..=64 for each
/// power-of-two magnitude of a `u64`.
pub const BUCKETS: usize = 65;

/// The bucket index of `value`.
// The mapping runs on recording hot paths (once per node per round for
// inbox sizes); it must stay branch-light and allocation-free.
// cc-lint: region(no_alloc)
#[inline]
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}
// cc-lint: end_region

/// The inclusive value range bucket `b` covers, for display.
#[must_use]
pub fn bucket_range(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        1 => (1, 1),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (b - 1), (1 << b) - 1),
    }
}

/// One accumulated histogram, as read out of the atomic buckets after a
/// run (plain counts, no atomics — cheap to clone into summaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
}

impl Histogram {
    /// A histogram with the given bucket counts.
    #[must_use]
    pub(crate) fn from_counts(counts: [u64; BUCKETS]) -> Self {
        Histogram { counts }
    }

    /// Per-bucket observation counts.
    #[must_use]
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing was observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Renders the non-empty buckets as `lo-hi:count` cells, for the
    /// human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (b, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push_str("  ");
            }
            let (lo, hi) = bucket_range(b);
            if lo == hi {
                out.push_str(&format!("{lo}:{count}"));
            } else {
                out.push_str(&format!("{lo}-{hi}:{count}"));
            }
        }
        if out.is_empty() {
            out.push_str("(empty)");
        }
        out
    }
}

/// The atomic accumulation side: a fixed bucket array observations land in.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl AtomicHistogram {
    pub(crate) fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    // Recording an observation is the hot path; reads happen after the run.
    // cc-lint: region(no_alloc)
    #[inline]
    pub(crate) fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }
    // cc-lint: end_region

    pub(crate) fn snapshot(&self) -> Histogram {
        Histogram::from_counts(std::array::from_fn(|b| {
            self.buckets[b].load(Ordering::Relaxed)
        }))
    }

    pub(crate) fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range_in_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every bucket's range round-trips through bucket_of.
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(bucket_of(lo), b, "bucket {b} low edge");
            assert_eq!(bucket_of(hi), b, "bucket {b} high edge");
        }
    }

    #[test]
    fn observations_accumulate_and_snapshot() {
        let hist = AtomicHistogram::new();
        for v in [0, 0, 1, 5, 5, 6, 1024] {
            hist.observe(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.total(), 7);
        assert_eq!(snap.counts()[0], 2);
        assert_eq!(snap.counts()[1], 1);
        assert_eq!(snap.counts()[3], 3);
        assert_eq!(snap.counts()[11], 1);
        assert!(!snap.is_empty());
        hist.reset();
        assert!(hist.snapshot().is_empty());
    }

    #[test]
    fn render_lists_only_non_empty_buckets() {
        let hist = AtomicHistogram::new();
        assert_eq!(hist.snapshot().render(), "(empty)");
        hist.observe(0);
        hist.observe(3);
        hist.observe(3);
        let rendered = hist.snapshot().render();
        assert_eq!(rendered, "0:1  2-3:2");
    }
}
