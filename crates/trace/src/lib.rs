//! # cc-trace — a zero-allocation tracing & metrics plane
//!
//! Observability for the round-synchronous engine without breaking its
//! two core guarantees:
//!
//! * **Determinism.** cc-trace never reads a clock or inspects thread
//!   identity — callers pass nanosecond offsets from an epoch *they*
//!   chose, and recorded data is diagnostics-only, never fed back into
//!   results. Nothing observable in a run's outputs, reports, or ledger
//!   digests depends on whether a recorder is attached.
//! * **No steady-state allocation.** The one recorder, [`RingRecorder`],
//!   writes fixed-size packed events ([`event`]) into preallocated
//!   per-lane atomic rings ([`ring`]) and folds distributions into fixed
//!   power-of-two bucket arrays ([`hist`]) — no locks, no heap, after
//!   construction. Recording is optional: the engine and the simulator
//!   each hold an optional `Arc<RingRecorder>` and skip every probe when
//!   none is attached.
//!
//! After a run, the holder of the recorder reads the captured data two
//! ways: a per-round [`TraceSummary`] table ([`summary`],
//! [`RingRecorder::summary`]), and a Chrome trace-event JSON file
//! ([`chrome`]) that loads in
//! [Perfetto](https://ui.perfetto.dev) with one thread track per worker
//! lane and counter tracks for messages, words moved, and load
//! imbalance.

pub mod chrome;
pub mod event;
pub mod hist;
pub mod ring;
pub mod summary;

pub use chrome::{lane_name, ChromeTrace};
pub use event::{Counter, HistKind, Phase, TraceEvent, EVENT_WORDS};
pub use hist::{bucket_of, bucket_range, Histogram, BUCKETS};
pub use ring::{
    RingRecorder, CONTEXT_LANE, DEFAULT_CAPACITY, DRIVER_LANE, NUM_LANES, WORKER_LANES,
};
pub use summary::{RoundTrace, TraceSummary};
