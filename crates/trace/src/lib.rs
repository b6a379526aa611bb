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
//! * **No steady-state allocation.** The hot path is generic over the
//!   [`Recorder`] trait: the default [`NoopRecorder`] compiles to
//!   nothing, and the real [`RingRecorder`] writes fixed-size packed
//!   events ([`event`]) into preallocated per-lane atomic rings
//!   ([`ring`]) and folds distributions into fixed power-of-two bucket
//!   arrays ([`hist`]) — no locks, no heap, after construction.
//!
//! After a run, the captured data flows out two ways: a per-round
//! [`TraceSummary`] table ([`summary`]) embedded in the engine outcome,
//! and a Chrome trace-event JSON file ([`chrome`]) that loads in
//! [Perfetto](https://ui.perfetto.dev) with one thread track per worker
//! lane and counter tracks for messages, words moved, and load
//! imbalance.

pub mod chrome;
pub mod event;
pub mod hist;
pub mod recorder;
pub mod ring;
pub mod summary;

pub use chrome::{lane_name, ChromeTrace};
pub use event::{Counter, HistKind, Phase, TraceEvent, EVENT_WORDS};
pub use hist::{bucket_of, bucket_range, Histogram, BUCKETS};
pub use recorder::{NoopRecorder, Recorder};
pub use ring::{
    RingRecorder, CONTEXT_LANE, DEFAULT_CAPACITY, DRIVER_LANE, NUM_LANES, WORKER_LANES,
};
pub use summary::{RoundTrace, TraceSummary};
