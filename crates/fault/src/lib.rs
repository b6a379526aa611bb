//! # cc-fault — deterministic fault injection
//!
//! The execution engine (`cc-runtime`) assumes a perfect network: every
//! staged message is delivered intact and every node steps every round.
//! This crate supplies the machinery to *break* that assumption without
//! breaking determinism, so the pipeline's recovery story can be tested,
//! measured, and proven:
//!
//! - [`FaultInjector`] — the hook the engine is generic over, shaped like
//!   `cc-trace`'s `Recorder`: a `const ENABLED` flag plus `&self` methods,
//!   so the default [`NoopInjector`] compiles to nothing and a fault-free
//!   engine is bit-identical to one built before this crate existed.
//! - [`FaultPlan`] — the one live injector: a seeded, reproducible fault
//!   schedule. Every decision is a pure function of `(seed, round,
//!   attempt, src, dst, seq)` mixed through `cc-hash`'s splitmix64; wall
//!   clocks and thread identity never enter the key, so a plan injects the
//!   *same* faults at 1, 2, or 4 worker threads.
//!
//! The actual detection (intended-vs-delivered digest comparison),
//! recovery (round checkpoint/restore) and its retry budget
//! (`EngineConfig::max_round_retries`) live in `cc-runtime`; this crate is
//! deliberately leaf-level (depends only on `cc-hash`) so simulators and
//! test harnesses can build plans without pulling in the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod injector;
mod plan;

pub use injector::{FaultInjector, NoopInjector};
pub use plan::{FaultPlan, MessageFault};
