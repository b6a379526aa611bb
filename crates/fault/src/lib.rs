//! # cc-fault — deterministic fault injection
//!
//! The execution engine (`cc-runtime`) assumes a perfect network: every
//! staged message is delivered intact and every node steps every round.
//! This crate supplies the machinery to *break* that assumption without
//! breaking determinism, so the pipeline's recovery story can be tested,
//! measured, and proven.
//!
//! [`FaultPlan`] is a seeded, reproducible fault schedule. Every decision
//! is a pure function of `(seed, round, attempt, src, dst, seq)` mixed
//! through `cc-hash`'s splitmix64; wall clocks and thread identity never
//! enter the key, so a plan injects the *same* faults at 1, 2, or 4 worker
//! threads. The engine takes a plan optionally (`Engine::with_faults`):
//! with none attached, it skips every fault site, and a fault-free run is
//! bit-identical to one built before this crate existed.
//!
//! The actual detection (intended-vs-delivered digest comparison),
//! recovery (round checkpoint/restore) and its retry budget
//! (`EngineConfig::max_round_retries`) live in `cc-runtime`; this crate is
//! deliberately leaf-level (depends only on `cc-hash`) so simulators and
//! test harnesses can build plans without pulling in the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;

pub use plan::{FaultPlan, MessageFault};
