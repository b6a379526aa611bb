//! Execution simulator for the CONGESTED CLIQUE and MPC models.
//!
//! The paper's cost model counts **synchronous communication rounds** under
//! per-machine space and bandwidth constraints; wall-clock time is
//! irrelevant. This crate provides that cost model as an explicit, auditable
//! ledger:
//!
//! * [`model::ExecutionModel`] describes the regime being simulated —
//!   CONGESTED CLIQUE (𝔫 machines, O(𝔫) words each, O(log 𝔫)-bit messages
//!   with Lenzen routing), linear-space MPC (𝔰 = Θ(𝔫)) or low-space MPC
//!   (𝔰 = Θ(𝔫^ε)).
//! * [`cluster::ClusterContext`] is the handle algorithms run against: it
//!   charges rounds, counts words, and enforces (or records violations of)
//!   the space and bandwidth bounds.
//! * [`primitives`] charges the operations an algorithm may perform in O(1)
//!   rounds — Lenzen routing, aggregating per-machine sums in a Lemma 2.1
//!   prefix-sum pass, broadcasting an O(log 𝔫)-bit seed, collecting a small
//!   instance onto one machine — so algorithms stay readable and the
//!   accounting honest.
//! * [`report::ExecutionReport`] is the final read-out consumed by the
//!   experiment harness: rounds (total and per phase), communication volume,
//!   peak local/total space, and any constraint violations.
//!
//! The simulator performs the data manipulation centrally (the models allow
//! unbounded local computation anyway); what it faithfully tracks is the
//! *communication structure* the paper's theorems are about.
//!
//! ```
//! use cc_sim::model::ExecutionModel;
//! use cc_sim::cluster::ClusterContext;
//!
//! let model = ExecutionModel::congested_clique(1_000);
//! let mut ctx = ClusterContext::new(model);
//! let seed = cc_sim::primitives::broadcast_word(&mut ctx, "demo", 42);
//! assert_eq!(seed, 42);
//! assert!(ctx.rounds() > 0);
//! assert_eq!(ctx.communication_words(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod constants;
pub mod distribution;
pub mod error;
pub mod model;
pub mod primitives;
pub mod report;

pub use cluster::{ClusterContext, ViolationPolicy, MAX_RECORDED_VIOLATIONS};
pub use error::SimError;
pub use model::ExecutionModel;
pub use report::ExecutionReport;
