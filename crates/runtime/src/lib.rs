//! # cc-runtime — a parallel, round-synchronous message-passing engine
//!
//! The rest of this workspace *accounts* for the CONGESTED CLIQUE model:
//! `cc-sim`'s [`ClusterContext`](cc_sim::ClusterContext) charges rounds and
//! bandwidth to an algorithm that actually computes centrally. This crate
//! *executes* the model: every clique node is an independent
//! [`NodeProgram`] state machine with its own mailbox, rounds advance at a
//! barrier, and per-node step functions run in parallel on a small
//! purpose-built executor in which the calling thread steps chunks too.
//!
//! The model is enforced at **delivery time**, where the centralized
//! simulator enforces it at charge time:
//!
//! * every message is a single word whose payload must fit in
//!   O(log 𝔫) bits ([`message::word_bits_limit`]);
//! * per-round send *and* receive loads are checked per node against the
//!   model's bandwidth limit;
//! * violations flow through the same [`cc_sim::error::Violation`] /
//!   [`cc_sim::ExecutionReport`] machinery the simulator uses, so
//!   experiment tables treat both backends uniformly.
//!
//! ## The columnar message plane
//!
//! Messages are never materialized as `Vec<Message>`s on the hot path.
//! Each execution group owns an arena of flat `src`/`dst`/`word` column
//! buffers allocated once at engine start and reused every round:
//! [`NodeEnv::send`] appends straight into the group's staging columns and
//! counts per destination as messages land, the router counting-sorts the
//! batch by destination off those send-time counts (prefix sum,
//! per-sender-run digest fold, placement — the count pass never runs; see
//! the `router` module), and next round's inboxes are zero-copy [`Inbox`]
//! views over the sorted columns. Width checking is an 8-wide u64-lane
//! OR-fold over the word column.
//! Steady-state rounds perform **zero heap allocations** at any thread
//! count: the executor publishes each round's job without boxing it
//! (asserted at one and two threads by an allocation-counting test
//! allocator in `tests/alloc_free.rs`).
//!
//! ## Determinism
//!
//! Results, execution reports, and the message ledger are **byte-identical
//! for every worker-thread count**. Messages are digested in chunks fixed
//! by the clique size alone (never the thread count); a worker processes a
//! whole execution group of consecutive chunks — stepping its nodes in
//! ascending id order, digesting and counting-sorting its messages into
//! group-owned buffers — so per-group state is deterministic no matter
//! which worker ran it. At the round barrier the driving thread merges the
//! groups in fixed group order: ledger folding, round charging, and
//! violation recording all happen there. Programs get determinism by
//! construction as long as their own randomness is seeded (see the ported
//! programs, which seed a per-node ChaCha8 stream).
//!
//! ## One round loop for solo and batched runs
//!
//! An [`Engine`] run and every request a [`ColoringService`] serves are
//! *instances* of one round loop: setup (violation policy, ledger
//! pre-sizing, arena recycling), the parallel step of each execution
//! group, the driver's merge (barrier-wait attribution, damage check and
//! retry, ledger fold, halt or round-cap verdict), and the finish into an
//! [`EngineOutcome`] are each written once. An [`EngineSession`] runs one
//! instance with at most two groups per thread, each of at least 256
//! nodes, so a clique under 512 nodes runs as one group on the calling
//! thread; the service runs one single-group instance per slot and steps
//! all live slots in one shared dispatch. Both recycle their arena banks
//! across instances of any clique size. A batched request therefore matches its solo run bit for
//! bit — outputs, report, ledger, rounds, and fault-recovery health — and
//! carries its own [`PhaseTimings`].
//!
//! ## Example
//!
//! ```
//! use cc_runtime::{Engine, EngineConfig, NodeEnv, NodeProgram, NodeStatus};
//! use cc_sim::ExecutionModel;
//!
//! /// Every node sends its id to node 0, which sums what it hears.
//! struct Report { sum: u64 }
//!
//! impl NodeProgram for Report {
//!     type Output = u64;
//!     fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
//!         match env.round() {
//!             0 => {
//!                 if env.node() != 0 {
//!                     env.send(0, u64::from(env.node()));
//!                     NodeStatus::Halt
//!                 } else {
//!                     NodeStatus::Continue
//!                 }
//!             }
//!             _ => {
//!                 self.sum = env.inbox().iter().map(|m| m.word).sum();
//!                 NodeStatus::Halt
//!             }
//!         }
//!     }
//!     fn finish(self: Box<Self>) -> u64 { self.sum }
//! }
//!
//! let programs: Vec<Box<dyn NodeProgram<Output = u64>>> =
//!     (0..8).map(|_| Box::new(Report { sum: 0 }) as _).collect();
//! let outcome = Engine::new(EngineConfig::with_threads(4))
//!     .run(ExecutionModel::congested_clique(8), programs)
//!     .unwrap();
//! assert_eq!(outcome.outputs[0], (1..8).sum::<u64>());
//! assert!(outcome.report.within_limits());
//! ```
//!
//! ## Observability
//!
//! Recording is optional. [`Engine::with_recorder`] (or
//! [`ColoringService::with_recorder`]) attaches an `Arc` of a
//! [`cc_trace::RingRecorder`] (the `cc-trace` crate is re-exported as
//! [`trace`]), the same handle `cc-sim`'s `ClusterContext` takes. It
//! captures per-round route/step/check/barrier spans per worker lane,
//! message counters, and power-of-two histograms — lock-free,
//! allocation-free in steady state, and provably unobservable in results,
//! reports, and ledgers. Without one, every probe is skipped. The caller
//! keeps a clone of the `Arc` and reads the capture after the run, as
//! Chrome trace-event JSON (Perfetto) or a per-round summary table; see
//! the `cc-trace` crate docs.
//!
//! ## Fault injection & recovery
//!
//! Fault injection is optional too. [`Engine::with_faults`] (or
//! [`ColoringService::with_faults`]) attaches a seeded
//! [`cc_fault::FaultPlan`] (the `cc-fault` crate is re-exported as
//! [`fault`]), which delivers deterministic message
//! drops/duplicates/corruptions, per-group stalls, and node crash-stops
//! keyed on model coordinates (round, src, dst, sequence), never on thread
//! timing. Without a plan, every fault site is skipped. With one — even a
//! zero-rate one — every round is checkpointed. Damage is *detected* at
//! the barrier by comparing each group's delivered digest against the
//! intended one, and *recovered* by re-executing the round from a
//! flat-word checkpoint ([`snapshot`]) at most
//! [`EngineConfig::max_round_retries`] times; crash-stopped nodes are
//! quarantined and the outcome is flagged degraded
//! ([`engine::EngineHealth`]). A recovered run's outputs and ledger are
//! bit-identical to the fault-free run's at every thread count (asserted
//! by `tests/chaos_recovery.rs`), and a faulted service request is
//! bit-identical to the same faulted solo run
//! (`tests/service_equivalence.rs`).
//!
//! ## Randomized baselines
//!
//! [`programs::trial`] (randomized list coloring) and [`programs::luby`]
//! (Luby MIS) are the workspace's only implementations of its two
//! randomized baselines; `clique_coloring::baselines::engine_trial` and
//! `cc_mis::engine` adapt them to the workspace's graph types. Experiment
//! E9 (`cc-bench`) checks that their outputs and ledgers are identical at
//! every worker-thread count; the benchmark's `stream-t2` workload times
//! the trial coloring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod columns;
pub mod engine;
pub mod env;
mod instance;
pub mod ledger;
pub mod message;
mod pool;
pub mod program;
pub mod programs;
mod router;
pub mod service;
pub mod snapshot;

pub use cc_fault as fault;
pub use cc_fault::{FaultPlan, MessageFault};
pub use cc_trace as trace;
pub use columns::{Inbox, InboxIter};
pub use engine::{Engine, EngineConfig, EngineHealth, EngineOutcome, EngineSession, PhaseTimings};
pub use env::NodeEnv;
pub use ledger::{MessageLedger, RoundStats};
pub use message::{word_bits_limit, Message};
pub use program::{NodeProgram, NodeStatus};
pub use service::{ColoringService, RequestId, ServiceConfig, ServiceOutcome, ServiceRequest};
pub use snapshot::{push_option, take_option, SnapshotSink, SnapshotSource};
