//! The round-synchronous execution engine.
//!
//! [`Engine::run`] advances a population of [`NodeProgram`]s in lock-step
//! rounds over a columnar message plane that is allocated once and reused
//! every round. Each round has two phases:
//!
//! 1. **Step (parallel).** Senders are split into execution groups fixed by
//!    the clique size and thread count, one group for any clique under 512
//!    nodes (see the `router` module). For each
//!    group, a thread builds every node's inbox as a zero-copy view over the
//!    previous round's sorted arenas, steps the program (sends append
//!    straight into the group's staging columns, counting per destination
//!    as they land), and seals the group: a prefix sum over the send-time
//!    counts, a per-sender-run digest fold, a lane-vectorized width OR, and
//!    a placement pass counting-sort the batch by destination. All
//!    per-message work happens here, on the stepping threads.
//! 2. **Merge (driver).** At the barrier the driving thread folds the
//!    groups in fixed group order: ledger digest, count-shard combine into
//!    the receive tally, violations, round charging — O(groups · 𝔫) work
//!    independent of the message volume.
//!
//! Both phases live in `crate::instance`, the one round loop the engine
//! and the [`crate::ColoringService`] share. Because digest chunks and merge
//! order depend only on the clique size, results, reports, and ledgers are
//! byte-identical for any thread count. The two arena banks (last
//! round's sealed groups, this round's staging groups) swap by round parity
//! — nothing is reallocated between rounds, a session's next run refits
//! the banks in place whatever its clique size, and a steady-state round
//! performs no heap allocation at any thread count (asserted at one and two
//! threads by the `alloc_free` integration test).

use std::sync::Arc;

use cc_fault::FaultPlan;
use cc_sim::{ExecutionModel, ExecutionReport, SimError, ViolationPolicy};
use cc_trace::RingRecorder;

use crate::instance::{Banks, Hooks, Instance, Started};
use crate::ledger::MessageLedger;
use crate::pool::{ChunkedExecutor, Job};
use crate::program::NodeProgram;
use crate::router::exec_chunk_count;

/// How an [`Engine`] executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Threads stepping nodes each round, the calling thread included:
    /// `threads − 1` workers are spawned (1 = the caller alone, no workers).
    /// An upper bound: a run splits its clique into at most `2 · threads`
    /// execution groups of at least 256 nodes each, so a clique under 512
    /// nodes is stepped by the calling thread alone at any thread count.
    pub threads: usize,
    /// Safety cap on rounds; an execution that hits it stops with
    /// [`EngineOutcome::all_halted`] false.
    pub max_rounds: u64,
    /// Phase label under which rounds are charged to the context.
    pub label: String,
    /// How model violations are handled: recorded in the report (the
    /// default, matching [`cc_sim::ClusterContext::new`]) or aborting the
    /// run on the first one ([`ViolationPolicy::FailFast`]).
    pub policy: ViolationPolicy,
    /// Retries allowed per damaged round when a fault plan is attached
    /// (ignored without one); a round still damaged after them is
    /// committed as is. The default, 16, leaves about 0.0015% of messages
    /// unsettled even at a 50% fault rate.
    pub max_round_retries: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            max_rounds: 100_000,
            label: "engine".to_string(),
            policy: ViolationPolicy::Record,
            max_round_retries: 16,
        }
    }
}

impl EngineConfig {
    /// A default configuration with `threads` stepping threads.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig {
            threads,
            ..EngineConfig::default()
        }
    }
}

/// Wall-clock spent in each engine phase, accumulated over a whole run
/// (summed across stepping threads, so parallel runs can exceed the elapsed
/// time). Diagnostics only — never part of the deterministic ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Routing: the fused count/digest/width pass, prefix sum, and
    /// placement scatter (the counting sort).
    pub route_ns: u64,
    /// Stepping: program `on_round` calls, inbox view assembly, and sends
    /// appending into the staging columns.
    pub step_ns: u64,
    /// Checking: the driver's barrier merge — ledger folds, bandwidth
    /// verdicts, violation recording, round charging.
    pub check_ns: u64,
    /// Barrier waiting: time sealed chunks sat finished while the round
    /// barrier waited for the stragglers, summed across chunks — the
    /// engine's load-imbalance signal (0 on single-chunk runs).
    pub barrier_wait_ns: u64,
}

/// Fault-injection and recovery health of one execution — all zeros (and
/// `degraded` false) when no fault plan was attached. A plan attached but
/// never firing still checkpoints, so `checkpoint_words` counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineHealth {
    /// Message faults applied across *all* delivery attempts, including
    /// ones a retry rolled back.
    pub faults_injected: u64,
    /// Message faults that made it into a committed round (nonzero only
    /// when retries were exhausted or checkpointing was unsupported).
    pub faults_committed: u64,
    /// Damaged-round retries the driver executed.
    pub retries: u64,
    /// Rounds whose damage survived every retry and was committed as-is.
    pub damaged_rounds_committed: u64,
    /// Nodes crash-stopped by the fault schedule during the run.
    pub crashed_nodes: u64,
    /// `u64` words of node-program state checkpointed over the run.
    pub checkpoint_words: u64,
    /// Whether the committed execution deviates from the fault-free one:
    /// damage was committed or nodes crashed. A degraded outcome's outputs
    /// are still well-defined — callers decide whether (and how) to repair
    /// them, e.g. the trial-coloring adapter greedily recolors the
    /// neighborhoods of crashed nodes.
    pub degraded: bool,
}

/// The result of one engine execution.
#[must_use = "the outcome carries the outputs, report, and determinism ledger"]
#[derive(Debug, Clone)]
pub struct EngineOutcome<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// The model-accounting read-out (rounds, words, violations), built from
    /// the same [`cc_sim::ClusterContext`] machinery the centralized simulator uses.
    pub report: ExecutionReport,
    /// The deterministic message ledger (digest + per-round loads).
    pub ledger: MessageLedger,
    /// Engine rounds executed (barriers passed), including communication-free
    /// ones; [`ExecutionReport::rounds`] counts only rounds that communicated.
    pub rounds: u64,
    /// Whether every node halted (false only when `max_rounds` was hit).
    pub all_halted: bool,
    /// Per-phase wall-clock breakdown (route / step / check / barrier).
    pub timings: PhaseTimings,
    /// Fault-injection and recovery health (all zeros without a fault
    /// plan).
    pub health: EngineHealth,
}

/// The round-synchronous message-passing engine.
///
/// Recording and fault injection are optional and off by default.
/// [`Engine::with_recorder`] attaches a [`RingRecorder`], which captures
/// per-round spans, counters, and histograms without changing any result,
/// report, or ledger digest — recording is diagnostics-only by
/// construction. [`Engine::with_faults`] attaches a seeded [`FaultPlan`],
/// which drives deterministic message faults, crash-stops, and the
/// checkpoint/retry recovery loop — see [`EngineHealth`] for what a
/// faulted run reports.
///
/// See the crate docs for the model contract and the determinism guarantee.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
    hooks: Hooks,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine with the given configuration and no recording or faults;
    /// chain [`Engine::with_recorder`] and [`Engine::with_faults`] to
    /// attach them.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            hooks: Hooks::none(),
        }
    }

    /// The same engine recording every run into `recorder`. The recorder
    /// is shared, not consumed: keep a clone of the `Arc` to read the
    /// capture after the run ([`RingRecorder::summary`],
    /// [`RingRecorder::events`]).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<RingRecorder>) -> Self {
        self.hooks.recorder = Some(recorder);
        self
    }

    /// The same engine injecting faults from `plan`, with the
    /// checkpoint/retry recovery loop bounded by
    /// [`EngineConfig::max_round_retries`].
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.hooks.faults = Some(Arc::new(plan));
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs one program per clique node until every node halts (or
    /// `max_rounds` is hit), returning outputs in node order plus the
    /// accounting report and the determinism ledger.
    ///
    /// `programs.len()` is the clique size 𝔫; it should match
    /// `model.machines` for the accounting to be meaningful.
    ///
    /// Each call pays the full setup (executor workers, arena banks);
    /// callers executing many runs back to back should hold an
    /// [`Engine::session`] instead and amortize it.
    ///
    /// # Errors
    ///
    /// Under [`ViolationPolicy::FailFast`], returns
    /// [`SimError::ConstraintViolated`] on the first message-width or
    /// bandwidth violation.
    ///
    /// # Panics
    ///
    /// Panics if a program panics or addresses a message outside `0..n`.
    pub fn run<O: Send + 'static>(
        &self,
        model: ExecutionModel,
        programs: Vec<Box<dyn NodeProgram<Output = O>>>,
    ) -> Result<EngineOutcome<O>, SimError> {
        self.session().run(model, programs)
    }

    /// A reusable execution session over this engine's configuration,
    /// recorder, and fault plan: the executor's workers are spawned once,
    /// and the arena banks are recycled across runs of any clique size.
    /// See [`EngineSession`].
    pub fn session(&self) -> EngineSession {
        EngineSession::new(self.clone())
    }
}

/// A reusable engine handle for back-to-back runs: one executor plus
/// recycled arena banks.
///
/// [`Engine::run`] pays the whole setup on every call — spawning the
/// executor's workers and allocating the two chunk-arena banks. A session
/// hoists that one-time construction behind a handle: the executor lives
/// for the session's lifetime, and the banks (plus the driver's merge
/// scratch) are recycled by every run, refit in place to its clique size
/// and group count. Each kept arena keeps the capacity of the largest run
/// it served; only arenas added because the group count grew are built
/// fresh.
/// Results, reports, and ledgers are byte-identical to fresh
/// [`Engine::run`] calls — a recycled bank is fully reset before its first
/// round, so nothing leaks between runs (the `session_reuse` tests pin the
/// equality, and the counting-allocator harness pins that reused runs skip
/// the construction allocations).
pub struct EngineSession {
    engine: Engine,
    executor: ChunkedExecutor,
    /// The previous run's arena banks and merge scratch.
    spare: Banks,
}

impl EngineSession {
    /// A session running under `engine`'s configuration. The executor is
    /// spawned here, once, and reused by every [`EngineSession::run`].
    pub fn new(engine: Engine) -> Self {
        let executor = ChunkedExecutor::new(engine.config.threads);
        EngineSession {
            engine,
            executor,
            spare: Banks::default(),
        }
    }

    /// Runs one execution exactly like [`Engine::run`], reusing the
    /// session's executor and its arena banks.
    ///
    /// # Errors
    ///
    /// Under [`ViolationPolicy::FailFast`], returns
    /// [`SimError::ConstraintViolated`] on the first message-width or
    /// bandwidth violation.
    ///
    /// # Panics
    ///
    /// Panics if a program panics or addresses a message outside `0..n`.
    pub fn run<O: Send + 'static>(
        &mut self,
        model: ExecutionModel,
        programs: Vec<Box<dyn NodeProgram<Output = O>>>,
    ) -> Result<EngineOutcome<O>, SimError> {
        let groups = exec_chunk_count(programs.len(), self.engine.config.threads);
        self.run_grouped(model, programs, groups)
    }

    /// [`EngineSession::run`] with the clique split into `groups`
    /// execution groups, `1 ≤ groups ≤ min(n, 16)`, whatever the thread
    /// count. The grouping is unobservable, so every valid count gives the
    /// same outcome; the tests compare counts the thread count no longer
    /// picks for small cliques.
    pub(crate) fn run_grouped<O: Send + 'static>(
        &mut self,
        model: ExecutionModel,
        programs: Vec<Box<dyn NodeProgram<Output = O>>>,
        groups: usize,
    ) -> Result<EngineOutcome<O>, SimError> {
        let started = Instance::start(
            model,
            programs,
            self.engine.config.clone(),
            groups,
            0,
            &mut self.spare,
            &self.engine.hooks,
        );
        match started {
            Started::Finished(outcome) => Ok(outcome),
            Started::Running(mut instance) => {
                // One closure for the whole run; the plane's round counter
                // parameterizes it.
                let step: Job = {
                    let plane = Arc::clone(instance.plane());
                    Arc::new(move |k| plane.step_group(k))
                };
                let verdict = loop {
                    self.executor.run_indexed(groups, &step);
                    if let Some(verdict) = instance.merge() {
                        break verdict;
                    }
                };
                drop(step);
                instance.finish(verdict, &mut self.spare)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NodeEnv;
    use crate::program::NodeStatus;
    use crate::snapshot::{SnapshotSink, SnapshotSource};
    use cc_trace::{HistKind, DRIVER_LANE};

    /// Flood-fill distance from node 0: node 0 announces in round 0, every
    /// node forwards the first announcement it hears to all neighbors.
    /// Output: the round in which the announcement arrived (= BFS distance
    /// on the ring, given unit steps).
    struct Relay {
        neighbors: Vec<u32>,
        heard_at: Option<u64>,
        is_root: bool,
    }

    impl NodeProgram for Relay {
        type Output = Option<u64>;

        fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
            if env.round() == 0 && self.is_root {
                self.heard_at = Some(0);
                let neighbors = self.neighbors.clone();
                env.send_to_all(neighbors, 1);
                return NodeStatus::Halt;
            }
            if self.heard_at.is_none() && !env.inbox().is_empty() {
                self.heard_at = Some(env.round());
                let neighbors = self.neighbors.clone();
                env.send_to_all(neighbors, 1);
                return NodeStatus::Halt;
            }
            NodeStatus::Continue
        }

        fn finish(self: Box<Self>) -> Option<u64> {
            self.heard_at
        }
    }

    fn ring_programs(n: usize) -> Vec<Box<dyn NodeProgram<Output = Option<u64>>>> {
        (0..n)
            .map(|i| {
                let left = ((i + n - 1) % n) as u32;
                let right = ((i + 1) % n) as u32;
                Box::new(Relay {
                    neighbors: vec![left, right],
                    heard_at: None,
                    is_root: i == 0,
                }) as Box<dyn NodeProgram<Output = Option<u64>>>
            })
            .collect()
    }

    #[test]
    fn flood_fill_computes_ring_distances() {
        let n = 9;
        let engine = Engine::new(EngineConfig::with_threads(1));
        let outcome = engine
            .run(ExecutionModel::congested_clique(n), ring_programs(n))
            .unwrap();
        assert!(outcome.all_halted);
        for (i, heard) in outcome.outputs.iter().enumerate() {
            let dist = i.min(n - i) as u64;
            assert_eq!(*heard, Some(dist), "node {i}");
        }
        assert!(outcome.report.within_limits());
        assert!(outcome.report.rounds > 0);
    }

    #[test]
    fn thread_count_does_not_change_results_or_ledger() {
        let n = 40;
        let baseline = Engine::new(EngineConfig::with_threads(1))
            .run(ExecutionModel::congested_clique(n), ring_programs(n))
            .unwrap();
        for threads in [2, 4, 7] {
            let parallel = Engine::new(EngineConfig::with_threads(threads))
                .run(ExecutionModel::congested_clique(n), ring_programs(n))
                .unwrap();
            assert_eq!(baseline.outputs, parallel.outputs, "threads = {threads}");
            assert_eq!(baseline.ledger, parallel.ledger, "threads = {threads}");
            assert_eq!(baseline.report, parallel.report, "threads = {threads}");
        }
    }

    #[test]
    fn session_reuse_matches_fresh_runs() {
        let n = 40;
        let engine = Engine::new(EngineConfig::with_threads(2));
        let fresh = engine
            .run(ExecutionModel::congested_clique(n), ring_programs(n))
            .unwrap();
        let mut session = engine.session();
        // Back-to-back reuses recycle the banks; results must not drift.
        for reuse in 0..3 {
            let reused = session
                .run(ExecutionModel::congested_clique(n), ring_programs(n))
                .unwrap();
            assert_eq!(fresh.outputs, reused.outputs, "reuse {reuse}");
            assert_eq!(fresh.ledger, reused.ledger, "reuse {reuse}");
            assert_eq!(fresh.report, reused.report, "reuse {reuse}");
        }
        // A different clique size mid-session rebuilds the plane
        // transparently, and coming back recycles again.
        let small = session
            .run(ExecutionModel::congested_clique(9), ring_programs(9))
            .unwrap();
        assert!(small.all_halted);
        let back = session
            .run(ExecutionModel::congested_clique(n), ring_programs(n))
            .unwrap();
        assert_eq!(fresh.ledger, back.ledger);
        // A heavier workload after a lighter one on the same banks.
        let chatter_fresh = engine
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        let chatter_reused = session
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        assert_eq!(chatter_fresh.outputs, chatter_reused.outputs);
        assert_eq!(chatter_fresh.ledger, chatter_reused.ledger);
        // Clique sizes across the split and back: at two threads 600 nodes
        // run as two groups and 96 or 40 as one, so the banks gain, drop
        // and regain an arena, and every kept arena is refit in place.
        for size in [96, 600, 40, 600] {
            assert_eq!(exec_chunk_count(size, 2), if size == 600 { 2 } else { 1 });
            let model = ExecutionModel::congested_clique(size);
            let fresh = engine.run(model.clone(), chatter_programs(size)).unwrap();
            let reused = session.run(model, chatter_programs(size)).unwrap();
            assert_eq!(fresh.outputs, reused.outputs, "n = {size}");
            assert_eq!(fresh.ledger, reused.ledger, "n = {size}");
            assert_eq!(fresh.report, reused.report, "n = {size}");
            assert_eq!(fresh.rounds, reused.rounds, "n = {size}");
        }
        // The same under a message-fault plan, whose seal rebuilds each
        // batch in a second staging area that the refit must resize too.
        let plan = cc_fault::FaultPlan::new(0x5e55)
            .with_drop(30)
            .with_duplicate(20)
            .with_corrupt(20);
        let faulted = engine.clone().with_faults(plan);
        let mut faulted_session = faulted.session();
        for size in [600, 40, 600] {
            let model = ExecutionModel::congested_clique(size);
            let fresh = faulted.run(model.clone(), chatter_programs(size)).unwrap();
            let reused = faulted_session.run(model, chatter_programs(size)).unwrap();
            assert!(reused.health.faults_injected > 0, "n = {size}");
            assert_eq!(fresh.outputs, reused.outputs, "faulted n = {size}");
            assert_eq!(fresh.ledger, reused.ledger, "faulted n = {size}");
            assert_eq!(fresh.report, reused.report, "faulted n = {size}");
            assert_eq!(fresh.health, reused.health, "faulted n = {size}");
        }
    }

    #[test]
    fn empty_population_terminates_immediately() {
        let outcome = Engine::default()
            .run::<()>(ExecutionModel::congested_clique(1), Vec::new())
            .unwrap();
        assert_eq!(outcome.rounds, 0);
        assert!(outcome.all_halted);
        assert!(outcome.outputs.is_empty());
        assert_eq!(outcome.timings, PhaseTimings::default());
    }

    /// A program that never halts (and never communicates).
    struct Stubborn;

    impl NodeProgram for Stubborn {
        type Output = ();

        fn on_round(&mut self, _env: &mut NodeEnv<'_>) -> NodeStatus {
            NodeStatus::Continue
        }

        fn finish(self: Box<Self>) {}
    }

    #[test]
    fn max_rounds_caps_non_terminating_programs() {
        let engine = Engine::new(EngineConfig {
            max_rounds: 5,
            ..EngineConfig::default()
        });
        let programs: Vec<Box<dyn NodeProgram<Output = ()>>> =
            vec![Box::new(Stubborn), Box::new(Stubborn)];
        let outcome = engine
            .run(ExecutionModel::congested_clique(2), programs)
            .unwrap();
        assert_eq!(outcome.rounds, 5);
        assert!(!outcome.all_halted);
        // Communication-free rounds cost nothing.
        assert_eq!(outcome.report.rounds, 0);
    }

    /// A program that sends one absurdly wide word.
    struct WideSender;

    impl NodeProgram for WideSender {
        type Output = ();

        fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
            if env.node() == 0 && env.round() == 0 {
                env.send(1, u64::MAX);
            }
            NodeStatus::Halt
        }

        fn finish(self: Box<Self>) {}
    }

    fn wide_programs() -> Vec<Box<dyn NodeProgram<Output = ()>>> {
        vec![Box::new(WideSender), Box::new(WideSender)]
    }

    #[test]
    fn wide_messages_are_reported_lenient_and_rejected_strict() {
        let lenient = Engine::default()
            .run(ExecutionModel::congested_clique(2), wide_programs())
            .unwrap();
        assert!(!lenient.report.within_limits());
        assert_eq!(lenient.report.violations.len(), 1);

        let strict = Engine::new(EngineConfig {
            policy: ViolationPolicy::FailFast,
            ..EngineConfig::default()
        })
        .run(ExecutionModel::congested_clique(2), wide_programs());
        assert!(matches!(strict, Err(SimError::ConstraintViolated(_))));
    }

    /// Each node sends its id times a counter to both ring neighbors for a
    /// fixed number of rounds — a messaging-heavy workload for stressing
    /// the chunked delivery path.
    struct Chatter {
        left: u32,
        right: u32,
        until: u64,
        checksum: u64,
    }

    impl NodeProgram for Chatter {
        type Output = u64;

        fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
            for m in env.inbox() {
                self.checksum = self.checksum.wrapping_add(m.word ^ u64::from(m.src));
            }
            if env.round() >= self.until {
                return NodeStatus::Halt;
            }
            let word = (u64::from(env.node()) + env.round()) & 0xffff;
            let (left, right) = (self.left, self.right);
            env.send(left, word);
            env.send(right, word);
            NodeStatus::Continue
        }

        fn finish(self: Box<Self>) -> u64 {
            self.checksum
        }

        fn snapshot(&self, sink: &mut SnapshotSink<'_>) -> bool {
            // Only the checksum mutates; left/right/until are fixed.
            sink.push(self.checksum);
            true
        }

        fn restore(&mut self, source: &mut SnapshotSource<'_>) -> bool {
            self.checksum = source.next_word();
            true
        }
    }

    fn chatter_programs(n: usize) -> Vec<Box<dyn NodeProgram<Output = u64>>> {
        (0..n)
            .map(|i| {
                Box::new(Chatter {
                    left: ((i + n - 1) % n) as u32,
                    right: ((i + 1) % n) as u32,
                    until: 9,
                    checksum: 0,
                }) as _
            })
            .collect()
    }

    #[test]
    fn heavy_chatter_is_deterministic_and_counts_messages() {
        let n = 130;
        let baseline = Engine::new(EngineConfig::with_threads(1))
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        // 9 sending rounds, 2 messages per node per round.
        assert_eq!(baseline.ledger.total_messages(), 9 * 2 * n as u64);
        let parallel = Engine::new(EngineConfig::with_threads(4))
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        assert_eq!(baseline.outputs, parallel.outputs);
        assert_eq!(baseline.ledger, parallel.ledger);
    }

    #[test]
    fn a_zero_rate_plan_changes_nothing_but_health() {
        use cc_fault::FaultPlan;
        let n = 60;
        let clean = Engine::new(EngineConfig::with_threads(2))
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        assert_eq!(clean.health, EngineHealth::default());
        let faulted = Engine::new(EngineConfig::with_threads(2))
            .with_faults(FaultPlan::new(1))
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        assert_eq!(faulted.outputs, clean.outputs);
        assert_eq!(faulted.ledger, clean.ledger);
        assert_eq!(faulted.report, clean.report);
        assert_eq!(faulted.health.faults_injected, 0);
        assert_eq!(faulted.health.retries, 0);
        assert!(faulted.health.checkpoint_words > 0);
        assert!(!faulted.health.degraded);
    }

    #[test]
    fn faulted_runs_recover_the_fault_free_outputs_and_ledger() {
        use cc_fault::FaultPlan;
        let n = 80;
        let clean = Engine::new(EngineConfig::with_threads(1))
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        for threads in [1, 4] {
            let plan = FaultPlan::new(0xfa17)
                .with_drop(30)
                .with_duplicate(20)
                .with_corrupt(20)
                .with_stall(100, 400);
            let faulted = Engine::new(EngineConfig::with_threads(threads))
                .with_faults(plan)
                .run(ExecutionModel::congested_clique(n), chatter_programs(n))
                .unwrap();
            assert!(faulted.health.faults_injected > 0, "threads {threads}");
            assert!(faulted.health.retries > 0, "threads {threads}");
            assert_eq!(faulted.health.faults_committed, 0, "threads {threads}");
            assert_eq!(faulted.health.damaged_rounds_committed, 0);
            assert!(!faulted.health.degraded, "threads {threads}");
            // Every damaged round was rolled back and re-delivered clean,
            // so the committed execution is the fault-free one, bit for bit.
            assert_eq!(faulted.outputs, clean.outputs, "threads {threads}");
            assert_eq!(faulted.ledger, clean.ledger, "threads {threads}");
        }
    }

    #[test]
    fn exhausted_retries_commit_the_damage_and_flag_degradation() {
        use cc_fault::FaultPlan;
        assert_eq!(EngineConfig::default().max_round_retries, 16);
        let n = 60;
        let plan = FaultPlan::new(0xfa17).with_drop(120);
        let faulted = Engine::new(EngineConfig {
            max_round_retries: 0,
            ..EngineConfig::with_threads(2)
        })
        .with_faults(plan)
        .run(ExecutionModel::congested_clique(n), chatter_programs(n))
        .unwrap();
        assert_eq!(faulted.health.retries, 0);
        assert!(faulted.health.faults_committed > 0);
        assert!(faulted.health.damaged_rounds_committed > 0);
        assert!(faulted.health.degraded);
        assert_eq!(
            faulted.health.faults_committed,
            faulted.health.faults_injected
        );
    }

    #[test]
    fn crash_stopped_nodes_degrade_the_outcome() {
        use cc_fault::FaultPlan;
        let n = 40;
        let plan = FaultPlan::new(7).with_crash(5, 2).with_crash(17, 0);
        let outcome = Engine::new(EngineConfig::with_threads(2))
            .with_faults(plan)
            .run(ExecutionModel::congested_clique(n), chatter_programs(n))
            .unwrap();
        assert!(outcome.all_halted);
        assert_eq!(outcome.health.crashed_nodes, 2);
        assert!(outcome.health.degraded);
        // Node 17 crashed before it ever heard anything.
        assert_eq!(outcome.outputs[17], 0);
    }

    #[test]
    fn recording_captures_every_phase_without_changing_results() {
        use cc_trace::{RingRecorder, TraceEvent};
        let n = 40;
        let plain = Engine::new(EngineConfig::with_threads(2))
            .run(ExecutionModel::congested_clique(n), ring_programs(n))
            .unwrap();
        let rec = Arc::new(RingRecorder::default());
        let traced = Engine::new(EngineConfig::with_threads(2))
            .with_recorder(Arc::clone(&rec))
            .run(ExecutionModel::congested_clique(n), ring_programs(n))
            .unwrap();
        // Recording is unobservable in everything the engine guarantees.
        assert_eq!(plain.outputs, traced.outputs);
        assert_eq!(plain.ledger, traced.ledger);
        assert_eq!(plain.report, traced.report);
        // Every round produced step/route/barrier spans on every chunk
        // lane and a check span on the driver lane.
        let events = rec.events();
        let chunks = exec_chunk_count(n, 2) as u16;
        for round in 0..u32::try_from(traced.rounds).unwrap() {
            for phase in cc_trace::Phase::ALL {
                let lanes = if phase == cc_trace::Phase::Check {
                    u16::try_from(DRIVER_LANE).unwrap()..u16::try_from(DRIVER_LANE).unwrap() + 1
                } else {
                    0..chunks
                };
                for lane in lanes {
                    assert!(
                        events.iter().any(|e| matches!(
                            *e,
                            TraceEvent::Span { lane: l, phase: p, round: r, .. }
                                if l == lane && p == phase && r == round
                        )),
                        "round {round} lane {lane} missing a {} span",
                        phase.name()
                    );
                }
            }
        }
        let summary = rec.summary();
        assert_eq!(summary.rounds.len() as u64, traced.rounds);
        assert_eq!(summary.totals().0, traced.ledger.total_messages());
        assert!(summary.histogram(HistKind::InboxLen).unwrap().total() > 0);
        assert_eq!(summary.dropped, 0);
    }

    mod properties {
        use cc_fault::FaultPlan;
        use cc_graph::palette::Palette;
        use cc_trace::RingRecorder;
        use proptest::prelude::*;

        use super::*;
        use crate::message::word_bits_limit;
        use crate::programs::luby::LubyMisProgram;
        use crate::programs::trial::TrialColoringProgram;
        use crate::router::MAX_CHUNKS;

        /// Symmetric pseudo-random adjacency lists (xorshift), sorted.
        fn scrambled_graph(n: usize, seed: u64) -> Vec<Vec<u32>> {
            let mut adjacency = vec![Vec::new(); n];
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..n * 2 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let (u, v) = (
                    (state % n as u64) as usize,
                    ((state >> 32) % n as u64) as usize,
                );
                if u != v && !adjacency[u].contains(&(v as u32)) {
                    adjacency[u].push(v as u32);
                    adjacency[v].push(u as u32);
                }
            }
            for list in &mut adjacency {
                list.sort_unstable();
            }
            adjacency
        }

        type Programs<O> = Vec<Box<dyn NodeProgram<Output = O>>>;

        fn trial_programs(adjacency: &[Vec<u32>], seed: u64) -> Programs<Option<u64>> {
            let programs = adjacency.iter().enumerate().map(|(i, neighbors)| {
                let palette = Palette::range(neighbors.len() as u64 + 1);
                Box::new(TrialColoringProgram::new(
                    i as u32,
                    neighbors.clone(),
                    palette,
                    seed,
                )) as _
            });
            programs.collect()
        }

        fn luby_programs(adjacency: &[Vec<u32>], seed: u64) -> Programs<Option<bool>> {
            let bits = word_bits_limit(adjacency.len());
            let programs = adjacency.iter().enumerate().map(|(i, neighbors)| {
                Box::new(LubyMisProgram::new(i as u32, neighbors.clone(), bits, seed)) as _
            });
            programs.collect()
        }

        /// Runs `programs()` through `plain` as one group, then through
        /// `hooked` at every group count from `min(n, 16)` down to 1, and
        /// requires each run to equal the one-group run in everything but
        /// timing.
        fn groupings_agree<O: PartialEq + Send + 'static>(
            plain: &mut EngineSession,
            hooked: &mut EngineSession,
            n: usize,
            programs: impl Fn() -> Programs<O>,
        ) -> Result<(), TestCaseError> {
            let model = ExecutionModel::congested_clique(n);
            let one = plain.run_grouped(model.clone(), programs(), 1).unwrap();
            for groups in (1..=n.min(MAX_CHUNKS)).rev() {
                let split = hooked
                    .run_grouped(model.clone(), programs(), groups)
                    .unwrap();
                prop_assert!(split.outputs == one.outputs, "outputs, {groups} groups");
                prop_assert!(split.ledger == one.ledger, "ledger, {groups} groups");
                prop_assert!(split.report == one.report, "report, {groups} groups");
                prop_assert!(split.rounds == one.rounds, "rounds, {groups} groups");
                prop_assert!(split.health == one.health, "health, {groups} groups");
            }
            Ok(())
        }

        /// One program kind through two 4-thread sessions: `engine` for the
        /// one-group reference and `hooked` (the same engine, maybe
        /// recording) for every grouping.
        fn kind_agrees(
            engine: &Engine,
            hooked: &Engine,
            kind: u8,
            n: usize,
            seed: u64,
        ) -> Result<(), TestCaseError> {
            let (mut plain, mut hooked) = (engine.session(), hooked.session());
            let adjacency = scrambled_graph(n, seed);
            match kind {
                0 => groupings_agree(&mut plain, &mut hooked, n, || chatter_programs(n)),
                1 => groupings_agree(&mut plain, &mut hooked, n, || {
                    trial_programs(&adjacency, seed)
                }),
                _ => groupings_agree(&mut plain, &mut hooked, n, || {
                    luby_programs(&adjacency, seed)
                }),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The execution grouping and the recorder are unobservable:
            /// chatter, trial coloring and Luby MIS give the unrecorded
            /// one-group outputs, ledger, report, rounds and health at
            /// every group count, with a recorder attached or not,
            /// fault-free, under crash-free message faults and stalls, and
            /// under a crash schedule.
            #[test]
            fn every_grouping_matches_one_group(
                n in 2usize..=64,
                kind in 0u8..3,
                faults in 0u8..3,
                recorded in any::<bool>(),
                seed in any::<u64>(),
                rates in (0u16..=40, 0u16..=30, 0u16..=30),
                crashes in proptest::collection::vec((0u32..64, 0u64..4), 1..3),
            ) {
                let engine = Engine::new(EngineConfig::with_threads(4));
                let (drop, duplicate, corrupt) = rates;
                let plan = FaultPlan::new(seed)
                    .with_drop(drop)
                    .with_duplicate(duplicate)
                    .with_corrupt(corrupt)
                    .with_stall(50, 200);
                let engine = match faults {
                    0 => engine,
                    1 => engine.with_faults(plan),
                    _ => engine.with_faults(crashes.iter().fold(plan, |plan, &(node, round)| {
                        plan.with_crash(node % n as u32, round)
                    })),
                };
                let recorder = Arc::new(RingRecorder::with_capacity(256));
                let hooked = if recorded {
                    engine.clone().with_recorder(Arc::clone(&recorder))
                } else {
                    engine.clone()
                };
                kind_agrees(&engine, &hooked, kind, n, seed)?;
                prop_assert_eq!(recorder.recorded_events() > 0, recorded);
            }
        }
    }

    #[test]
    fn timings_cover_all_phases_on_a_real_run() {
        let n = 60;
        let outcome = Engine::default()
            .run(ExecutionModel::congested_clique(n), ring_programs(n))
            .unwrap();
        // Route and step always do work when messages flow; check runs at
        // every barrier. (Coarse clocks can floor tiny phases to zero, so
        // only the sum is asserted.)
        let t = outcome.timings;
        assert!(t.route_ns + t.step_ns + t.check_ns > 0);
    }
}
