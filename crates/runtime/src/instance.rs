//! One execution instance: the round loop that [`crate::Engine`] and
//! [`crate::ColoringService`] share.
//!
//! An instance is one clique's execution from setup to outcome. Its
//! **worker side**, the [`Plane`], holds the node programs split into
//! execution groups, the two arena banks, the round and attempt counters,
//! the retry checkpoints, and the timing atomics; workers reach it through
//! one `Arc` and call [`Plane::step_group`] once per group per round. Its
//! **driver side**, the [`Instance`], holds the accounting context, the
//! ledger, the merge scratch, and the retry state, and closes every round
//! with [`Instance::merge`] at the barrier.
//!
//! An engine session runs one instance with `exec_chunk_count(n, threads)`
//! groups; the service runs one single-group instance per slot and steps
//! every live slot in one shared dispatch. Setup ([`Instance::start`]), the
//! round, and the finish ([`Instance::finish`]) exist once, so solo and
//! batched executions of the same request agree bit for bit — fault
//! injection, retries, and health included.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
// cc-lint: allow(determinism) — wall clock feeds PhaseTimings and trace timestamps only, never any result or digest
use std::time::Instant;

use cc_fault::{FaultInjector, NoopInjector};
use cc_sim::{ClusterContext, ExecutionModel, SimError, ViolationPolicy};
use cc_trace::{Counter, HistKind, NoopRecorder, Phase, Recorder, DRIVER_LANE};

use crate::columns::{Inbox, InboxSegment};
use crate::engine::{EngineConfig, EngineHealth, EngineOutcome, PhaseTimings};
use crate::env::NodeEnv;
use crate::ledger::MessageLedger;
use crate::message::word_bits_limit;
use crate::program::{NodeProgram, NodeStatus};
use crate::router::{
    group_node_range, merge_round, read_bank, ChunkArena, MergeScratch, MAX_CHUNKS,
};
use crate::snapshot::{SnapshotSink, SnapshotSource};

/// What an engine or a service attaches to every instance it runs: the
/// trace sink, the fault source, and the origin of trace timestamps.
#[derive(Debug)]
pub(crate) struct Hooks<R, F> {
    pub(crate) recorder: Arc<R>,
    pub(crate) injector: Arc<F>,
    /// Every recorded nanosecond offset is relative to this instant, so
    /// spans from all lanes — and all slots of a service — share one axis.
    // cc-lint: allow(determinism) — the epoch anchors diagnostic timestamps only, never any result or digest
    pub(crate) epoch: Instant,
}

impl<R, F> Clone for Hooks<R, F> {
    fn clone(&self) -> Self {
        Hooks {
            recorder: Arc::clone(&self.recorder),
            injector: Arc::clone(&self.injector),
            epoch: self.epoch,
        }
    }
}

impl Hooks<NoopRecorder, NoopInjector> {
    /// No recording and no faults.
    pub(crate) fn none() -> Self {
        Hooks {
            recorder: Arc::new(NoopRecorder),
            injector: Arc::new(NoopInjector),
            // cc-lint: allow(determinism) — the epoch anchors diagnostic timestamps only, never any result or digest
            epoch: Instant::now(),
        }
    }
}

impl<R, F> Hooks<R, F> {
    /// The same hooks recording into `recorder`.
    pub(crate) fn with_recorder<R2>(self, recorder: Arc<R2>) -> Hooks<R2, F> {
        Hooks {
            recorder,
            injector: self.injector,
            epoch: self.epoch,
        }
    }

    /// The same hooks injecting faults from `injector`.
    pub(crate) fn with_faults<F2>(self, injector: F2) -> Hooks<R, F2> {
        Hooks {
            recorder: self.recorder,
            injector: Arc::new(injector),
            epoch: self.epoch,
        }
    }
}

/// The two chunk-arena banks and the merge scratch of one instance — the
/// part of its state that does not depend on the programs' output type, so
/// a session or a service slot hands it from one instance to the next.
pub(crate) struct Banks {
    /// `arenas[round & 1]` is staged into this round; the other bank holds
    /// last round's sealed (delivered) groups.
    arenas: [Vec<RwLock<ChunkArena>>; 2],
    scratch: MergeScratch,
}

impl Banks {
    /// `spare`, fully reset, when it was built for `n` nodes in `groups`
    /// groups; fresh banks otherwise. The reset of *both* banks is
    /// load-bearing: the previous instance's final sealed bank would
    /// otherwise leak into this one's round 0 as delivered messages.
    fn fit(spare: Option<Banks>, n: usize, groups: usize) -> Banks {
        match spare {
            Some(mut banks)
                if banks.arenas[0].len() == groups
                    && banks.arenas[0][0].read().expect("chunk arena poisoned").n() == n =>
            {
                for arena in banks.arenas.iter_mut().flatten() {
                    arena.get_mut().expect("chunk arena poisoned").reset();
                }
                banks
            }
            _ => {
                let bank = || {
                    (0..groups)
                        .map(|k| RwLock::new(ChunkArena::for_group(n, groups, k)))
                        .collect()
                };
                Banks {
                    arenas: [bank(), bank()],
                    scratch: MergeScratch::new(n),
                }
            }
        }
    }
}

/// One execution group's program state: only the worker stepping the
/// group touches it, under one lock per group per round.
struct Group<O> {
    programs: Vec<Box<dyn NodeProgram<Output = O>>>,
    halted: Vec<bool>,
    /// Round checkpoint (fault-injected runs only): every live program's
    /// snapshot words, concatenated, with `checkpoint_at[j]..checkpoint_at
    /// [j + 1]` delimiting program `j`'s slice, plus the halted flags as
    /// they were when the round began. Reused every round — high-water
    /// capacity, no steady-state allocation.
    checkpoint: Vec<u64>,
    checkpoint_at: Vec<u32>,
    checkpoint_halted: Vec<bool>,
    /// Whether every live program of this group supports snapshotting;
    /// false disables retry for the whole run (damage commits as-is).
    checkpoint_ok: bool,
}

/// The worker side of an instance, shared with the workers through one
/// `Arc` for the instance's whole lifetime, so rounds allocate nothing.
pub(crate) struct Plane<O, R, F> {
    n: usize,
    bits_limit: u32,
    bandwidth_limit: usize,
    /// The trace lane of group 0; group `k` records on lane `lane + k`.
    lane: usize,
    /// Current round; its parity selects the staging bank. Advanced by the
    /// driver's merge.
    round: AtomicU64,
    /// Current delivery attempt of the round (0 = first try); nonzero
    /// attempts restore the round checkpoint before stepping.
    attempt: AtomicU32,
    /// Nodes crash-stopped so far (counted once, on attempt 0).
    crashed: AtomicU64,
    /// `u64` words checkpointed so far, summed over rounds and groups.
    checkpoint_words: AtomicU64,
    arenas: [Vec<RwLock<ChunkArena>>; 2],
    groups: Vec<Mutex<Group<O>>>,
    /// Nanoseconds spent routing (seal) across all workers.
    route_ns: AtomicU64,
    /// Nanoseconds spent stepping programs across all workers.
    step_ns: AtomicU64,
    /// When group `k` sealed this round, in nanoseconds since the epoch;
    /// the driver reads these at the barrier to attribute barrier wait.
    finish_ns: Vec<AtomicU64>,
    hooks: Hooks<R, F>,
}

impl<O: Send + 'static, R: Recorder, F: FaultInjector> Plane<O, R, F> {
    /// Steps every live node of group `k` for the current round and seals
    /// the group's arena. Runs on whichever thread claims group `k`;
    /// touches only group-`k`-owned mutable state plus read-shared
    /// delivered arenas.
    // The per-round worker body: everything a round does between barriers.
    // cc-lint: region(no_alloc)
    pub(crate) fn step_group(&self, k: usize) {
        let round = self.round.load(Ordering::Acquire);
        let lane = self.lane + k;
        let recorder = &*self.hooks.recorder;
        let injector = &*self.hooks.injector;
        let mut arena = self.arenas[(round & 1) as usize][k]
            .write()
            .expect("chunk arena poisoned");
        arena.reset();
        let delivered = read_bank(&self.arenas[(1 - (round & 1)) as usize]);
        // Only groups that sent anything last round can contribute inbox
        // segments; skipping the rest up front keeps sparse rounds cheap.
        let mut senders: [usize; MAX_CHUNKS] = [0; MAX_CHUNKS];
        let mut sender_count = 0;
        for (c, chunk) in delivered.iter().flatten().enumerate() {
            if chunk.staged() > 0 {
                senders[sender_count] = c;
                sender_count += 1;
            }
        }
        let mut group = self.groups[k].lock().expect("group poisoned");
        let group = &mut *group;
        let attempt = self.attempt.load(Ordering::Acquire);
        let mut checkpoint_words_now = 0u64;
        if F::ENABLED {
            // Deterministic per-(round, group) stall: pure timing skew to
            // shake out barrier races; never touches any compared state.
            for _ in 0..injector.stall_spins(round, k) {
                std::hint::spin_loop();
            }
            if attempt == 0 {
                // Checkpoint every live program before it steps, so a
                // damaged round can be re-executed from this exact state.
                group.checkpoint.clear();
                group.checkpoint_at.clear();
                group.checkpoint_at.push(0);
                group.checkpoint_halted.clear();
                group.checkpoint_halted.extend_from_slice(&group.halted);
                for (j, program) in group.programs.iter().enumerate() {
                    if !group.halted[j] {
                        let mut sink = SnapshotSink::new(&mut group.checkpoint);
                        if !program.snapshot(&mut sink) {
                            group.checkpoint_ok = false;
                        }
                    }
                    group.checkpoint_at.push(
                        u32::try_from(group.checkpoint.len())
                            .expect("checkpoint exceeds u32 words"),
                    );
                }
                checkpoint_words_now = group.checkpoint.len() as u64;
                self.checkpoint_words
                    .fetch_add(checkpoint_words_now, Ordering::Relaxed);
            } else {
                // Retry: rewind program state and halted flags to the
                // checkpoint taken on attempt 0 before re-stepping.
                for (j, program) in group.programs.iter_mut().enumerate() {
                    group.halted[j] = group.checkpoint_halted[j];
                    if !group.checkpoint_halted[j] {
                        let range =
                            group.checkpoint_at[j] as usize..group.checkpoint_at[j + 1] as usize;
                        let mut source = SnapshotSource::new(&group.checkpoint[range]);
                        let restored = program.restore(&mut source);
                        debug_assert!(restored, "checkpointed program refused to restore");
                    }
                }
            }
        }
        // cc-lint: allow(determinism) — phase timing for diagnostics; folded into step_ns, not into results
        let step_start = Instant::now();
        // Scratch for inbox views, written fresh for every node (only the
        // first `filled` entries are ever read); hoisted out of the loop so
        // the whole array is not re-initialized per node.
        let mut segments: [InboxSegment<'_>; MAX_CHUNKS] = [(&[], &[]); MAX_CHUNKS];
        let nodes = group_node_range(self.n, self.groups.len(), k);
        for ((i, program), halted) in nodes.zip(&mut group.programs).zip(&mut group.halted) {
            if *halted {
                arena.note_halted();
                continue;
            }
            if F::ENABLED
                && injector
                    .crash_round(i as u32)
                    .is_some_and(|crash| round >= crash)
            {
                // Crash-stop: the node is quarantined — it stops stepping
                // and sending, counts as halted for termination, and its
                // `finish()` yields whatever partial output it had.
                // Counted once, on the round's first delivery attempt.
                *halted = true;
                arena.note_halted();
                if attempt == 0 {
                    self.crashed.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            // The inbox: this node's slice of every delivered group that
            // sent, in group order (= sender order) — zero copies, just
            // slice lookups.
            let mut filled = 0;
            for &c in &senders[..sender_count] {
                let segment = delivered[c]
                    .as_ref()
                    .expect("sender group missing")
                    .slices_for(i);
                if !segment.0.is_empty() {
                    segments[filled] = segment;
                    filled += 1;
                }
            }
            let inbox = Inbox::new(i as u32, &segments[..filled]);
            if R::ENABLED {
                recorder.observe(lane, HistKind::InboxLen, inbox.len() as u64);
            }
            let before = arena.staged();
            let status = {
                let mut env = NodeEnv::new(i as u32, self.n, round, inbox, arena.stage_mut());
                program.on_round(&mut env)
            };
            let sent = arena.staged() - before;
            arena.note_sender(i as u32, sent, self.bandwidth_limit);
            if status == NodeStatus::Halt {
                *halted = true;
                arena.note_halted();
            }
        }
        // cc-lint: allow(determinism) — phase timing for diagnostics; folded into step_ns, not into results
        let route_start = Instant::now();
        self.step_ns.fetch_add(
            (route_start - step_start).as_nanos() as u64,
            Ordering::Relaxed,
        );
        let route_ts = (route_start - self.hooks.epoch).as_nanos() as u64;
        arena.seal(
            round,
            attempt,
            self.bits_limit,
            lane,
            route_ts,
            recorder,
            injector,
        );
        // cc-lint: allow(determinism) — phase timing for diagnostics; folded into route_ns, not into results
        let route_end = Instant::now();
        self.route_ns.fetch_add(
            (route_end - route_start).as_nanos() as u64,
            Ordering::Relaxed,
        );
        // Always stored (one relaxed word): the driver turns these into
        // the barrier-wait attribution in PhaseTimings, recorder or not.
        let sealed_ts = (route_end - self.hooks.epoch).as_nanos() as u64;
        self.finish_ns[k].store(sealed_ts, Ordering::Relaxed);
        if R::ENABLED {
            let step_ts = (step_start - self.hooks.epoch).as_nanos() as u64;
            recorder.span(lane, Phase::Step, round, step_ts, route_ts);
            recorder.span(lane, Phase::Route, round, route_ts, sealed_ts);
            if F::ENABLED && checkpoint_words_now > 0 {
                recorder.count(
                    lane,
                    Counter::CheckpointWords,
                    round,
                    route_ts,
                    checkpoint_words_now,
                );
            }
        }
    }
    // cc-lint: end_region
}

/// How [`Instance::start`] left an execution.
pub(crate) enum Started<O, R, F> {
    /// Set up: dispatch [`Plane::step_group`] over its groups and call
    /// [`Instance::merge`] until it returns a verdict.
    Running(Instance<O, R, F>),
    /// No round could run — an empty clique or a zero round cap — so the
    /// execution finished on the spot: no rounds, the programs finished as
    /// they are, `all_halted` only for an empty clique.
    Finished(EngineOutcome<O>),
}

/// The driver side of an instance: accounting, ledger, merge scratch, and
/// retry state. Only the driving thread touches it.
pub(crate) struct Instance<O, R, F> {
    plane: Arc<Plane<O, R, F>>,
    config: EngineConfig,
    ctx: ClusterContext,
    ledger: MessageLedger,
    scratch: MergeScratch,
    /// `"{label}:retry"`, precomputed so the retry path allocates nothing.
    retry_label: String,
    check_ns: u64,
    barrier_wait_ns: u64,
    health: EngineHealth,
}

impl<O: Send + 'static, R: Recorder, F: FaultInjector> Instance<O, R, F> {
    /// Sets up one execution of `programs` (one per clique node) under
    /// `config`, split into `groups` execution groups whose trace lanes
    /// start at `lane`. The arena banks and merge scratch are taken from
    /// `spare` when they fit the clique size and grouping, and built fresh
    /// otherwise; an execution that finishes on the spot leaves `spare`
    /// untouched.
    pub(crate) fn start(
        model: ExecutionModel,
        programs: Vec<Box<dyn NodeProgram<Output = O>>>,
        config: EngineConfig,
        groups: usize,
        lane: usize,
        spare: &mut Option<Banks>,
        hooks: &Hooks<R, F>,
    ) -> Started<O, R, F> {
        let n = programs.len();
        let ctx = ClusterContext::with_policy(model, config.policy);
        if n == 0 || config.max_rounds == 0 {
            return Started::Finished(EngineOutcome {
                outputs: programs.into_iter().map(|p| p.finish()).collect(),
                report: ctx.report(),
                ledger: MessageLedger::new(),
                rounds: 0,
                all_halted: n == 0,
                timings: PhaseTimings::default(),
                trace: None,
                health: EngineHealth::default(),
            });
        }
        let mut ledger = MessageLedger::new();
        // Pre-size the per-round ledger so steady-state rounds never grow
        // it (bounded: a capped run amortizes the rest; 512 entries stays
        // comfortably under the allocator's mmap threshold).
        ledger.reserve_rounds(usize::try_from(config.max_rounds.min(512)).unwrap_or(0));
        let Banks { arenas, scratch } = Banks::fit(spare.take(), n, groups);
        let mut programs = programs.into_iter();
        let plane = Plane {
            n,
            bits_limit: word_bits_limit(n),
            bandwidth_limit: ctx.model().per_round_bandwidth_words,
            lane,
            round: AtomicU64::new(0),
            attempt: AtomicU32::new(0),
            crashed: AtomicU64::new(0),
            checkpoint_words: AtomicU64::new(0),
            arenas,
            groups: (0..groups)
                .map(|k| {
                    let len = group_node_range(n, groups, k).len();
                    Mutex::new(Group {
                        programs: programs.by_ref().take(len).collect(),
                        halted: vec![false; len],
                        checkpoint: Vec::new(),
                        checkpoint_at: Vec::with_capacity(if F::ENABLED { len + 1 } else { 0 }),
                        checkpoint_halted: Vec::with_capacity(if F::ENABLED { len } else { 0 }),
                        checkpoint_ok: true,
                    })
                })
                .collect(),
            route_ns: AtomicU64::new(0),
            step_ns: AtomicU64::new(0),
            finish_ns: (0..groups).map(|_| AtomicU64::new(0)).collect(),
            hooks: hooks.clone(),
        };
        let retry_label = if F::ENABLED {
            format!("{}:retry", config.label)
        } else {
            String::new()
        };
        Started::Running(Instance {
            plane: Arc::new(plane),
            config,
            ctx,
            ledger,
            scratch,
            retry_label,
            check_ns: 0,
            barrier_wait_ns: 0,
            health: EngineHealth::default(),
        })
    }

    /// The worker side, for the dispatch closure.
    pub(crate) fn plane(&self) -> &Arc<Plane<O, R, F>> {
        &self.plane
    }

    /// Closes the round the workers just stepped: attributes barrier wait,
    /// checks a fault-injected round for damage (rolling it back for a
    /// retry while the budget and the programs' snapshot support hold),
    /// merges the sealed groups in fixed group order into the context and
    /// ledger, and advances the round. Returns the verdict once the
    /// execution is over — `Ok(true)` when every node halted, `Ok(false)`
    /// at the round cap, `Err` on a fail-fast violation — and `None` while
    /// it goes on.
    pub(crate) fn merge(&mut self) -> Option<Result<bool, SimError>> {
        let plane = &*self.plane;
        let recorder = &*plane.hooks.recorder;
        let round = plane.round.load(Ordering::Relaxed);
        // One clock read serves three purposes — the end of every group's
        // barrier wait, the start of the check phase, and the timestamp of
        // the merge telemetry.
        // cc-lint: allow(determinism) — phase timing for diagnostics; folded into check_ns/barrier_wait_ns, not into results
        let check_start = Instant::now();
        let barrier_ts = (check_start - plane.hooks.epoch).as_nanos() as u64;
        for (k, finish) in plane.finish_ns.iter().enumerate() {
            let sealed_ts = finish.load(Ordering::Relaxed);
            self.barrier_wait_ns += barrier_ts.saturating_sub(sealed_ts);
            if R::ENABLED {
                recorder.span(
                    plane.lane + k,
                    Phase::BarrierWait,
                    round,
                    sealed_ts,
                    barrier_ts,
                );
            }
        }
        let bank = &plane.arenas[(round & 1) as usize];
        if F::ENABLED {
            // Damage check, before the merge commits anything: compare
            // what receivers will see (the sealed sub-digests) against what
            // senders intended.
            let mut attempt_faults = 0u64;
            let mut damaged = false;
            let mut checkpoint_ok = true;
            for (arena, group) in bank.iter().zip(&plane.groups) {
                let arena = arena.read().expect("chunk arena poisoned");
                attempt_faults += arena.faults_injected();
                damaged |= arena.damaged()
                    || (self.config.policy == ViolationPolicy::Recover && arena.has_violations());
                checkpoint_ok &= group.lock().expect("group poisoned").checkpoint_ok;
            }
            self.health.faults_injected += attempt_faults;
            let attempt = plane.attempt.load(Ordering::Relaxed);
            if damaged && checkpoint_ok && attempt < self.config.retry.max_round_retries {
                // Roll the round back: charge the wasted attempt (plus any
                // backoff) under its own label, skip the merge, and step
                // the same round again from the checkpoint.
                plane.attempt.store(attempt + 1, Ordering::Release);
                self.health.retries += 1;
                self.ctx
                    .charge_rounds(&self.retry_label, 1 + self.config.retry.backoff_rounds);
                if R::ENABLED {
                    recorder.count(DRIVER_LANE, Counter::RoundRetries, round, barrier_ts, 1);
                }
                self.check_ns += check_start.elapsed().as_nanos() as u64;
                return None;
            }
            if damaged {
                self.health.damaged_rounds_committed += 1;
            }
            self.health.faults_committed += attempt_faults;
            if R::ENABLED {
                let crashed = plane.crashed.load(Ordering::Relaxed);
                for (counter, value) in [
                    (Counter::FaultsInjected, attempt_faults),
                    (Counter::CrashedNodes, crashed),
                ] {
                    if value > 0 {
                        recorder.count(DRIVER_LANE, counter, round, barrier_ts, value);
                    }
                }
            }
            plane.attempt.store(0, Ordering::Release);
        }
        let merge = merge_round(
            round,
            bank,
            &mut self.scratch,
            &mut self.ctx,
            &mut self.ledger,
            &self.config.label,
            plane.bits_limit,
            barrier_ts,
            recorder,
        );
        self.check_ns += check_start.elapsed().as_nanos() as u64;
        if R::ENABLED {
            // cc-lint: allow(determinism) — phase timing for diagnostics; recorded as the check span only
            let check_end_ts = (Instant::now() - plane.hooks.epoch).as_nanos() as u64;
            recorder.span(DRIVER_LANE, Phase::Check, round, barrier_ts, check_end_ts);
        }
        match merge {
            Err(err) => Some(Err(err)),
            Ok(merge) if merge.halted == plane.n => Some(Ok(true)),
            Ok(_) if round + 1 >= self.config.max_rounds => Some(Ok(false)),
            Ok(_) => {
                plane.round.store(round + 1, Ordering::Release);
                None
            }
        }
    }

    /// Ends the execution with the `verdict` [`Instance::merge`] returned:
    /// finishes the programs into per-node outputs and assembles the
    /// outcome (`trace` is left `None`), handing the arena banks and merge
    /// scratch back to `spare` for the next instance.
    pub(crate) fn finish(
        self,
        verdict: Result<bool, SimError>,
        spare: &mut Option<Banks>,
    ) -> Result<EngineOutcome<O>, SimError> {
        let plane = Arc::try_unwrap(self.plane)
            .map_err(|_| ())
            .expect("a worker still holds the plane after the final barrier");
        let mut health = self.health;
        if F::ENABLED {
            health.crashed_nodes = plane.crashed.into_inner();
            health.checkpoint_words = plane.checkpoint_words.into_inner();
            health.degraded = health.damaged_rounds_committed > 0 || health.crashed_nodes > 0;
        }
        let timings = PhaseTimings {
            route_ns: plane.route_ns.into_inner(),
            step_ns: plane.step_ns.into_inner(),
            check_ns: self.check_ns,
            barrier_wait_ns: self.barrier_wait_ns,
        };
        let rounds = plane.round.into_inner() + 1;
        *spare = Some(Banks {
            arenas: plane.arenas,
            scratch: self.scratch,
        });
        let all_halted = verdict?;
        let mut outputs = Vec::with_capacity(plane.n);
        for group in plane.groups {
            let group = group.into_inner().expect("group poisoned");
            outputs.extend(group.programs.into_iter().map(|p| p.finish()));
        }
        Ok(EngineOutcome {
            outputs,
            report: self.ctx.report(),
            ledger: self.ledger,
            rounds,
            all_halted,
            timings,
            trace: None,
            health,
        })
    }
}
