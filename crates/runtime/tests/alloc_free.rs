//! Proof that steady-state engine rounds perform no heap allocation.
//!
//! A counting global allocator tallies every allocation. The same chatter
//! workload is run for R rounds and for 2R rounds, at one thread and at
//! two: all allocations happen at start-up (arena construction, first
//! rounds growing the column buffers to their high-water capacity), so the
//! two runs must allocate **exactly** the same amount — the extra R rounds
//! are allocation-free. This is the operational meaning of the message
//! plane's zero-allocation claim; it holds because the arenas, the ledger
//! reservation, and the staging columns are all reused across rounds.
//!
//! The tallies are per thread: libtest runs these tests in parallel, and a
//! process-wide count would charge one test for another's allocations. A
//! `threads = 1` engine or service steps on the calling thread alone, so
//! its thread's tally sees every allocation the run makes. At
//! `threads = 2` a persistent worker steps chunks too (of an engine run,
//! only once the clique is large enough to split); there the test marks
//! its own thread, its programs mark every thread that steps them, and the
//! proof sums the allocations of the marked threads. Only that one test
//! marks threads, so no other test's allocations reach its sum. The
//! executor publishes each round's job without boxing it, so the extra
//! rounds stay allocation-free on every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cc_runtime::trace::{Phase, RingRecorder, TraceEvent};
use cc_runtime::{
    ColoringService, Engine, EngineConfig, EngineOutcome, EngineSession, FaultPlan, NodeEnv,
    NodeProgram, NodeStatus, ServiceConfig, ServiceRequest, SnapshotSink, SnapshotSource,
};
use cc_sim::ExecutionModel;

struct CountingAllocator;

thread_local! {
    /// Allocations (count, bytes) made by this thread. `const`-initialized
    /// and free of destructors, so touching it never allocates.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Whether this thread has stepped a marked program.
    static MARKED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by marked threads, summed: their count and bytes.
static MARKED_COUNT: AtomicU64 = AtomicU64::new(0);
static MARKED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Threads marked so far.
static MARKED_THREADS: AtomicU64 = AtomicU64::new(0);

/// Charges one allocation of `bytes` to the current thread, and to the
/// marked sum if the thread is marked. A thread being torn down may
/// allocate after its locals are gone; those allocations belong to no
/// measurement and are skipped.
fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|tally| {
        let (count, total) = tally.get();
        tally.set((count + 1, total + bytes as u64));
    });
    if MARKED.try_with(Cell::get).unwrap_or(false) {
        MARKED_COUNT.fetch_add(1, Ordering::Relaxed);
        MARKED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// The engine itself is `#![forbid(unsafe_code)]`; this harness lives in a
// separate test crate precisely so it can install an allocator shim.
//
// SAFETY: the shim upholds `GlobalAlloc`'s contract by construction — it
// only bumps const-initialized thread-local tallies and static atomics (no
// lazy init, no destructor: it never allocates, unwinds, or reenters the
// allocator) and then forwards every call verbatim to `System`, so layout
// handling, pointer validity, and thread safety are exactly `System`'s.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (valid,
    // nonzero-size layout); the layout is passed through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller guaranteed valid, forwarded once.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with this
    // `layout`; every pointer we hand out comes from `System`, so the pair
    // is valid for `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: (ptr, layout) pair is valid per the fn-level contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller guarantees `ptr`/`layout` match a live allocation from
    // this allocator and `new_size` is nonzero; all of it is forwarded to
    // `System` untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: arguments forwarded unchanged under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations (count, bytes) the
/// current thread made meanwhile.
fn measured<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (count, bytes) = ALLOCATED.with(Cell::get);
    let value = f();
    let (count_after, bytes_after) = ALLOCATED.with(Cell::get);
    (value, (count_after - count, bytes_after - bytes))
}

/// Adds the current thread to the marked sum, once.
fn mark_this_thread() {
    if !MARKED.with(|marked| marked.replace(true)) {
        MARKED_THREADS.fetch_add(1, Ordering::SeqCst);
    }
}

/// Runs `f` and returns the allocations (count, bytes) that all marked
/// threads made meanwhile.
fn measured_marked(f: impl FnOnce()) -> (u64, u64) {
    let tally = || {
        let count = MARKED_COUNT.load(Ordering::SeqCst);
        (count, MARKED_BYTES.load(Ordering::SeqCst))
    };
    let (count, bytes) = tally();
    f();
    let (count_after, bytes_after) = tally();
    (count_after - count, bytes_after - bytes)
}

/// Every node sends one word to both ring neighbors each round until a
/// fixed horizon — constant per-round message volume, so buffer high-water
/// marks are reached in round 0.
struct Chatter {
    left: u32,
    right: u32,
    until: u64,
    checksum: u64,
    /// Whether stepping this node marks the stepping thread.
    marks: bool,
}

impl NodeProgram for Chatter {
    type Output = u64;

    fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
        if self.marks {
            mark_this_thread();
        }
        for m in env.inbox() {
            self.checksum = self.checksum.wrapping_add(m.word ^ u64::from(m.src));
        }
        if env.round() >= self.until {
            return NodeStatus::Halt;
        }
        let word = (u64::from(env.node()) + env.round()) & 0x3ff;
        env.send(self.left, word);
        env.send(self.right, word);
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

fn programs(n: usize, rounds: u64, marks: bool) -> Vec<Box<dyn NodeProgram<Output = u64>>> {
    (0..n)
        .map(|i| {
            Box::new(Chatter {
                left: ((i + n - 1) % n) as u32,
                right: ((i + 1) % n) as u32,
                until: rounds,
                checksum: 0,
                marks,
            }) as _
        })
        .collect()
}

/// One thread and a fixed cap (not `rounds + slack`), so the
/// ledger's start-up reservation is byte-identical across compared runs.
fn config() -> EngineConfig {
    EngineConfig {
        threads: 1,
        max_rounds: 256,
        ..EngineConfig::default()
    }
}

/// Allocation (count, bytes) charged to one engine run of `rounds` rounds.
fn measure(n: usize, rounds: u64) -> (u64, u64) {
    let programs = programs(n, rounds, false);
    let engine = Engine::new(config());
    let (outcome, delta) = measured(|| engine.run(ExecutionModel::congested_clique(n), programs));
    let outcome = outcome.unwrap();
    assert!(outcome.all_halted);
    assert_eq!(outcome.rounds, rounds + 1);
    assert_eq!(outcome.ledger.total_messages(), rounds * 2 * n as u64);
    delta
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let n = 96;
    // Warm the allocator's own caches so the first measured run is not
    // charged for arena reuse effects inside the allocator.
    let _ = measure(n, 10);
    let short = measure(n, 40);
    let long = measure(n, 80);
    assert!(short.0 > 0, "start-up must allocate something");
    assert_eq!(
        short, long,
        "doubling the round count changed the allocation totals: rounds are \
         not allocation-free (short = {short:?}, long = {long:?})"
    );
}

/// Allocation (count, bytes) charged to one engine run of `rounds` rounds
/// with a `cc-trace` ring recorder attached. The recorder is built by the
/// caller — its rings are a start-up cost like the arenas; the claim under
/// test is that *recording into* them is allocation-free.
fn measure_recorded(n: usize, rounds: u64, recorder: Arc<RingRecorder>) -> (u64, u64) {
    let programs = programs(n, rounds, false);
    let engine = Engine::new(config()).with_recorder(Arc::clone(&recorder));
    let (outcome, delta) = measured(|| engine.run(ExecutionModel::congested_clique(n), programs));
    let outcome = outcome.unwrap();
    assert!(outcome.all_halted);
    assert_eq!(outcome.rounds, rounds + 1);
    assert!(recorder.recorded_events() > 0);
    delta
}

#[test]
fn steady_state_rounds_with_ring_recorder_allocate_nothing() {
    let n = 96;
    // Tiny rings that saturate within the first rounds: every extra round
    // only overwrites ring slots. Any allocation difference is therefore
    // chargeable to the recording hot path itself.
    let _ = measure_recorded(n, 10, Arc::new(RingRecorder::with_capacity(16)));
    let short = measure_recorded(n, 40, Arc::new(RingRecorder::with_capacity(16)));
    let long = measure_recorded(n, 80, Arc::new(RingRecorder::with_capacity(16)));
    assert!(short.0 > 0, "start-up must allocate something");
    assert_eq!(
        short, long,
        "doubling the round count with a ring recorder attached changed the \
         allocation totals: recording is not allocation-free \
         (short = {short:?}, long = {long:?})"
    );
}

/// The fault plan of the faulted proofs: drops and corruptions but **no
/// duplicates**, so the delivered batch never outgrows the staged one and
/// every buffer — checkpoint words, the delivered staging area, the
/// intended digests — reaches its high-water capacity in the first rounds.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(0xa110c).with_drop(30).with_corrupt(20)
}

/// Allocation (count, bytes) charged to one fault-injected engine run of
/// `rounds` rounds: checkpointing, damage detection, and checkpoint-retry
/// all run on the single-threaded path.
fn measure_faulted(n: usize, rounds: u64) -> (u64, u64) {
    let programs = programs(n, rounds, false);
    let engine = Engine::new(config()).with_faults(fault_plan());
    let (outcome, delta) = measured(|| engine.run(ExecutionModel::congested_clique(n), programs));
    let outcome = outcome.unwrap();
    assert!(outcome.all_halted);
    assert!(outcome.health.faults_injected > 0);
    assert!(outcome.health.retries > 0);
    assert!(!outcome.health.degraded);
    delta
}

#[test]
fn steady_state_rounds_with_fault_recovery_allocate_nothing() {
    let n = 96;
    // Warm-up run, then the R-vs-2R comparison: the extra rounds (and the
    // extra retries they bring) must be allocation-free — checkpoints,
    // the delivered rebuild, and retry bookkeeping all reuse their
    // start-up buffers.
    let _ = measure_faulted(n, 10);
    let short = measure_faulted(n, 40);
    let long = measure_faulted(n, 80);
    assert!(short.0 > 0, "start-up must allocate something");
    assert_eq!(
        short, long,
        "doubling the round count under fault injection changed the \
         allocation totals: checkpoint/retry rounds are not \
         allocation-free (short = {short:?}, long = {long:?})"
    );
}

/// Serves `requests` chatter instances of `rounds` rounds each through
/// `service` and checks every outcome. With more requests than slots,
/// later requests refill retired slots, so a measurement also covers
/// arena/scratch reuse across retirements.
fn serve(service: &mut ColoringService<u64>, n: usize, rounds: u64, requests: usize, marks: bool) {
    for _ in 0..requests {
        service.submit(
            ServiceRequest::new(
                ExecutionModel::congested_clique(n),
                programs(n, rounds, marks),
            )
            .with_config(config()),
        );
    }
    let outcomes = service.run_until_idle();
    assert_eq!(outcomes.len(), requests);
    for outcome in &outcomes {
        let run = outcome.result.as_ref().unwrap();
        assert!(run.all_halted);
        assert_eq!(run.rounds, rounds + 1);
        assert_eq!(run.ledger.total_messages(), rounds * 2 * n as u64);
    }
}

/// Allocation (count, bytes) charged to serving `requests` chatter
/// instances of `rounds` rounds each through a fresh one-thread service.
fn measure_service(n: usize, rounds: u64, requests: usize) -> (u64, u64) {
    let mut service = ColoringService::new(ServiceConfig {
        slots: 2,
        threads: 1,
    });
    measured(|| serve(&mut service, n, rounds, requests, false)).1
}

#[test]
fn steady_state_service_rounds_allocate_nothing() {
    let n = 96;
    // Same R-vs-2R shape as the solo-engine proof, through the service:
    // the per-request costs (program boxes, ledger, outputs) are equal by
    // construction, so any difference is chargeable to the service's
    // per-super-round path — scheduling, the shared step dispatch, the
    // per-slot merges, and slot refill after retirement.
    let _ = measure_service(n, 10, 4);
    let short = measure_service(n, 40, 4);
    let long = measure_service(n, 80, 4);
    assert!(short.0 > 0, "start-up must allocate something");
    assert_eq!(
        short, long,
        "doubling the round count through the service changed the \
         allocation totals: service super-rounds are not allocation-free \
         (short = {short:?}, long = {long:?})"
    );
}

/// Allocation (count, bytes) charged to one `session.run` call.
fn measure_session_run(session: &mut EngineSession, n: usize, rounds: u64) -> (u64, u64) {
    let programs = programs(n, rounds, false);
    let (outcome, delta) = measured(|| session.run(ExecutionModel::congested_clique(n), programs));
    let outcome = outcome.unwrap();
    assert!(outcome.all_halted);
    assert_eq!(outcome.rounds, rounds + 1);
    delta
}

#[test]
fn session_reuse_skips_plane_construction_allocations() {
    let n = 96;
    let rounds = 40;
    let mut session = Engine::new(config()).session();
    // First run pays for the plane (arenas, scratch, column buffers);
    // subsequent same-shape runs pay only the per-run costs (program
    // boxes, ledger, outputs), which are identical run to run.
    let first = measure_session_run(&mut session, n, rounds);
    let second = measure_session_run(&mut session, n, rounds);
    let third = measure_session_run(&mut session, n, rounds);
    // A reuse skips at least the five buffers the arena of each bank sizes
    // by the clique: the count shard, the destination index, the digest
    // boundaries and both digest vectors.
    let skipped = 2 * 5;
    assert!(
        first.0 - second.0 >= skipped && second.1 < first.1,
        "a reused session should skip at least {skipped} bank allocations \
         (first = {first:?}, second = {second:?})"
    );
    assert_eq!(
        second, third,
        "repeat session runs should have identical allocation totals \
         (second = {second:?}, third = {third:?})"
    );
    // A smaller clique after the larger one refits the banks in place: it
    // allocates exactly what a warm rerun at its own size does, so no bank
    // memory at all.
    let smaller = measure_session_run(&mut session, n / 2, rounds);
    let smaller_again = measure_session_run(&mut session, n / 2, rounds);
    assert_eq!(
        smaller, smaller_again,
        "a smaller clique after a larger one should allocate no bank memory \
         (after the larger = {smaller:?}, warm rerun = {smaller_again:?})"
    );
}

/// One chatter run at the given thread count, recorded into `recorder` if
/// one is given.
fn run_chatter(
    n: usize,
    rounds: u64,
    threads: usize,
    recorder: Option<Arc<RingRecorder>>,
) -> EngineOutcome<u64> {
    let mut engine = Engine::new(EngineConfig {
        threads,
        ..config()
    });
    if let Some(recorder) = recorder {
        engine = engine.with_recorder(recorder);
    }
    engine
        .run(
            ExecutionModel::congested_clique(n),
            programs(n, rounds, false),
        )
        .unwrap()
}

/// Execution groups that one `n`-node chatter run at `threads` threads
/// steps, read off the trace: group `k` records its step spans on lane `k`.
fn step_groups(n: usize, threads: usize) -> usize {
    let recorder = Arc::new(RingRecorder::default());
    let outcome = Engine::new(EngineConfig {
        threads,
        ..config()
    })
    .with_recorder(Arc::clone(&recorder))
    .run(ExecutionModel::congested_clique(n), programs(n, 2, false))
    .unwrap();
    assert!(outcome.all_halted);
    let lanes: BTreeSet<u16> = recorder
        .events()
        .iter()
        .filter_map(|event| match *event {
            TraceEvent::Span {
                lane,
                phase: Phase::Step,
                ..
            } => Some(lane),
            _ => None,
        })
        .collect();
    lanes.len()
}

/// Repeats `run` until `threads` threads are marked: every thread that
/// steps chunks in the measured runs must be marked before they start, or
/// its allocations would escape the sum.
fn warm_up(threads: u64, mut run: impl FnMut()) {
    for _ in 0..1_000 {
        run();
        if MARKED_THREADS.load(Ordering::SeqCst) >= threads {
            return;
        }
    }
    panic!("fewer than {threads} threads ever stepped a marked program");
}

#[test]
fn two_thread_rounds_allocate_nothing() {
    // A clique large enough that a two-thread run splits it: smaller ones
    // run as one group on the calling thread, and the worker never steps.
    let n = 512;
    assert_eq!(step_groups(n, 2), 2, "a {n}-node run at two threads");
    // The calling thread sets every run up and finishes it, stepping or not.
    mark_this_thread();
    // A warm two-thread session: the caller and one persistent worker
    // claim the round's two groups. The run's per-request costs are equal
    // at R and 2R rounds; any difference is chargeable to the rounds.
    let mut session = Engine::new(EngineConfig {
        threads: 2,
        ..config()
    })
    .session();
    let mut session_run = |rounds: u64| {
        let programs = programs(n, rounds, true);
        measured_marked(|| {
            let outcome = session
                .run(ExecutionModel::congested_clique(n), programs)
                .unwrap();
            assert!(outcome.all_halted);
            assert_eq!(outcome.rounds, rounds + 1);
        })
    };
    warm_up(2, || {
        session_run(10);
    });
    let short = session_run(40);
    let long = session_run(80);
    assert!(short.0 > 0, "start-up must allocate something");
    assert_eq!(
        short, long,
        "doubling the round count at two threads changed the allocation \
         totals: engine rounds are not allocation-free on every stepping \
         thread (short = {short:?}, long = {long:?})"
    );
    // Dropping the session joins its worker; the service brings a new one.
    // Its slots step one group each, so two slots of a small clique keep
    // both threads busy.
    drop(session);
    let n = 96;
    let mut service = ColoringService::new(ServiceConfig {
        slots: 2,
        threads: 2,
    });
    warm_up(3, || serve(&mut service, n, 10, 4, true));
    let short = measured_marked(|| serve(&mut service, n, 40, 4, true));
    let long = measured_marked(|| serve(&mut service, n, 80, 4, true));
    assert!(short.0 > 0, "start-up must allocate something");
    assert_eq!(
        short, long,
        "doubling the round count through a two-thread service changed the \
         allocation totals: super-rounds are not allocation-free on every \
         stepping thread (short = {short:?}, long = {long:?})"
    );
}

#[test]
fn ring_recorder_leaves_outputs_and_ledger_digest_unchanged() {
    let n = 64;
    let rounds = 24;
    for threads in [1, 4] {
        let plain = run_chatter(n, rounds, threads, None);
        let recorder = Arc::new(RingRecorder::default());
        let recorded = run_chatter(n, rounds, threads, Some(Arc::clone(&recorder)));
        assert_eq!(
            plain.outputs, recorded.outputs,
            "recording changed node outputs at threads = {threads}"
        );
        assert_eq!(
            plain.ledger.digest(),
            recorded.ledger.digest(),
            "recording changed the ledger digest at threads = {threads}"
        );
        assert_eq!(
            plain.ledger, recorded.ledger,
            "recording changed the ledger at threads = {threads}"
        );
        assert_eq!(recorder.summary().rounds.len() as u64, recorded.rounds);
    }
}
