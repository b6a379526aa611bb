//! Batched multi-instance execution: the [`ColoringService`].
//!
//! [`crate::engine::Engine`] executes one instance at a time: one clique,
//! one plane, one barrier schedule, and the whole setup (executor workers,
//! arena banks) paid per run. A coloring *service* faces a stream of many
//! independent instances — most of them small, where per-round fixed costs
//! (dispatch, worker wakeups, the barrier itself) dominate the per-message
//! work. Because the paper's algorithms are constant-round with fixed
//! per-round structure, independent instances are trivially
//! round-alignable: the service packs every in-flight instance into one
//! shared **super-round**, dispatching all of them to the executor in a
//! single `run_indexed` call, so the dispatch and barrier are paid once
//! per super-round instead of once per instance-round.
//!
//! ## Architecture
//!
//! * A **submission queue** ([`ColoringService::submit`]) accepts
//!   independent requests, each carrying its own programs, model, and
//!   [`EngineConfig`] (width/bandwidth budgets derive from the instance's
//!   *own* clique size, never the batch).
//! * A fixed set of **instance slots** holds the in-flight batch. Each
//!   occupied slot runs one instance of the engine's own round loop with a
//!   single execution group — exactly the solo single-threaded layout. Its
//!   arena banks are recycled across occupants of any clique size: each
//!   admission refits them in place, keeping their capacity.
//! * Each **super-round**, the scheduler admits queued requests into idle
//!   slots (lowest slot first, submission order), steps every live slot
//!   one *local* round in one dispatch (dispatch index `i` steps the
//!   `i`-th live slot's group), then merges each slot in ascending slot
//!   order into that instance's own context and ledger.
//! * **Retirement** happens the moment an instance's nodes all halt, its
//!   round cap is hit, or a fail-fast violation aborts it: the slot's
//!   outputs are finished, the outcome is buffered, and the slot is free
//!   for the next admission on the very next super-round — in-flight
//!   neighbors are never disturbed.
//!
//! ## Determinism and solo parity
//!
//! Per-instance results are **byte-identical to solo runs**: a slot steps,
//! merges, and finishes through the same code as
//! [`crate::EngineSession::run`], with the instance's own
//! `word_bits_limit(n)`, bandwidth budget, round charges, violation
//! labels, and ledger digests. Batch composition, slot assignment, and
//! service thread count are all unobservable in any outcome (the
//! `service_equivalence` proptests pin this against `Engine::run` at
//! threads 1/2/4 with mid-stream retirement and refill, with and without
//! faults). Fail-fast violations retire only the offending instance — its
//! outcome carries the error; neighbors keep running.
//!
//! A fault plan attached with [`ColoringService::with_faults`] reaches
//! every instance: each one checkpoints, detects damage, retries, and
//! reports [`crate::EngineHealth`] exactly as a solo run under the same
//! plan does. Outcomes carry each instance's own
//! [`crate::PhaseTimings`].
//!
//! ## Observability
//!
//! With a [`RingRecorder`] attached, each slot emits step/route and
//! barrier-wait spans on the trace lane of its slot index, each merge emits
//! a driver-lane check span, and the driver lane carries two service gauges
//! per super-round: [`Counter::QueueDepth`] (requests waiting) and
//! [`Counter::Occupancy`] (slots live). The recorder holds every slot's
//! events together; read them from the `Arc` passed to
//! [`ColoringService::with_recorder`].

use std::collections::VecDeque;
use std::sync::{Arc, RwLock};

use cc_fault::FaultPlan;
use cc_sim::{ExecutionModel, SimError};
use cc_trace::{Counter, RingRecorder, DRIVER_LANE, WORKER_LANES};

use crate::engine::{EngineConfig, EngineOutcome};
use crate::instance::{Banks, Hooks, Instance, Plane, Started};
use crate::pool::{ChunkedExecutor, Job};
use crate::program::NodeProgram;

/// Identifies one submitted request, in submission order starting from 0.
pub type RequestId = u64;

/// How a [`ColoringService`] is shaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Instance slots: the maximum number of in-flight instances packed
    /// into one super-round (clamped to at least 1). Slots at or above
    /// [`cc_trace::WORKER_LANES`] share the last worker trace lane.
    pub slots: usize,
    /// Threads stepping the shared super-round dispatch, the calling thread
    /// included (1 = the caller alone, no workers). Per-request
    /// `EngineConfig::threads` is ignored — batching replaces per-instance
    /// parallelism.
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            slots: 8,
            threads: 1,
        }
    }
}

impl ServiceConfig {
    /// A default-shaped service with `slots` instance slots.
    #[must_use]
    pub fn with_slots(slots: usize) -> Self {
        ServiceConfig {
            slots,
            ..ServiceConfig::default()
        }
    }
}

/// One independent coloring/MIS instance submitted to the service.
pub struct ServiceRequest<O> {
    /// The accounting model (normally
    /// [`ExecutionModel::congested_clique`] of the instance's own n).
    pub model: ExecutionModel,
    /// One program per clique node of *this* instance.
    pub programs: Vec<Box<dyn NodeProgram<Output = O>>>,
    /// The per-instance execution configuration: label, round cap,
    /// violation policy, and retry budget all apply exactly as under
    /// [`crate::Engine::run`]. `threads` is ignored (see
    /// [`ServiceConfig::threads`]).
    pub config: EngineConfig,
}

impl<O> ServiceRequest<O> {
    /// A request with the default [`EngineConfig`].
    pub fn new(model: ExecutionModel, programs: Vec<Box<dyn NodeProgram<Output = O>>>) -> Self {
        ServiceRequest {
            model,
            programs,
            config: EngineConfig::default(),
        }
    }

    /// Replaces the per-instance execution configuration.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }
}

/// One retired request: the per-instance outcome plus its service-side
/// scheduling coordinates.
pub struct ServiceOutcome<O> {
    /// The request this outcome belongs to.
    pub id: RequestId,
    /// The instance's result, bit-identical (outputs, report, ledger,
    /// rounds, `all_halted`, `health`) to a solo [`crate::Engine::run`]
    /// under the request's own config and the service's fault plan.
    /// `timings` are the instance's own. Fail-fast
    /// violations surface here as [`SimError`] without disturbing other
    /// instances.
    pub result: Result<EngineOutcome<O>, SimError>,
    /// Super-round at which the instance was admitted to a slot.
    pub admitted_super_round: u64,
    /// Super-round during which the instance retired (equals
    /// `admitted_super_round` + local rounds - 1 for stepped instances).
    pub finished_super_round: u64,
}

/// The planes of one super-round's live slots, shared with the dispatch
/// closure.
type LivePlanes<O> = Arc<RwLock<Vec<Arc<Plane<O>>>>>;

/// An occupied slot: the request in flight and its instance.
struct Occupant<O> {
    id: RequestId,
    admitted_super_round: u64,
    instance: Instance<O>,
}

/// A batched multi-instance execution service — see the
/// [module docs](crate::service) for the architecture, the scheduling
/// policy, and the solo-parity guarantee.
///
/// The service is a *driver-stepped* loop: [`ColoringService::submit`]
/// enqueues requests, every [`ColoringService::step`] executes one
/// super-round (admit → dispatch → merge → retire), and
/// [`ColoringService::drain_finished`] yields retired outcomes. The
/// caller owns the pacing, which is what lets `cc-bench` measure
/// offered-load sweeps without the service owning a clock.
pub struct ColoringService<O> {
    hooks: Hooks,
    executor: ChunkedExecutor,
    /// The planes of this super-round's live slots, ascending by slot:
    /// dispatch index `i` steps the single group of `live[i]`. Filled by
    /// the driver before each dispatch and emptied after it, so retiring
    /// instances can reclaim their planes.
    live: LivePlanes<O>,
    /// The one dispatch closure, built at construction: super-rounds
    /// clone the `Arc`, never re-create the closure.
    step: Job,
    queue: VecDeque<(RequestId, ServiceRequest<O>)>,
    slots: Vec<Option<Occupant<O>>>,
    /// Per slot, the arena banks and merge scratch its last occupant left.
    spares: Vec<Banks>,
    finished: Vec<ServiceOutcome<O>>,
    next_id: RequestId,
    super_round: u64,
}

impl<O: Send + 'static> ColoringService<O> {
    /// A service with no trace recording and no faults; chain
    /// [`ColoringService::with_recorder`] and
    /// [`ColoringService::with_faults`] to attach them.
    pub fn new(config: ServiceConfig) -> Self {
        let slots = config.slots.max(1);
        let live: LivePlanes<O> = Arc::new(RwLock::new(Vec::with_capacity(slots)));
        let step: Job = {
            let live = Arc::clone(&live);
            Arc::new(move |i| live.read().expect("live list poisoned")[i].step_group(0))
        };
        ColoringService {
            hooks: Hooks::none(),
            executor: ChunkedExecutor::new(config.threads),
            live,
            step,
            queue: VecDeque::new(),
            slots: (0..slots).map(|_| None).collect(),
            spares: (0..slots).map(|_| Banks::default()).collect(),
            finished: Vec::new(),
            next_id: 0,
            super_round: 0,
        }
    }

    /// The same service recording per-slot spans and driver-lane
    /// queue/occupancy gauges into `recorder`. Instances already admitted
    /// keep the hooks they started with.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<RingRecorder>) -> Self {
        self.hooks.recorder = Some(recorder);
        self
    }

    /// The same service injecting faults from `plan` into every instance
    /// it admits from now on, each recovering under its own request's
    /// [`EngineConfig::max_round_retries`]. Instances already admitted
    /// keep the hooks they started with.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.hooks.faults = Some(Arc::new(plan));
        self
    }

    /// Enqueues one instance; it is admitted to a slot on a subsequent
    /// [`ColoringService::step`], in submission order.
    pub fn submit(&mut self, request: ServiceRequest<O>) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back((id, request));
        id
    }

    /// Requests waiting for a slot.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Slots currently occupied by in-flight instances.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Total instance slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is queued or in flight (retired outcomes may still
    /// be waiting in [`ColoringService::drain_finished`]).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.occupancy() == 0
    }

    /// Super-rounds executed so far.
    pub fn super_rounds(&self) -> u64 {
        self.super_round
    }

    /// Executes one super-round — admit queued requests into idle slots,
    /// step every live slot one local round in one shared dispatch,
    /// merge each slot into its own ledger, retire finished instances —
    /// and returns how many instances retired. A step with nothing queued
    /// and nothing live is a no-op returning 0.
    pub fn step(&mut self) -> usize {
        // Admission: lowest idle slot first, submission order.
        while !self.queue.is_empty() && self.admit_next() {}
        let live_count = {
            let mut live = self.live.write().expect("live list poisoned");
            live.extend(
                self.slots
                    .iter()
                    .flatten()
                    .map(|occupant| Arc::clone(occupant.instance.plane())),
            );
            live.len()
        };
        if let Some(recorder) = &self.hooks.recorder {
            let round = self.super_round;
            let ts = self.hooks.epoch.elapsed().as_nanos() as u64;
            let (queued, occupied) = (self.queue.len() as u64, live_count as u64);
            recorder.count(DRIVER_LANE, Counter::QueueDepth, round, ts, queued);
            recorder.count(DRIVER_LANE, Counter::Occupancy, round, ts, occupied);
        }
        if live_count == 0 {
            return 0;
        }
        self.executor.run_indexed(live_count, &self.step);
        self.live.write().expect("live list poisoned").clear();
        // Barrier: merge every live slot in ascending slot order, each
        // into its own context and ledger.
        let mut retired = 0usize;
        for slot in 0..self.slots.len() {
            let Some(occupant) = self.slots[slot].as_mut() else {
                continue;
            };
            if let Some(verdict) = occupant.instance.merge() {
                let occupant = self.slots[slot].take().expect("merged an idle slot");
                self.finished.push(ServiceOutcome {
                    id: occupant.id,
                    result: occupant.instance.finish(verdict, &mut self.spares[slot]),
                    admitted_super_round: occupant.admitted_super_round,
                    finished_super_round: self.super_round,
                });
                retired += 1;
            }
        }
        self.super_round += 1;
        retired
    }

    /// Steps until nothing is queued or in flight, then returns every
    /// buffered outcome in retirement order.
    pub fn run_until_idle(&mut self) -> Vec<ServiceOutcome<O>> {
        while !self.is_idle() {
            self.step();
        }
        self.finished.drain(..).collect()
    }

    /// Drains the outcomes of every instance retired since the last
    /// drain, in retirement order (ties broken by slot order).
    pub fn drain_finished(&mut self) -> std::vec::Drain<'_, ServiceOutcome<O>> {
        self.finished.drain(..)
    }

    /// Admits the queue's front request into the lowest idle slot.
    /// Returns false (leaving the queue untouched) when every slot is
    /// occupied. A request no round can run for completes at once,
    /// without occupying the slot.
    fn admit_next(&mut self) -> bool {
        let Some(slot) = self.slots.iter().position(Option::is_none) else {
            return false;
        };
        let (id, request) = self.queue.pop_front().expect("checked non-empty");
        let started = Instance::start(
            request.model,
            request.programs,
            request.config,
            1,
            slot.min(WORKER_LANES - 1),
            &mut self.spares[slot],
            &self.hooks,
        );
        match started {
            Started::Running(instance) => {
                self.slots[slot] = Some(Occupant {
                    id,
                    admitted_super_round: self.super_round,
                    instance,
                });
            }
            Started::Finished(outcome) => self.finished.push(ServiceOutcome {
                id,
                result: Ok(outcome),
                admitted_super_round: self.super_round,
                finished_super_round: self.super_round,
            }),
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::env::NodeEnv;
    use crate::program::NodeStatus;
    use cc_sim::ViolationPolicy;
    use cc_trace::Phase;

    /// Each node sends its id times a counter to both ring neighbors for
    /// a fixed number of rounds (the engine tests' Chatter, re-declared
    /// here to keep the modules independent).
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
    }

    fn chatter_programs(n: usize, until: u64) -> Vec<Box<dyn NodeProgram<Output = u64>>> {
        (0..n)
            .map(|i| {
                Box::new(Chatter {
                    left: ((i + n - 1) % n) as u32,
                    right: ((i + 1) % n) as u32,
                    until,
                    checksum: 0,
                }) as _
            })
            .collect()
    }

    fn request(n: usize, until: u64) -> ServiceRequest<u64> {
        ServiceRequest::new(
            ExecutionModel::congested_clique(n),
            chatter_programs(n, until),
        )
    }

    fn solo(n: usize, until: u64) -> EngineOutcome<u64> {
        Engine::default()
            .run(
                ExecutionModel::congested_clique(n),
                chatter_programs(n, until),
            )
            .unwrap()
    }

    #[test]
    fn a_batch_of_heterogeneous_instances_matches_solo_runs() {
        let mut service = ColoringService::new(ServiceConfig::with_slots(3));
        let specs = [(7usize, 4u64), (19, 6), (11, 3), (30, 9), (7, 4)];
        for &(n, until) in &specs {
            service.submit(request(n, until));
        }
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes.len(), specs.len());
        for outcome in outcomes {
            let (n, until) = specs[outcome.id as usize];
            let reference = solo(n, until);
            let got = outcome.result.expect("lenient batch run errored");
            assert_eq!(got.outputs, reference.outputs, "request {n}/{until}");
            assert_eq!(got.ledger, reference.ledger, "request {n}/{until}");
            assert_eq!(got.report, reference.report, "request {n}/{until}");
            assert_eq!(got.rounds, reference.rounds);
            assert!(got.all_halted);
            // Each instance times its own phases, as a solo run does.
            let t = got.timings;
            assert!(
                t.route_ns + t.step_ns + t.check_ns > 0,
                "request {n}/{until}"
            );
        }
    }

    #[test]
    fn retirement_frees_slots_for_queued_requests_mid_stream() {
        let mut service = ColoringService::new(ServiceConfig::with_slots(3));
        // Two long instances plus one short one fill the slots; the last
        // short one waits for the first retirement.
        service.submit(request(10, 12));
        service.submit(request(12, 12));
        service.submit(request(6, 2));
        service.submit(request(8, 2));
        service.step();
        assert_eq!(service.occupancy(), 3);
        assert_eq!(service.queue_depth(), 1);
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes.len(), 4);
        // The waiting instance was admitted into the slot the first short
        // one freed, strictly after the long ones started, and retired
        // without disturbing them.
        let by_id = |id: u64| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(by_id(3).admitted_super_round > by_id(0).admitted_super_round);
        assert!(by_id(3).finished_super_round < by_id(0).finished_super_round);
        for outcome in &outcomes {
            assert!(outcome.result.is_ok());
        }
        // The long instances bound the schedule: 13 local rounds each.
        assert_eq!(service.super_rounds(), 13);
    }

    #[test]
    fn service_thread_count_is_unobservable() {
        let specs = [(9usize, 5u64), (17, 7), (25, 4), (5, 9), (13, 6)];
        let reference: Vec<Vec<u64>> = {
            let mut service = ColoringService::new(ServiceConfig::with_slots(4));
            for &(n, until) in &specs {
                service.submit(request(n, until));
            }
            let mut outcomes = service.run_until_idle();
            outcomes.sort_by_key(|o| o.id);
            outcomes
                .into_iter()
                .map(|o| o.result.unwrap().outputs)
                .collect()
        };
        for threads in [2usize, 4] {
            let mut service = ColoringService::new(ServiceConfig { slots: 4, threads });
            for &(n, until) in &specs {
                service.submit(request(n, until));
            }
            let mut outcomes = service.run_until_idle();
            outcomes.sort_by_key(|o| o.id);
            for (outcome, expected) in outcomes.into_iter().zip(&reference) {
                assert_eq!(
                    &outcome.result.unwrap().outputs,
                    expected,
                    "threads {threads}"
                );
            }
        }
    }

    /// A program that sends one absurdly wide word in round 0.
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

    #[test]
    fn strict_violations_retire_only_the_offending_instance() {
        let mut service = ColoringService::new(ServiceConfig::with_slots(3));
        let strict = EngineConfig {
            policy: ViolationPolicy::FailFast,
            ..EngineConfig::default()
        };
        service.submit(request(10, 5));
        let bad_programs: Vec<Box<dyn NodeProgram<Output = u64>>> = vec![
            Box::new(Chatter {
                left: 1,
                right: 1,
                until: 0,
                checksum: 0,
            }),
            Box::new(Chatter {
                left: 0,
                right: 0,
                until: 0,
                checksum: 0,
            }),
        ];
        // Reuse Chatter for the healthy instance; the wide sender needs
        // its own service because outputs are homogeneous per service.
        drop(bad_programs);
        let mut wide_service = ColoringService::new(ServiceConfig::with_slots(2));
        let wide: Vec<Box<dyn NodeProgram<Output = ()>>> =
            vec![Box::new(WideSender), Box::new(WideSender)];
        let ok: Vec<Box<dyn NodeProgram<Output = ()>>> =
            vec![Box::new(WideSender), Box::new(WideSender)];
        let bad_id = wide_service.submit(
            ServiceRequest::new(ExecutionModel::congested_clique(2), wide)
                .with_config(strict.clone()),
        );
        let ok_id =
            wide_service.submit(ServiceRequest::new(ExecutionModel::congested_clique(2), ok));
        let outcomes = wide_service.run_until_idle();
        let strict_outcome = outcomes.iter().find(|o| o.id == bad_id).unwrap();
        assert!(matches!(
            strict_outcome.result,
            Err(SimError::ConstraintViolated(_))
        ));
        let lenient_outcome = outcomes.iter().find(|o| o.id == ok_id).unwrap();
        let lenient = lenient_outcome.result.as_ref().unwrap();
        assert!(!lenient.report.within_limits());
        assert_eq!(lenient.report.violations.len(), 1);

        let healthy = service.run_until_idle();
        assert_eq!(healthy.len(), 1);
        assert!(healthy[0].result.is_ok());
    }

    #[test]
    fn degenerate_requests_complete_without_occupying_slots() {
        let mut service: ColoringService<u64> = ColoringService::new(ServiceConfig::with_slots(1));
        let empty = service.submit(ServiceRequest::new(
            ExecutionModel::congested_clique(1),
            Vec::new(),
        ));
        let capped = service.submit(request(5, 9).with_config(EngineConfig {
            max_rounds: 0,
            ..EngineConfig::default()
        }));
        service.step();
        assert!(service.is_idle());
        let outcomes: Vec<_> = service.drain_finished().collect();
        assert_eq!(outcomes.len(), 2);
        let empty_outcome = outcomes.iter().find(|o| o.id == empty).unwrap();
        let empty_result = empty_outcome.result.as_ref().unwrap();
        assert!(empty_result.all_halted);
        assert_eq!(empty_result.rounds, 0);
        let capped_outcome = outcomes.iter().find(|o| o.id == capped).unwrap();
        let capped_result = capped_outcome.result.as_ref().unwrap();
        assert!(!capped_result.all_halted);
        assert_eq!(capped_result.outputs.len(), 5);
    }

    #[test]
    fn queue_and_occupancy_gauges_land_on_the_driver_lane() {
        use cc_trace::{RingRecorder, TraceEvent};
        let rec = Arc::new(RingRecorder::default());
        let mut service =
            ColoringService::new(ServiceConfig::with_slots(1)).with_recorder(Arc::clone(&rec));
        service.submit(request(6, 3));
        service.submit(request(6, 3));
        service.step();
        let events = rec.events();
        let driver_lane = u16::try_from(DRIVER_LANE).unwrap();
        let gauge = |counter: Counter| {
            events.iter().find_map(|e| match *e {
                TraceEvent::Count {
                    lane,
                    counter: c,
                    value,
                    ..
                } if lane == driver_lane && c == counter => Some(value),
                _ => None,
            })
        };
        // One request admitted to the single slot, one still queued.
        assert_eq!(gauge(Counter::QueueDepth), Some(1));
        assert_eq!(gauge(Counter::Occupancy), Some(1));
        // Per-slot step spans land on the slot's lane.
        assert!(events.iter().any(|e| matches!(
            *e,
            TraceEvent::Span {
                lane: 0,
                phase: Phase::Step,
                ..
            }
        )));
        service.run_until_idle();
    }
}
