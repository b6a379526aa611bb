//! The execution context algorithms run against.
//!
//! A [`ClusterContext`] owns the round, communication, and space ledgers for
//! one algorithm execution under one [`ExecutionModel`]. Algorithms call its
//! methods (directly or through [`crate::primitives`]) for every operation
//! that would cost communication in the real model; purely local computation
//! is free, as in the model.

use std::collections::BTreeMap;
use std::sync::Arc;
// Wall clock for trace timestamps only: recorded data is diagnostics, never
// part of any report or result.
use std::time::Instant;

use cc_trace::{Counter, HistKind, RingRecorder, CONTEXT_LANE};

use crate::error::{SimError, Violation, ViolationKind};
use crate::model::ExecutionModel;
use crate::report::ExecutionReport;

/// An attached trace sink: the shared recorder plus the instant charges
/// are timestamped against (fixed at attach time, so a centralized run and
/// an engine capture can share one time axis only if they share one
/// recorder attached at the same origin).
#[derive(Debug, Clone)]
struct TraceProbe {
    recorder: Arc<RingRecorder>,
    epoch: Instant,
}

impl TraceProbe {
    fn ts_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// What a context does when a model constraint is violated.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ViolationPolicy {
    /// Record the violation in the report and continue — the experiment
    /// mode, so one overflow is visible without aborting a sweep.
    #[default]
    Record,
    /// Return the first violation as an error from the offending
    /// operation — the test mode (previously "strict").
    FailFast,
}

/// The most violations a context stores verbatim. Beyond the cap, further
/// violations only bump [`ClusterContext::dropped_violations`] — a chaos
/// run at a high fault rate must not grow the report without bound.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// Round/space/communication accounting context for one simulated execution.
#[derive(Debug, Clone)]
pub struct ClusterContext {
    model: ExecutionModel,
    policy: ViolationPolicy,
    dropped_violations: u64,
    rounds: u64,
    rounds_by_label: BTreeMap<String, u64>,
    total_comm_words: u64,
    peak_local_words: usize,
    peak_total_words: usize,
    violations: Vec<Violation>,
    /// Optional trace sink; every charge path mirrors its quantity onto
    /// the context lane when attached. `None` costs one branch per charge.
    probe: Option<TraceProbe>,
}

impl ClusterContext {
    /// Creates a lenient context: constraint violations are recorded in the
    /// report but execution continues. This is the mode experiments use, so
    /// a single overflow is visible without aborting a parameter sweep.
    pub fn new(model: ExecutionModel) -> Self {
        ClusterContext {
            model,
            policy: ViolationPolicy::Record,
            dropped_violations: 0,
            rounds: 0,
            rounds_by_label: BTreeMap::new(),
            total_comm_words: 0,
            peak_local_words: 0,
            peak_total_words: 0,
            violations: Vec::new(),
            probe: None,
        }
    }

    /// Creates a context with an explicit [`ViolationPolicy`].
    pub fn with_policy(model: ExecutionModel, policy: ViolationPolicy) -> Self {
        ClusterContext {
            policy,
            ..ClusterContext::new(model)
        }
    }

    /// The execution model being simulated.
    pub fn model(&self) -> &ExecutionModel {
        &self.model
    }

    /// The context's violation policy.
    pub fn policy(&self) -> ViolationPolicy {
        self.policy
    }

    /// Total rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total words of communication charged so far.
    pub fn communication_words(&self) -> u64 {
        self.total_comm_words
    }

    /// Peak words observed on any single machine.
    pub fn peak_local_words(&self) -> usize {
        self.peak_local_words
    }

    /// Peak total words observed across all machines.
    pub fn peak_total_words(&self) -> usize {
        self.peak_total_words
    }

    /// Violations recorded so far (always empty in strict mode unless the
    /// caller ignored errors). At most [`MAX_RECORDED_VIOLATIONS`] are
    /// stored; the overflow is counted by
    /// [`ClusterContext::dropped_violations`].
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations observed beyond the [`MAX_RECORDED_VIOLATIONS`] cap —
    /// counted, not stored.
    pub fn dropped_violations(&self) -> u64 {
        self.dropped_violations
    }

    /// Attaches a trace recorder: from now on every round, communication,
    /// and bandwidth charge is mirrored onto the trace plane's context
    /// lane, timestamped from this call. Charges themselves are unchanged —
    /// recording is observable only through the recorder.
    pub fn attach_recorder(&mut self, recorder: Arc<RingRecorder>) {
        self.probe = Some(TraceProbe {
            recorder,
            epoch: Instant::now(),
        });
    }

    /// The attached trace recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<RingRecorder>> {
        self.probe.as_ref().map(|p| &p.recorder)
    }

    /// Charges `rounds` communication rounds under the given phase label.
    pub fn charge_rounds(&mut self, label: &str, rounds: u64) {
        self.rounds += rounds;
        if let Some(probe) = &self.probe {
            probe.recorder.count(
                CONTEXT_LANE,
                Counter::Rounds,
                self.rounds,
                probe.ts_ns(),
                rounds,
            );
        }
        // Look up before inserting: `entry` would clone the label into a
        // fresh String on every call, which the engine's zero-allocation-
        // per-round guarantee cannot afford on its once-per-round charge.
        if let Some(total) = self.rounds_by_label.get_mut(label) {
            *total += rounds;
        } else {
            self.rounds_by_label.insert(label.to_string(), rounds);
        }
    }

    /// Charges `words` of total communication volume (no rounds).
    pub fn charge_communication(&mut self, words: u64) {
        self.total_comm_words += words;
        if let Some(probe) = &self.probe {
            probe.recorder.count(
                CONTEXT_LANE,
                Counter::Words,
                self.rounds,
                probe.ts_ns(),
                words,
            );
        }
    }

    /// Records that some single machine holds `words` words, checking the
    /// local space limit.
    ///
    /// # Errors
    ///
    /// In strict mode, returns [`SimError::ConstraintViolated`] if the limit
    /// is exceeded.
    pub fn observe_local_space(&mut self, label: &str, words: usize) -> Result<(), SimError> {
        self.peak_local_words = self.peak_local_words.max(words);
        if words > self.model.local_space_words {
            return self.record(Violation {
                label: label.to_string(),
                kind: ViolationKind::LocalSpaceExceeded {
                    words,
                    limit: self.model.local_space_words,
                },
            });
        }
        Ok(())
    }

    /// Records that all machines together hold `words` words, checking the
    /// total space limit.
    ///
    /// # Errors
    ///
    /// In strict mode, returns [`SimError::ConstraintViolated`] if the limit
    /// is exceeded.
    pub fn observe_total_space(&mut self, label: &str, words: usize) -> Result<(), SimError> {
        self.peak_total_words = self.peak_total_words.max(words);
        if words > self.model.total_space_words {
            return self.record(Violation {
                label: label.to_string(),
                kind: ViolationKind::TotalSpaceExceeded {
                    words,
                    limit: self.model.total_space_words,
                },
            });
        }
        Ok(())
    }

    /// Records that some machine sends (or receives) `words` words within a
    /// single routing round, checking the bandwidth limit.
    ///
    /// # Errors
    ///
    /// In strict mode, returns [`SimError::ConstraintViolated`] if the limit
    /// is exceeded.
    pub fn observe_bandwidth(&mut self, label: &str, words: usize) -> Result<(), SimError> {
        self.total_comm_words += words as u64;
        if let Some(probe) = &self.probe {
            probe.recorder.count(
                CONTEXT_LANE,
                Counter::Words,
                self.rounds,
                probe.ts_ns(),
                words as u64,
            );
            probe
                .recorder
                .observe(CONTEXT_LANE, HistKind::Words, words as u64);
        }
        if words > self.model.per_round_bandwidth_words {
            return self.record(Violation {
                label: label.to_string(),
                kind: ViolationKind::BandwidthExceeded {
                    words,
                    limit: self.model.per_round_bandwidth_words,
                },
            });
        }
        Ok(())
    }

    /// Records a constraint violation observed by an external execution
    /// backend (e.g. the `cc-runtime` message-passing engine, which checks
    /// message widths and per-node bandwidth at delivery time and reports
    /// through this context's ledger).
    ///
    /// # Errors
    ///
    /// In strict mode, returns [`SimError::ConstraintViolated`] carrying the
    /// violation instead of recording it.
    pub fn record_violation(&mut self, violation: Violation) -> Result<(), SimError> {
        self.record(violation)
    }

    /// Creates a child context with the same model and strictness but fresh
    /// ledgers, for work that runs *in parallel* with other children (e.g.
    /// the recursive coloring of sibling bins). Combine the children back
    /// with [`ClusterContext::join_parallel`].
    #[must_use = "fork returns a child context without altering the parent; join it back with join_parallel"]
    pub fn fork(&self) -> ClusterContext {
        ClusterContext {
            model: self.model.clone(),
            policy: self.policy,
            // Children share the parent's recorder (and epoch), so a
            // forked phase keeps tracing onto the same time axis.
            probe: self.probe.clone(),
            ..ClusterContext::new(self.model.clone())
        }
    }

    /// Merges ledgers of children that executed concurrently:
    ///
    /// * rounds advance by the **maximum** child round count (parallel
    ///   branches share rounds) and the per-label breakdown of that slowest
    ///   branch is folded in;
    /// * communication volume adds up across children;
    /// * peak local space is the maximum over children;
    /// * peak total space treats the children as live simultaneously (their
    ///   peak totals add up);
    /// * violations are concatenated.
    pub fn join_parallel(&mut self, children: Vec<ClusterContext>) {
        if children.is_empty() {
            return;
        }
        let slowest = children
            .iter()
            .enumerate()
            .max_by_key(|(i, c)| (c.rounds, usize::MAX - i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.rounds += children[slowest].rounds;
        for (label, rounds) in &children[slowest].rounds_by_label {
            *self.rounds_by_label.entry(label.clone()).or_insert(0) += rounds;
        }
        let concurrent_total: usize = children.iter().map(|c| c.peak_total_words).sum();
        self.peak_total_words = self.peak_total_words.max(concurrent_total);
        for child in children {
            self.total_comm_words += child.total_comm_words;
            self.peak_local_words = self.peak_local_words.max(child.peak_local_words);
            self.dropped_violations += child.dropped_violations;
            for violation in child.violations {
                if self.violations.len() < MAX_RECORDED_VIOLATIONS {
                    self.violations.push(violation);
                } else {
                    self.dropped_violations += 1;
                }
            }
        }
    }

    /// Produces the final report for this execution.
    pub fn report(&self) -> ExecutionReport {
        ExecutionReport {
            model_label: self.model.label(),
            machines: self.model.machines,
            rounds: self.rounds,
            rounds_by_label: self.rounds_by_label.clone(),
            communication_words: self.total_comm_words,
            peak_local_words: self.peak_local_words,
            peak_total_words: self.peak_total_words,
            local_space_limit: self.model.local_space_words,
            total_space_limit: self.model.total_space_words,
            violations: self.violations.clone(),
            dropped_violations: self.dropped_violations,
        }
    }

    fn record(&mut self, violation: Violation) -> Result<(), SimError> {
        if self.policy == ViolationPolicy::FailFast {
            Err(SimError::ConstraintViolated(violation))
        } else if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(violation);
            Ok(())
        } else {
            self.dropped_violations += 1;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> ExecutionModel {
        ExecutionModel::congested_clique(10)
    }

    #[test]
    fn rounds_accumulate_by_label() {
        let mut ctx = ClusterContext::new(small_model());
        ctx.charge_rounds("partition", 3);
        ctx.charge_rounds("partition", 2);
        ctx.charge_rounds("collect", 1);
        assert_eq!(ctx.rounds(), 6);
        let report = ctx.report();
        assert_eq!(report.rounds_by_label["partition"], 5);
        assert_eq!(report.rounds_by_label["collect"], 1);
    }

    #[test]
    fn lenient_mode_records_violations() {
        let mut ctx = ClusterContext::new(small_model());
        let limit = ctx.model().local_space_words;
        ctx.observe_local_space("x", limit + 1).unwrap();
        assert_eq!(ctx.violations().len(), 1);
        assert_eq!(ctx.peak_local_words(), limit + 1);
    }

    #[test]
    fn strict_mode_errors_on_violation() {
        let mut ctx = ClusterContext::with_policy(small_model(), ViolationPolicy::FailFast);
        assert_eq!(ctx.policy(), ViolationPolicy::FailFast);
        let limit = ctx.model().local_space_words;
        assert!(ctx.observe_local_space("x", limit).is_ok());
        let err = ctx.observe_local_space("x", limit + 1).unwrap_err();
        assert!(matches!(err, SimError::ConstraintViolated(_)));
    }

    #[test]
    fn total_space_and_bandwidth_checks() {
        let mut ctx = ClusterContext::with_policy(small_model(), ViolationPolicy::FailFast);
        let total = ctx.model().total_space_words;
        assert!(ctx.observe_total_space("t", total).is_ok());
        assert!(ctx.observe_total_space("t", total + 1).is_err());
        let bw = ctx.model().per_round_bandwidth_words;
        assert!(ctx.observe_bandwidth("b", bw).is_ok());
        assert!(ctx.observe_bandwidth("b", bw + 1).is_err());
        // Bandwidth observations count toward communication volume.
        assert_eq!(ctx.communication_words(), (bw + bw + 1) as u64);
    }

    #[test]
    fn fork_and_join_parallel_take_max_rounds_and_sum_space() {
        let mut parent = ClusterContext::new(small_model());
        parent.charge_rounds("setup", 1);
        let mut fast = parent.fork();
        fast.charge_rounds("child", 2);
        fast.observe_total_space("child", 30).unwrap();
        fast.charge_communication(5);
        let mut slow = parent.fork();
        slow.charge_rounds("child", 7);
        slow.observe_local_space("child", 12).unwrap();
        slow.observe_total_space("child", 40).unwrap();
        slow.charge_communication(9);
        parent.join_parallel(vec![fast, slow]);
        // 1 (setup) + max(2, 7) rounds.
        assert_eq!(parent.rounds(), 8);
        assert_eq!(parent.report().rounds_by_label["child"], 7);
        // Communication adds up; space peaks combine as documented.
        assert_eq!(parent.communication_words(), 14);
        assert_eq!(parent.peak_local_words(), 12);
        assert_eq!(parent.peak_total_words(), 70);
        // Joining nothing is a no-op.
        parent.join_parallel(vec![]);
        assert_eq!(parent.rounds(), 8);
    }

    #[test]
    fn fork_inherits_strictness_with_fresh_ledgers() {
        let mut parent = ClusterContext::with_policy(small_model(), ViolationPolicy::FailFast);
        parent.charge_rounds("x", 5);
        let child = parent.fork();
        assert_eq!(child.policy(), ViolationPolicy::FailFast);
        assert_eq!(child.rounds(), 0);
    }

    #[test]
    fn attached_recorder_mirrors_charges_without_changing_them() {
        use cc_trace::TraceEvent;
        let shared = Arc::new(RingRecorder::with_capacity(64));
        let mut plain = ClusterContext::new(small_model());
        let mut traced = ClusterContext::new(small_model());
        traced.attach_recorder(Arc::clone(&shared));
        assert!(traced.recorder().is_some());
        for ctx in [&mut plain, &mut traced] {
            ctx.charge_rounds("phase", 2);
            ctx.charge_communication(40);
            ctx.observe_bandwidth("b", 7).unwrap();
        }
        // The accounting read-out is identical with and without a recorder.
        assert_eq!(plain.report(), traced.report());
        // ... and the recorder saw each charge path, on the context lane.
        let events = shared.events();
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| usize::from(e.lane()) == cc_trace::CONTEXT_LANE));
        assert!(matches!(
            events[0],
            TraceEvent::Count {
                counter: Counter::Rounds,
                value: 2,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::Count {
                counter: Counter::Words,
                value: 40,
                ..
            }
        ));
        assert_eq!(shared.histogram(HistKind::Words).total(), 1);
        // Forked children keep recording into the same rings.
        let mut child = traced.fork();
        child.charge_rounds("child", 1);
        assert_eq!(shared.events().len(), 4);
    }

    #[test]
    fn record_policy_stores_and_continues() {
        let mut ctx = ClusterContext::with_policy(small_model(), ViolationPolicy::Record);
        assert_eq!(ctx.policy(), ViolationPolicy::Record);
        let limit = ctx.model().local_space_words;
        ctx.observe_local_space("x", limit + 1).unwrap();
        assert_eq!(ctx.violations().len(), 1);
        assert_eq!(ctx.dropped_violations(), 0);
    }

    #[test]
    fn fail_fast_policy_errors_immediately() {
        let mut ctx = ClusterContext::with_policy(small_model(), ViolationPolicy::FailFast);
        assert_eq!(ctx.policy(), ViolationPolicy::FailFast);
        let limit = ctx.model().local_space_words;
        let err = ctx.observe_local_space("x", limit + 1).unwrap_err();
        assert!(matches!(err, SimError::ConstraintViolated(_)));
        assert!(ctx.violations().is_empty());
    }

    #[test]
    fn violations_beyond_the_cap_are_counted_not_stored() {
        let mut ctx = ClusterContext::new(small_model());
        let limit = ctx.model().local_space_words;
        for _ in 0..(MAX_RECORDED_VIOLATIONS + 10) {
            ctx.observe_local_space("x", limit + 1).unwrap();
        }
        assert_eq!(ctx.violations().len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(ctx.dropped_violations(), 10);
        let report = ctx.report();
        assert_eq!(report.dropped_violations, 10);
        assert!(!report.within_limits());

        // join_parallel respects the cap and carries the counters over.
        let mut child = ctx.fork();
        child.observe_local_space("c", limit + 1).unwrap();
        ctx.join_parallel(vec![child]);
        assert_eq!(ctx.violations().len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(ctx.dropped_violations(), 11);
    }

    #[test]
    fn report_reflects_peaks_and_limits() {
        let mut ctx = ClusterContext::new(small_model());
        ctx.observe_local_space("a", 5).unwrap();
        ctx.observe_local_space("a", 3).unwrap();
        ctx.observe_total_space("a", 70).unwrap();
        ctx.charge_communication(11);
        let r = ctx.report();
        assert_eq!(r.peak_local_words, 5);
        assert_eq!(r.peak_total_words, 70);
        assert_eq!(r.communication_words, 11);
        assert_eq!(r.local_space_limit, ctx.model().local_space_words);
        assert!(r.violations.is_empty());
    }
}
