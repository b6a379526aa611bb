//! [`TraceSummary`]: a per-round aggregation of a recorded run, cheap to
//! build from the recorder after the run and render as a text table.
//!
//! The summary is built *after* a run, by folding the surviving ring
//! events round by round: span durations sum into per-phase nanosecond
//! totals (across lanes, so a 4-worker round contributes 4 lanes' worth
//! of route time), counters sum into per-round quantities, and the
//! accumulated histograms come along verbatim. If rings wrapped, the
//! oldest rounds are partial — [`TraceSummary::dropped`] says how many
//! events were lost so a truncated summary is never mistaken for a
//! complete one.

use std::collections::BTreeMap;

use crate::event::{Counter, HistKind, Phase, TraceEvent};
use crate::hist::Histogram;
use crate::ring::RingRecorder;

/// Aggregated telemetry for one engine round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTrace {
    /// The engine round.
    pub round: u32,
    /// Route-phase nanoseconds, summed over lanes.
    pub route_ns: u64,
    /// Step-phase nanoseconds, summed over lanes.
    pub step_ns: u64,
    /// Check-phase (barrier merge) nanoseconds.
    pub check_ns: u64,
    /// Nanoseconds lanes sat finished waiting on the round barrier.
    pub barrier_wait_ns: u64,
    /// Messages routed this round.
    pub messages: u64,
    /// Column words moved this round.
    pub words: u64,
    /// Width-mask rescans taken this round.
    pub rescans: u64,
    /// Chunk load imbalance this round, in permille (1000 = even).
    pub imbalance_permille: u64,
    /// Counting-sort count passes skipped this round (one per non-empty
    /// chunk seal — the send-time shard made them free).
    pub count_skips: u64,
    /// Message faults injected this round (committed attempt only).
    pub faults: u64,
    /// Damaged-round retries the driver executed this round.
    pub retries: u64,
    /// `u64` words of node-program state checkpointed this round.
    pub checkpoint_words: u64,
    /// Nodes crash-stopped as of this round (cumulative; one driver
    /// emission per round, kept as a value rather than summed).
    pub crashed_nodes: u64,
    /// Requests waiting in the service queue this super-round (gauge;
    /// zero outside service-mode runs).
    pub queue_depth: u64,
    /// Instance slots occupied this super-round (gauge; zero outside
    /// service-mode runs).
    pub occupancy: u64,
}

impl RoundTrace {
    fn add_span(&mut self, phase: Phase, start_ns: u64, end_ns: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        match phase {
            Phase::Route => self.route_ns += dur,
            Phase::Step => self.step_ns += dur,
            Phase::Check => self.check_ns += dur,
            Phase::BarrierWait => self.barrier_wait_ns += dur,
        }
    }

    fn add_count(&mut self, counter: Counter, value: u64) {
        match counter {
            Counter::Messages => self.messages += value,
            Counter::Words => self.words += value,
            Counter::Rescans => self.rescans += value,
            // Rounds-charged is a context-side bookkeeping counter; the
            // row's existence already says the round happened.
            Counter::Rounds => {}
            // One driver emission per round; keep the value, not a sum.
            Counter::ImbalancePermille => self.imbalance_permille = value,
            Counter::CountSkips => self.count_skips += value,
            Counter::FaultsInjected => self.faults += value,
            Counter::RoundRetries => self.retries += value,
            Counter::CheckpointWords => self.checkpoint_words += value,
            // Cumulative driver emission; keep the latest value.
            Counter::CrashedNodes => self.crashed_nodes = value,
            // Service-mode gauges: one driver emission per super-round.
            Counter::QueueDepth => self.queue_depth = value,
            Counter::Occupancy => self.occupancy = value,
        }
    }
}

/// The per-round aggregation of everything a [`RingRecorder`] captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// One entry per round that recorded anything, in round order.
    pub rounds: Vec<RoundTrace>,
    /// The accumulated histograms, one per [`HistKind`], in display
    /// order; empty ones are retained so consumers can index by kind.
    pub histograms: Vec<(HistKind, Histogram)>,
    /// Events recorded over the run (including overwritten ones).
    pub events: u64,
    /// Events lost to ring wrap-around; non-zero means the oldest
    /// rounds' rows are partial.
    pub dropped: u64,
}

impl TraceSummary {
    /// Folds a recorder's surviving events and histograms into per-round
    /// rows ([`RingRecorder::summary`]). Allocates freely — call after the
    /// run.
    pub(crate) fn from_recorder(recorder: &RingRecorder) -> Self {
        let mut rounds: BTreeMap<u32, RoundTrace> = BTreeMap::new();
        for event in recorder.events() {
            let row = rounds.entry(event.round()).or_default();
            row.round = event.round();
            match event {
                TraceEvent::Span {
                    phase,
                    start_ns,
                    end_ns,
                    ..
                } => row.add_span(phase, start_ns, end_ns),
                TraceEvent::Count { counter, value, .. } => row.add_count(counter, value),
            }
        }
        TraceSummary {
            rounds: rounds.into_values().collect(),
            histograms: HistKind::ALL
                .iter()
                .map(|&kind| (kind, recorder.histogram(kind)))
                .collect(),
            events: recorder.recorded_events(),
            dropped: recorder.dropped_events(),
        }
    }

    /// The histogram of `kind` (always present; possibly empty).
    #[must_use]
    pub fn histogram(&self, kind: HistKind) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| h)
    }

    /// Totals across all rounds: (messages, words, rescans).
    #[must_use]
    pub fn totals(&self) -> (u64, u64, u64) {
        self.rounds.iter().fold((0, 0, 0), |(m, w, r), row| {
            (m + row.messages, w + row.words, r + row.rescans)
        })
    }

    /// Renders the per-round table plus the histograms, for terminals.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "  round | route(us) |  step(us) | check(us) | barrier(us) |     msgs |    words | rescans | skips | imb(permille)\n",
        );
        out.push_str(
            "  ------+-----------+-----------+-----------+-------------+----------+----------+---------+-------+--------------\n",
        );
        for row in &self.rounds {
            out.push_str(&format!(
                "  {:>5} | {:>9.1} | {:>9.1} | {:>9.1} | {:>11.1} | {:>8} | {:>8} | {:>7} | {:>5} | {:>13}\n",
                row.round,
                row.route_ns as f64 / 1e3,
                row.step_ns as f64 / 1e3,
                row.check_ns as f64 / 1e3,
                row.barrier_wait_ns as f64 / 1e3,
                row.messages,
                row.words,
                row.rescans,
                row.count_skips,
                row.imbalance_permille,
            ));
        }
        let (messages, words, rescans) = self.totals();
        out.push_str(&format!(
            "  totals: {} rounds, {messages} messages, {words} words, {rescans} rescans, {} events ({} dropped)\n",
            self.rounds.len(),
            self.events,
            self.dropped,
        ));
        let (faults, retries, checkpoint_words) =
            self.rounds.iter().fold((0u64, 0u64, 0u64), |acc, row| {
                (
                    acc.0 + row.faults,
                    acc.1 + row.retries,
                    acc.2 + row.checkpoint_words,
                )
            });
        let crashed = self
            .rounds
            .iter()
            .map(|r| r.crashed_nodes)
            .max()
            .unwrap_or(0);
        if faults + retries + checkpoint_words + crashed > 0 {
            out.push_str(&format!(
                "  faults: {faults} injected, {retries} round retries, \
                 {checkpoint_words} checkpoint words, {crashed} crashed node(s)\n",
            ));
        }
        for (kind, hist) in &self.histograms {
            if !hist.is_empty() {
                out.push_str(&format!("  hist {:<32} {}\n", kind.name(), hist.render()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{RingRecorder, DRIVER_LANE};

    fn recorded() -> RingRecorder {
        let rec = RingRecorder::with_capacity(64);
        for round in 0..3u64 {
            for lane in 0..2 {
                rec.span(lane, Phase::Step, round, 100 * round, 100 * round + 40);
                rec.span(
                    lane,
                    Phase::Route,
                    round,
                    100 * round + 40,
                    100 * round + 60,
                );
                rec.span(
                    lane,
                    Phase::BarrierWait,
                    round,
                    100 * round + 60,
                    100 * round + 70,
                );
                rec.count(lane, Counter::Messages, round, 100 * round + 60, 10 + round);
                rec.count(lane, Counter::CountSkips, round, 100 * round + 60, 1);
            }
            rec.span(
                DRIVER_LANE,
                Phase::Check,
                round,
                100 * round + 70,
                100 * round + 90,
            );
            rec.count(
                DRIVER_LANE,
                Counter::ImbalancePermille,
                round,
                100 * round + 90,
                1200,
            );
            rec.observe(0, HistKind::InboxLen, 5);
        }
        rec
    }

    #[test]
    fn rounds_aggregate_spans_and_counters() {
        let summary = TraceSummary::from_recorder(&recorded());
        assert_eq!(summary.rounds.len(), 3);
        let r1 = summary.rounds[1];
        assert_eq!(r1.round, 1);
        assert_eq!(r1.step_ns, 80); // two lanes x 40ns
        assert_eq!(r1.route_ns, 40);
        assert_eq!(r1.barrier_wait_ns, 20);
        assert_eq!(r1.check_ns, 20);
        assert_eq!(r1.messages, 22);
        assert_eq!(r1.count_skips, 2); // one per lane
        assert_eq!(r1.imbalance_permille, 1200);
        assert_eq!(summary.totals().0, 20 + 22 + 24);
        assert_eq!(summary.dropped, 0);
        let inbox = summary.histogram(HistKind::InboxLen).unwrap();
        assert_eq!(inbox.total(), 3);
    }

    #[test]
    fn render_mentions_every_round_and_nonempty_histogram() {
        let summary = TraceSummary::from_recorder(&recorded());
        let text = summary.render();
        assert!(text.contains("round | route(us)"));
        assert!(text.contains("totals: 3 rounds"));
        assert!(text.contains("inbox-size/node-round"));
        assert!(
            !text.contains("words-moved/chunk-round"),
            "empty hists stay out:\n{text}"
        );
    }

    #[test]
    fn fault_counters_fold_and_render() {
        let rec = RingRecorder::with_capacity(64);
        rec.count(DRIVER_LANE, Counter::FaultsInjected, 0, 10, 3);
        rec.count(DRIVER_LANE, Counter::RoundRetries, 0, 11, 2);
        rec.count(0, Counter::CheckpointWords, 0, 12, 40);
        rec.count(1, Counter::CheckpointWords, 0, 12, 24);
        rec.count(DRIVER_LANE, Counter::CrashedNodes, 0, 13, 1);
        rec.count(DRIVER_LANE, Counter::CrashedNodes, 1, 14, 2);
        let summary = TraceSummary::from_recorder(&rec);
        assert_eq!(summary.rounds[0].faults, 3);
        assert_eq!(summary.rounds[0].retries, 2);
        assert_eq!(summary.rounds[0].checkpoint_words, 64);
        assert_eq!(summary.rounds[0].crashed_nodes, 1);
        assert_eq!(summary.rounds[1].crashed_nodes, 2);
        let text = summary.render();
        assert!(text.contains("faults: 3 injected, 2 round retries"));
        assert!(text.contains("2 crashed node(s)"));
    }

    #[test]
    fn fault_free_summaries_render_no_fault_line() {
        let summary = TraceSummary::from_recorder(&recorded());
        assert!(!summary.render().contains("injected"));
    }

    #[test]
    fn empty_recorder_summarizes_to_empty() {
        let summary = TraceSummary::from_recorder(&RingRecorder::with_capacity(16));
        assert!(summary.rounds.is_empty());
        assert_eq!(summary.events, 0);
        assert_eq!(summary.histograms.len(), HistKind::ALL.len());
        assert!(summary.render().contains("totals: 0 rounds"));
    }
}
