//! Execution reports: the measured quantities every experiment table is
//! built from.

use std::collections::BTreeMap;

use crate::error::Violation;

/// The read-out of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Label of the execution model (e.g. `congested-clique`).
    pub model_label: String,
    /// Number of machines in the model.
    pub machines: usize,
    /// Total communication rounds charged.
    pub rounds: u64,
    /// Rounds charged per phase label.
    pub rounds_by_label: BTreeMap<String, u64>,
    /// Total words of communication.
    pub communication_words: u64,
    /// Peak words held by any single machine.
    pub peak_local_words: usize,
    /// Peak words held across all machines.
    pub peak_total_words: usize,
    /// The model's local space limit (for context in tables).
    pub local_space_limit: usize,
    /// The model's total space limit.
    pub total_space_limit: usize,
    /// Constraint violations observed (lenient mode only), capped at
    /// [`crate::cluster::MAX_RECORDED_VIOLATIONS`] entries.
    pub violations: Vec<Violation>,
    /// Violations observed beyond the cap — counted, not stored, so a
    /// chaos run at a high fault rate cannot grow the report unboundedly.
    pub dropped_violations: u64,
}

impl ExecutionReport {
    /// Whether the execution stayed within every model constraint —
    /// including violations that were dropped past the storage cap.
    pub fn within_limits(&self) -> bool {
        self.violations.is_empty() && self.dropped_violations == 0
    }

    /// Peak local space as a fraction of the limit.
    pub fn local_space_utilization(&self) -> f64 {
        if self.local_space_limit == 0 {
            0.0
        } else {
            self.peak_local_words as f64 / self.local_space_limit as f64
        }
    }

    /// Rounds charged under labels starting with `prefix`.
    pub fn rounds_with_prefix(&self, prefix: &str) -> u64 {
        self.rounds_by_label
            .iter()
            .filter(|(label, _)| label.starts_with(prefix))
            .map(|(_, r)| *r)
            .sum()
    }
}

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} rounds, {} words communicated, peak local {}/{} words, peak total {}/{} words",
            self.model_label,
            self.rounds,
            self.communication_words,
            self.peak_local_words,
            self.local_space_limit,
            self.peak_total_words,
            self.total_space_limit
        )?;
        for (label, rounds) in &self.rounds_by_label {
            writeln!(f, "  {label}: {rounds} rounds")?;
        }
        for v in &self.violations {
            writeln!(f, "  VIOLATION: {v}")?;
        }
        if self.dropped_violations > 0 {
            writeln!(
                f,
                "  ... and {} more violation(s) dropped past the storage cap",
                self.dropped_violations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ViolationKind;

    fn sample() -> ExecutionReport {
        let mut by_label = BTreeMap::new();
        by_label.insert("partition/level0".to_string(), 10);
        by_label.insert("partition/level1".to_string(), 8);
        by_label.insert("collect".to_string(), 4);
        ExecutionReport {
            model_label: "congested-clique".into(),
            machines: 100,
            rounds: 22,
            rounds_by_label: by_label,
            communication_words: 1234,
            peak_local_words: 400,
            peak_total_words: 9000,
            local_space_limit: 800,
            total_space_limit: 80_000,
            violations: vec![],
            dropped_violations: 0,
        }
    }

    #[test]
    fn utilization_and_prefix_sums() {
        let r = sample();
        assert!(r.within_limits());
        assert!((r.local_space_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.rounds_with_prefix("partition"), 18);
        assert_eq!(r.rounds_with_prefix("collect"), 4);
        assert_eq!(r.rounds_with_prefix("nope"), 0);
    }

    #[test]
    fn display_lists_phases_and_violations() {
        let mut r = sample();
        r.violations.push(Violation {
            label: "x".into(),
            kind: ViolationKind::BandwidthExceeded {
                words: 10,
                limit: 5,
            },
        });
        assert!(!r.within_limits());
        let s = r.to_string();
        assert!(s.contains("partition/level0"));
        assert!(s.contains("VIOLATION"));
    }

    #[test]
    fn dropped_violations_render_and_break_limits() {
        let mut r = sample();
        assert!(r.within_limits());
        r.dropped_violations = 3;
        assert!(!r.within_limits());
        assert!(r.to_string().contains("3 more violation(s) dropped"));
    }

    #[test]
    fn zero_limits_do_not_divide_by_zero() {
        let mut r = sample();
        r.local_space_limit = 0;
        assert_eq!(r.local_space_utilization(), 0.0);
    }
}
