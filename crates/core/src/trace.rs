//! Recursion tracing.
//!
//! Every call of `ColorReduce` (and every `Partition` inside it) records what
//! actually happened — instance sizes, the chosen ℓ, bad-node and bad-bin
//! counts, seed-search quality, whether the instance was collected — keyed by
//! recursion depth. Experiments E3 and E4 are read directly off this trace.

use cc_derand::SelectionOutcome;

/// What a single `ColorReduce` call did with its instance.
#[derive(Debug, Clone, PartialEq)]
pub enum CallAction {
    /// The instance was collected onto one machine and colored locally.
    CollectedLocally,
    /// The instance was partitioned into bins and recursed on.
    Partitioned,
}

/// Trace record of one `ColorReduce` call.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// Recursion depth of the call (the initial call is depth 0).
    pub depth: usize,
    /// Number of active nodes in the call's instance.
    pub nodes: usize,
    /// Number of edges inside the call's instance.
    pub edges: usize,
    /// Total size of the instance in machine words (graph + palettes).
    pub size_words: usize,
    /// The degree parameter ℓ of the call.
    pub ell: u64,
    /// Maximum degree actually present in the instance.
    pub max_degree: usize,
    /// What the call did.
    pub action: CallAction,
    /// Partition statistics, if the call partitioned.
    pub partition: Option<PartitionRecord>,
}

/// Statistics of one `Partition` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRecord {
    /// Number of node bins (ℓ^β).
    pub bins: u64,
    /// Number of nodes classified bad (sent to G₀).
    pub bad_nodes: usize,
    /// Number of bins classified bad (Definition 3.1; the analysis promises
    /// zero).
    pub bad_bins: usize,
    /// The bound 𝔫/ℓ² the bad-node count is compared against (Lemma 3.9).
    pub bad_node_bound: f64,
    /// Size in words of the bad-node graph G₀ (Corollary 3.10 promises
    /// O(𝔫)).
    pub bad_graph_words: usize,
    /// Largest bin size (in nodes).
    pub max_bin_nodes: usize,
    /// Outcome of the deterministic seed selection.
    pub seed_outcome: SelectionOutcome,
}

/// The full recursion trace of one `ColorReduce` execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecursionTrace {
    calls: Vec<CallRecord>,
}

impl RecursionTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one call.
    pub fn record(&mut self, record: CallRecord) {
        self.calls.push(record);
    }

    /// All recorded calls, in execution order.
    pub fn calls(&self) -> &[CallRecord] {
        &self.calls
    }

    /// The maximum recursion depth reached.
    pub fn max_depth(&self) -> usize {
        self.calls.iter().map(|c| c.depth).max().unwrap_or(0)
    }

    /// Calls at a given depth.
    pub fn calls_at_depth(&self, depth: usize) -> impl Iterator<Item = &CallRecord> {
        self.calls.iter().filter(move |c| c.depth == depth)
    }

    /// Total number of `Partition` invocations.
    pub fn partition_count(&self) -> usize {
        self.calls.iter().filter(|c| c.partition.is_some()).count()
    }

    /// Total number of locally collected instances.
    pub fn collected_count(&self) -> usize {
        self.calls
            .iter()
            .filter(|c| c.action == CallAction::CollectedLocally)
            .count()
    }

    /// Total bad nodes across all partitions.
    pub fn total_bad_nodes(&self) -> usize {
        self.calls
            .iter()
            .filter_map(|c| c.partition.as_ref())
            .map(|p| p.bad_nodes)
            .sum()
    }

    /// Total bad bins across all partitions (the analysis promises zero).
    pub fn total_bad_bins(&self) -> usize {
        self.calls
            .iter()
            .filter_map(|c| c.partition.as_ref())
            .map(|p| p.bad_bins)
            .sum()
    }

    /// Per-depth summary rows: (depth, calls, max nodes, max ℓ, max size).
    pub fn depth_summary(&self) -> Vec<DepthSummary> {
        let mut rows: Vec<DepthSummary> = Vec::new();
        for depth in 0..=self.max_depth() {
            let calls: Vec<&CallRecord> = self.calls_at_depth(depth).collect();
            if calls.is_empty() {
                continue;
            }
            rows.push(DepthSummary {
                depth,
                calls: calls.len(),
                max_nodes: calls.iter().map(|c| c.nodes).max().unwrap_or(0),
                max_ell: calls.iter().map(|c| c.ell).max().unwrap_or(0),
                max_degree: calls.iter().map(|c| c.max_degree).max().unwrap_or(0),
                max_size_words: calls.iter().map(|c| c.size_words).max().unwrap_or(0),
                collected: calls
                    .iter()
                    .filter(|c| c.action == CallAction::CollectedLocally)
                    .count(),
            });
        }
        rows
    }
}

/// Aggregated statistics of one recursion depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthSummary {
    /// Recursion depth.
    pub depth: usize,
    /// Number of `ColorReduce` calls at this depth.
    pub calls: usize,
    /// Largest instance (in nodes) at this depth.
    pub max_nodes: usize,
    /// Largest ℓ parameter at this depth.
    pub max_ell: u64,
    /// Largest actual maximum degree at this depth.
    pub max_degree: usize,
    /// Largest instance size in words at this depth.
    pub max_size_words: usize,
    /// Number of calls at this depth that collected locally.
    pub collected: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_hash::BitSeed;

    fn dummy_outcome() -> SelectionOutcome {
        SelectionOutcome {
            seed: BitSeed::zeros(8),
            achieved_cost: 1.0,
            bound: 2.0,
            met_bound: true,
            candidates_evaluated: 4,
            escalations: 0,
        }
    }

    fn call(depth: usize, partitioned: bool) -> CallRecord {
        CallRecord {
            depth,
            nodes: 100 >> depth,
            edges: 200,
            size_words: 500,
            ell: 64 >> depth,
            max_degree: 10,
            action: if partitioned {
                CallAction::Partitioned
            } else {
                CallAction::CollectedLocally
            },
            partition: partitioned.then(|| PartitionRecord {
                bins: 4,
                bad_nodes: 2,
                bad_bins: 0,
                bad_node_bound: 5.0,
                bad_graph_words: 40,
                max_bin_nodes: 30,
                seed_outcome: dummy_outcome(),
            }),
        }
    }

    #[test]
    fn trace_aggregates_counts() {
        let mut t = RecursionTrace::new();
        t.record(call(0, true));
        t.record(call(1, true));
        t.record(call(1, false));
        t.record(call(2, false));
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.partition_count(), 2);
        assert_eq!(t.collected_count(), 2);
        assert_eq!(t.total_bad_nodes(), 4);
        assert_eq!(t.total_bad_bins(), 0);
        assert_eq!(t.calls().len(), 4);
        assert_eq!(t.calls_at_depth(1).count(), 2);
    }

    #[test]
    fn depth_summary_rows_cover_every_depth() {
        let mut t = RecursionTrace::new();
        t.record(call(0, true));
        t.record(call(1, false));
        let rows = t.depth_summary();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].depth, 0);
        assert_eq!(rows[0].calls, 1);
        assert_eq!(rows[1].collected, 1);
        assert_eq!(rows[0].max_nodes, 100);
        assert_eq!(rows[1].max_ell, 32);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = RecursionTrace::new();
        assert_eq!(t.max_depth(), 0);
        assert_eq!(t.depth_summary().len(), 0);
    }
}
