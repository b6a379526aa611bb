//! `ColorReduce` (Algorithm 1): the deterministic constant-round
//! (Δ+1)-list coloring driver for the CONGESTED CLIQUE and linear-space MPC.
//!
//! The recursion follows the paper exactly:
//!
//! 1. if the instance fits on a single machine, collect it and color it
//!    locally;
//! 2. otherwise `Partition` it into B = ⌊ℓ^β⌋ bins plus the bad-node graph
//!    G₀ (Algorithm 2), restricting the palettes of bins `1..B-1` to the
//!    colors hashed to them;
//! 3. recursively color bins `1..B-1` **in parallel** (their palettes are
//!    disjoint, so no cross-bin conflict is possible);
//! 4. update the palettes of the last bin (remove colors taken by already
//!    colored neighbors) and recursively color it;
//! 5. update the palettes of G₀, collect it onto one machine (it has size
//!    O(𝔫) by Corollary 3.10) and color it locally.
//!
//! The palette restriction of step 2 and steps 3–4 are one function,
//! `color_bins`, which the low-space algorithm (Algorithm 3) calls too.
//!
//! At laptop-scale maximum degree, ⌊ℓ^0.1⌋ drops below 2 while instances are
//! still too large to collect; the driver then continues with B = 2
//! ("forced halving"), which is the same algorithm — the paper simply never
//! reaches that regime because its Δ is assumed asymptotically large. This
//! is substitution #4 in the README's Substitutions list; the recursion
//! trace records where it happens.

use cc_graph::coloring::Coloring;
use cc_graph::csr::CsrGraph;
use cc_graph::instance::ListColoringInstance;
use cc_graph::palette::Palette;
use cc_graph::NodeId;
use cc_hash::family::HashFunction;
use cc_sim::constants::LENZEN_ROUTING_ROUNDS;
use cc_sim::distribution::Distribution;
use cc_sim::primitives::collect_to_single_machine;
use cc_sim::report::ExecutionReport;
use cc_sim::{ClusterContext, ExecutionModel};

use crate::error::CoreError;
use crate::good_bad::{check_hashable_colors, ActiveSubgraph};
use crate::local_color::{color_greedily, update_palettes_from_neighbors};
use crate::partition::partition;
use crate::trace::{CallAction, CallRecord, RecursionTrace};

/// Result of a `ColorReduce` execution.
#[must_use = "the outcome carries the coloring, report, and recursion trace"]
#[derive(Debug, Clone)]
pub struct ColorReduceOutcome {
    coloring: Coloring,
    report: ExecutionReport,
    trace: RecursionTrace,
}

impl ColorReduceOutcome {
    /// The computed proper list coloring.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// The simulator's round/space/communication report.
    pub fn report(&self) -> &ExecutionReport {
        &self.report
    }

    /// The recursion trace (per-call statistics).
    pub fn trace(&self) -> &RecursionTrace {
        &self.trace
    }

    /// Total simulated rounds.
    pub fn rounds(&self) -> u64 {
        self.report.rounds
    }
}

/// The deterministic constant-round (Δ+1)-list coloring algorithm
/// (Theorem 1.1 / 1.2).
///
/// ```
/// use cc_graph::generators;
/// use cc_graph::instance::ListColoringInstance;
/// use cc_sim::ExecutionModel;
/// use clique_coloring::color_reduce::{ColorReduce, ColorReduceConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = generators::gnp(200, 0.1, 7)?;
/// let instance = ListColoringInstance::delta_plus_one(&graph)?;
/// let outcome = ColorReduce::new(ColorReduceConfig::default())
///     .run(&instance, ExecutionModel::congested_clique(graph.node_count()))?;
/// outcome.coloring().verify(&instance)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ColorReduce {
    config: ColorReduceConfig,
}

pub use crate::config::ColorReduceConfig;

impl ColorReduce {
    /// Creates a driver with the given configuration.
    pub fn new(config: ColorReduceConfig) -> Self {
        ColorReduce { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ColorReduceConfig {
        &self.config
    }

    /// Runs the algorithm on `instance` under `model`, verifying the output
    /// before returning it.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] for invalid configurations or instances
    /// (including [`CoreError::ColorOutOfRange`] for a color above
    /// [`MAX_HASHABLE_COLOR`](crate::good_bad::MAX_HASHABLE_COLOR)), for
    /// strict-mode simulator violations, and for internal invariant failures
    /// (which would indicate a bug).
    pub fn run(
        &self,
        instance: &ListColoringInstance,
        model: ExecutionModel,
    ) -> Result<ColorReduceOutcome, CoreError> {
        let mut ctx = ClusterContext::new(model);
        let (coloring, trace) = self.run_with_context(instance, &mut ctx)?;
        Ok(ColorReduceOutcome {
            coloring,
            report: ctx.report(),
            trace,
        })
    }

    /// Runs the algorithm against an existing [`ClusterContext`] (so callers
    /// can control strictness or stack several algorithms on one ledger).
    ///
    /// # Errors
    ///
    /// See [`ColorReduce::run`].
    pub fn run_with_context(
        &self,
        instance: &ListColoringInstance,
        ctx: &mut ClusterContext,
    ) -> Result<(Coloring, RecursionTrace), CoreError> {
        self.config.validate()?;
        instance.validate()?;
        check_hashable_colors(instance.palettes())?;
        let graph = instance.graph();
        let n = graph.node_count();

        // Account for the initial distribution of the input across machines:
        // each node's record (its id, adjacency list, and palette) lives on
        // some machine.
        let node_words: Vec<usize> = graph
            .nodes()
            .map(|v| 1 + graph.degree(v) + instance.palette(v).words())
            .collect();
        let machines = ctx.model().machines.max(1);
        let distribution = Distribution::pack_balanced(&node_words, machines);
        ctx.observe_local_space("input", distribution.max_load())?;
        ctx.observe_total_space("input", distribution.total_load())?;

        let mut palettes: Vec<Palette> = instance.palettes().to_vec();
        let mut coloring = Coloring::empty(n);
        let mut trace = RecursionTrace::new();
        let active: Vec<NodeId> = graph.nodes().collect();
        let ell = (graph.max_degree() as u64).max(1);
        self.reduce(
            ctx,
            graph,
            &mut palettes,
            &mut coloring,
            active,
            ell,
            0,
            &mut trace,
        )?;
        coloring.verify(instance)?;
        Ok((coloring, trace))
    }

    /// One `ColorReduce(G, ℓ)` call on the active node set.
    #[allow(clippy::too_many_arguments)]
    fn reduce(
        &self,
        ctx: &mut ClusterContext,
        graph: &CsrGraph,
        palettes: &mut [Palette],
        coloring: &mut Coloring,
        active: Vec<NodeId>,
        ell: u64,
        depth: usize,
        trace: &mut RecursionTrace,
    ) -> Result<(), CoreError> {
        if active.is_empty() {
            return Ok(());
        }
        if depth > self.config.max_recursion_depth {
            return Err(CoreError::RecursionDepthExceeded {
                limit: self.config.max_recursion_depth,
            });
        }
        let sub = ActiveSubgraph::new(graph, palettes, &active);
        let size = sub.size_words();
        let level = format!("level{depth}");
        ctx.observe_total_space(&level, size)?;

        let natural_bins = self.config.bins(ell);
        let fits = ctx.model().fits_on_one_machine(size);
        let bins = if !fits && natural_bins < 2 {
            2 // forced halving below the paper's asymptotic regime
        } else {
            natural_bins
        };
        if fits || ell < self.config.min_partition_ell || bins < 2 {
            // Base case: collect onto a single machine and color locally.
            collect_to_single_machine(ctx, &format!("collect/{level}"), size)?;
            color_greedily(graph, palettes, coloring, &sub.nodes)?;
            trace.record(CallRecord {
                depth,
                nodes: sub.len(),
                edges: sub.edges_within,
                size_words: size,
                ell,
                max_degree: sub.max_degree(),
                action: CallAction::CollectedLocally,
                partition: None,
            });
            return Ok(());
        }

        // Partition into bins (Algorithm 2) with derandomized hashing.
        let outcome = partition(
            ctx,
            &format!("partition/{level}"),
            graph,
            palettes,
            &sub,
            ell,
            bins,
            graph.node_count(),
            &self.config,
        );
        trace.record(CallRecord {
            depth,
            nodes: sub.len(),
            edges: sub.edges_within,
            size_words: size,
            ell,
            max_degree: sub.max_degree(),
            action: CallAction::Partitioned,
            partition: Some(outcome.record),
        });

        let child_ell = self.config.child_ell(ell, bins);
        color_bins(
            ctx,
            graph,
            palettes,
            coloring,
            outcome.bins,
            &outcome.color_hash,
            &format!("palette-update/{level}"),
            |ctx, palettes, coloring, bin| {
                self.reduce(
                    ctx,
                    graph,
                    palettes,
                    coloring,
                    bin,
                    child_ell,
                    depth + 1,
                    trace,
                )
            },
        )?;

        // Finally color the bad-node graph G₀ locally (it has size O(𝔫)).
        if !outcome.bad_nodes.is_empty() {
            ctx.charge_rounds(&format!("palette-update/{level}"), LENZEN_ROUTING_ROUNDS);
            update_palettes_from_neighbors(graph, palettes, coloring, &outcome.bad_nodes);
            let bad_size = ActiveSubgraph::new(graph, palettes, &outcome.bad_nodes).size_words();
            collect_to_single_machine(ctx, &format!("collect-bad/{level}"), bad_size)?;
            color_greedily(graph, palettes, coloring, &outcome.bad_nodes)?;
        }
        Ok(())
    }
}

/// Colors the bins of one partition: the bin recursion of `ColorReduce` and
/// of `LowSpaceColorReduce`. `recurse` colors one bin in the context it is
/// given.
///
/// The palettes of bins `0..B-2` are restricted to the colors `color_hash`
/// assigns to their bin. With a single color bin (B = 2) the restriction is
/// the identity and is skipped, keeping implicit palettes implicit. Those
/// bins are then colored in forked contexts joined by
/// [`ClusterContext::join_parallel`]: their palettes are disjoint, so the
/// recursions are independent. The last bin received no colors: one routing,
/// charged under `update_label`, refreshes its palettes against the colors
/// its neighbors already use, then it is colored.
#[allow(clippy::too_many_arguments)]
pub(crate) fn color_bins(
    ctx: &mut ClusterContext,
    graph: &CsrGraph,
    palettes: &mut [Palette],
    coloring: &mut Coloring,
    mut bins: Vec<Vec<NodeId>>,
    color_hash: &HashFunction,
    update_label: &str,
    mut recurse: impl FnMut(
        &mut ClusterContext,
        &mut [Palette],
        &mut Coloring,
        Vec<NodeId>,
    ) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    let last = bins.pop().expect("a partition has at least two bins");
    if bins.len() >= 2 {
        for (bin, nodes) in (0u64..).zip(&bins) {
            for &v in nodes {
                palettes[v.index()] = palettes[v.index()].filtered(|c| color_hash.eval(c.0) == bin);
            }
        }
    }
    let mut branches = Vec::with_capacity(bins.len());
    for nodes in bins {
        let mut branch = ctx.fork();
        recurse(&mut branch, palettes, coloring, nodes)?;
        branches.push(branch);
    }
    ctx.join_parallel(branches);
    if !last.is_empty() {
        ctx.charge_rounds(update_label, LENZEN_ROUTING_ROUNDS);
        update_palettes_from_neighbors(graph, palettes, coloring, &last);
        recurse(ctx, palettes, coloring, last)?;
    }
    Ok(())
}

/// Convenience function: colors `instance` in the CONGESTED CLIQUE with the
/// paper's default configuration (Theorem 1.1).
///
/// # Errors
///
/// See [`ColorReduce::run`].
pub fn color_delta_plus_one_list(
    instance: &ListColoringInstance,
) -> Result<ColorReduceOutcome, CoreError> {
    ColorReduce::new(ColorReduceConfig::default()).run(
        instance,
        ExecutionModel::congested_clique(instance.node_count()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeedStrategy;
    use cc_graph::builder::GraphBuilder;
    use cc_graph::generators::{self, instance_with_palettes, PaletteKind};

    fn fast_config() -> ColorReduceConfig {
        ColorReduceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 61,
                candidates_per_chunk: 8,
                max_salts: 1,
            },
            independence: 2,
            ..ColorReduceConfig::default()
        }
    }

    #[test]
    fn colors_small_structured_graphs() {
        for graph in [
            GraphBuilder::complete(12).build(),
            GraphBuilder::cycle(15).build(),
            GraphBuilder::star(20).build(),
            GraphBuilder::complete_bipartite(6, 9).build(),
        ] {
            let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
            let outcome = ColorReduce::new(fast_config())
                .run(
                    &instance,
                    ExecutionModel::congested_clique(graph.node_count()),
                )
                .unwrap();
            outcome.coloring().verify(&instance).unwrap();
        }
    }

    #[test]
    fn colors_random_list_instances() {
        let graph = generators::gnp(150, 0.15, 3).unwrap();
        let instance =
            instance_with_palettes(&graph, PaletteKind::DeltaPlusOneList { universe: 5000 }, 1)
                .unwrap();
        let outcome = ColorReduce::new(fast_config())
            .run(&instance, ExecutionModel::congested_clique(150))
            .unwrap();
        outcome.coloring().verify(&instance).unwrap();
        assert!(outcome.rounds() > 0);
        assert!(!outcome.trace().calls().is_empty());
    }

    #[test]
    fn dense_graph_forces_partitioning_and_still_verifies() {
        // Dense enough that the instance does not fit on one machine, so the
        // recursion genuinely partitions.
        let graph = generators::gnp(400, 0.5, 11).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let outcome = ColorReduce::new(fast_config())
            .run(&instance, ExecutionModel::congested_clique(400))
            .unwrap();
        outcome.coloring().verify(&instance).unwrap();
        assert!(
            outcome.trace().partition_count() >= 1,
            "expected at least one partition call"
        );
        assert!(outcome.trace().max_depth() >= 1);
        assert!(
            outcome.report().within_limits(),
            "{:?}",
            outcome.report().violations
        );
    }

    #[test]
    fn deterministic_end_to_end() {
        let graph = generators::gnp(200, 0.3, 21).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let a = ColorReduce::new(fast_config())
            .run(&instance, ExecutionModel::congested_clique(200))
            .unwrap();
        let b = ColorReduce::new(fast_config())
            .run(&instance, ExecutionModel::congested_clique(200))
            .unwrap();
        assert_eq!(a.coloring(), b.coloring());
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn works_on_linear_space_mpc_model() {
        let graph = generators::gnp(250, 0.2, 5).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let total = instance.size_words() * 4;
        let outcome = ColorReduce::new(fast_config())
            .run(&instance, ExecutionModel::mpc_linear(250, total))
            .unwrap();
        outcome.coloring().verify(&instance).unwrap();
    }

    #[test]
    fn default_helper_runs_with_paper_config() {
        let graph = GraphBuilder::cycle(30).build();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let outcome = color_delta_plus_one_list(&instance).unwrap();
        outcome.coloring().verify(&instance).unwrap();
    }

    #[test]
    fn invalid_config_is_rejected() {
        let graph = GraphBuilder::cycle(10).build();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let config = ColorReduceConfig {
            bin_exponent: 2.0,
            ..Default::default()
        };
        let err = ColorReduce::new(config)
            .run(&instance, ExecutionModel::congested_clique(10))
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn empty_graph_is_colored_trivially() {
        let graph = CsrGraph::empty(5);
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let outcome = color_delta_plus_one_list(&instance).unwrap();
        outcome.coloring().verify(&instance).unwrap();
    }
}
