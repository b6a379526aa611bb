//! Low-space MPC (deg+1)-list coloring (Section 4, Theorem 1.4).
//!
//! With only O(𝔫^ε) words per machine, instances can no longer be collected
//! onto single machines. `LowSpaceColorReduce` (Algorithm 3) therefore
//! recursively partitions the *high-degree* part of the graph with
//! derandomized hashing — exactly as in the linear-space algorithm — while
//! peeling off the nodes whose degree has dropped below 𝔫^{7δ} into a
//! residual graph G₀ that is colored through the reduction to MIS
//! (Section 4.1). The MIS itself is the derandomized Luby algorithm of
//! `cc-mis`, standing in for the algorithm of \[7\] (substitution #3 in the
//! README's Substitutions list).
//!
//! Because machines cannot hold a whole neighborhood, nodes are split into
//! neighbor shards `M_vN` and palette shards `M_vC` of ≤ 2·𝔫^{7δ} items each
//! (Definition 4.1); the driver accounts for that sharding in the space
//! ledger.

mod partition;

pub use partition::{low_space_partition, LowSpacePartitionOutcome};

use cc_graph::coloring::Coloring;
use cc_graph::csr::CsrGraph;
use cc_graph::instance::ListColoringInstance;
use cc_graph::palette::Palette;
use cc_graph::NodeId;
use cc_mis::derand::DerandomizedLubyMis;
use cc_mis::reduction::ReductionGraph;
use cc_sim::constants::LENZEN_ROUTING_ROUNDS;
use cc_sim::report::ExecutionReport;
use cc_sim::{ClusterContext, ExecutionModel};

use crate::config::SeedStrategy;
use crate::error::CoreError;
use crate::good_bad::ActiveSubgraph;
use crate::local_color::update_palettes_from_neighbors;

/// Configuration of the low-space algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct LowSpaceConfig {
    /// The machine-space exponent ε (machines have Θ(𝔫^ε) words).
    pub epsilon: f64,
    /// The partition exponent δ: the node set is hashed into 𝔫^δ bins and
    /// nodes of degree ≤ 𝔫^{7δ} are peeled into the MIS-colored residual.
    /// The paper sets δ = ε/22; larger values exercise deeper recursion at
    /// laptop scale and are used by the scaled-down experiments.
    pub delta: f64,
    /// Seed selection strategy for the partition hash functions.
    pub seed_strategy: SeedStrategy,
    /// Independence parameter of the hash families.
    pub independence: usize,
    /// Safety cap on recursion depth.
    pub max_depth: usize,
}

impl LowSpaceConfig {
    /// The paper's parameterization for a given ε (δ = ε/22).
    pub fn paper(epsilon: f64) -> Self {
        LowSpaceConfig {
            epsilon,
            delta: epsilon / 22.0,
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 61,
                candidates_per_chunk: 16,
                max_salts: 1,
            },
            independence: 2,
            max_depth: 64,
        }
    }

    /// A scaled-down parameterization whose bin count and degree threshold
    /// are meaningful at laptop-scale 𝔫 (δ small enough that 𝔫^{7δ} sits
    /// below the maximum degrees of the experiment instances, so the
    /// partition levels actually run).
    pub fn scaled_down(epsilon: f64) -> Self {
        LowSpaceConfig {
            delta: 0.08,
            ..Self::paper(epsilon)
        }
    }

    /// Number of bins 𝔫^δ (at least 2).
    pub fn bins(&self, global_nodes: usize) -> u64 {
        ((global_nodes as f64).powf(self.delta).floor() as u64).max(2)
    }

    /// The low-degree threshold 𝔫^{7δ} (at least 2).
    pub fn low_degree_threshold(&self, global_nodes: usize) -> usize {
        ((global_nodes as f64).powf(7.0 * self.delta).floor() as usize).max(2)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for out-of-range parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("epsilon = {} must lie in (0, 1)", self.epsilon),
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("delta = {} must lie in (0, 1)", self.delta),
            });
        }
        if self.independence == 0 || self.max_depth == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "independence and max_depth must be positive".to_string(),
            });
        }
        self.seed_strategy.validate()
    }
}

impl Default for LowSpaceConfig {
    fn default() -> Self {
        Self::scaled_down(0.5)
    }
}

/// Result of a low-space execution.
#[derive(Debug, Clone)]
pub struct LowSpaceOutcome {
    /// The computed proper (deg+1)-list coloring.
    pub coloring: Coloring,
    /// Simulator ledger.
    pub report: ExecutionReport,
    /// Number of partition levels executed.
    pub partition_levels: usize,
    /// Total phases spent inside MIS calls (the O(log) part of the round
    /// complexity).
    pub mis_phases: u64,
    /// Number of MIS (residual) coloring calls.
    pub mis_calls: usize,
    /// Nodes moved to the colorless bin by the palette safety valve (see
    /// `low_space::partition`).
    pub safety_moves: usize,
}

impl LowSpaceOutcome {
    /// Total simulated rounds.
    pub fn rounds(&self) -> u64 {
        self.report.rounds
    }
}

/// The low-space MPC (deg+1)-list coloring driver (Algorithm 3).
#[derive(Debug, Clone, Default)]
pub struct LowSpaceColorReduce {
    config: LowSpaceConfig,
}

impl LowSpaceColorReduce {
    /// Creates a driver with the given configuration.
    pub fn new(config: LowSpaceConfig) -> Self {
        LowSpaceColorReduce { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LowSpaceConfig {
        &self.config
    }

    /// Runs the algorithm on `instance` under `model` (typically
    /// [`ExecutionModel::mpc_low_space`]), verifying the output.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] for invalid inputs, strict-mode simulator
    /// violations, or internal invariant failures.
    pub fn run(
        &self,
        instance: &ListColoringInstance,
        model: ExecutionModel,
    ) -> Result<LowSpaceOutcome, CoreError> {
        self.config.validate()?;
        instance.validate()?;
        let mut ctx = ClusterContext::new(model);
        let graph = instance.graph();
        let n = graph.node_count();
        let mut palettes: Vec<Palette> = instance.palettes().to_vec();
        let mut coloring = Coloring::empty(n);
        let mut stats = RunStats::default();

        // Account for the sharded input distribution (Definition 4.1): every
        // node's neighbor list and palette are split into pieces of at most
        // 2·𝔫^{7δ} words.
        let shard = 2 * self.config.low_degree_threshold(n);
        ctx.observe_local_space("input-shards", shard.min(ctx.model().local_space_words))?;
        ctx.observe_total_space("input-shards", instance.size_words())?;

        let active: Vec<NodeId> = graph.nodes().collect();
        self.reduce(
            &mut ctx,
            graph,
            &mut palettes,
            &mut coloring,
            active,
            0,
            &mut stats,
        )?;
        coloring.verify(instance)?;
        Ok(LowSpaceOutcome {
            coloring,
            report: ctx.report(),
            partition_levels: stats.partition_levels,
            mis_phases: stats.mis_phases,
            mis_calls: stats.mis_calls,
            safety_moves: stats.safety_moves,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce(
        &self,
        ctx: &mut ClusterContext,
        graph: &CsrGraph,
        palettes: &mut Vec<Palette>,
        coloring: &mut Coloring,
        active: Vec<NodeId>,
        depth: usize,
        stats: &mut RunStats,
    ) -> Result<(), CoreError> {
        if active.is_empty() {
            return Ok(());
        }
        let n = graph.node_count();
        let threshold = self.config.low_degree_threshold(n);
        let sub = ActiveSubgraph::new(graph, palettes, &active);
        ctx.observe_total_space(&format!("lowspace/level{depth}"), sub.size_words())?;

        // G₀: nodes whose current degree is at most 𝔫^{7δ}.
        let (low, high): (Vec<NodeId>, Vec<NodeId>) = active
            .iter()
            .copied()
            .partition(|v| (sub.degree_in[v.index()] as usize) <= threshold);

        if high.is_empty() || depth >= self.config.max_depth {
            // Everything is low degree (or the safety cap fired): color the
            // whole remainder via the MIS reduction.
            let remainder: Vec<NodeId> = active;
            self.color_via_mis(ctx, graph, palettes, coloring, &remainder, stats)?;
            return Ok(());
        }

        stats.partition_levels = stats.partition_levels.max(depth + 1);

        // Partition the high-degree nodes into 𝔫^δ bins.
        let high_sub = ActiveSubgraph::new(graph, palettes, &high);
        let bins = self.config.bins(n);
        let outcome = low_space_partition(
            ctx,
            &format!("lowspace/partition{depth}"),
            graph,
            palettes,
            &high_sub,
            bins,
            &self.config,
        );
        stats.safety_moves += outcome.safety_moves;

        // Restrict palettes of bins 1..B-1 to their color class.
        let color_bins = bins - 1;
        if color_bins >= 2 {
            for (bin_index, bin_nodes) in outcome.bins.iter().take(color_bins as usize).enumerate()
            {
                for &v in bin_nodes {
                    palettes[v.index()] = palettes[v.index()]
                        .filtered(|c| outcome.color_hash.eval(c.0) == bin_index as u64);
                }
            }
        }

        // Recurse on the color-restricted bins in parallel.
        let mut branches = Vec::new();
        for bin_nodes in outcome.bins.iter().take(color_bins as usize) {
            let mut branch = ctx.fork();
            self.reduce(
                &mut branch,
                graph,
                palettes,
                coloring,
                bin_nodes.clone(),
                depth + 1,
                stats,
            )?;
            branches.push(branch);
        }
        ctx.join_parallel(branches);

        // The colorless last bin: update palettes, then recurse.
        let last = outcome.bins[(bins - 1) as usize].clone();
        if !last.is_empty() {
            ctx.charge_rounds(&format!("lowspace/update{depth}"), LENZEN_ROUTING_ROUNDS);
            update_palettes_from_neighbors(graph, palettes, coloring, &last);
            self.reduce(ctx, graph, palettes, coloring, last, depth + 1, stats)?;
        }

        // Finally the low-degree residual G₀, via MIS.
        if !low.is_empty() {
            self.color_via_mis(ctx, graph, palettes, coloring, &low, stats)?;
        }
        Ok(())
    }

    /// Colors `nodes` by the reduction to MIS, using their current palettes
    /// minus the colors of already-colored neighbors.
    fn color_via_mis(
        &self,
        ctx: &mut ClusterContext,
        graph: &CsrGraph,
        palettes: &mut [Palette],
        coloring: &mut Coloring,
        nodes: &[NodeId],
        stats: &mut RunStats,
    ) -> Result<(), CoreError> {
        if nodes.is_empty() {
            return Ok(());
        }
        ctx.charge_rounds("lowspace/mis-build", LENZEN_ROUTING_ROUNDS);
        update_palettes_from_neighbors(graph, palettes, coloring, nodes);
        // Build the induced subinstance with local ids for the reduction.
        let induced = cc_graph::subgraph::InducedSubinstance::new(
            &ListColoringInstance::from_palettes_unchecked(graph.clone(), palettes.to_vec()),
            nodes,
            |_, p| p.clone(),
        );
        let reduction = ReductionGraph::build(&induced.instance);
        ctx.observe_total_space("lowspace/mis-build", reduction.graph().size_words())?;
        let mis = DerandomizedLubyMis::default().run(ctx, reduction.graph());
        stats.mis_phases += mis.phases;
        stats.mis_calls += 1;
        let mut local = Coloring::empty(induced.node_count());
        reduction.write_coloring(&mis.in_set, &mut local)?;
        for (local_id, color) in local.assignments() {
            coloring.assign(induced.to_global(local_id), color)?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct RunStats {
    partition_levels: usize,
    mis_phases: u64,
    mis_calls: usize,
    safety_moves: usize,
}

/// Convenience function: colors `instance` in low-space MPC with the default
/// scaled-down configuration.
///
/// # Errors
///
/// See [`LowSpaceColorReduce::run`].
pub fn color_deg_plus_one_list_low_space(
    instance: &ListColoringInstance,
) -> Result<LowSpaceOutcome, CoreError> {
    let config = LowSpaceConfig::default();
    let model = ExecutionModel::mpc_low_space(
        instance.node_count().max(2),
        config.epsilon,
        instance.size_words() * 4,
    );
    LowSpaceColorReduce::new(config).run(instance, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators::{self, instance_with_palettes, PaletteKind};

    fn model_for(instance: &ListColoringInstance, epsilon: f64) -> ExecutionModel {
        ExecutionModel::mpc_low_space(
            instance.node_count().max(2),
            epsilon,
            instance.size_words() * 8,
        )
    }

    #[test]
    fn low_space_colors_deg_plus_one_instances() {
        for seed in 0..3 {
            let graph = generators::gnp(150, 0.08, seed).unwrap();
            let instance = ListColoringInstance::deg_plus_one(&graph).unwrap();
            let config = LowSpaceConfig::scaled_down(0.5);
            let out = LowSpaceColorReduce::new(config.clone())
                .run(&instance, model_for(&instance, config.epsilon))
                .unwrap();
            out.coloring.verify(&instance).unwrap();
            assert!(out.mis_calls >= 1);
            assert!(out.rounds() > 0);
        }
    }

    #[test]
    fn low_space_handles_list_palettes_and_hubs() {
        let graph = generators::power_law(120, 4, 7).unwrap();
        let instance =
            instance_with_palettes(&graph, PaletteKind::DegPlusOneList { universe: 5000 }, 3)
                .unwrap();
        let config = LowSpaceConfig::scaled_down(0.4);
        let out = LowSpaceColorReduce::new(config.clone())
            .run(&instance, model_for(&instance, config.epsilon))
            .unwrap();
        out.coloring.verify(&instance).unwrap();
    }

    #[test]
    fn high_degree_graphs_need_partition_levels() {
        // A dense graph: max degree far above 𝔫^{7δ}, so at least one
        // partition level must run before the MIS phase.
        let graph = generators::gnp(200, 0.4, 11).unwrap();
        let instance = ListColoringInstance::deg_plus_one(&graph).unwrap();
        let config = LowSpaceConfig::scaled_down(0.5);
        let out = LowSpaceColorReduce::new(config.clone())
            .run(&instance, model_for(&instance, config.epsilon))
            .unwrap();
        out.coloring.verify(&instance).unwrap();
        assert!(out.partition_levels >= 1, "expected partitioning, got none");
    }

    #[test]
    fn deterministic_end_to_end() {
        let graph = generators::gnp(100, 0.2, 5).unwrap();
        let instance = ListColoringInstance::deg_plus_one(&graph).unwrap();
        let config = LowSpaceConfig::scaled_down(0.5);
        let a = LowSpaceColorReduce::new(config.clone())
            .run(&instance, model_for(&instance, config.epsilon))
            .unwrap();
        let b = LowSpaceColorReduce::new(config.clone())
            .run(&instance, model_for(&instance, config.epsilon))
            .unwrap();
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn config_validation_and_derived_quantities() {
        let config = LowSpaceConfig::paper(0.44);
        config.validate().unwrap();
        assert!((config.delta - 0.02).abs() < 1e-9);
        assert!(config.bins(1_000_000) >= 2);
        assert!(config.low_degree_threshold(1_000_000) >= 2);
        let bad = LowSpaceConfig {
            epsilon: 1.5,
            ..LowSpaceConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = LowSpaceConfig {
            delta: 0.0,
            ..LowSpaceConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = LowSpaceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 0,
                candidates_per_chunk: 16,
                max_salts: 1,
            },
            ..LowSpaceConfig::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn convenience_helper_runs() {
        let graph = generators::gnp(80, 0.1, 2).unwrap();
        let instance = ListColoringInstance::deg_plus_one(&graph).unwrap();
        let out = color_deg_plus_one_list_low_space(&instance).unwrap();
        out.coloring.verify(&instance).unwrap();
    }
}
