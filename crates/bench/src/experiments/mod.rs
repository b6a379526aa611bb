//! The experiments (E1–E9 and E11), listed in the README's Experiments section.
//! Each submodule prints its table and dumps a JSON copy under
//! `target/experiments/`.

pub mod e11_chaos;
pub mod e1_rounds;
pub mod e2_space;
pub mod e3_bad_nodes;
pub mod e4_recursion;
pub mod e5_low_space;
pub mod e6_correctness;
pub mod e7_comparison;
pub mod e8_ablation;
pub mod e9_engine;

use cc_graph::instance::ListColoringInstance;
use cc_sim::ExecutionModel;
use clique_coloring::config::{ColorReduceConfig, SeedStrategy};

/// The configuration used by the experiments unless an experiment says
/// otherwise: the paper's exponents with a narrower (but still deterministic
/// and chunked) seed search, so full parameter sweeps finish in minutes.
/// Experiment E8 varies exactly these knobs and records their effect.
pub fn practical_config() -> ColorReduceConfig {
    ColorReduceConfig {
        independence: 2,
        seed_strategy: SeedStrategy::Derandomized {
            chunk_bits: 61,
            candidates_per_chunk: 16,
            max_salts: 1,
        },
        ..ColorReduceConfig::default()
    }
}

/// `(n, m, Δ)` of an instance, for record keeping.
pub fn graph_stats(instance: &ListColoringInstance) -> (usize, usize, usize) {
    (
        instance.node_count(),
        instance.graph().edge_count(),
        instance.max_degree(),
    )
}

/// The CONGESTED CLIQUE model for an instance.
pub fn clique_model(instance: &ListColoringInstance) -> ExecutionModel {
    ExecutionModel::congested_clique(instance.node_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    #[test]
    fn practical_config_is_valid() {
        practical_config().validate().unwrap();
    }

    #[test]
    fn helpers_report_instance_shape() {
        let g = generators::gnp(50, 0.2, 1).unwrap();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        let (n, m, d) = graph_stats(&inst);
        assert_eq!(n, 50);
        assert_eq!(m, g.edge_count());
        assert_eq!(d, g.max_degree());
        assert_eq!(clique_model(&inst).machines, 50);
    }
}
