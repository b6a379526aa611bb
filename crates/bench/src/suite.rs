//! The standard instance suite every experiment draws from.

use cc_graph::generators::{instance_with_palettes, GraphFamily, PaletteKind};
use cc_graph::instance::ListColoringInstance;

/// A named, reproducible instance specification.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Label used in result tables.
    pub label: String,
    /// Graph family.
    pub family: GraphFamily,
    /// Number of nodes.
    pub n: usize,
    /// Palette kind.
    pub palettes: PaletteKind,
    /// Generator seed.
    pub seed: u64,
}

impl InstanceSpec {
    /// Creates a spec.
    pub fn new(
        label: impl Into<String>,
        family: GraphFamily,
        n: usize,
        palettes: PaletteKind,
        seed: u64,
    ) -> Self {
        InstanceSpec {
            label: label.into(),
            family,
            n,
            palettes,
            seed,
        }
    }

    /// Materializes the instance.
    ///
    /// # Panics
    ///
    /// Panics if the specification is internally inconsistent (all suite
    /// specs are tested).
    pub fn build(&self) -> ListColoringInstance {
        let graph = self
            .family
            .generate(self.n, self.seed)
            .expect("suite graph generation");
        instance_with_palettes(&graph, self.palettes, self.seed ^ 0xABCD)
            .expect("suite palette generation")
    }
}

/// The graph families used by the comparison and correctness experiments.
pub fn standard_families(n: usize, seed: u64) -> Vec<InstanceSpec> {
    let universe = 4 * n as u64;
    vec![
        InstanceSpec::new(
            format!("gnp-sparse(n={n})"),
            GraphFamily::Gnp { p: 8.0 / n as f64 },
            n,
            PaletteKind::DeltaPlusOne,
            seed,
        ),
        InstanceSpec::new(
            format!("gnp-dense(n={n})"),
            GraphFamily::Gnp { p: 0.1 },
            n,
            PaletteKind::DeltaPlusOneList { universe },
            seed + 1,
        ),
        InstanceSpec::new(
            format!("regular(n={n})"),
            GraphFamily::NearRegular { degree: 96 },
            n,
            PaletteKind::DeltaPlusOne,
            seed + 2,
        ),
        InstanceSpec::new(
            format!("powerlaw(n={n})"),
            GraphFamily::PowerLaw { edges_per_node: 16 },
            n,
            PaletteKind::DegPlusOneList { universe },
            seed + 3,
        ),
        InstanceSpec::new(
            format!("clustered(n={n})"),
            GraphFamily::Clustered {
                communities: 8,
                p_in: 0.3,
                p_out: 0.005,
            },
            n,
            PaletteKind::DeltaPlusOneList { universe },
            seed + 4,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_families_build_valid_instances() {
        for spec in standard_families(120, 7) {
            let instance = spec.build();
            instance.validate().unwrap();
            assert_eq!(instance.node_count(), 120);
            assert!(!spec.label.is_empty());
        }
    }

    #[test]
    fn specs_are_reproducible() {
        let a = standard_families(80, 3)[0].build();
        let b = standard_families(80, 3)[0].build();
        assert_eq!(a, b);
    }
}
