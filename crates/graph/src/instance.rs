//! List-coloring instances: a graph plus one palette per node.
//!
//! The three problem variants of the paper are all expressed by this type;
//! they differ only in how the palettes are populated:
//!
//! * **(Δ+1)-coloring** — every palette is `{0, …, Δ}`
//!   ([`ListColoringInstance::delta_plus_one`], implicit palettes).
//! * **(Δ+1)-list coloring** — every palette has Δ+1 arbitrary colors
//!   ([`ListColoringInstance::from_palettes`]).
//! * **(deg+1)-list coloring** — node `v`'s palette has `deg(v)+1` arbitrary
//!   colors ([`ListColoringInstance::deg_plus_one`] or `from_palettes`).

use crate::csr::CsrGraph;
use crate::palette::Palette;
use crate::{GraphError, NodeId};

/// A list-coloring instance: a simple graph together with a palette for each
/// node, satisfying `p(v) > d(v)` (so a proper list coloring always exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListColoringInstance {
    graph: CsrGraph,
    palettes: Vec<Palette>,
}

impl ListColoringInstance {
    /// Builds a (Δ+1)-coloring instance: every node gets the implicit palette
    /// `{0, …, Δ}`.
    ///
    /// # Errors
    ///
    /// Never fails for a valid graph; the `Result` mirrors the other
    /// constructors for uniform call sites.
    pub fn delta_plus_one(graph: &CsrGraph) -> Result<Self, GraphError> {
        let len = graph.max_degree() as u64 + 1;
        let palettes = (0..graph.node_count())
            .map(|_| Palette::range(len))
            .collect();
        Self::from_palettes(graph.clone(), palettes)
    }

    /// Builds a (deg+1)-list coloring instance where node `v`'s palette is the
    /// implicit range `{0, …, deg(v)}`.
    ///
    /// # Errors
    ///
    /// Never fails for a valid graph.
    pub fn deg_plus_one(graph: &CsrGraph) -> Result<Self, GraphError> {
        let palettes = graph
            .nodes()
            .map(|v| Palette::range(graph.degree(v) as u64 + 1))
            .collect();
        Self::from_palettes(graph.clone(), palettes)
    }

    /// Builds an instance from explicit palettes.
    ///
    /// # Errors
    ///
    /// * [`GraphError::PaletteCountMismatch`] if `palettes.len() !=
    ///   graph.node_count()`.
    /// * [`GraphError::PaletteTooSmall`] if any node has `p(v) <= d(v)`.
    pub fn from_palettes(graph: CsrGraph, palettes: Vec<Palette>) -> Result<Self, GraphError> {
        if palettes.len() != graph.node_count() {
            return Err(GraphError::PaletteCountMismatch {
                palettes: palettes.len(),
                nodes: graph.node_count(),
            });
        }
        let instance = ListColoringInstance { graph, palettes };
        instance.validate()?;
        Ok(instance)
    }

    /// Builds an instance without validating palette sizes.
    ///
    /// Intended for intermediate states inside algorithms (e.g. after a
    /// partition step, before bad nodes are split off) and for tests that
    /// deliberately construct broken instances.
    pub fn from_palettes_unchecked(graph: CsrGraph, palettes: Vec<Palette>) -> Self {
        assert_eq!(
            palettes.len(),
            graph.node_count(),
            "palette count must match node count"
        );
        ListColoringInstance { graph, palettes }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Maximum degree Δ of the underlying graph.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    /// The palette of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn palette(&self, v: NodeId) -> &Palette {
        &self.palettes[v.index()]
    }

    /// All palettes, indexed by node.
    #[inline]
    pub fn palettes(&self) -> &[Palette] {
        &self.palettes
    }

    /// Total palette storage in machine words (the paper's Θ(𝔫Δ) term for
    /// explicit list-coloring input).
    pub fn total_palette_words(&self) -> usize {
        self.palettes.iter().map(Palette::words).sum()
    }

    /// Total instance size in machine words: graph plus palettes.
    pub fn size_words(&self) -> usize {
        self.graph.size_words() + self.total_palette_words()
    }

    /// Checks the `p(v) > d(v)` invariant for every node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PaletteTooSmall`] for the first violating node.
    pub fn validate(&self) -> Result<(), GraphError> {
        for v in self.graph.nodes() {
            let p = self.palettes[v.index()].size();
            let d = self.graph.degree(v);
            if p <= d {
                return Err(GraphError::PaletteTooSmall {
                    node: v,
                    palette_size: p,
                    degree: d,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::Color;

    #[test]
    fn delta_plus_one_palettes_have_delta_plus_one_colors() {
        let g = GraphBuilder::star(6).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        assert_eq!(inst.max_degree(), 5);
        for v in g.nodes() {
            assert_eq!(inst.palette(v).size(), 6);
        }
    }

    #[test]
    fn deg_plus_one_palettes_match_degrees() {
        let g = GraphBuilder::path(4).build();
        let inst = ListColoringInstance::deg_plus_one(&g).unwrap();
        assert_eq!(inst.palette(NodeId(0)).size(), 2);
        assert_eq!(inst.palette(NodeId(1)).size(), 3);
        inst.validate().unwrap();
    }

    #[test]
    fn from_palettes_rejects_small_palette() {
        let g = GraphBuilder::complete(3).build();
        let palettes = vec![
            Palette::explicit([Color(0), Color(1), Color(2)]),
            Palette::explicit([Color(0), Color(1)]),
            Palette::explicit([Color(0), Color(1), Color(2)]),
        ];
        let err = ListColoringInstance::from_palettes(g, palettes).unwrap_err();
        assert!(matches!(
            err,
            GraphError::PaletteTooSmall {
                node: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn from_palettes_rejects_count_mismatch() {
        let g = GraphBuilder::path(3).build();
        let err = ListColoringInstance::from_palettes(g, vec![Palette::range(2)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::PaletteCountMismatch {
                palettes: 1,
                nodes: 3
            }
        ));
    }

    #[test]
    fn size_accounting() {
        let g = GraphBuilder::cycle(4).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        // Implicit palettes: 1 word each.
        assert_eq!(inst.total_palette_words(), 4);
        assert_eq!(inst.size_words(), g.size_words() + 4);

        let explicit = ListColoringInstance::from_palettes(
            g.clone(),
            (0..4)
                .map(|_| Palette::explicit((0..3).map(Color)))
                .collect(),
        )
        .unwrap();
        assert_eq!(explicit.total_palette_words(), 12);
    }

    #[test]
    fn unchecked_constructor_allows_invalid_then_validate_catches_it() {
        let g = GraphBuilder::complete(3).build();
        let inst = ListColoringInstance::from_palettes_unchecked(
            g,
            vec![Palette::range(1), Palette::range(3), Palette::range(3)],
        );
        assert!(inst.validate().is_err());
    }
}
