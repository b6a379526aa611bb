//! The coloring → MIS reduction (Section 4.1 of the paper, due to Luby).
//!
//! Given a list-coloring instance, build a graph with one vertex per
//! (node, palette color) pair:
//!
//! * the vertices of one node form a clique (a node picks exactly one color),
//! * vertices `(u, c)` and `(v, c)` are adjacent whenever `{u, v}` is an edge
//!   and both palettes contain `c` (neighbors cannot share a color).
//!
//! Any MIS of this graph contains exactly one vertex per original node
//! (provided `p(v) > d(v)`), and reading off those vertices yields a proper
//! list coloring.

use cc_graph::coloring::Coloring;
use cc_graph::csr::CsrGraph;
use cc_graph::instance::ListColoringInstance;
use cc_graph::{Color, GraphError, NodeId};

/// The reduction graph together with the mapping back to (node, color)
/// pairs.
#[derive(Debug, Clone)]
pub struct ReductionGraph {
    graph: CsrGraph,
    origin: Vec<(NodeId, Color)>,
    clique_offsets: Vec<usize>,
}

impl ReductionGraph {
    /// Builds the reduction graph for `instance`.
    pub fn build(instance: &ListColoringInstance) -> Self {
        let g = instance.graph();
        // Vertex layout: node v's palette colors occupy the contiguous block
        // starting at clique_offsets[v], in sorted color order.
        let mut clique_offsets = Vec::with_capacity(g.node_count() + 1);
        let mut origin: Vec<(NodeId, Color)> = Vec::new();
        let mut palette_vecs: Vec<Vec<Color>> = Vec::with_capacity(g.node_count());
        clique_offsets.push(0);
        for v in g.nodes() {
            let colors = instance.palette(v).to_vec();
            for &c in &colors {
                origin.push((v, c));
            }
            palette_vecs.push(colors);
            clique_offsets.push(origin.len());
        }

        let vertex_of = |v: NodeId, color: Color, palettes: &[Vec<Color>]| -> Option<usize> {
            palettes[v.index()]
                .binary_search(&color)
                .ok()
                .map(|rank| clique_offsets[v.index()] + rank)
        };

        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); origin.len()];
        // Intra-node cliques.
        for v in g.nodes() {
            let start = clique_offsets[v.index()];
            let end = clique_offsets[v.index() + 1];
            for a in start..end {
                for b in (a + 1)..end {
                    adjacency[a].push(NodeId::from_index(b));
                    adjacency[b].push(NodeId::from_index(a));
                }
            }
        }
        // Conflict edges between neighbors sharing a color.
        for (u, v) in g.edges() {
            for (rank, &color) in palette_vecs[u.index()].iter().enumerate() {
                if let Some(bv) = vertex_of(v, color, &palette_vecs) {
                    let au = clique_offsets[u.index()] + rank;
                    adjacency[au].push(NodeId::from_index(bv));
                    adjacency[bv].push(NodeId::from_index(au));
                }
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
        }
        ReductionGraph {
            graph: CsrGraph::from_adjacency(adjacency),
            origin,
            clique_offsets,
        }
    }

    /// The reduction graph itself.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The (original node, color) pair represented by reduction vertex `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn origin(&self, x: NodeId) -> (NodeId, Color) {
        self.origin[x.index()]
    }

    /// Extracts the coloring encoded by an MIS of the reduction graph and
    /// writes it into `coloring` (only for nodes of this instance that are
    /// not already colored).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Uncolored`] if some node has no selected vertex
    /// in `in_set` (i.e. `in_set` is not maximal), or
    /// [`GraphError::AlreadyColored`] if it selects two vertices of one node
    /// (i.e. `in_set` is not independent).
    pub fn write_coloring(
        &self,
        in_set: &[bool],
        coloring: &mut Coloring,
    ) -> Result<(), GraphError> {
        let node_count = self.clique_offsets.len() - 1;
        for v in 0..node_count {
            let node = NodeId::from_index(v);
            let start = self.clique_offsets[v];
            let end = self.clique_offsets[v + 1];
            let mut chosen: Option<Color> = None;
            for (x, &selected) in in_set.iter().enumerate().take(end).skip(start) {
                if selected {
                    if chosen.is_some() {
                        return Err(GraphError::AlreadyColored { node });
                    }
                    chosen = Some(self.origin[x].1);
                }
            }
            match chosen {
                Some(color) => coloring.assign(node, color)?,
                None => return Err(GraphError::Uncolored { node }),
            }
        }
        Ok(())
    }

    /// Upper bound Δ_H on the maximum degree of the reduction graph in terms
    /// of the original instance: `max_palette - 1 + Δ_G` (each vertex has its
    /// clique plus at most one conflict edge per original neighbor).
    pub fn degree_bound(instance: &ListColoringInstance) -> usize {
        let max_palette = instance
            .palettes()
            .iter()
            .map(|p| p.size())
            .max()
            .unwrap_or(0);
        max_palette.saturating_sub(1) + instance.max_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_mis;
    use crate::verify::verify_mis;
    use cc_graph::builder::GraphBuilder;
    use cc_graph::generators::{self, instance_with_palettes, PaletteKind};

    #[test]
    fn reduction_of_triangle_has_expected_size() {
        let g = GraphBuilder::complete(3).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        let red = ReductionGraph::build(&inst);
        // 3 nodes × 3 colors = 9 vertices.
        assert_eq!(red.graph().node_count(), 9);
        // Each node contributes a triangle (3 edges); each of the 3 original
        // edges contributes 3 conflict edges (one per shared color).
        assert_eq!(red.graph().edge_count(), 3 * 3 + 3 * 3);
        assert!(red.graph().max_degree() <= ReductionGraph::degree_bound(&inst));
    }

    #[test]
    fn mis_of_reduction_yields_proper_coloring() {
        for seed in 0..4 {
            let g = generators::gnp(40, 0.15, seed).unwrap();
            let inst = ListColoringInstance::deg_plus_one(&g).unwrap();
            let red = ReductionGraph::build(&inst);
            let mis = greedy_mis(red.graph());
            verify_mis(red.graph(), &mis.in_set).unwrap();
            let mut coloring = Coloring::empty(g.node_count());
            red.write_coloring(&mis.in_set, &mut coloring).unwrap();
            coloring.verify(&inst).unwrap();
        }
    }

    #[test]
    fn mis_of_reduction_respects_arbitrary_list_palettes() {
        let g = generators::gnp(30, 0.2, 7).unwrap();
        let inst =
            instance_with_palettes(&g, PaletteKind::DeltaPlusOneList { universe: 500 }, 3).unwrap();
        let red = ReductionGraph::build(&inst);
        let mis = greedy_mis(red.graph());
        let mut coloring = Coloring::empty(g.node_count());
        red.write_coloring(&mis.in_set, &mut coloring).unwrap();
        coloring.verify(&inst).unwrap();
    }

    #[test]
    fn non_maximal_set_is_rejected_when_extracting() {
        let g = GraphBuilder::path(2).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        let red = ReductionGraph::build(&inst);
        let empty = vec![false; red.graph().node_count()];
        let mut coloring = Coloring::empty(2);
        assert!(matches!(
            red.write_coloring(&empty, &mut coloring),
            Err(GraphError::Uncolored { .. })
        ));
    }

    #[test]
    fn origin_round_trips_vertex_layout() {
        let g = GraphBuilder::path(3).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        let red = ReductionGraph::build(&inst);
        let (node, color) = red.origin(NodeId(0));
        assert_eq!(node, NodeId(0));
        assert!(inst.palette(node).contains(color));
    }
}
