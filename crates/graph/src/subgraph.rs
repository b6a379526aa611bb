//! Induced subgraphs with global ↔ local id mappings.
//!
//! `ColorReduce`'s recursion never materializes the graphs its bins induce:
//! it works on active node sets (`ActiveSubgraph` in the core crate). An
//! [`InducedSubgraph`] is built where a graph with local ids `0..k` is
//! needed: by the low-space algorithm, which hands its low-degree residual
//! to the reduction to MIS, and by tests.

use crate::csr::CsrGraph;
use crate::NodeId;

/// A graph induced by a subset of nodes of a parent graph, with the mapping
/// back to the parent's node ids.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced graph, with local ids `0..k`.
    pub graph: CsrGraph,
    /// `to_global[local]` is the parent id of local node `local`.
    pub to_global: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Extracts the subgraph of `parent` induced by `nodes`.
    ///
    /// Duplicate entries in `nodes` are collapsed; the local ordering follows
    /// increasing global id.
    pub fn new(parent: &CsrGraph, nodes: &[NodeId]) -> Self {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut global_to_local = vec![usize::MAX; parent.node_count()];
        for (local, &g) in sorted.iter().enumerate() {
            global_to_local[g.index()] = local;
        }
        // Two-pass counting build (degree count → prefix sum → placement),
        // mirroring the runtime's counting-sort router: one flat neighbor
        // buffer, no per-node `Vec` intermediates. Parent adjacency is
        // sorted by global id and the local order preserves it, so each
        // placed segment is already sorted and duplicate-free.
        let mut offsets = vec![0usize; sorted.len() + 1];
        for (local, &g) in sorted.iter().enumerate() {
            offsets[local + 1] = parent
                .neighbors(g)
                .filter(|u| global_to_local[u.index()] != usize::MAX)
                .count();
        }
        for local in 0..sorted.len() {
            offsets[local + 1] += offsets[local];
        }
        let mut neighbors = vec![NodeId(0); offsets[sorted.len()]];
        for (local, &g) in sorted.iter().enumerate() {
            let mut write = offsets[local];
            for u in parent.neighbors(g) {
                let lu = global_to_local[u.index()];
                if lu != usize::MAX {
                    neighbors[write] = NodeId::from_index(lu);
                    write += 1;
                }
            }
        }
        InducedSubgraph {
            graph: CsrGraph::from_sorted_parts(offsets, neighbors),
            to_global: sorted,
        }
    }

    /// Number of nodes in the subgraph.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Maps a local node id back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.to_global[local.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn induced_subgraph_of_cycle() {
        let g = GraphBuilder::cycle(6).build();
        // Nodes 0,1,2,3 of C6 induce a path 0-1-2-3.
        let sub = InducedSubgraph::new(&g, &[NodeId(3), NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sub.node_count(), 4);
        assert_eq!(sub.graph.edge_count(), 3);
        assert_eq!(sub.to_global(NodeId(0)), NodeId(0));
        assert_eq!(sub.to_global(NodeId(3)), NodeId(3));
        assert_eq!(sub.graph.degree(NodeId(0)), 1);
        assert_eq!(sub.graph.degree(NodeId(1)), 2);
    }

    #[test]
    fn induced_subgraph_deduplicates_nodes() {
        let g = GraphBuilder::complete(4).build();
        let sub = InducedSubgraph::new(&g, &[NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.graph.edge_count(), 1);
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = GraphBuilder::complete(4).build();
        let sub = InducedSubgraph::new(&g, &[]);
        assert_eq!(sub.node_count(), 0);
        assert_eq!(sub.graph.edge_count(), 0);
    }

    #[test]
    fn neighbor_lists_of_induced_subgraph_are_sorted() {
        let g = GraphBuilder::complete(5).build();
        let sub = InducedSubgraph::new(&g, &[NodeId(4), NodeId(2), NodeId(0)]);
        for v in sub.graph.nodes() {
            let nbrs: Vec<_> = sub.graph.neighbors(v).collect();
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            assert_eq!(nbrs, sorted);
        }
    }
}
