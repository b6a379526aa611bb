//! Incremental construction of [`CsrGraph`]s plus small named topologies used
//! throughout tests and examples.

use crate::csr::CsrGraph;
use crate::NodeId;

/// A mutable edge-list builder for [`CsrGraph`].
///
/// ```
/// use cc_graph::builder::GraphBuilder;
/// use cc_graph::NodeId;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `node_count` nodes with no edges.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge `{u, v}`. Self-loops and out-of-range
    /// endpoints are ignored silently here and rejected by [`build`]'s
    /// checked counterpart [`GraphBuilder::try_build`].
    ///
    /// [`build`]: GraphBuilder::build
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Builds the graph, panicking on malformed edges.
    ///
    /// # Panics
    ///
    /// Panics if any queued edge is a self-loop or references a node outside
    /// the graph. Use [`GraphBuilder::try_build`] for a fallible variant.
    pub fn build(&self) -> CsrGraph {
        self.try_build().expect("malformed edge list")
    }

    /// Builds the graph, returning an error on malformed edges.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::GraphError`] for self-loops or
    /// out-of-range endpoints.
    pub fn try_build(&self) -> Result<CsrGraph, crate::GraphError> {
        CsrGraph::from_edges(self.node_count, self.edges.iter().copied())
    }

    /// The cycle C_n (for `n >= 3`; smaller `n` produce a path or a single
    /// node).
    pub fn cycle(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        if n >= 2 {
            for i in 0..n {
                let j = (i + 1) % n;
                if i < j || (j == 0 && n > 2) {
                    b.add_edge(NodeId::from_index(i), NodeId::from_index(j));
                }
            }
        }
        b
    }

    /// The path P_n on `n` nodes.
    pub fn path(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i));
        }
        b
    }

    /// The complete graph K_n.
    pub fn complete(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
        b
    }

    /// The star K_{1,n-1} with node 0 as the hub.
    pub fn star(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge(NodeId(0), NodeId::from_index(i));
        }
        b
    }

    /// The complete bipartite graph K_{a,b}; the first `a` nodes form one
    /// side.
    pub fn complete_bipartite(a: usize, b: usize) -> Self {
        let mut builder = GraphBuilder::new(a + b);
        for i in 0..a {
            for j in 0..b {
                builder.add_edge(NodeId::from_index(i), NodeId::from_index(a + j));
            }
        }
        builder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_has_n_edges_and_degree_two() {
        let g = GraphBuilder::cycle(6).build();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn cycle_of_two_is_a_single_edge() {
        let g = GraphBuilder::cycle(2).build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn path_has_n_minus_one_edges() {
        let g = GraphBuilder::path(5).build();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 2);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = GraphBuilder::complete(7).build();
        assert_eq!(g.edge_count(), 7 * 6 / 2);
        assert_eq!(g.max_degree(), 6);
    }

    #[test]
    fn star_degrees() {
        let g = GraphBuilder::star(9).build();
        assert_eq!(g.degree(NodeId(0)), 8);
        assert!(g.nodes().skip(1).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = GraphBuilder::complete_bipartite(3, 4).build();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(g.degree(NodeId(3)), 3);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn try_build_rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(1), NodeId(1));
        assert!(b.try_build().is_err());
    }

    #[test]
    fn builder_chaining_and_queued_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1))
            .add_edge(NodeId(1), NodeId(2))
            .add_edge(NodeId(0), NodeId(2));
        assert_eq!(b.build().edge_count(), 3);
    }
}
