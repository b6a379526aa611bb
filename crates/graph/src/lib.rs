//! Graph, palette, and list-coloring substrate for the congested-clique
//! coloring reproduction.
//!
//! This crate provides everything the coloring algorithms of
//! Czumaj–Davies–Parter (PODC 2020) consume and produce:
//!
//! * [`csr::CsrGraph`] — a compact, immutable adjacency structure,
//! * [`palette::Palette`] — explicit and implicit color palettes,
//! * [`instance::ListColoringInstance`] — a graph together with one palette
//!   per node, the input object of every algorithm in the workspace,
//! * [`coloring::Coloring`] — a (partial) color assignment with verification,
//! * [`generators`] — the graph and palette families used by the experiments,
//! * [`subgraph`] — induced subgraphs with global/local id mappings, used
//!   by the low-space algorithm's reduction to MIS.
//!
//! # Example
//!
//! ```
//! use cc_graph::builder::GraphBuilder;
//! use cc_graph::instance::ListColoringInstance;
//! use cc_graph::coloring::Coloring;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = GraphBuilder::cycle(5).build();
//! let instance = ListColoringInstance::delta_plus_one(&graph)?;
//! let mut coloring = Coloring::empty(graph.node_count());
//! // Greedy-color the cycle from each node's palette.
//! for v in graph.nodes() {
//!     let used: Vec<_> = graph
//!         .neighbors(v)
//!         .filter_map(|u| coloring.color_of(u))
//!         .collect();
//!     let color = instance
//!         .palette(v)
//!         .iter()
//!         .find(|c| !used.contains(c))
//!         .expect("palette larger than degree");
//!     coloring.assign(v, color)?;
//! }
//! coloring.verify(&instance)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod coloring;
pub mod csr;
pub mod error;
pub mod generators;
pub mod instance;
pub mod palette;
pub mod subgraph;

pub use error::GraphError;

/// Identifier of a node in a graph.
///
/// Nodes of an `n`-node graph are always the contiguous range `0..n`; the
/// newtype exists so that node indices are not confused with counts, colors,
/// machine ids, or bin indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

/// A color. In the (Δ+1)-list coloring problem the number of distinct colors
/// over all palettes can be as large as 𝔫², so colors are 64-bit. The
/// coloring drivers hash colors into the prime field of order 2⁶¹ − 1, so
/// they take colors up to 2⁶¹ − 3 and return an error for a larger one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Color(pub u64);

impl Color {
    /// Returns the raw color value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u64> for Color {
    fn from(value: u64) -> Self {
        Color(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let v = NodeId::from_index(17);
        assert_eq!(v.index(), 17);
        assert_eq!(v, NodeId(17));
        assert_eq!(format!("{v}"), "v17");
    }

    #[test]
    fn color_ordering_and_display() {
        let a = Color(3);
        let b = Color(7);
        assert!(a < b);
        assert_eq!(format!("{a}"), "c3");
        assert_eq!(Color::from(9u64).value(), 9);
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32::MAX")]
    fn node_id_overflow_panics() {
        let _ = NodeId::from_index(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
