//! Partial and complete color assignments and their verification.

use crate::instance::ListColoringInstance;
use crate::{Color, GraphError, NodeId};

/// A (possibly partial) assignment of colors to nodes.
///
/// Eight bytes per node plus one bit: each node's color value, and a
/// bitmap of the colored nodes. An uncolored node's value stays 0, so two
/// colorings are equal exactly when they color the same nodes alike, in
/// whatever order they were assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `values[v]` is `v`'s color, or 0 while `v` is uncolored.
    values: Vec<u64>,
    /// Bit `v % 64` of word `v / 64` is set once `v` is colored; the bits
    /// past the last node stay clear.
    colored: Vec<u64>,
}

impl Coloring {
    /// An empty coloring of `node_count` nodes.
    pub fn empty(node_count: usize) -> Self {
        Coloring {
            values: vec![0; node_count],
            colored: vec![0; node_count.div_ceil(64)],
        }
    }

    /// Number of nodes the coloring covers (colored or not).
    pub fn node_count(&self) -> usize {
        self.values.len()
    }

    /// The color of `v`, if assigned.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn color_of(&self, v: NodeId) -> Option<Color> {
        let i = v.index();
        let value = self.values[i];
        self.has(i).then_some(Color(value))
    }

    /// Whether `v` has been assigned a color.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn is_colored(&self, v: NodeId) -> bool {
        self.color_of(v).is_some()
    }

    /// Whether node index `i` is colored; `i` must be in range.
    #[inline]
    fn has(&self, i: usize) -> bool {
        self.colored[i / 64] >> (i % 64) & 1 == 1
    }

    /// Assigns `color` to `v`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::AlreadyColored`] if `v` already has a color.
    pub fn assign(&mut self, v: NodeId, color: Color) -> Result<(), GraphError> {
        if self.is_colored(v) {
            return Err(GraphError::AlreadyColored { node: v });
        }
        let i = v.index();
        self.values[i] = color.0;
        self.colored[i / 64] |= 1 << (i % 64);
        Ok(())
    }

    /// Number of colored nodes.
    pub fn colored_count(&self) -> usize {
        self.colored.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every node has a color.
    pub fn is_complete(&self) -> bool {
        self.colored_count() == self.values.len()
    }

    /// Iterator over `(node, color)` pairs for the colored nodes, in node
    /// order.
    pub fn assignments(&self) -> impl Iterator<Item = (NodeId, Color)> + '_ {
        (0..self.values.len())
            .filter(|&i| self.has(i))
            .map(|i| (NodeId::from_index(i), Color(self.values[i])))
    }

    /// Number of distinct colors used.
    pub fn distinct_colors(&self) -> usize {
        let mut used: Vec<Color> = self.assignments().map(|(_, color)| color).collect();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// Lists every monochromatic edge among *colored* nodes.
    pub fn conflicts(&self, instance: &ListColoringInstance) -> Vec<(NodeId, NodeId, Color)> {
        let graph = instance.graph();
        let mut out = Vec::new();
        for (u, v) in graph.edges() {
            if let (Some(cu), Some(cv)) = (self.color_of(u), self.color_of(v)) {
                if cu == cv {
                    out.push((u, v, cu));
                }
            }
        }
        out
    }

    /// Verifies that the colored nodes form a proper partial list coloring:
    /// no monochromatic edge between colored nodes and every assigned color
    /// lies in its node's palette.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`GraphError`].
    pub fn verify_partial(&self, instance: &ListColoringInstance) -> Result<(), GraphError> {
        let graph = instance.graph();
        for (v, color) in self.assignments() {
            if !instance.palette(v).contains(color) {
                return Err(GraphError::ColorNotInPalette { node: v, color });
            }
            for u in graph.neighbors(v) {
                if u > v {
                    continue;
                }
                if self.color_of(u) == Some(color) {
                    return Err(GraphError::MonochromaticEdge { u, v, color });
                }
            }
        }
        Ok(())
    }

    /// Verifies that this is a *complete* proper list coloring of
    /// `instance`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Uncolored`] if a node is missing a color, and
    /// otherwise the first palette or properness violation.
    pub fn verify(&self, instance: &ListColoringInstance) -> Result<(), GraphError> {
        for v in instance.graph().nodes() {
            if !self.is_colored(v) {
                return Err(GraphError::Uncolored { node: v });
            }
        }
        self.verify_partial(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::instance::ListColoringInstance;

    fn triangle_instance() -> ListColoringInstance {
        let g = GraphBuilder::complete(3).build();
        ListColoringInstance::delta_plus_one(&g).unwrap()
    }

    #[test]
    fn assign_and_query() {
        let mut c = Coloring::empty(3);
        assert!(!c.is_colored(NodeId(0)));
        c.assign(NodeId(0), Color(2)).unwrap();
        assert_eq!(c.color_of(NodeId(0)), Some(Color(2)));
        assert_eq!(c.colored_count(), 1);
        assert!(!c.is_complete());
        assert!(matches!(
            c.assign(NodeId(0), Color(1)),
            Err(GraphError::AlreadyColored { node: NodeId(0) })
        ));
        // Color 0 and u64::MAX on either side of a bitmap word boundary:
        // the value 0 of an uncolored node never reads as a color.
        let mut wide = Coloring::empty(65);
        wide.assign(NodeId(63), Color(0)).unwrap();
        assert_eq!(wide.color_of(NodeId(63)), Some(Color(0)));
        assert_eq!(wide.color_of(NodeId(64)), None);
        assert_eq!(wide.colored_count(), 1);
        wide.assign(NodeId(64), Color(u64::MAX)).unwrap();
        assert_eq!(wide.color_of(NodeId(64)), Some(Color(u64::MAX)));
        assert_eq!(wide.color_of(NodeId(62)), None);
        assert_eq!(wide.colored_count(), 2);
        assert!(matches!(
            wide.assign(NodeId(63), Color(5)),
            Err(GraphError::AlreadyColored { node: NodeId(63) })
        ));
        for v in 0..63 {
            wide.assign(NodeId(v), Color(u64::from(v) + 1)).unwrap();
        }
        assert_eq!(wide.colored_count(), 65);
        assert!(wide.is_complete());
        assert_eq!(wide.distinct_colors(), 65);
    }

    #[test]
    fn verify_accepts_proper_coloring() {
        let inst = triangle_instance();
        let mut c = Coloring::empty(3);
        c.assign(NodeId(0), Color(0)).unwrap();
        c.assign(NodeId(1), Color(1)).unwrap();
        c.assign(NodeId(2), Color(2)).unwrap();
        c.verify(&inst).unwrap();
        assert_eq!(c.distinct_colors(), 3);
        assert!(c.conflicts(&inst).is_empty());
    }

    #[test]
    fn verify_rejects_monochromatic_edge() {
        let inst = triangle_instance();
        let mut c = Coloring::empty(3);
        c.assign(NodeId(0), Color(0)).unwrap();
        c.assign(NodeId(1), Color(0)).unwrap();
        c.assign(NodeId(2), Color(2)).unwrap();
        let err = c.verify(&inst).unwrap_err();
        assert!(matches!(err, GraphError::MonochromaticEdge { .. }));
        assert_eq!(c.conflicts(&inst).len(), 1);
    }

    #[test]
    fn verify_rejects_out_of_palette_color() {
        let inst = triangle_instance();
        let mut c = Coloring::empty(3);
        c.assign(NodeId(0), Color(99)).unwrap();
        c.assign(NodeId(1), Color(1)).unwrap();
        c.assign(NodeId(2), Color(2)).unwrap();
        assert!(matches!(
            c.verify(&inst),
            Err(GraphError::ColorNotInPalette {
                node: NodeId(0),
                color: Color(99)
            })
        ));
    }

    #[test]
    fn verify_rejects_incomplete() {
        let inst = triangle_instance();
        let mut c = Coloring::empty(3);
        c.assign(NodeId(0), Color(0)).unwrap();
        assert!(matches!(c.verify(&inst), Err(GraphError::Uncolored { .. })));
        // But the partial verification passes.
        c.verify_partial(&inst).unwrap();
    }

    #[test]
    fn assignments_iterator() {
        let mut c = Coloring::empty(4);
        c.assign(NodeId(2), Color(5)).unwrap();
        c.assign(NodeId(0), Color(1)).unwrap();
        let pairs: Vec<_> = c.assignments().collect();
        assert_eq!(pairs, vec![(NodeId(0), Color(1)), (NodeId(2), Color(5))]);
        // Node order, whatever the assignment order, across bitmap words;
        // colorings assigned in different orders are equal.
        let nodes = [64u32, 0, 63, 1];
        let colors = [Color(u64::MAX), Color(0), Color(0), Color(7)];
        let mut forward = Coloring::empty(65);
        let mut backward = Coloring::empty(65);
        for (&v, &color) in nodes.iter().zip(&colors) {
            forward.assign(NodeId(v), color).unwrap();
        }
        for (&v, &color) in nodes.iter().zip(&colors).rev() {
            assert_ne!(forward, backward);
            backward.assign(NodeId(v), color).unwrap();
        }
        assert_eq!(forward, backward);
        assert_ne!(forward, Coloring::empty(65));
        let pairs: Vec<_> = forward.assignments().collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), Color(0)),
                (NodeId(1), Color(7)),
                (NodeId(63), Color(0)),
                (NodeId(64), Color(u64::MAX)),
            ]
        );
        assert_eq!(forward.colored_count(), 4);
        assert_eq!(forward.distinct_colors(), 3);
    }
}
