//! Greedy local coloring of collected instances, and the palette update
//! that precedes it.
//!
//! When an instance is small enough to fit on one machine, `ColorReduce`
//! collects it and colors it with the straightforward sequential greedy list
//! coloring: scan the nodes, give each the smallest palette color not used
//! by an already-colored neighbor. The invariant `p(v) > d(v)` (maintained by
//! Lemma 3.2) guarantees this always succeeds.
//!
//! Both kernels mark a node's removed base positions and those of its
//! neighbors' colors in one bitmap, sized once per call and cleared per
//! node: the greedy step only the window its first free position must lie
//! in, the update the whole base, whose removed set it then rebuilds from
//! the bitmap. Only finding a color's position depends on the base, chosen
//! once per node: in a range it is the color, read from an array of plain
//! values without a branch; in a list a binary search finds it.

use cc_graph::coloring::Coloring;
use cc_graph::csr::CsrGraph;
use cc_graph::palette::{Base, Palette};
use cc_graph::NodeId;

use crate::error::CoreError;

/// A bitmap over positions `0..width`, reused across a call's nodes, with
/// one spare word past the widest window.
struct Marks(Vec<u64>);

impl Marks {
    /// A bitmap for widths up to `width`.
    fn new(width: usize) -> Self {
        Marks(vec![0; width.div_ceil(64) + 1])
    }

    /// The words holding positions `0..width`.
    fn words(&self, width: usize) -> &[u64] {
        &self.0[..width.div_ceil(64)]
    }

    /// Marks position `i` if it is below `width`, without a branch: any
    /// other position sets a bit of the spare word, which nothing reads.
    fn set_below(&mut self, i: u64, width: usize) {
        let i = if i < width as u64 {
            i as usize
        } else {
            (self.0.len() - 1) * 64
        };
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Clears positions `0..width`, then marks those that `palette` has
    /// removed or that hold the colors of `v`'s colored neighbors, which a
    /// range reads from `values` and a list from `coloring`.
    fn mark(
        &mut self,
        palette: &Palette,
        width: usize,
        (graph, v): (&CsrGraph, NodeId),
        (values, coloring): (&[u64], &Coloring),
    ) {
        self.0[..width.div_ceil(64)].fill(0);
        for &p in palette.removed() {
            self.set_below(p, width);
        }
        match palette.base() {
            Base::Range(_) => {
                for u in graph.neighbor_slice(v) {
                    self.set_below(values[u.index()], width);
                }
            }
            Base::List(list) => {
                for color in graph.neighbors(v).filter_map(|u| coloring.color_of(u)) {
                    if let Ok(i) = list[..width].binary_search(&color) {
                        self.set_below(i as u64, width);
                    }
                }
            }
        }
    }

    /// The first unmarked position below `width`, if any.
    fn first_clear(&self, width: usize) -> Option<u64> {
        let words = self.words(width);
        let (w, word) = (0..).zip(words).find(|(_, &word)| word != u64::MAX)?;
        Some(w * 64 + u64::from((!word).trailing_zeros())).filter(|&p| p < width as u64)
    }

    /// The marked positions below `width`, ascending.
    fn marked(&self, width: usize) -> impl Iterator<Item = u64> + '_ {
        (0..).zip(self.words(width)).flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    w * 64 + u64::from(bit)
                })
            })
        })
    }
}

/// Every node's color as a plain value, `u64::MAX` for an uncolored node,
/// if some of `nodes` has a range palette: a range marks a neighbor's color
/// from it without branching on whether the neighbor has one, which half
/// the neighbors may not. No range holds `u64::MAX`, so that value marks
/// nothing there; a list may hold it, so lists read the coloring instead.
fn color_values(palettes: &[Palette], coloring: &Coloring, nodes: &[NodeId]) -> Vec<u64> {
    if !nodes.iter().any(|v| palettes[v.index()].is_implicit()) {
        return Vec::new();
    }
    let mut values = vec![u64::MAX; coloring.node_count()];
    for (v, color) in coloring.assignments() {
        values[v.index()] = color.0;
    }
    values
}

/// Greedily colors `nodes` (in the given order) from their current palettes,
/// avoiding the colors of *all* already-colored neighbors in `graph`.
///
/// # Errors
///
/// Returns [`CoreError::PaletteExhausted`] if some node has no usable color —
/// which cannot happen while the palette invariants hold, so hitting it
/// indicates a bookkeeping bug (or a deliberately broken test input).
pub fn color_greedily(
    graph: &CsrGraph,
    palettes: &[Palette],
    coloring: &mut Coloring,
    nodes: &[NodeId],
) -> Result<(), CoreError> {
    // The first free position lies among the first d(v) + 1 + |removed|.
    let window = |v: NodeId| {
        let palette = &palettes[v.index()];
        (graph.degree(v) + 1 + palette.removed().len()).min(palette.base().size() as usize)
    };
    let mut marks = Marks::new(nodes.iter().map(|&v| window(v)).max().unwrap_or(0));
    let mut values = color_values(palettes, coloring, nodes);
    // cc-lint: region(no_alloc)
    for &v in nodes {
        let (palette, width) = (&palettes[v.index()], window(v));
        marks.mark(palette, width, (graph, v), (&values, coloring));
        let color = marks.first_clear(width).map(|p| palette.base().color(p));
        let color = color.ok_or(CoreError::PaletteExhausted { node: v })?;
        coloring.assign(v, color)?;
        if let Some(value) = values.get_mut(v.index()) {
            *value = color.0;
        }
    }
    // cc-lint: end_region
    Ok(())
}

/// Removes from the palette of every node in `nodes` the colors already used
/// by its neighbors. This is the palette update the paper performs before
/// coloring the last bin G_{ℓ^0.1} and the bad-node graph G₀.
///
/// Returns the total number of colors removed.
pub fn update_palettes_from_neighbors(
    graph: &CsrGraph,
    palettes: &mut [Palette],
    coloring: &Coloring,
    nodes: &[NodeId],
) -> usize {
    // A node marks its whole base, unless that takes more words than it has
    // neighbors and removed colors: then it removes colors one at a time.
    let width = |palettes: &[Palette], v: NodeId| {
        let (palette, d) = (&palettes[v.index()], graph.degree(v));
        let size = palette.base().size();
        (size.div_ceil(64) <= (d + 1 + palette.removed().len()) as u64).then_some(size as usize)
    };
    let widest = nodes.iter().filter_map(|&v| width(palettes, v)).max();
    let mut marks = Marks::new(widest.unwrap_or(0));
    let values = color_values(palettes, coloring, nodes);
    let mut count = 0usize;
    // cc-lint: region(no_alloc)
    for &v in nodes {
        let (width, palette) = (width(palettes, v), &mut palettes[v.index()]);
        let Some(width) = width else {
            let neighbor_colors = graph.neighbors(v).filter_map(|u| coloring.color_of(u));
            count += neighbor_colors.filter(|&c| palette.remove(c)).count();
            continue;
        };
        marks.mark(palette, width, (graph, v), (&values, coloring));
        let before = palette.removed().len();
        let words = marks.words(width);
        let after: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if after > before {
            palette.set_removed(marks.marked(width));
            count += after - before;
        }
    }
    // cc-lint: end_region
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::builder::GraphBuilder;
    use cc_graph::instance::ListColoringInstance;
    use cc_graph::Color;

    #[test]
    fn greedy_colors_a_clique_with_exactly_delta_plus_one_colors() {
        let g = GraphBuilder::complete(5).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        let mut coloring = Coloring::empty(5);
        let nodes: Vec<NodeId> = g.nodes().collect();
        color_greedily(&g, inst.palettes(), &mut coloring, &nodes).unwrap();
        coloring.verify(&inst).unwrap();
        assert_eq!(coloring.distinct_colors(), 5);
    }

    #[test]
    fn greedy_respects_previously_colored_neighbors() {
        let g = GraphBuilder::path(3).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        let mut coloring = Coloring::empty(3);
        coloring.assign(NodeId(1), Color(0)).unwrap();
        color_greedily(&g, inst.palettes(), &mut coloring, &[NodeId(0), NodeId(2)]).unwrap();
        assert_ne!(coloring.color_of(NodeId(0)), Some(Color(0)));
        assert_ne!(coloring.color_of(NodeId(2)), Some(Color(0)));
        coloring.verify(&inst).unwrap();
    }

    #[test]
    fn exhausted_palette_is_reported() {
        let g = GraphBuilder::path(2).build();
        let palettes = vec![Palette::explicit([Color(0)]), Palette::explicit([Color(0)])];
        let mut coloring = Coloring::empty(2);
        let err =
            color_greedily(&g, &palettes, &mut coloring, &[NodeId(0), NodeId(1)]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PaletteExhausted { node: NodeId(1) }
        ));
    }

    #[test]
    fn palette_update_removes_neighbor_colors() {
        let g = GraphBuilder::star(4).build();
        let mut palettes: Vec<Palette> = (0..4).map(|_| Palette::range(5)).collect();
        let mut coloring = Coloring::empty(4);
        coloring.assign(NodeId(1), Color(2)).unwrap();
        coloring.assign(NodeId(2), Color(3)).unwrap();
        let removed = update_palettes_from_neighbors(&g, &mut palettes, &coloring, &[NodeId(0)]);
        assert_eq!(removed, 2);
        assert!(!palettes[0].contains(Color(2)));
        assert!(!palettes[0].contains(Color(3)));
        assert_eq!(palettes[0].size(), 3);
        // Leaves other palettes untouched.
        assert_eq!(palettes[3].size(), 5);
        // Removing again is a no-op.
        assert_eq!(
            update_palettes_from_neighbors(&g, &mut palettes, &coloring, &[NodeId(0)]),
            0
        );
    }
}
