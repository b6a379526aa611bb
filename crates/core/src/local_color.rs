//! Greedy local coloring of collected instances, and the palette update
//! that precedes it.
//!
//! When an instance is small enough to fit on one machine, `ColorReduce`
//! collects it and colors it with the straightforward sequential greedy list
//! coloring: scan the nodes, give each the smallest palette color not used
//! by an already-colored neighbor. The invariant `p(v) > d(v)` (maintained by
//! Lemma 3.2) guarantees this always succeeds.
//!
//! Both kernels mark a node's neighbor colors in one bitmap, sized once per
//! call and cleared per node. The greedy step marks only the window its
//! first free color must lie in; the update marks a range palette's whole
//! range and rebuilds its removed set from the bitmap in one scan. For a
//! range palette, where a color is its own bitmap position, neighbor colors
//! come from an array of plain values, so marking one takes no branch.

use cc_graph::coloring::Coloring;
use cc_graph::csr::CsrGraph;
use cc_graph::palette::Palette;
use cc_graph::{Color, NodeId};

use crate::error::CoreError;

/// A bitmap over positions `0..width`, reused across a call's nodes, with
/// one spare word past the widest window.
struct Marks(Vec<u64>);

impl Marks {
    /// A bitmap for widths up to `width`.
    fn new(width: usize) -> Self {
        Marks(vec![0; width.div_ceil(64) + 1])
    }

    /// Clears positions `0..width`.
    fn clear(&mut self, width: usize) {
        self.0[..width.div_ceil(64)].fill(0);
    }

    /// Marks position `i`.
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Marks position `i` if it is below `width`, without a branch: any
    /// other position sets a bit of the spare word, which nothing reads.
    fn set_below(&mut self, i: u64, width: usize) {
        let spare = (self.0.len() - 1) * 64;
        self.set(if i < width as u64 { i as usize } else { spare });
    }

    /// The first unmarked position below `width`, if any.
    fn first_clear(&self, width: usize) -> Option<usize> {
        self.0[..width.div_ceil(64)]
            .iter()
            .enumerate()
            .find(|(_, &word)| word != u64::MAX)
            .map(|(w, word)| w * 64 + (!word).trailing_zeros() as usize)
            .filter(|&i| i < width)
    }

    /// The marked positions below `width`, ascending.
    fn marked(&self, width: usize) -> impl Iterator<Item = usize> + '_ {
        self.0[..width.div_ceil(64)]
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        w * 64 + bit
                    })
                })
            })
    }
}

/// Every node's color as a plain value, `u64::MAX` for an uncolored node:
/// the range kernels mark a neighbor's color from it without branching on
/// whether the neighbor has one, which half the neighbors may not. No range
/// palette holds `u64::MAX`, so a node with that color marks nothing there,
/// as it should.
fn color_values(coloring: &Coloring) -> Vec<u64> {
    (0..coloring.node_count())
        .map(|i| {
            coloring
                .color_of(NodeId::from_index(i))
                .map_or(u64::MAX, |c| c.0)
        })
        .collect()
}

/// How many of a palette's smallest colors can hold the first one that `d`
/// neighbors leave free: `d` + 1 of them, plus the removed colors of a range
/// palette, capped at the palette.
fn greedy_window(palette: &Palette, d: usize) -> usize {
    match palette {
        Palette::Range { len, removed } => (d + 1 + removed.len()).min(*len as usize),
        Palette::Explicit(colors) => (d + 1).min(colors.len()),
    }
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
    let window = |v: NodeId| greedy_window(&palettes[v.index()], graph.degree(v));
    let mut marks = Marks::new(nodes.iter().map(|&v| window(v)).max().unwrap_or(0));
    let ranges = nodes.iter().any(|v| palettes[v.index()].is_implicit());
    let mut values = if ranges {
        color_values(coloring)
    } else {
        Vec::new()
    };
    // cc-lint: region(no_alloc)
    for &v in nodes {
        let width = window(v);
        marks.clear(width);
        // Mark the window's blocked positions: a range palette's position is
        // the color itself, an explicit palette's its index in the list.
        let color = match &palettes[v.index()] {
            Palette::Range { removed, .. } => {
                for u in graph.neighbor_slice(v) {
                    marks.set_below(values[u.index()], width);
                }
                for &Color(c) in removed {
                    marks.set_below(c, width);
                }
                marks.first_clear(width).map(|c| Color(c as u64))
            }
            Palette::Explicit(colors) => {
                let colors = &colors[..width];
                for color in graph.neighbors(v).filter_map(|u| coloring.color_of(u)) {
                    if let Ok(i) = colors.binary_search(&color) {
                        marks.set(i);
                    }
                }
                marks.first_clear(width).map(|i| colors[i])
            }
        };
        let color = color.ok_or(CoreError::PaletteExhausted { node: v })?;
        coloring.assign(v, color)?;
        if ranges {
            values[v.index()] = color.0;
        }
    }
    // cc-lint: end_region
    Ok(())
}

/// The bitmap width a node's palette update uses: a range palette's whole
/// range, unless that takes more words than the node has neighbors and
/// removed colors (a range far wider than the degree), in which case, as for
/// an explicit palette, its neighbors' colors are removed one at a time.
fn update_width(palette: &Palette, d: usize) -> Option<usize> {
    match palette {
        Palette::Range { len, removed } if len.div_ceil(64) <= (d + 1 + removed.len()) as u64 => {
            Some(*len as usize)
        }
        _ => None,
    }
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
    let width =
        |palettes: &[Palette], v: NodeId| update_width(&palettes[v.index()], graph.degree(v));
    let widest = nodes.iter().filter_map(|&v| width(palettes, v)).max();
    let mut marks = Marks::new(widest.unwrap_or(0));
    let values = widest.map_or(Vec::new(), |_| color_values(coloring));
    let mut count = 0usize;
    // cc-lint: region(no_alloc)
    for &v in nodes {
        let width = width(palettes, v);
        match (&mut palettes[v.index()], width) {
            (Palette::Range { removed, .. }, Some(width)) => {
                marks.clear(width);
                for u in graph.neighbor_slice(v) {
                    marks.set_below(values[u.index()], width);
                }
                let before = removed.len();
                for &Color(c) in removed.iter() {
                    marks.set(c as usize);
                }
                removed.clear();
                removed.extend(marks.marked(width).map(|c| Color(c as u64)));
                count += removed.len() - before;
            }
            // A neighbor's color is rarely in an explicit list, so one
            // binary search per colored neighbor beats marking the list.
            (palette, _) => {
                let neighbor_colors = graph.neighbors(v).filter_map(|u| coloring.color_of(u));
                count += neighbor_colors.filter(|&c| palette.remove(c)).count();
            }
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
