//! Color palettes.
//!
//! Every node of a list-coloring instance carries a palette. Two
//! representations are provided:
//!
//! * [`Palette::Explicit`] stores the colors as a sorted vector — the general
//!   (Δ+1)-list coloring case, where the input itself has size Θ(𝔫Δ).
//! * [`Palette::Range`] stores the interval `{0, …, len-1}` minus a (small)
//!   set of removed colors — the (Δ+1)-coloring case of Section 3.6 of the
//!   paper, where palettes are implicit and only colors already used by
//!   neighbors are stored, giving O(𝔪 + 𝔫) total space.
//!
//! The storage cost of a palette in machine words is reported by
//! [`Palette::words`], which is what the MPC space ledgers charge.

use crate::Color;

/// A palette of allowed colors for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Palette {
    /// Explicitly listed colors (sorted, deduplicated).
    Explicit(Vec<Color>),
    /// The implicit range `{0, …, len-1}` minus `removed` (sorted,
    /// deduplicated). Used for (Δ+1)-coloring where the initial palette is
    /// `[Δ+1]` and need not be materialized.
    Range {
        /// Number of colors in the underlying range.
        len: u64,
        /// Colors removed from the range (because a neighbor took them),
        /// sorted and deduplicated; all entries are `< len`.
        removed: Vec<Color>,
    },
}

impl Palette {
    /// An explicit palette from an arbitrary iterator of colors; duplicates
    /// are collapsed.
    pub fn explicit(colors: impl IntoIterator<Item = Color>) -> Self {
        let mut v: Vec<Color> = colors.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Palette::Explicit(v)
    }

    /// The implicit palette `{0, …, len-1}`.
    pub fn range(len: u64) -> Self {
        Palette::Range {
            len,
            removed: Vec::new(),
        }
    }

    /// Number of colors currently available.
    pub fn size(&self) -> usize {
        match self {
            Palette::Explicit(colors) => colors.len(),
            Palette::Range { len, removed } => (*len as usize).saturating_sub(removed.len()),
        }
    }

    /// Whether the palette is empty.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// Whether `color` is available in this palette.
    pub fn contains(&self, color: Color) -> bool {
        match self {
            Palette::Explicit(colors) => colors.binary_search(&color).is_ok(),
            Palette::Range { len, removed } => {
                color.0 < *len && removed.binary_search(&color).is_err()
            }
        }
    }

    /// Removes `color` if present; returns whether it was present.
    pub fn remove(&mut self, color: Color) -> bool {
        match self {
            Palette::Explicit(colors) => match colors.binary_search(&color) {
                Ok(i) => {
                    colors.remove(i);
                    true
                }
                Err(_) => false,
            },
            Palette::Range { len, removed } => {
                if color.0 >= *len {
                    return false;
                }
                match removed.binary_search(&color) {
                    Ok(_) => false,
                    Err(i) => {
                        removed.insert(i, color);
                        true
                    }
                }
            }
        }
    }

    /// Iterator over the available colors, in increasing order.
    pub fn iter(&self) -> PaletteIter<'_> {
        match self {
            Palette::Explicit(colors) => PaletteIter::Explicit(colors.iter()),
            Palette::Range { len, removed } => PaletteIter::Range {
                next: 0,
                len: *len,
                removed,
                removed_pos: 0,
            },
        }
    }

    /// The largest available color, if any. A range palette steps down from
    /// `len − 1` past its removed top colors instead of walking the range.
    pub fn max_color(&self) -> Option<Color> {
        match self {
            Palette::Explicit(colors) => colors.last().copied(),
            Palette::Range { len, removed } => {
                // One past the candidate; `removed` is sorted and below `len`.
                let mut end = *len;
                for &Color(c) in removed.iter().rev() {
                    if c + 1 != end {
                        break;
                    }
                    end = c;
                }
                end.checked_sub(1).map(Color)
            }
        }
    }

    /// Returns a new explicit palette containing only the colors for which
    /// `keep` returns true. This is how `Partition` restricts palettes to the
    /// colors hashed into a node's bin.
    pub fn filtered(&self, mut keep: impl FnMut(Color) -> bool) -> Palette {
        Palette::Explicit(self.iter().filter(|&c| keep(c)).collect())
    }

    /// Materializes the palette as an explicit, sorted color vector.
    pub fn to_vec(&self) -> Vec<Color> {
        self.iter().collect()
    }

    /// Storage cost in O(log 𝔫)-bit machine words.
    ///
    /// Explicit palettes cost one word per color; range palettes cost one
    /// word for the bound plus one word per removed color (the
    /// representation of Section 3.6).
    pub fn words(&self) -> usize {
        match self {
            Palette::Explicit(colors) => colors.len(),
            Palette::Range { removed, .. } => 1 + removed.len(),
        }
    }

    /// Whether the palette is stored implicitly (range form).
    pub fn is_implicit(&self) -> bool {
        matches!(self, Palette::Range { .. })
    }
}

impl FromIterator<Color> for Palette {
    fn from_iter<T: IntoIterator<Item = Color>>(iter: T) -> Self {
        Palette::explicit(iter)
    }
}

/// Iterator over the available colors of a [`Palette`].
#[derive(Debug, Clone)]
pub enum PaletteIter<'a> {
    /// Iterator over an explicit palette.
    Explicit(std::slice::Iter<'a, Color>),
    /// Iterator over a range palette, skipping removed colors.
    Range {
        /// Next candidate color value.
        next: u64,
        /// Exclusive upper bound of the range.
        len: u64,
        /// Removed colors (sorted).
        removed: &'a [Color],
        /// Cursor into `removed`.
        removed_pos: usize,
    },
}

impl Iterator for PaletteIter<'_> {
    type Item = Color;

    fn next(&mut self) -> Option<Color> {
        match self {
            PaletteIter::Explicit(it) => it.next().copied(),
            PaletteIter::Range {
                next,
                len,
                removed,
                removed_pos,
            } => {
                while *next < *len {
                    let candidate = Color(*next);
                    *next += 1;
                    while *removed_pos < removed.len() && removed[*removed_pos] < candidate {
                        *removed_pos += 1;
                    }
                    if *removed_pos < removed.len() && removed[*removed_pos] == candidate {
                        continue;
                    }
                    return Some(candidate);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_palette_dedups_and_sorts() {
        let p = Palette::explicit([Color(5), Color(1), Color(5), Color(3)]);
        assert_eq!(p.to_vec(), vec![Color(1), Color(3), Color(5)]);
        assert_eq!(p.size(), 3);
        assert!(p.contains(Color(3)));
        assert!(!p.contains(Color(2)));
    }

    #[test]
    fn range_palette_basic() {
        let mut p = Palette::range(5);
        assert_eq!(p.size(), 5);
        assert!(p.contains(Color(0)));
        assert!(p.contains(Color(4)));
        assert!(!p.contains(Color(5)));
        assert!(p.remove(Color(2)));
        assert!(!p.remove(Color(2)));
        assert!(!p.remove(Color(9)));
        assert_eq!(p.size(), 4);
        assert_eq!(p.to_vec(), vec![Color(0), Color(1), Color(3), Color(4)]);
        assert!(p.is_implicit());
    }

    #[test]
    fn remove_from_explicit() {
        let mut p = Palette::explicit([Color(1), Color(2), Color(3)]);
        assert!(p.remove(Color(2)));
        assert!(!p.remove(Color(2)));
        assert_eq!(p.size(), 2);
        let removed = [Color(1), Color(7), Color(3)].map(|c| p.remove(c));
        assert_eq!(removed, [true, false, true]);
        assert!(p.is_empty());
    }

    #[test]
    fn filtered_restricts_to_predicate() {
        let p = Palette::range(10);
        let evens = p.filtered(|c| c.0 % 2 == 0);
        assert_eq!(evens.size(), 5);
        assert!(evens.contains(Color(4)));
        assert!(!evens.contains(Color(5)));
    }

    #[test]
    fn words_accounting() {
        let explicit = Palette::explicit((0..100).map(Color));
        assert_eq!(explicit.words(), 100);
        let mut implicit = Palette::range(100);
        assert_eq!(implicit.words(), 1);
        implicit.remove(Color(3));
        implicit.remove(Color(7));
        assert_eq!(implicit.words(), 3);
    }

    #[test]
    fn from_iterator_collects_explicit() {
        let p: Palette = (0..4).map(Color).collect();
        assert_eq!(p.size(), 4);
        assert!(!p.is_implicit());
    }

    #[test]
    fn max_color_skips_removed_top_colors() {
        let mut p = Palette::range(10);
        assert_eq!(p.max_color(), Some(Color(9)));
        for c in [9, 8, 6] {
            p.remove(Color(c));
        }
        assert_eq!(p.max_color(), Some(Color(7)));
        assert_eq!(p.max_color(), p.iter().last());
        let mut gone = Palette::range(3);
        for c in 0..3 {
            gone.remove(Color(c));
        }
        assert_eq!(gone.max_color(), None);
        assert_eq!(Palette::range(0).max_color(), None);
        assert_eq!(Palette::explicit([]).max_color(), None);
        assert_eq!(
            Palette::explicit([Color(4), Color(2)]).max_color(),
            Some(Color(4))
        );
    }

    #[test]
    fn range_iterator_with_interleaved_removals() {
        let mut p = Palette::range(6);
        p.remove(Color(0));
        p.remove(Color(5));
        p.remove(Color(3));
        assert_eq!(p.to_vec(), vec![Color(1), Color(2), Color(4)]);
    }
}
