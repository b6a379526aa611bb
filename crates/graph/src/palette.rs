//! Color palettes.
//!
//! Every node of a list-coloring instance carries a palette: a [`Base`] set
//! of colors minus a sorted set of removed positions in that base. The base
//! is a range `{0, …, len-1}`, where a color is its own position, or a
//! sorted color list shared through an [`Arc`], where a binary search finds
//! a color's position. Ranges are the implicit (Δ+1)-palettes of Section 3.6
//! of the paper, which store only the colors neighbors took, for O(𝔪 + 𝔫)
//! total space; lists are the general case, whose input has size Θ(𝔫Δ). A
//! removal never touches the base, so a clone shares its list.
//!
//! [`Palette::words`] is a palette's storage cost in O(log 𝔫)-bit machine
//! words, which is what the MPC space ledgers charge.

use std::sync::Arc;

use crate::Color;

/// The colors a palette starts from, at positions `0..size`.
#[derive(Debug, Clone)]
pub enum Base {
    /// The range `{0, …, len-1}`: a color is its own position.
    Range(u64),
    /// A sorted, deduplicated color list, shared by every clone.
    List(Arc<Vec<Color>>),
}

impl Base {
    /// Number of colors in the base.
    pub fn size(&self) -> u64 {
        match self {
            Base::Range(len) => *len,
            Base::List(colors) => colors.len() as u64,
        }
    }

    /// The position of `color`, if the base holds it.
    fn position(&self, color: Color) -> Option<u64> {
        match self {
            Base::Range(len) => (color.0 < *len).then_some(color.0),
            Base::List(colors) => colors.binary_search(&color).ok().map(|i| i as u64),
        }
    }

    /// The color at `position`, which must be below [`Self::size`].
    pub fn color(&self, position: u64) -> Color {
        match self {
            Base::Range(_) => Color(position),
            Base::List(colors) => colors[position as usize],
        }
    }
}

/// A palette of allowed colors for one node: its base minus its removed positions.
#[derive(Debug, Clone)]
pub struct Palette {
    base: Base,
    /// The removed positions, ascending; boxed and absent until the first
    /// removal, so that a palette without one takes three words.
    #[allow(clippy::box_collection)]
    removed: Option<Box<Vec<u64>>>,
}

impl Palette {
    /// All of `base`, nothing removed.
    fn whole(base: Base) -> Self {
        let removed = None;
        Palette { base, removed }
    }

    /// An explicit palette from an arbitrary iterator of colors; duplicates
    /// are collapsed.
    pub fn explicit(colors: impl IntoIterator<Item = Color>) -> Self {
        let mut v: Vec<Color> = colors.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Palette::whole(Base::List(Arc::new(v)))
    }

    /// The implicit palette `{0, …, len-1}`.
    pub fn range(len: u64) -> Self {
        Palette::whole(Base::Range(len))
    }

    /// The colors this palette started from.
    pub fn base(&self) -> &Base {
        &self.base
    }

    /// The positions in [`Self::base`] no longer available, ascending.
    pub fn removed(&self) -> &[u64] {
        self.removed.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Replaces the removed set with `positions`, ascending. A palette
    /// without a removed set gets one only when `positions` is not empty.
    pub fn set_removed(&mut self, positions: impl IntoIterator<Item = u64>) {
        let mut positions = positions.into_iter().peekable();
        if self.removed.is_none() && positions.peek().is_none() {
            return;
        }
        let removed = self.removed.get_or_insert_default();
        removed.clear();
        removed.extend(positions);
        assert!(removed.is_sorted_by(|a, b| a < b));
        assert!(removed.last().is_none_or(|&p| p < self.base.size()));
    }

    /// Number of colors currently available.
    pub fn size(&self) -> usize {
        self.base.size() as usize - self.removed().len()
    }

    /// Whether the palette is empty.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// Whether `color` is available in this palette.
    pub fn contains(&self, color: Color) -> bool {
        let position = self.base.position(color);
        position.is_some_and(|p| self.removed().binary_search(&p).is_err())
    }

    /// Removes `color` if present; returns whether it was present.
    pub fn remove(&mut self, color: Color) -> bool {
        let Some(p) = self.base.position(color) else {
            return false;
        };
        let removed = self.removed.get_or_insert_default();
        // Where `p` goes, if it is not removed yet.
        let slot = removed.binary_search(&p).err();
        slot.inspect(|&i| removed.insert(i, p)).is_some()
    }

    /// The `k`-th available color (from 0, in increasing order), if
    /// `k < size()`: the base position `k` moved past every removed position
    /// at or below it.
    pub fn nth_color(&self, k: usize) -> Option<Color> {
        if k >= self.size() {
            return None;
        }
        let mut position = k as u64;
        for &p in self.removed() {
            if p > position {
                break;
            }
            position += 1;
        }
        Some(self.base.color(position))
    }

    /// Iterator over the available colors, in increasing order.
    pub fn iter(&self) -> PaletteIter<'_> {
        PaletteIter {
            base: &self.base,
            next: 0,
            end: self.base.size(),
            removed: self.removed(),
        }
    }

    /// The largest available color, if any: the base's last position not
    /// among the removed top ones, found without walking the base.
    pub fn max_color(&self) -> Option<Color> {
        // One past the candidate position.
        let mut end = self.base.size();
        for &p in self.removed().iter().rev() {
            if p + 1 != end {
                break;
            }
            end = p;
        }
        end.checked_sub(1).map(|p| self.base.color(p))
    }

    /// Returns a new explicit palette containing only the colors for which
    /// `keep` returns true. This is how `Partition` restricts palettes to the
    /// colors hashed into a node's bin.
    pub fn filtered(&self, mut keep: impl FnMut(Color) -> bool) -> Palette {
        let kept = self.iter().filter(|&c| keep(c)).collect();
        Palette::whole(Base::List(Arc::new(kept)))
    }

    /// Materializes the palette as an explicit, sorted color vector.
    pub fn to_vec(&self) -> Vec<Color> {
        self.iter().collect()
    }

    /// Storage cost in O(log 𝔫)-bit machine words.
    ///
    /// Explicit palettes cost one word per available color; range palettes
    /// cost one word for the bound plus one word per removed color (the
    /// representation of Section 3.6).
    pub fn words(&self) -> usize {
        match self.base {
            Base::Range(_) => 1 + self.removed().len(),
            Base::List(_) => self.size(),
        }
    }

    /// Whether the palette is stored implicitly (range form).
    pub fn is_implicit(&self) -> bool {
        matches!(self.base, Base::Range(_))
    }
}

/// Explicit palettes are equal when they hold the same colors, range ones
/// when they have the same bound and removed colors.
impl PartialEq for Palette {
    fn eq(&self, other: &Self) -> bool {
        match (&self.base, &other.base) {
            (Base::Range(a), Base::Range(b)) => a == b && self.removed() == other.removed(),
            (Base::List(_), Base::List(_)) => self.iter().eq(other.iter()),
            _ => false,
        }
    }
}

impl Eq for Palette {}

impl FromIterator<Color> for Palette {
    fn from_iter<T: IntoIterator<Item = Color>>(iter: T) -> Self {
        Palette::explicit(iter)
    }
}

/// Iterator over the available colors of a [`Palette`]: its base's
/// positions in order, minus the removed ones.
#[derive(Debug, Clone)]
pub struct PaletteIter<'a> {
    base: &'a Base,
    /// The positions left, `next..end`, and the removed ones among them.
    next: u64,
    end: u64,
    removed: &'a [u64],
}

impl Iterator for PaletteIter<'_> {
    type Item = Color;

    fn next(&mut self) -> Option<Color> {
        while self.next < self.end {
            let p = self.next;
            self.next += 1;
            match self.removed.split_first() {
                Some((&r, rest)) if r == p => self.removed = rest,
                _ => return Some(self.base.color(p)),
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize - self.removed.len();
        (left, Some(left))
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
    fn clones_share_the_list_and_keep_their_removals_apart() {
        let colors: Vec<Color> = (0..10).map(|c| Color(3 * c)).collect();
        let original = Palette::explicit(colors.iter().copied());
        let mut copy = original.clone();
        assert!(copy.remove(Color(6)) && copy.remove(Color(27)));
        assert_eq!((copy.size(), copy.words()), (8, 8));
        assert!(!copy.contains(Color(6)));
        // The original keeps every color; both still share one list.
        assert_eq!(original.to_vec(), colors);
        assert_eq!((original.size(), original.words()), (10, 10));
        assert!(original.removed().is_empty());
        let (Base::List(a), Base::List(b)) = (original.base(), copy.base()) else {
            panic!("explicit palettes are lists");
        };
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn equality_compares_what_each_kind_stores() {
        let mut list = Palette::explicit([Color(1), Color(4), Color(9), Color(16)]);
        list.remove(Color(4));
        list.remove(Color(16));
        assert_eq!(list, Palette::explicit([Color(1), Color(9)]));
        assert_eq!(list.max_color(), Some(Color(9)));
        assert_ne!(list, Palette::explicit([Color(1), Color(4), Color(9)]));
        // Ranges compare their bound and removed colors, and no range equals
        // a list.
        let mut range = Palette::range(4);
        range.remove(Color(3));
        assert_ne!(range, Palette::range(3));
        let mut same = Palette::range(4);
        same.remove(Color(3));
        assert_eq!(range, same);
        assert_ne!(Palette::range(3), Palette::explicit((0..3).map(Color)));
    }

    #[test]
    fn a_palette_is_three_words() {
        assert_eq!(std::mem::size_of::<Palette>(), 24);
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
