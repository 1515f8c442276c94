//! The [`Itemset`] type: an immutable, sorted, duplicate-free set of items.
//!
//! Itemsets are the currency of every algorithm in this workspace: lattice
//! levels, candidate sets, contingency tables, and answer sets are all
//! collections of `Itemset`. The representation is a sorted boxed slice,
//! which gives:
//!
//! * O(log n) membership and O(n + m) subset / union / intersection by merge,
//! * cheap hashing and total ordering (lexicographic), so itemsets can key
//!   `HashMap`s and live in `BTreeSet`s; an itemset hashes, compares and
//!   orders exactly as its item slice, so hashed collections of itemsets
//!   can be probed with a borrowed `&[Item]` (see [`crate::hash`]),
//! * two `usize`s of inline footprint, which matters when millions of
//!   candidates are in flight.

use std::borrow::Borrow;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::item::Item;

/// An immutable, sorted, duplicate-free set of [`Item`]s.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct Itemset {
    items: Box<[Item]>,
}

impl Itemset {
    /// The empty itemset.
    pub fn empty() -> Self {
        Itemset {
            items: Box::new([]),
        }
    }

    /// A singleton itemset.
    pub fn singleton(item: Item) -> Self {
        Itemset {
            items: Box::new([item]),
        }
    }

    /// Builds an itemset from arbitrary items, sorting and deduplicating.
    pub fn from_items<I: IntoIterator<Item = Item>>(items: I) -> Self {
        let mut v: Vec<Item> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// Builds an itemset from raw `u32` ids, sorting and deduplicating.
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::from_items(ids.into_iter().map(Item::new))
    }

    /// Builds an itemset from a vector already known to be sorted and
    /// duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted_vec(v: Vec<Item>) -> Self {
        debug_assert!(
            v.windows(2).all(|w| w[0] < w[1]),
            "vector must be strictly sorted"
        );
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// Number of items in the set (its lattice level).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the set has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, in increasing order.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Iterates over the items in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.items.iter().copied()
    }

    /// O(log n) membership test.
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// `true` iff `self ⊆ other`, by linear merge.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut oi = other.items.iter();
        'outer: for &x in self.items.iter() {
            for &y in oi.by_ref() {
                if y == x {
                    continue 'outer;
                }
                if y > x {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// `true` iff `self ⊇ other`.
    #[inline]
    pub fn is_superset_of(&self, other: &Itemset) -> bool {
        other.is_subset_of(self)
    }

    /// `true` iff the two sets share no item.
    pub fn is_disjoint_from(&self, other: &Itemset) -> bool {
        let (mut a, mut b) = (self.items.iter().peekable(), other.items.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Set union, by linear merge.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.items[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.items[i..]);
        out.extend_from_slice(&other.items[j..]);
        Itemset {
            items: out.into_boxed_slice(),
        }
    }

    /// Set intersection, by linear merge.
    pub fn intersection(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Itemset {
            items: out.into_boxed_slice(),
        }
    }

    /// Set difference `self \ other`, by linear merge.
    pub fn difference(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.items[i..]);
        Itemset {
            items: out.into_boxed_slice(),
        }
    }

    /// A new itemset with `item` inserted (no-op if already present).
    pub fn with_item(&self, item: Item) -> Itemset {
        match self.items.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = Vec::with_capacity(self.len() + 1);
                v.extend_from_slice(&self.items[..pos]);
                v.push(item);
                v.extend_from_slice(&self.items[pos..]);
                Itemset {
                    items: v.into_boxed_slice(),
                }
            }
        }
    }

    /// A new itemset with `item` removed (no-op if absent).
    pub fn without_item(&self, item: Item) -> Itemset {
        match self.items.binary_search(&item) {
            Err(_) => self.clone(),
            Ok(pos) => {
                let mut v = Vec::with_capacity(self.len() - 1);
                v.extend_from_slice(&self.items[..pos]);
                v.extend_from_slice(&self.items[pos + 1..]);
                Itemset {
                    items: v.into_boxed_slice(),
                }
            }
        }
    }

    /// Iterates over the `k` subsets of size `k-1` (each obtained by dropping
    /// one item), in order of the dropped item.
    ///
    /// This is the workhorse of Apriori-style pruning: a candidate at level
    /// `k` is checked against the status of each of its `k` maximal proper
    /// subsets.
    pub fn subsets_dropping_one(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.items.len()).map(move |drop| {
            let mut v = Vec::with_capacity(self.items.len() - 1);
            v.extend_from_slice(&self.items[..drop]);
            v.extend_from_slice(&self.items[drop + 1..]);
            Itemset {
                items: v.into_boxed_slice(),
            }
        })
    }

    /// Iterates over *all* non-empty proper subsets. Exponential; intended
    /// for small sets (naive reference algorithms and tests).
    pub fn proper_subsets(&self) -> Vec<Itemset> {
        let n = self.items.len();
        assert!(n <= 20, "proper_subsets is exponential; refusing n > 20");
        let mut out = Vec::with_capacity((1usize << n).saturating_sub(2));
        for mask in 1..(1u32 << n) - 1 {
            let mut v = Vec::with_capacity(mask.count_ones() as usize);
            for (bit, &item) in self.items.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    v.push(item);
                }
            }
            out.push(Itemset {
                items: v.into_boxed_slice(),
            });
        }
        out
    }

    /// The prefix of length `len` (first `len` items). Used by the Apriori
    /// join, which merges two `k-1`-sets sharing their first `k-2` items.
    pub fn prefix(&self, len: usize) -> &[Item] {
        &self.items[..len]
    }

    /// Last (largest) item, if non-empty.
    pub fn last(&self) -> Option<Item> {
        self.items.last().copied()
    }
}

impl Borrow<[Item]> for Itemset {
    fn borrow(&self) -> &[Item] {
        &self.items
    }
}

impl FromIterator<Item> for Itemset {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Itemset::from_items(iter)
    }
}

impl FromIterator<u32> for Itemset {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Itemset::from_ids(iter)
    }
}

impl<'a> IntoIterator for &'a Itemset {
    type Item = Item;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Item>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[3, 1, 2, 3, 1]);
        assert_eq!(s.items(), &[Item(1), Item(2), Item(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Itemset::empty().is_empty());
        let s = Itemset::singleton(Item(5));
        assert_eq!(s.len(), 1);
        assert!(s.contains(Item(5)));
        assert!(!s.contains(Item(4)));
    }

    #[test]
    fn subset_relations() {
        let a = set(&[1, 3]);
        let b = set(&[1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(b.is_superset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(Itemset::empty().is_subset_of(&a));
        assert!(!set(&[1, 4]).is_subset_of(&b));
    }

    #[test]
    fn disjointness() {
        assert!(set(&[1, 2]).is_disjoint_from(&set(&[3, 4])));
        assert!(!set(&[1, 2]).is_disjoint_from(&set(&[2, 3])));
        assert!(Itemset::empty().is_disjoint_from(&set(&[1])));
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(&[1, 2, 4]);
        let b = set(&[2, 3]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), set(&[2]));
        assert_eq!(a.difference(&b), set(&[1, 4]));
        assert_eq!(b.difference(&a), set(&[3]));
    }

    #[test]
    fn with_and_without_item() {
        let a = set(&[1, 3]);
        assert_eq!(a.with_item(Item(2)), set(&[1, 2, 3]));
        assert_eq!(a.with_item(Item(3)), a);
        assert_eq!(a.without_item(Item(3)), set(&[1]));
        assert_eq!(a.without_item(Item(9)), a);
    }

    #[test]
    fn subsets_dropping_one_enumerates_all_maximal_subsets() {
        let s = set(&[1, 2, 3]);
        let subs: Vec<Itemset> = s.subsets_dropping_one().collect();
        assert_eq!(subs, vec![set(&[2, 3]), set(&[1, 3]), set(&[1, 2])]);
    }

    #[test]
    fn proper_subsets_of_three_items() {
        let s = set(&[1, 2, 3]);
        let subs = s.proper_subsets();
        assert_eq!(subs.len(), 6); // 2^3 - 2
        assert!(subs.contains(&set(&[1])));
        assert!(subs.contains(&set(&[1, 3])));
        assert!(!subs.contains(&s));
        assert!(!subs.contains(&Itemset::empty()));
    }

    #[test]
    fn display_formats_braces() {
        assert_eq!(set(&[1, 2]).to_string(), "{i1, i2}");
        assert_eq!(Itemset::empty().to_string(), "{}");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(set(&[1, 2]) < set(&[1, 3]));
        assert!(set(&[1]) < set(&[1, 2]));
        assert!(set(&[2]) > set(&[1, 9]));
    }
}
