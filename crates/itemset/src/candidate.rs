//! Level-wise candidate generation for Apriori-style lattice sweeps.
//!
//! Algorithm BMS and its constrained variants walk the itemset lattice
//! bottom-up. Each level's candidates are derived from the previous level's
//! surviving sets. Two generators are provided:
//!
//! * [`apriori_gen`] — the classical `F_{k-1} ⋈ F_{k-1}` join followed by
//!   the all-subsets prune. Correct when *every* `(k-1)`-subset of a
//!   candidate is required to be in the previous level (Algorithm BMS,
//!   BMS*).
//! * [`extend_gen`] — extension of each previous-level set by one item from
//!   a given universe, deduplicated, followed by an arbitrary predicate.
//!   Needed by BMS++/BMS**, whose candidate rule only constrains the
//!   `(k-1)`-subsets that intersect `L1⁺` — a candidate may legitimately
//!   have subsets that were never candidates themselves, which breaks the
//!   symmetric join.
//!
//! Levels are [`ItemsetSet`]s. Both generators assemble candidates and
//! subsets in one reused buffer and probe the levels with the borrowed
//! slice, so only a kept candidate is allocated as an [`Itemset`].

use crate::hash::ItemsetSet;
use crate::item::Item;
use crate::itemset::Itemset;

/// Joins pairs of `k-1`-sets sharing their first `k-2` items, producing
/// `k`-sets, then retains those for which `keep` returns `true`.
///
/// `prev` must contain sets of a single uniform size ≥ 1.
pub fn apriori_join<F>(prev: &ItemsetSet, mut keep: F) -> Vec<Itemset>
where
    F: FnMut(&Itemset) -> bool,
{
    let mut sorted: Vec<&Itemset> = prev.iter().collect();
    sorted.sort_unstable();
    let mut out = Vec::new();
    for (i, a) in sorted.iter().enumerate() {
        let k1 = a.len();
        debug_assert!(k1 >= 1);
        for b in &sorted[i + 1..] {
            debug_assert_eq!(b.len(), k1, "apriori_join requires a uniform level");
            if a.prefix(k1 - 1) != b.prefix(k1 - 1) {
                break; // sorted order: once prefixes diverge they stay diverged
            }
            let joined = a.union(b);
            debug_assert_eq!(joined.len(), k1 + 1);
            if keep(&joined) {
                out.push(joined);
            }
        }
    }
    out
}

/// Classical Apriori candidate generation: join + "all `(k-1)`-subsets
/// present" prune.
pub fn apriori_gen(prev: &ItemsetSet) -> Vec<Itemset> {
    let mut subset = Vec::new();
    apriori_join(prev, |cand| {
        (0..cand.len()).all(|drop| {
            drop_one_into(cand.items(), drop, &mut subset);
            prev.contains(subset.as_slice())
        })
    })
}

/// Writes `items` minus its `drop`-th item into `buf`, the `(k-1)`-subset
/// probe of the candidate rules.
pub fn drop_one_into(items: &[Item], drop: usize, buf: &mut Vec<Item>) {
    buf.clear();
    buf.extend_from_slice(&items[..drop]);
    buf.extend_from_slice(&items[drop + 1..]);
}

/// Extends every set in `prev` by one item drawn from `universe`,
/// deduplicates, and retains candidates for which `keep` returns `true`.
///
/// Each extension is assembled in one reused buffer; `keep` sees it as a
/// sorted item slice, and only a kept candidate becomes an [`Itemset`].
/// Results are returned in sorted order for determinism.
pub fn extend_gen<'p, P, F>(prev: P, universe: &[Item], mut keep: F) -> Vec<Itemset>
where
    P: IntoIterator<Item = &'p Itemset>,
    F: FnMut(&[Item]) -> bool,
{
    let mut seen = ItemsetSet::default();
    let mut cand: Vec<Item> = Vec::new();
    for base in prev {
        let items = base.items();
        for &item in universe {
            let Err(pos) = items.binary_search(&item) else {
                continue; // already in the base
            };
            cand.clear();
            cand.extend_from_slice(&items[..pos]);
            cand.push(item);
            cand.extend_from_slice(&items[pos..]);
            if !seen.contains(cand.as_slice()) && keep(&cand) {
                seen.insert(Itemset::from_sorted_vec(cand.clone()));
            }
        }
    }
    let mut out: Vec<Itemset> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// All unordered pairs `{a, b}` with `a ∈ left`, `b ∈ left ∪ right`,
/// `a ≠ b` — the `CAND₂` rule of BMS++ (`i₁ ∈ L1⁺`, `i₂ ∈ L1⁺ ∪ L1⁻`).
///
/// Results are sorted and duplicate-free.
pub fn pairs_from(left: &[Item], right: &[Item]) -> Vec<Itemset> {
    let mut seen = ItemsetSet::default();
    for &a in left {
        for &b in left.iter().chain(right.iter()) {
            if a != b {
                seen.insert(Itemset::from_items([a, b]));
            }
        }
    }
    let mut out: Vec<Itemset> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// All unordered pairs over a single item slice.
pub fn all_pairs(items: &[Item]) -> Vec<Itemset> {
    let mut out = Vec::with_capacity(items.len() * items.len().saturating_sub(1) / 2);
    for (i, &a) in items.iter().enumerate() {
        for &b in &items[i + 1..] {
            out.push(Itemset::from_items([a, b]));
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    fn level(sets: &[&[u32]]) -> ItemsetSet {
        sets.iter().map(|s| set(s)).collect()
    }

    #[test]
    fn apriori_gen_classic_example() {
        // L3 = {123, 124, 134, 135, 234}; join gives 1234 (kept: all subsets
        // present) and 1345 (pruned: 145 missing).
        let prev = level(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[1, 3, 5], &[2, 3, 4]]);
        let cands = apriori_gen(&prev);
        assert_eq!(cands, vec![set(&[1, 2, 3, 4])]);
    }

    #[test]
    fn apriori_join_without_prune_keeps_both() {
        let prev = level(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[1, 3, 5], &[2, 3, 4]]);
        let mut cands = apriori_join(&prev, |_| true);
        cands.sort_unstable();
        assert_eq!(cands, vec![set(&[1, 2, 3, 4]), set(&[1, 3, 4, 5])]);
    }

    #[test]
    fn apriori_gen_from_singletons() {
        let prev = level(&[&[1], &[2], &[3]]);
        let cands = apriori_gen(&prev);
        assert_eq!(cands, vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3])]);
    }

    #[test]
    fn apriori_gen_empty_level() {
        assert!(apriori_gen(&ItemsetSet::default()).is_empty());
    }

    #[test]
    fn extend_gen_reaches_asymmetric_candidates() {
        // prev = {12}; universe = {3}. Candidate 123 must be generated even
        // though neither 13 nor 23 is in prev.
        let prev = level(&[&[1, 2]]);
        let cands = extend_gen(&prev, &[Item(3)], |_| true);
        assert_eq!(cands, vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn extend_gen_dedups_and_filters() {
        let prev = level(&[&[1, 2], &[1, 3]]);
        // Both bases can produce {1,2,3}; it must appear once.
        let cands = extend_gen(&prev, &[Item(2), Item(3), Item(4)], |_| true);
        assert_eq!(
            cands,
            vec![set(&[1, 2, 3]), set(&[1, 2, 4]), set(&[1, 3, 4])]
        );
        let none = extend_gen(&prev, &[Item(4)], |c| !c.contains(&Item(4)));
        assert!(none.is_empty());
    }

    #[test]
    fn pairs_from_is_left_anchored() {
        let left = [Item(1)];
        let right = [Item(2), Item(3)];
        let pairs = pairs_from(&left, &right);
        assert_eq!(pairs, vec![set(&[1, 2]), set(&[1, 3])]);
        // {2,3} must NOT appear: neither endpoint is in `left`.
    }

    #[test]
    fn pairs_from_both_sides_in_left() {
        let left = [Item(1), Item(2)];
        let pairs = pairs_from(&left, &[]);
        assert_eq!(pairs, vec![set(&[1, 2])]);
    }

    #[test]
    fn all_pairs_counts() {
        let items: Vec<Item> = (0..5).map(Item::new).collect();
        assert_eq!(all_pairs(&items).len(), 10);
        assert!(all_pairs(&items[..1]).is_empty());
    }

    /// A predicate that looks at the whole candidate: its id sum is not
    /// a multiple of three.
    fn keep_rule(items: &[Item]) -> bool {
        items.iter().map(|i| i.id()).sum::<u32>() % 3 != 0
    }

    proptest! {
        #[test]
        fn extend_gen_matches_brute_force(
            k in 1usize..=3,
            bases in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 3usize),
                0..24,
            ),
            universe in proptest::collection::btree_set(0u32..12, 0..12usize),
            filtered in any::<bool>(),
        ) {
            let prev: ItemsetSet = bases
                .iter()
                .map(|b| Itemset::from_ids(b.iter().copied().take(k)))
                .collect();
            let universe: Vec<Item> = universe.into_iter().map(Item::new).collect();
            let keep = |c: &[Item]| !filtered || keep_rule(c);
            // Every base × item extension, deduplicated, filtered, sorted.
            let mut reference = BTreeSet::new();
            for base in &prev {
                for &item in &universe {
                    if !base.contains(item) {
                        reference.insert(base.with_item(item));
                    }
                }
            }
            let reference: Vec<Itemset> =
                reference.into_iter().filter(|c| keep(c.items())).collect();
            prop_assert_eq!(extend_gen(&prev, &universe, keep), reference);
        }
    }
}
