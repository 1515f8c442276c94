//! Level-wise candidate generation for Apriori-style lattice sweeps.
//!
//! Algorithm BMS and its constrained variants walk the itemset lattice
//! bottom-up. Each level's candidates are derived from the previous level's
//! surviving sets. Every generator emits each candidate exactly once,
//! sorted, without a deduplicating hash set:
//!
//! * [`apriori_gen`] — the classical `F_{k-1} ⋈ F_{k-1}` join followed by
//!   the all-subsets prune. Correct when *every* `(k-1)`-subset of a
//!   candidate is required to be in the previous level (Algorithm BMS,
//!   BMS*'s first phase, the border sweep). [`apriori_gen_is_empty`]
//!   asks whether it would emit anything, stopping at the first
//!   candidate.
//! * [`witness_gen`] — the candidate rule of BMS++ and BMS** phase 1,
//!   which constrains only the `(k-1)`-subsets that hold a witness: a
//!   candidate may legitimately have subsets that were never candidates,
//!   which breaks the symmetric join. Each candidate is built from its
//!   one canonical parent, its largest item dropped (or its
//!   second-largest, when the largest is its only witness).
//! * [`extend_once`] — single-item extension from *any* parent (BMS*
//!   phase 2, BMS** phase 2). Each candidate is emitted from the parent
//!   that drops its largest droppable item, which a few subset probes
//!   decide.
//!
//! Levels are [`ItemsetSet`]s. The generators assemble candidates and
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
    let mut out = Vec::new();
    for_each_join(prev, |joined| {
        if keep(&joined) {
            out.push(joined);
        }
        true
    });
    out
}

/// Calls `visit` with each join of two sets of `prev` sharing all but
/// their last item, in sorted order, until `visit` returns `false`.
fn for_each_join(prev: &ItemsetSet, mut visit: impl FnMut(Itemset) -> bool) {
    let mut sorted: Vec<&Itemset> = prev.iter().collect();
    sorted.sort_unstable();
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
            if !visit(joined) {
                return;
            }
        }
    }
}

/// Whether every `(k-1)`-subset of `cand` is in `prev`, the all-subsets
/// prune of [`apriori_gen`].
fn all_subsets_in(cand: &Itemset, prev: &ItemsetSet, subset: &mut Vec<Item>) -> bool {
    (0..cand.len()).all(|drop| {
        drop_one_into(cand.items(), drop, subset);
        prev.contains(subset.as_slice())
    })
}

/// Classical Apriori candidate generation: join + "all `(k-1)`-subsets
/// present" prune.
pub fn apriori_gen(prev: &ItemsetSet) -> Vec<Itemset> {
    let mut subset = Vec::new();
    apriori_join(prev, |cand| all_subsets_in(cand, prev, &mut subset))
}

/// `true` iff [`apriori_gen`] over `prev` returns nothing. Stops at the
/// first candidate, so a sweep that stops at its level cap can still
/// tell whether the level above would have had work.
pub fn apriori_gen_is_empty(prev: &ItemsetSet) -> bool {
    let mut subset = Vec::new();
    let mut empty = true;
    for_each_join(prev, |cand| {
        empty = !all_subsets_in(&cand, prev, &mut subset);
        empty
    });
    empty
}

/// Writes `items` minus its `drop`-th item into `buf`, the `(k-1)`-subset
/// probe of the candidate rules.
pub fn drop_one_into(items: &[Item], drop: usize, buf: &mut Vec<Item>) {
    buf.clear();
    buf.extend_from_slice(&items[..drop]);
    buf.extend_from_slice(&items[drop + 1..]);
}

/// Candidate generation under the witness rule of BMS++ and BMS**
/// phase 1: every `k`-set `b ∪ {u}` (`b ∈ prev`, `u ∈ universe \ b`)
/// that `keep` accepts, each once, sorted.
///
/// Preconditions, which the callers' levels meet by construction:
/// every set of `prev` holds an item `is_witness` accepts; every item of
/// a set of `prev` is in `universe` (sorted, duplicate-free); and `keep`
/// rejects every candidate one of whose witness-holding `(k-1)`-subsets
/// is not in `prev` (the rule itself, `WitnessMask::subsets_in` in
/// `ccs-core`, or something stricter).
///
/// Then a kept candidate `c`'s *canonical parent* is in `prev`: `c`
/// minus its largest item when that leaves a witness, and otherwise
/// (the largest item is `c`'s only witness) `c` minus its
/// second-largest. So each base is extended only by the universe items
/// above its largest item, and, when its largest item is its only
/// witness, also by each non-witness item between its two largest; every
/// candidate is assembled exactly once, from that parent.
pub fn witness_gen<'p, P, W, F>(
    prev: P,
    universe: &[Item],
    is_witness: W,
    mut keep: F,
) -> Vec<Itemset>
where
    P: IntoIterator<Item = &'p Itemset>,
    W: Fn(Item) -> bool,
    F: FnMut(&[Item]) -> bool,
{
    let mut out = Vec::new();
    let mut cand: Vec<Item> = Vec::new();
    for base in prev {
        let items = base.items();
        debug_assert!(
            items.iter().any(|&i| is_witness(i)),
            "witness_gen: base {base} holds no witness"
        );
        debug_assert!(
            items.iter().all(|i| universe.binary_search(i).is_ok()),
            "witness_gen: base {base} has an item outside the universe"
        );
        let Some((&top, rest)) = items.split_last() else {
            continue;
        };
        // `c = base + u` with `u` above the base's largest item: the base,
        // which holds a witness, is `c` minus its largest item.
        for &u in &universe[universe.partition_point(|&i| i <= top)..] {
            cand.clear();
            cand.extend_from_slice(items);
            cand.push(u);
            if keep(&cand) {
                out.push(Itemset::from_sorted_vec(cand.clone()));
            }
        }
        // `top` is the base's only witness: for a non-witness `u` between
        // the base's two largest items, `c` minus its largest item holds
        // no witness, so `c`'s canonical parent is `c` minus its
        // second-largest, `u`, which is the base.
        if !is_witness(top) || rest.iter().any(|&i| is_witness(i)) {
            continue;
        }
        let lo = rest
            .last()
            .map_or(0, |&second| universe.partition_point(|&i| i <= second));
        let hi = universe.partition_point(|&i| i < top);
        for &u in &universe[lo..hi] {
            if is_witness(u) {
                continue;
            }
            cand.clear();
            cand.extend_from_slice(rest);
            cand.push(u);
            cand.push(top);
            if keep(&cand) {
                out.push(Itemset::from_sorted_vec(cand.clone()));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Single-item extension from any parent: every set `b ∪ {u}`
/// (`b ∈ prev`, `u ∈ universe \ b`) that `keep` accepts, each once,
/// sorted.
///
/// A candidate `c` may extend several sets of `prev`. It is emitted only
/// from its canonical parent, `c` minus the largest item `x ∈ universe`
/// with `c \ {x} ∈ prev`: an extension by `u` is kept iff no item of
/// the base above `u` is such an `x`, which at most `|b|` probes of
/// `prev` decide. `keep` must be a pure predicate; it is consulted
/// before those probes.
pub fn extend_once<F>(prev: &ItemsetSet, universe: &[Item], mut keep: F) -> Vec<Itemset>
where
    F: FnMut(&[Item]) -> bool,
{
    let mut out = Vec::new();
    let mut cand: Vec<Item> = Vec::new();
    let mut subset: Vec<Item> = Vec::new();
    for base in prev {
        let items = base.items();
        for &u in universe {
            let Err(pos) = items.binary_search(&u) else {
                continue; // already in the base
            };
            cand.clear();
            cand.extend_from_slice(&items[..pos]);
            cand.push(u);
            cand.extend_from_slice(&items[pos..]);
            if !keep(&cand) {
                continue;
            }
            // Items above `u` sit after it in `cand`.
            let canonical = (pos + 1..cand.len()).all(|drop| {
                if universe.binary_search(&cand[drop]).is_err() {
                    return true;
                }
                drop_one_into(&cand, drop, &mut subset);
                !prev.contains(subset.as_slice())
            });
            if canonical {
                out.push(Itemset::from_sorted_vec(cand.clone()));
            }
        }
    }
    out.sort_unstable();
    out
}

/// All unordered pairs `{a, b}` with `a ∈ left`, `b ∈ left ∪ right`,
/// `a ≠ b` — the `CAND₂` rule of BMS++ (`i₁ ∈ L1⁺`, `i₂ ∈ L1⁺ ∪ L1⁻`).
///
/// Results are sorted and duplicate-free.
pub fn pairs_from(left: &[Item], right: &[Item]) -> Vec<Itemset> {
    // Every item of `left ∪ right` once, ascending, flagged when it is in
    // `left` (sorting puts an item's `left` copy first, which the dedup
    // keeps).
    let mut items: Vec<(Item, bool)> = left
        .iter()
        .map(|&i| (i, true))
        .chain(right.iter().map(|&i| (i, false)))
        .collect();
    items.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    items.dedup_by_key(|&mut (item, _)| item);
    let mut out = Vec::new();
    for (i, &(a, a_left)) in items.iter().enumerate() {
        for &(b, b_left) in &items[i + 1..] {
            if a_left || b_left {
                out.push(Itemset::from_sorted_vec(vec![a, b]));
            }
        }
    }
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
    fn extend_once_reaches_asymmetric_candidates() {
        // prev = {12}; universe = {3}. Candidate 123 must be generated even
        // though neither 13 nor 23 is in prev.
        let prev = level(&[&[1, 2]]);
        let cands = extend_once(&prev, &[Item(3)], |_| true);
        assert_eq!(cands, vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn extend_once_emits_each_candidate_once_and_filters() {
        let prev = level(&[&[1, 2], &[1, 3]]);
        // Both bases can produce {1,2,3}; it must appear once.
        let cands = extend_once(&prev, &[Item(2), Item(3), Item(4)], |_| true);
        assert_eq!(
            cands,
            vec![set(&[1, 2, 3]), set(&[1, 2, 4]), set(&[1, 3, 4])]
        );
        let none = extend_once(&prev, &[Item(4)], |c| !c.contains(&Item(4)));
        assert!(none.is_empty());
    }

    #[test]
    fn witness_gen_reaches_a_candidate_through_its_second_largest() {
        // Witness 3 only. {1,2,3}'s largest item is its only witness, so
        // its parent is {1,3} extended by 2, below 3; {1,2} holds no
        // witness and is not a base.
        let prev = level(&[&[1, 3], &[2, 3]]);
        let universe = [Item(1), Item(2), Item(3)];
        let cands = witness_gen(&prev, &universe, |i| i == Item(3), |_| true);
        assert_eq!(cands, vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn apriori_gen_is_empty_agrees_with_apriori_gen() {
        let full = level(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[1, 3, 5], &[2, 3, 4]]);
        assert!(!apriori_gen_is_empty(&full));
        let gapped = level(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 5]]);
        assert!(apriori_gen(&gapped).is_empty());
        assert!(apriori_gen_is_empty(&gapped));
        assert!(apriori_gen_is_empty(&ItemsetSet::default()));
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

    /// The `extend_gen` this module shipped before canonical-parent
    /// generation, kept verbatim as the reference the differential
    /// proptests below compare every generator against: extend each base
    /// by each universe item, deduplicate through a `seen` set, sort.
    fn reference_extend_gen<'p, P, F>(prev: P, universe: &[Item], mut keep: F) -> Vec<Itemset>
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

    /// The witness-subset rule of BMS++ / BMS** phase 1, as
    /// `WitnessMask::subsets_in` states it: every `(k−1)`-subset of
    /// `cand` that holds a witness is in `prev`.
    fn witness_rule(cand: &[Item], witness: &[bool], prev: &ItemsetSet) -> bool {
        let mut subset = Vec::new();
        (0..cand.len()).all(|drop| {
            drop_one_into(cand, drop, &mut subset);
            !subset.iter().any(|i| witness[i.index()]) || prev.contains(subset.as_slice())
        })
    }

    /// The production generator under the witness rule.
    fn witness_subject(prev: &ItemsetSet, universe: &[Item], witness: &[bool]) -> Vec<Itemset> {
        witness_gen(
            prev,
            universe,
            |i| witness[i.index()],
            |c| witness_rule(c, witness, prev),
        )
    }

    /// The production any-parent generator by extension: each base
    /// extended by each universe item, kept by `keep`.
    fn extend_subject(
        prev: &ItemsetSet,
        universe: &[Item],
        keep: impl FnMut(&[Item]) -> bool,
    ) -> Vec<Itemset> {
        extend_once(prev, universe, keep)
    }

    /// The production any-parent generator restricted to `next`, as
    /// BMS** phase 2 extends within `SUPP`.
    fn within_subject(prev: &ItemsetSet, universe: &[Item], next: &ItemsetSet) -> Vec<Itemset> {
        extend_once(prev, universe, |c| next.contains(c))
    }

    /// All `k`-subsets of `items`, ascending.
    fn k_subsets(items: &[u32], k: usize) -> Vec<Vec<u32>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        if items.len() < k {
            return Vec::new();
        }
        let mut with: Vec<Vec<u32>> = k_subsets(&items[1..], k - 1)
            .into_iter()
            .map(|mut s| {
                s.insert(0, items[0]);
                s
            })
            .collect();
        with.extend(k_subsets(&items[1..], k));
        with
    }

    /// A random level of `k`-sets dense enough for the generators to
    /// find candidates: every `k`-subset of a few random blocks, minus
    /// the subsets a salted hash drops.
    fn random_level(blocks: &[BTreeSet<u32>], k: usize, salt: u32) -> ItemsetSet {
        blocks
            .iter()
            .flat_map(|b| k_subsets(&b.iter().copied().collect::<Vec<_>>(), k))
            .filter(|s| {
                let h = s
                    .iter()
                    .fold(salt, |h, &i| h.wrapping_mul(31).wrapping_add(i + 1));
                h % 5 != 0
            })
            .map(Itemset::from_ids)
            .collect()
    }

    fn mask_items(mask: u16, n: u32) -> Vec<Item> {
        (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(Item::new)
            .collect()
    }

    proptest! {
        #[test]
        fn witness_generation_matches_reference(
            k in 2usize..=4,
            blocks in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 3..=6usize),
                1..5,
            ),
            salt in any::<u32>(),
            witness_bits in any::<u16>(),
            extra in any::<u16>(),
        ) {
            let witness: Vec<bool> = (0..10).map(|i| witness_bits >> i & 1 == 1).collect();
            // The rule's preconditions: every base holds a witness and
            // every item of a base is in the universe.
            let prev: ItemsetSet = random_level(&blocks, k, salt)
                .into_iter()
                .filter(|s| s.iter().any(|i| witness[i.index()]))
                .collect();
            let mut universe = mask_items(extra, 10);
            universe.extend(prev.iter().flat_map(|s| s.iter()));
            universe.sort_unstable();
            universe.dedup();
            let reference =
                reference_extend_gen(&prev, &universe, |c| witness_rule(c, &witness, &prev));
            prop_assert_eq!(witness_subject(&prev, &universe, &witness), reference);
        }

        #[test]
        fn any_parent_generation_matches_reference(
            k in 1usize..=4,
            blocks in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 2..=6usize),
                1..5,
            ),
            salt in any::<u32>(),
            next_salt in any::<u32>(),
            universe_bits in any::<u16>(),
        ) {
            let prev = random_level(&blocks, k, salt);
            let next = random_level(&blocks, k + 1, next_salt);
            // Items outside the universe may sit in a base: the added
            // item must come from the universe, the base's need not.
            let universe = mask_items(universe_bits, 10);
            prop_assert_eq!(
                extend_subject(&prev, &universe, |_| true),
                reference_extend_gen(&prev, &universe, |_| true)
            );
            prop_assert_eq!(
                extend_subject(&prev, &universe, keep_rule),
                reference_extend_gen(&prev, &universe, keep_rule)
            );
            prop_assert_eq!(
                within_subject(&prev, &universe, &next),
                reference_extend_gen(&prev, &universe, |c| next.contains(c))
            );
        }

        #[test]
        fn extend_once_matches_brute_force(
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
            prop_assert_eq!(extend_once(&prev, &universe, keep), reference);
        }
    }
}
