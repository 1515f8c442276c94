//! pretend: crates/core/src/rogue_level.rs
//!
//! Seeded violations for `itemset-keyed-std-hash`: the mining core keys
//! its sets and maps by itemsets through `ItemsetSet` / `ItemsetMap`,
//! whose seeded multiply-xor hasher costs a fraction of std's SipHash.
//! Other key types, the aliases themselves and test code are fine.

use std::collections::{HashMap, HashSet};

use ccs_itemset::{Item, Itemset, ItemsetMap, ItemsetSet};

struct RogueLevel {
    // VIOLATION: a level under std's default hasher.
    members: HashSet<Itemset>,
    // VIOLATION: caught across a line break and a path prefix.
    verdicts: std::collections::HashMap<
        Itemset,
        bool,
    >,
    // Fine: the aliases, and std maps keyed by anything else.
    kept: ItemsetSet,
    flags: ItemsetMap<bool>,
    by_level: HashMap<usize, ItemsetSet>,
    witnesses: HashSet<Item>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reference_set_in_a_test_is_fine() {
        let reference: HashSet<Itemset> = HashSet::new();
        assert!(reference.is_empty());
    }
}
