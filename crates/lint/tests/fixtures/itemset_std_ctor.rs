//! pretend: crates/itemset/src/rogue_counter.rs
//!
//! Seeded violations for `itemset-keyed-std-hash` in the counting crate:
//! a map or set built by `new` or `with_capacity` hashes with std's
//! SipHash, since those constructors exist only for `RandomState`.
//! Maps built with `ItemsetBuildHasher`, and test code, are fine.

use std::collections::{HashMap, HashSet};

use crate::hash::{ItemsetBuildHasher, ItemsetSet};

fn rogue_build(n: usize) -> usize {
    // VIOLATION: a child index under std's default hasher.
    let mut children: HashMap<(u32, u32), u32> = HashMap::new();
    // VIOLATION: a sized set, caught across a path prefix.
    let seen: HashSet<u32> = std::collections::HashSet::with_capacity(n);
    // Fine: the seeded hasher, by `default` or with a capacity.
    let index: HashMap<u64, u32, ItemsetBuildHasher> = HashMap::default();
    let sized: HashMap<u64, u32, ItemsetBuildHasher> =
        HashMap::with_capacity_and_hasher(n, ItemsetBuildHasher::default());
    let level = ItemsetSet::default();
    children.insert((0, 1), 1);
    children.len() + seen.len() + index.len() + sized.len() + level.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reference_map_in_a_test_is_fine() {
        let reference: HashMap<u32, u32> = HashMap::new();
        assert!(reference.is_empty());
    }
}
