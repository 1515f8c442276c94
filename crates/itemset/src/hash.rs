//! The one hasher for itemset-keyed collections.
//!
//! Between two counting batches a level-wise miner does little but hash
//! short runs of item ids: candidate deduplication, level membership
//! probes and the verdict memo-cache. `std`'s SipHash spends more on
//! those few words than the lookups themselves do, so every
//! `Itemset`-keyed set and map in the mining layers uses
//! [`ItemsetSet`] / [`ItemsetMap`] instead: a multiply-xor hasher in the
//! style of rustc's `FxHasher`, one multiply per item.
//!
//! The hasher's start state is drawn once per process from `std`'s
//! [`RandomState`], so hash values, and with them the iteration order of
//! these collections, still differ from one process to the next, as
//! they do under the default hasher. Nothing may depend on that order;
//! every generator sorts what it returns. The seed is no defence
//! against keys crafted to collide, which SipHash's keyed hashing is:
//! the keys here are itemsets the miner builds from dense item ids, not
//! arbitrary input.
//!
//! [`Itemset`] implements `Borrow<[Item]>`, so both collections can be
//! probed with a borrowed slice, for instance a candidate assembled in a
//! reused buffer, without allocating an `Itemset` first.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use crate::itemset::Itemset;

/// A set of itemsets under the seeded itemset hasher.
pub type ItemsetSet = HashSet<Itemset, ItemsetBuildHasher>;

/// A map keyed by itemsets under the seeded itemset hasher.
pub type ItemsetMap<V> = HashMap<Itemset, V, ItemsetBuildHasher>;

/// The multiplier of rustc's `FxHasher`: an odd constant with
/// well-spread bits.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-xor hasher: each written word is xored into the rotated
/// state, which is then multiplied by an odd constant.
///
/// [`Hasher::finish`] rotates the state so the well-mixed high bits of
/// the last product land where `HashMap` takes its bucket index.
#[derive(Debug, Clone, Copy)]
pub struct ItemsetHasher {
    state: u64,
}

impl ItemsetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for ItemsetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.add(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

/// Builds [`ItemsetHasher`]s that all start from this process's seed.
#[derive(Debug, Clone, Copy)]
pub struct ItemsetBuildHasher {
    seed: u64,
}

impl Default for ItemsetBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u64));
        ItemsetBuildHasher { seed }
    }
}

impl BuildHasher for ItemsetBuildHasher {
    type Hasher = ItemsetHasher;

    #[inline]
    fn build_hasher(&self) -> ItemsetHasher {
        ItemsetHasher { state: self.seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    #[test]
    fn an_itemset_hashes_as_its_item_slice() {
        // The `Borrow<[Item]>` contract: probing with a slice finds the
        // itemset.
        let hasher = ItemsetBuildHasher::default();
        for ids in [
            &[][..],
            &[7],
            &[0, 1],
            &[3, 9, 27, 81],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9],
        ] {
            let set = Itemset::from_ids(ids.iter().copied());
            assert_eq!(hasher.hash_one(&set), hasher.hash_one(set.items()));
        }
        let level: ItemsetSet = [Itemset::from_ids([1, 4]), Itemset::from_ids([2, 4])]
            .into_iter()
            .collect();
        assert!(level.contains(&[Item(1), Item(4)][..]));
        assert!(!level.contains(&[Item(1), Item(2)][..]));
    }

    #[test]
    fn one_seed_per_process() {
        let (a, b) = (ItemsetBuildHasher::default(), ItemsetBuildHasher::default());
        let set = Itemset::from_ids([2, 5, 11]);
        assert_eq!(a.hash_one(&set), b.hash_one(&set));
    }
}
