//! [`TransactionDb`]: an in-memory market-basket database.
//!
//! A database is a sequence of *baskets* (transactions), each a sorted set of
//! items drawn from a universe `0..n_items`. The horizontal layout here is
//! the paper-faithful one — Algorithm BMS and its constrained variants cost
//! their work in database scans over this layout. A derived vertical layout
//! (per-item tid-sets) lives in [`crate::vertical`].
//!
//! The store is flat: every basket's items lie back to back in one
//! `items` vector, and basket `t` is the range `offsets[t]..offsets[t + 1]`
//! of it, so a database is two allocations however many baskets it holds.
//! The per-item supports and the longest basket are recorded once, as
//! each basket is closed ([`TransactionDbBuilder`]); reading them is not
//! a database pass. The content hash that checkpoint fingerprints carry
//! is computed on first use and kept for the database's lifetime.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::item::Item;
use crate::itemset::Itemset;

/// An immutable in-memory transaction database.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransactionDb {
    n_items: u32,
    /// Every basket's items, back to back in tid order.
    items: Vec<Item>,
    /// Basket `t` is `items[offsets[t]..offsets[t + 1]]`; `offsets[0] == 0`.
    offsets: Vec<usize>,
    /// `supports[i]`: the number of baskets containing item `i`.
    supports: Vec<usize>,
    /// Length of the longest basket.
    max_len: usize,
    #[serde(skip)]
    content_hash: HashCell,
}

/// The lazily computed content hash. It is a function of the baskets, so
/// it takes no part in equality: two equal databases compare equal
/// whether or not either has computed it. A clone carries it along,
/// which stays correct because the clone's baskets are the same.
#[derive(Debug, Clone, Default)]
struct HashCell(OnceLock<u64>);

impl PartialEq for HashCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for HashCell {}

impl TransactionDb {
    /// Builds a database over a universe of `n_items` items.
    ///
    /// Each transaction is sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any transaction mentions an item `>= n_items`.
    pub fn new<T, I>(n_items: u32, transactions: T) -> Self
    where
        T: IntoIterator<Item = I>,
        I: IntoIterator<Item = Item>,
    {
        let mut builder = TransactionDbBuilder::new(n_items);
        for t in transactions {
            for item in t {
                builder.push(item);
            }
            builder.end_basket();
        }
        builder.build()
    }

    /// Builds a database from raw `u32` item ids.
    pub fn from_ids<T, I>(n_items: u32, transactions: T) -> Self
    where
        T: IntoIterator<Item = I>,
        I: IntoIterator<Item = u32>,
    {
        Self::new(
            n_items,
            transactions
                .into_iter()
                .map(|t| t.into_iter().map(Item::new)),
        )
    }

    /// Size of the item universe.
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of transactions (baskets).
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` iff the database has no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The transaction at index `tid` (sorted items).
    #[inline]
    pub fn transaction(&self, tid: usize) -> &[Item] {
        &self.items[self.offsets[tid]..self.offsets[tid + 1]]
    }

    /// Iterates over all transactions in tid order.
    pub fn transactions(&self) -> impl Iterator<Item = &[Item]> + '_ {
        self.offsets.windows(2).map(|w| &self.items[w[0]..w[1]])
    }

    /// Counts transactions containing every item of `set` (absolute support),
    /// by a full scan.
    pub fn support(&self, set: &Itemset) -> usize {
        self.transactions()
            .filter(|t| contains_sorted(t, set.items()))
            .count()
    }

    /// Relative support of `set` in `[0, 1]`. Zero for an empty database.
    pub fn relative_support(&self, set: &Itemset) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.support(set) as f64 / self.len() as f64
        }
    }

    /// Per-item absolute supports, indexed by item id; recorded when the
    /// database was built.
    #[inline]
    pub fn item_supports(&self) -> &[usize] {
        &self.supports
    }

    /// Mean basket size.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.items.len() as f64 / self.len() as f64
        }
    }

    /// Largest basket size.
    #[inline]
    pub fn max_transaction_len(&self) -> usize {
        self.max_len
    }

    /// FNV-1a 64-bit hash over every transaction's item ids (each as four
    /// little-endian bytes), in tid order, with a `0xFF` byte after each
    /// transaction. Computed on the first call, then read back.
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.0.get_or_init(|| {
            // One FNV-1a step is `h = (h ^ byte) * P`. A zero byte leaves
            // `h ^ byte` as it is, so an id's high zero bytes fold into the
            // step of its top nonzero byte as a higher power of `P`: the
            // same value, in up to four times fewer multiplies.
            const P: u64 = 0x100_0000_01B3;
            let pow = [1, 2, 3, 4].map(|k| P.wrapping_pow(k));
            let step = |h: u64, b: u8, p: u64| (h ^ u64::from(b)).wrapping_mul(p);
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for txn in self.transactions() {
                for item in txn {
                    // High zero bytes; the low byte is always stepped.
                    let zeros = (item.id().leading_zeros() / 8).min(3) as usize;
                    let bytes = item.id().to_le_bytes();
                    for &b in &bytes[..3 - zeros] {
                        h = step(h, b, P);
                    }
                    h = step(h, bytes[3 - zeros], pow[zeros]);
                }
                h = step(h, 0xFF, P); // transaction separator
            }
            h
        })
    }
}

/// Builds a [`TransactionDb`] one basket at a time, straight into the
/// flat layout.
///
/// [`push`](Self::push) appends an item to the open basket, in any order;
/// [`end_basket`](Self::end_basket) closes it. A basket that is already
/// strictly increasing is kept as pushed; any other is sorted and
/// deduplicated in place.
#[derive(Debug)]
pub struct TransactionDbBuilder {
    db: TransactionDb,
}

impl TransactionDbBuilder {
    /// An empty builder over a universe of `n_items` items.
    pub fn new(n_items: u32) -> Self {
        TransactionDbBuilder {
            db: TransactionDb {
                n_items,
                items: Vec::new(),
                offsets: vec![0],
                supports: vec![0; n_items as usize],
                max_len: 0,
                content_hash: HashCell::default(),
            },
        }
    }

    /// Start of the open basket in `items`.
    fn open_start(&self) -> usize {
        self.db.offsets.last().copied().unwrap_or(0)
    }

    /// Appends `item` to the open basket.
    #[inline]
    pub fn push(&mut self, item: Item) {
        self.db.items.push(item);
    }

    /// Drops the items pushed since the last [`end_basket`](Self::end_basket).
    pub fn discard_basket(&mut self) {
        let start = self.open_start();
        self.db.items.truncate(start);
    }

    /// Closes the open basket (possibly empty) as the next transaction.
    ///
    /// # Panics
    ///
    /// Panics if the basket holds an item `>= n_items`.
    pub fn end_basket(&mut self) {
        let start = self.open_start();
        let db = &mut self.db;
        if !db.items[start..].windows(2).all(|w| w[0] < w[1]) {
            let mut basket = db.items.split_off(start);
            basket.sort_unstable();
            basket.dedup();
            db.items.append(&mut basket);
        }
        let basket = &db.items[start..];
        if let Some(&max) = basket.last() {
            assert!(
                max.id() < db.n_items,
                "transaction item {max} outside universe 0..{}",
                db.n_items
            );
        }
        for item in basket {
            db.supports[item.index()] += 1;
        }
        db.max_len = db.max_len.max(basket.len());
        db.offsets.push(db.items.len());
    }

    /// The database of the closed baskets; items of a basket left open
    /// are dropped.
    pub fn build(mut self) -> TransactionDb {
        self.discard_basket();
        self.db.items.shrink_to_fit();
        self.db.offsets.shrink_to_fit();
        self.db
    }
}

/// `true` iff sorted slice `haystack` contains every element of the sorted
/// slice `needles` (both strictly increasing).
pub(crate) fn contains_sorted(haystack: &[Item], needles: &[Item]) -> bool {
    if needles.len() > haystack.len() {
        return false;
    }
    let mut hi = 0;
    'outer: for &n in needles {
        while hi < haystack.len() {
            match haystack[hi].cmp(&n) {
                std::cmp::Ordering::Less => hi += 1,
                std::cmp::Ordering::Equal => {
                    hi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TransactionDb {
        TransactionDb::from_ids(
            5,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![1, 2, 3],
                vec![4],
                vec![0, 1, 2, 3, 4],
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let db = db();
        assert_eq!(db.len(), 5);
        assert_eq!(db.n_items(), 5);
        assert!(!db.is_empty());
        assert_eq!(db.transaction(1), &[Item(0), Item(1)]);
        assert_eq!(db.max_transaction_len(), 5);
        assert!((db.avg_transaction_len() - 14.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn transactions_are_sorted_and_deduped() {
        let db = TransactionDb::from_ids(4, vec![vec![3, 1, 1, 0]]);
        assert_eq!(db.transaction(0), &[Item(0), Item(1), Item(3)]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_item_panics() {
        TransactionDb::from_ids(3, vec![vec![3]]);
    }

    #[test]
    fn support_counts_by_scan() {
        let db = db();
        assert_eq!(db.support(&Itemset::from_ids([0, 1])), 3);
        assert_eq!(db.support(&Itemset::from_ids([1, 2])), 3);
        assert_eq!(db.support(&Itemset::from_ids([0, 4])), 1);
        assert_eq!(db.support(&Itemset::empty()), 5);
        assert!((db.relative_support(&Itemset::from_ids([0, 1])) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn item_supports_matches_per_item_scan() {
        let db = db();
        assert_eq!(db.item_supports(), &[3, 4, 3, 2, 2]);
    }

    #[test]
    fn builder_keeps_sorted_baskets_and_normalises_the_rest() {
        let mut b = TransactionDbBuilder::new(6);
        for id in [0, 2, 5] {
            b.push(Item(id));
        }
        b.end_basket();
        for id in [4, 1, 4, 0, 1] {
            b.push(Item(id));
        }
        b.end_basket();
        b.push(Item(3));
        b.discard_basket();
        b.end_basket();
        b.push(Item(5));
        let db = b.build(); // the open basket is dropped
        let baskets: Vec<&[Item]> = db.transactions().collect();
        assert_eq!(
            baskets,
            [
                &[Item(0), Item(2), Item(5)][..],
                &[Item(0), Item(1), Item(4)],
                &[]
            ]
        );
        assert_eq!(db.item_supports(), &[2, 1, 1, 0, 1, 1]);
        assert_eq!(db.max_transaction_len(), 3);
        assert!((db.avg_transaction_len() - 2.0).abs() < 1e-12);
        assert_eq!(
            db,
            TransactionDb::from_ids(6, vec![vec![5, 2, 0], vec![1, 4, 0], vec![]])
        );
    }

    #[test]
    fn stored_supports_match_a_scan() {
        let db = db();
        for (i, &s) in db.item_supports().iter().enumerate() {
            assert_eq!(s, db.support(&Itemset::from_ids([i as u32])));
        }
    }

    #[test]
    fn equality_ignores_whether_the_hash_was_computed() {
        let a = db();
        let b = db();
        let hash = a.content_hash();
        assert_eq!(a, b);
        assert_eq!(b, a);
        let c = a.clone();
        assert_eq!(c, b);
        assert_eq!(b.content_hash(), hash);
        assert_eq!(c.content_hash(), hash);
        assert_eq!(a, b);
        let other = TransactionDb::from_ids(5, vec![vec![0, 1, 2]]);
        assert_ne!(a, other);
    }

    #[test]
    fn content_hash_is_bytewise_fnv1a() {
        // The plain definition: every id's four little-endian bytes, then
        // 0xFF after each transaction.
        fn reference(db: &TransactionDb) -> u64 {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for txn in db.transactions() {
                let bytes = txn.iter().flat_map(|i| i.id().to_le_bytes());
                for b in bytes.chain([0xFF]) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
                }
            }
            h
        }
        let db = TransactionDb::from_ids(
            70_000,
            vec![
                vec![0, 1, 255, 256, 257, 65_535, 65_536, 69_999],
                vec![],
                vec![4_096, 12],
            ],
        );
        assert_eq!(db.content_hash(), reference(&db));
        let empty = TransactionDb::from_ids(3, Vec::<Vec<u32>>::new());
        assert_eq!(empty.content_hash(), reference(&empty));
    }

    #[test]
    fn empty_database_edge_cases() {
        let db = TransactionDb::from_ids(3, Vec::<Vec<u32>>::new());
        assert!(db.is_empty());
        assert_eq!(db.support(&Itemset::from_ids([0])), 0);
        assert_eq!(db.relative_support(&Itemset::from_ids([0])), 0.0);
        assert_eq!(db.avg_transaction_len(), 0.0);
    }

    #[test]
    fn contains_sorted_edge_cases() {
        let hay: Vec<Item> = [1u32, 3, 5, 7].iter().map(|&i| Item(i)).collect();
        let ok: Vec<Item> = [3u32, 7].iter().map(|&i| Item(i)).collect();
        let bad: Vec<Item> = [3u32, 8].iter().map(|&i| Item(i)).collect();
        assert!(contains_sorted(&hay, &ok));
        assert!(!contains_sorted(&hay, &bad));
        assert!(contains_sorted(&hay, &[]));
        assert!(!contains_sorted(&[], &ok));
    }
}
