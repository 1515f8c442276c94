//! [`TidSet`]: a fixed-capacity bitmap over transaction ids.
//!
//! A tid-set records which transactions of a database contain some item (or
//! satisfy some pattern). Contingency-table construction in the vertical
//! counting path reduces to `AND` / `AND NOT` over tid-sets plus popcounts,
//! so this type is the innermost loop of the whole miner.
//!
//! # Blocked layout
//!
//! The bitmap is stored as 64-bit words grouped into *superblocks* of
//! [`SUPERBLOCK_WORDS`] words each — 64 bytes, one cache line, 512 tids.
//! The word vector is padded up to a whole number of superblocks (padding
//! bits are always zero), so every bulk kernel runs a remainder-free
//! `chunks_exact` loop over fixed-width 8×u64 panels that LLVM
//! autovectorizes on stable Rust — no `unsafe`, no nightly `std::simd`.
//!
//! Alongside the words the set maintains `sb_pops`, an exact per-superblock
//! population count, updated by every mutator (bulk kernels recompute it in
//! the same fused pass that writes the words). The hints make [`count`]
//! an O(capacity/512) sum instead of a full popcount pass, let
//! intersection kernels skip whole superblocks where either operand is
//! empty, and give [`intersection_count_limited`] a superblock-granular
//! early exit.
//!
//! # Out-of-range contract
//!
//! The API is deliberately asymmetric about ids outside `0..capacity`:
//!
//! * [`insert`] **panics** — inserting an id the set cannot represent
//!   would silently lose data, so it is always a caller bug;
//! * [`remove`] and [`contains`] **tolerate** them — an out-of-range id is
//!   trivially absent, so removing it is a no-op and membership is `false`.
//!
//! This contract is pinned by tests (`api_contract_*` below) and relied on
//! by callers that probe ids from untrusted ranges.
//!
//! [`count`]: TidSet::count
//! [`insert`]: TidSet::insert
//! [`remove`]: TidSet::remove
//! [`contains`]: TidSet::contains
//! [`intersection_count_limited`]: TidSet::intersection_count_limited

use std::fmt;

/// Words per superblock: 8 × u64 = 64 bytes = one cache line = 512 tids.
pub const SUPERBLOCK_WORDS: usize = 8;

/// Tids covered by one superblock.
pub const SUPERBLOCK_BITS: usize = SUPERBLOCK_WORDS * BLOCK_BITS;

const BLOCK_BITS: usize = 64;

/// A bitmap over transaction ids `0..capacity`, stored in cache-line
/// superblocks with exact per-superblock population hints.
///
/// See the [module docs](self) for the layout and the out-of-range
/// contract.
#[derive(Clone, PartialEq, Eq)]
pub struct TidSet {
    /// Bit storage, padded to a whole number of superblocks. Invariant:
    /// every bit at position `>= capacity` (tail of the last live word and
    /// all padding words) is zero.
    words: Vec<u64>,
    /// Exact popcount of each superblock. Invariant: `sb_pops[i]` equals
    /// the popcount of words `[8i, 8i+8)` at all times.
    sb_pops: Vec<u32>,
    capacity: usize,
}

impl TidSet {
    /// An empty tid-set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let n_super = capacity.div_ceil(SUPERBLOCK_BITS);
        TidSet {
            words: vec![0; n_super * SUPERBLOCK_WORDS],
            sb_pops: vec![0; n_super],
            capacity,
        }
    }

    /// A tid-set with every id in `0..capacity` present.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for b in &mut s.words {
            *b = !0;
        }
        s.clear_tail();
        s.rebuild_pops();
        s
    }

    /// Builds from an iterator of ids.
    pub fn from_ids<I: IntoIterator<Item = usize>>(capacity: usize, ids: I) -> Self {
        let mut s = Self::new(capacity);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Number of ids this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a transaction id.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= capacity`: an unrepresentable id cannot be
    /// recorded, so accepting it would silently drop data (contrast with
    /// [`remove`](Self::remove), where out-of-range is a harmless no-op).
    #[inline]
    pub fn insert(&mut self, tid: usize) {
        assert!(
            tid < self.capacity,
            "tid {tid} out of range 0..{}",
            self.capacity
        );
        let word = tid / BLOCK_BITS;
        let mask = 1u64 << (tid % BLOCK_BITS);
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.sb_pops[word / SUPERBLOCK_WORDS] += 1;
        }
    }

    /// Removes a transaction id.
    ///
    /// Out-of-range ids are tolerated: they are never present, so the call
    /// is a no-op (it cannot lose data, unlike an out-of-range
    /// [`insert`](Self::insert), which panics).
    #[inline]
    pub fn remove(&mut self, tid: usize) {
        if tid < self.capacity {
            let word = tid / BLOCK_BITS;
            let mask = 1u64 << (tid % BLOCK_BITS);
            if self.words[word] & mask != 0 {
                self.words[word] &= !mask;
                self.sb_pops[word / SUPERBLOCK_WORDS] -= 1;
            }
        }
    }

    /// Membership test. Ids outside `0..capacity` are absent (`false`),
    /// never an error — mirroring [`remove`](Self::remove).
    #[inline]
    pub fn contains(&self, tid: usize) -> bool {
        tid < self.capacity && self.words[tid / BLOCK_BITS] & (1u64 << (tid % BLOCK_BITS)) != 0
    }

    /// Number of ids present.
    ///
    /// An O(capacity / 512) sum over the superblock population hints —
    /// not a popcount pass over the bitmap.
    #[inline]
    pub fn count(&self) -> usize {
        self.sb_pops.iter().map(|&p| p as usize).sum()
    }

    /// `true` iff no id is present.
    pub fn is_empty(&self) -> bool {
        self.sb_pops.iter().all(|&p| p == 0)
    }

    /// `|self ∩ other|` with a bounded early exit: the scan stops as soon
    /// as the running count reaches `limit` (checked once per superblock).
    ///
    /// The result is exact whenever it is `< limit`. When `limit` is a
    /// *true upper bound* of the intersection count — e.g. the popcount
    /// of either operand — the result is always exact: the running count
    /// can only reach the bound by having counted every intersecting
    /// bit. That property lets the vertical leaf kernel pass the node's
    /// own count as the bound: every count stays exact, and the scan
    /// skips the tail of the bitmap once the bound saturates.
    /// Superblocks where either population hint is zero are skipped
    /// entirely.
    pub fn intersection_count_limited(&self, other: &TidSet, limit: usize) -> usize {
        self.check_same_capacity(other);
        let mut count = 0usize;
        for ((sw, ow), (&pa, &pb)) in self
            .words
            .chunks_exact(SUPERBLOCK_WORDS)
            .zip(other.words.chunks_exact(SUPERBLOCK_WORDS))
            .zip(self.sb_pops.iter().zip(&other.sb_pops))
        {
            if pa == 0 || pb == 0 {
                continue;
            }
            let mut c = 0u32;
            for (a, b) in sw.iter().zip(ow) {
                c += (a & b).count_ones();
            }
            count += c as usize;
            if count >= limit {
                return count;
            }
        }
        count
    }

    /// Splits `self` by `other` into caller-owned scratch sets,
    /// allocation-free: `with` becomes `self ∩ other` and `without`
    /// becomes `self ∖ other`. This is the recursion step of vertical
    /// contingency-table counting: the current cell's tid-set is split
    /// into the transactions that do and do not contain the next item.
    /// Both outputs are overwritten entirely; they only need matching
    /// capacity. One fused pass writes both halves and both sets'
    /// population hints.
    ///
    /// # Panics
    ///
    /// Panics if any of the four capacities differ.
    pub fn split_into(&self, other: &TidSet, with: &mut TidSet, without: &mut TidSet) {
        self.check_same_capacity(other);
        self.check_same_capacity(with);
        self.check_same_capacity(without);
        for (sb, (((sw, ow), ww), uw)) in self
            .words
            .chunks_exact(SUPERBLOCK_WORDS)
            .zip(other.words.chunks_exact(SUPERBLOCK_WORDS))
            .zip(with.words.chunks_exact_mut(SUPERBLOCK_WORDS))
            .zip(without.words.chunks_exact_mut(SUPERBLOCK_WORDS))
            .enumerate()
        {
            if self.sb_pops[sb] == 0 {
                // Empty source superblock: both halves are empty there.
                ww.fill(0);
                uw.fill(0);
                with.sb_pops[sb] = 0;
                without.sb_pops[sb] = 0;
                continue;
            }
            let mut pw = 0u32;
            let mut pu = 0u32;
            for (((s, o), w), u) in sw.iter().zip(ow).zip(ww.iter_mut()).zip(uw.iter_mut()) {
                let both = s & o;
                let only = s & !o;
                *w = both;
                *u = only;
                pw += both.count_ones();
                pu += only.count_ones();
            }
            with.sb_pops[sb] = pw;
            without.sb_pops[sb] = pu;
        }
    }

    /// `|self ∩ a ∩ b|` in one fused branch-free pass, no allocation.
    ///
    /// This is the member-specific kernel of the vertical batch leaf: the
    /// four contingency cells of a suffix pair `(a, b)` under a node `L`
    /// follow from `|L ∩ a ∩ b|` plus the class-shared `|L ∩ a|`,
    /// `|L ∩ b|`, and `|L|` by inclusion–exclusion. Superblocks where
    /// `self` is empty (by its population hint) are skipped.
    pub fn triple_intersection_count(&self, a: &TidSet, b: &TidSet) -> usize {
        self.check_same_capacity(a);
        self.check_same_capacity(b);
        let mut count = 0usize;
        for (((sw, xw), yw), &ps) in self
            .words
            .chunks_exact(SUPERBLOCK_WORDS)
            .zip(a.words.chunks_exact(SUPERBLOCK_WORDS))
            .zip(b.words.chunks_exact(SUPERBLOCK_WORDS))
            .zip(&self.sb_pops)
        {
            if ps == 0 {
                continue;
            }
            let mut c = 0u32;
            for ((s, x), y) in sw.iter().zip(xw).zip(yw) {
                c += (s & x & y).count_ones();
            }
            count += c as usize;
        }
        count
    }

    /// Iterates over the present ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(bi, &block)| BitIter {
                block,
                base: bi * BLOCK_BITS,
            })
    }

    #[inline]
    fn check_same_capacity(&self, other: &TidSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "tid-set capacity mismatch: {} vs {}",
            self.capacity, other.capacity
        );
    }

    /// Zeroes every bit at position `>= capacity`: the tail of the last
    /// live word and all padding words of the final superblock.
    fn clear_tail(&mut self) {
        let live_words = self.capacity.div_ceil(BLOCK_BITS);
        let tail = self.capacity % BLOCK_BITS;
        if tail != 0 {
            self.words[live_words - 1] &= (1u64 << tail) - 1;
        }
        for w in &mut self.words[live_words..] {
            *w = 0;
        }
    }

    /// Recomputes every superblock population hint from the words.
    fn rebuild_pops(&mut self) {
        let TidSet { words, sb_pops, .. } = self;
        for (sw, pop) in words.chunks_exact(SUPERBLOCK_WORDS).zip(sb_pops.iter_mut()) {
            *pop = sw.iter().map(|w| w.count_ones()).sum();
        }
    }

    /// Invariant check for debug builds and unit tests: padding bits are
    /// zero and every superblock hint matches its words. Absent from
    /// release library builds.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn debug_check_invariants(&self) {
        let mut reference = self.clone();
        reference.clear_tail();
        assert_eq!(
            reference.words, self.words,
            "tid-set has live bits beyond capacity {}",
            self.capacity
        );
        reference.rebuild_pops();
        assert_eq!(
            reference.sb_pops, self.sb_pops,
            "tid-set superblock population hints out of sync"
        );
    }
}

struct BitIter {
    block: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.block == 0 {
            return None;
        }
        let bit = self.block.trailing_zeros() as usize;
        self.block &= self.block - 1;
        Some(self.base + bit)
    }
}

impl fmt::Debug for TidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TidSet")
            .field("capacity", &self.capacity)
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `|a ∩ b|` the slow way, as the kernels' model.
    fn model_intersection(a: &TidSet, b: &TidSet) -> usize {
        a.iter().filter(|&t| b.contains(t)).count()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = TidSet::new(100);
        assert!(!s.contains(7));
        s.insert(7);
        s.insert(63);
        s.insert(64);
        assert!(s.contains(7));
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert_eq!(s.count(), 3);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 2);
        s.debug_check_invariants();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        TidSet::new(10).insert(10);
    }

    /// Pins the documented out-of-range contract: `insert` panics (see
    /// `insert_out_of_range_panics`), while `remove` and `contains`
    /// tolerate any id — a no-op and `false` respectively — and leave the
    /// set's invariants intact (checked by debug assertions).
    #[test]
    fn api_contract_remove_and_contains_tolerate_out_of_range() {
        let mut s = TidSet::from_ids(100, [0, 50, 99]);
        for oob in [100usize, 101, 512, usize::MAX] {
            assert!(!s.contains(oob), "id {oob} must read as absent");
            s.remove(oob); // must be a no-op, not a panic
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 50, 99]);
        s.debug_check_invariants();
    }

    #[test]
    fn full_respects_capacity_tail() {
        let s = TidSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        s.debug_check_invariants();
    }

    #[test]
    fn full_clears_padding_words_of_the_last_superblock() {
        // Capacity far from any superblock boundary: 3 live words + 5
        // padding words in the single superblock.
        let s = TidSet::full(130);
        assert_eq!(s.count(), 130);
        assert_eq!(s.iter().count(), 130);
        assert_eq!(s.iter().max(), Some(129));
        s.debug_check_invariants();
    }

    #[test]
    fn split_into_keeps_population_hints_exact() {
        // Spread across several superblocks so the hint vector is
        // non-trivial, with one deliberately empty superblock in between.
        let a = TidSet::from_ids(2000, (0..700).chain(1500..1700));
        let b = TidSet::from_ids(2000, (300..900).chain(1600..1900));
        let (mut with, mut without) = (TidSet::new(2000), TidSet::new(2000));
        a.split_into(&b, &mut with, &mut without);
        with.debug_check_invariants();
        without.debug_check_invariants();
        assert_eq!(with.count(), model_intersection(&a, &b));
        assert_eq!(with.count() + without.count(), a.count());
    }

    #[test]
    fn limited_intersection_count_is_exact_below_the_limit() {
        let a = TidSet::from_ids(2000, (0..2000).step_by(2));
        let b = TidSet::from_ids(2000, (0..2000).step_by(3));
        let exact = model_intersection(&a, &b);
        assert_eq!(a.intersection_count_limited(&b, usize::MAX), exact);
        assert_eq!(a.intersection_count_limited(&b, exact + 1), exact);
    }

    #[test]
    fn limited_intersection_count_is_exact_at_a_true_upper_bound() {
        // Early exit at a bound that genuinely caps the count must still
        // return the exact value: |a ∩ b| ≤ |a|.
        let a = TidSet::from_ids(4096, 0..600);
        let b = TidSet::full(4096);
        let bound = a.count();
        assert_eq!(a.intersection_count_limited(&b, bound), bound);
        assert_eq!(
            a.intersection_count_limited(&b, bound),
            model_intersection(&a, &b)
        );
    }

    #[test]
    fn limited_intersection_count_saturates_at_or_above_the_limit() {
        let a = TidSet::full(8192);
        let b = TidSet::full(8192);
        let got = a.intersection_count_limited(&b, 100);
        assert!(
            got >= 100,
            "early exit must only fire once the bound is hit"
        );
        assert!(got <= 8192);
    }

    #[test]
    fn limited_intersection_count_zero_limit_exits_immediately() {
        let a = TidSet::full(1024);
        let b = TidSet::full(1024);
        // A zero limit is trivially reached after the first superblock.
        assert!(a.intersection_count_limited(&b, 0) <= 512);
    }

    #[test]
    fn intersection_kernels_skip_empty_superblocks() {
        // `a` empty in the middle superblock, `b` empty at the ends; the
        // hint-gated kernels must still count exactly.
        let a = TidSet::from_ids(1536, (0..512).chain(1024..1536));
        let b = TidSet::from_ids(1536, (256..1280).step_by(2));
        let expected = model_intersection(&a, &b);
        assert_eq!(a.intersection_count_limited(&b, usize::MAX), expected);
        assert_eq!(b.intersection_count_limited(&a, usize::MAX), expected);
        let full = TidSet::full(1536);
        assert_eq!(a.triple_intersection_count(&b, &full), expected);
        assert_eq!(b.triple_intersection_count(&full, &a), expected);
    }

    #[test]
    fn split_into_partitions_and_overwrites_dirty_scratch() {
        let a = TidSet::from_ids(130, [0, 1, 63, 64, 65, 129]);
        let b = TidSet::from_ids(130, [1, 64, 100, 129]);
        // Dirty scratch must be fully overwritten.
        let mut with = TidSet::from_ids(130, [7, 8, 9]);
        let mut without = TidSet::full(130);
        a.split_into(&b, &mut with, &mut without);
        assert_eq!(with, TidSet::from_ids(130, [1, 64, 129]));
        assert_eq!(without, TidSet::from_ids(130, [0, 63, 65]));
        with.debug_check_invariants();
        without.debug_check_invariants();
    }

    #[test]
    fn split_into_clears_dirty_scratch_in_empty_superblocks() {
        // The source's second superblock is empty, so the fast path must
        // still zero whatever the scratch held there.
        let a = TidSet::from_ids(1100, 0..100);
        let b = TidSet::from_ids(1100, 50..150);
        let mut with = TidSet::full(1100);
        let mut without = TidSet::full(1100);
        a.split_into(&b, &mut with, &mut without);
        assert_eq!(
            with.iter().collect::<Vec<_>>(),
            (50..100).collect::<Vec<_>>()
        );
        assert_eq!(
            without.iter().collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
        with.debug_check_invariants();
        without.debug_check_invariants();
    }

    #[test]
    fn triple_intersection_count_matches_materialised() {
        let a = TidSet::from_ids(300, (0..300).step_by(2));
        let b = TidSet::from_ids(300, (0..300).step_by(3));
        let c = TidSet::from_ids(300, (0..300).step_by(5));
        let expected = a.iter().filter(|&t| b.contains(t) && c.contains(t)).count();
        assert_eq!(a.triple_intersection_count(&b, &c), expected);
        assert_eq!(expected, 10); // multiples of 30 in 0..300
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let a = TidSet::new(64);
        let b = TidSet::new(65);
        a.intersection_count_limited(&b, usize::MAX);
    }

    #[test]
    fn iter_crosses_block_boundaries() {
        let ids = [0, 63, 64, 127, 128];
        let s = TidSet::from_ids(200, ids);
        assert_eq!(s.iter().collect::<Vec<_>>(), ids.to_vec());
    }

    #[test]
    fn empty_detection() {
        let mut s = TidSet::new(64);
        assert!(s.is_empty());
        s.insert(0);
        assert!(!s.is_empty());
    }

    #[test]
    fn zero_capacity_is_degenerate_but_sound() {
        let mut s = TidSet::new(0);
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        s.remove(0);
        assert_eq!(s.iter().count(), 0);
        let t = TidSet::full(0);
        assert_eq!(s.intersection_count_limited(&t, usize::MAX), 0);
    }
}
