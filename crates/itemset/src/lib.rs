//! # ccs-itemset — itemset kernel for constrained correlation mining
//!
//! The substrate every miner in this workspace stands on:
//!
//! * [`Item`] / [`Itemset`] — dense item ids and immutable sorted itemsets
//!   with full set algebra and lattice helpers,
//! * [`hash`] — the seeded multiply-xor hasher behind [`ItemsetSet`] and
//!   [`ItemsetMap`], the itemset-keyed collections of the mining layers,
//! * [`TransactionDb`] — an in-memory horizontal basket database,
//! * [`TidSet`] / [`VerticalIndex`] — per-item transaction bitmaps,
//! * [`counting`] — pluggable minterm (contingency-cell) counting with work
//!   accounting: the paper-faithful horizontal scan, and
//!   [`Tiered`](counting::Tiered), the one memory-pressure degradation
//!   ladder (preferred engine → vertical → horizontal) around the
//!   vertical, pooled-vertical and FP-tree engines; the pooled backends
//!   run each batch on scoped threads that borrow it, one per available
//!   CPU ([`available_workers`]) unless given a worker count,
//! * [`parallel`] — a data-parallel horizontal counter over database
//!   chunks,
//! * [`sharded`] — the one pooled vertical engine: the tid range split
//!   into shards, prefix classes pulled by runners that count each
//!   class on every shard and sum the per-shard contingency tables
//!   elementwise into exact whole-database tables; its one-shard case
//!   is class-parallel counting ([`ParallelVerticalIndex`]),
//! * [`fptree`] — pattern-growth counting over a compressed prefix
//!   tree: conditional projections memoized per batch, for dense
//!   low-cardinality databases where tid-set intersection pays per
//!   transaction instead of per distinct profile,
//! * [`candidate`] — Apriori-style level-wise candidate generation,
//!   including the asymmetric extension generator required by the
//!   constraint-pushing algorithms BMS++ / BMS**.

#![warn(missing_docs)]

pub mod candidate;
pub mod counting;
pub mod database;
pub mod fptree;
pub mod hash;
pub mod item;
pub mod itemset;
pub mod parallel;
pub mod sharded;
pub mod tidset;
pub mod vertical;

pub use counting::{
    available_workers, BatchInterrupted, CountProbe, CountingStats, DegradationRung,
    HorizontalCounter, MintermCounter, NoProbe, VerticalCounter, MAX_TABLE_WIDTH,
};
pub use database::{TransactionDb, TransactionDbBuilder};
pub use fptree::{FpTree, FpTreeCounter};
pub use hash::{ItemsetMap, ItemsetSet};
pub use item::Item;
pub use itemset::Itemset;
pub use parallel::ParallelCounter;
pub use sharded::{
    ParallelVerticalCounter, ParallelVerticalIndex, ShardedVerticalCounter, ShardedVerticalIndex,
};
pub use tidset::TidSet;
pub use vertical::VerticalIndex;
