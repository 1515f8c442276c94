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
//!   vertical, pooled-vertical and FP-tree engines,
//! * [`pool`] — a persistent, dependency-free worker pool on one FIFO
//!   queue, with the one drain loop every pooled counter shares,
//! * [`parallel`] — a data-parallel horizontal counter on the pool,
//! * [`sharded`] — the one pooled vertical engine: the tid range split
//!   into shards, each shard's prefix classes pulled by pool jobs, and
//!   per-shard contingency tables merged elementwise into exact
//!   whole-database tables; its one-shard case is class-parallel
//!   counting ([`ParallelVerticalIndex`]),
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
pub mod pool;
pub mod sharded;
pub mod tidset;
pub mod vertical;

pub use counting::{
    BatchInterrupted, CountProbe, CountingStats, DegradationRung, HorizontalCounter,
    MintermCounter, NoProbe, VerticalCounter,
};
pub use database::{TransactionDb, TransactionDbBuilder};
pub use fptree::{FpTree, FpTreeCounter};
pub use hash::{ItemsetMap, ItemsetSet};
pub use item::Item;
pub use itemset::Itemset;
pub use parallel::ParallelCounter;
pub use pool::WorkerPool;
pub use sharded::{
    ParallelVerticalCounter, ParallelVerticalIndex, ShardedVerticalCounter, ShardedVerticalIndex,
};
pub use tidset::TidSet;
pub use vertical::VerticalIndex;
