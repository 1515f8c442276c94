//! Shared fixtures for the fault-injection suites: the planted XOR
//! dataset, the mixed-constraint query, the session-API stand-ins, the
//! counter factories, and the [`FaultCounter`] decorator that simulates
//! resource exhaustion at a chosen guarded-batch index. Used by
//! `guard_faults.rs` (guard contract) and `durability.rs` (crash-safe
//! checkpointing). [`oracle`] holds the from-definitions reference of the
//! differential suites (`measure_differential.rs`,
//! `normalization_differential.rs`).

// Each test binary uses a subset of these helpers; helper fns outside
// `#[test]` bodies still trip `unwrap_used`, and in a test binary a
// panic is the failure report.
#![allow(dead_code, clippy::unwrap_used, clippy::expect_used)]

pub mod oracle;

use ccs::itemset::{
    BatchInterrupted, CountProbe, CountingStats, FpTreeCounter, HorizontalCounter, MintermCounter,
    ParallelCounter, ParallelVerticalCounter, ShardedVerticalCounter,
};
use ccs::prelude::*;

/// Session-API stand-ins with the shapes of the retired free-function
/// matrix, so the sweeps keep their original call sites.
pub fn mine(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
) -> Result<MiningResult, MiningError> {
    MiningSession::new(db, attrs)
        .mine(q, &MineRequest::new(algorithm))
        .map(|o| o.result)
}

pub fn mine_with_guard(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
    strategy: CountingStrategy,
    guard: &RunGuard,
) -> Result<MiningResult, MiningError> {
    MiningSession::new(db, attrs)
        .mine(
            q,
            &MineRequest::new(algorithm)
                .strategy(strategy)
                .guard(guard.clone()),
        )
        .map(|o| o.result)
}

pub fn mine_with_counter_guarded<C: MintermCounter>(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
    counter: &mut C,
    guard: &RunGuard,
) -> Result<MiningResult, MiningError> {
    mine_on(
        db,
        attrs,
        q,
        &MineRequest::new(algorithm).guard(guard.clone()),
        counter,
    )
}

pub fn resume_with_counter_guarded<C: MintermCounter>(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    counter: &mut C,
    guard: &RunGuard,
    state: ResumeState,
) -> Result<MiningResult, MiningError> {
    resume_on(
        db,
        attrs,
        q,
        &MineRequest::default().guard(guard.clone()),
        counter,
        state,
    )
}

/// Builds the real counter a fault sweep decorates; boxed so one sweep
/// harness can run the horizontal reference and the pooled counters
/// through identical injection schedules.
pub type CounterFactory = fn(&TransactionDb) -> Box<dyn MintermCounter + '_>;

pub fn horizontal_factory(db: &TransactionDb) -> Box<dyn MintermCounter + '_> {
    Box::new(HorizontalCounter::new(db))
}

/// A 2-worker pooled vertical counter with its work floor zeroed, so
/// even the toy dataset's batches run on both workers.
pub fn vertical_par_factory(db: &TransactionDb) -> Box<dyn MintermCounter + '_> {
    let mut counter = ParallelVerticalCounter::with_workers(db, 2);
    counter.index_mut().set_work_floor(0);
    Box::new(counter)
}

/// A 3-shard, 2-worker sharded vertical counter with its work floor
/// zeroed: more shards than workers, so each runner counts a class on
/// every shard, and the odd shard count leaves unequal shard lengths;
/// trips land with the other runner's class still in flight.
pub fn sharded_factory(db: &TransactionDb) -> Box<dyn MintermCounter + '_> {
    let mut counter = ShardedVerticalCounter::with_shards(db, 3, 2);
    counter.index_mut().set_work_floor(0);
    Box::new(counter)
}

/// A 2-shard, 4-worker sharded vertical counter with its work floor
/// zeroed: more workers than shards, so up to four runners drain the
/// one class cursor and trips land while several classes are in flight.
pub fn wide_pool_factory(db: &TransactionDb) -> Box<dyn MintermCounter + '_> {
    let mut counter = ShardedVerticalCounter::with_shards(db, 2, 4);
    counter.index_mut().set_work_floor(0);
    Box::new(counter)
}

/// The pattern-growth counter: candidates answered from conditional
/// projections of a compressed prefix tree, interruption at projection
/// boundaries.
pub fn fptree_factory(db: &TransactionDb) -> Box<dyn MintermCounter + '_> {
    Box::new(FpTreeCounter::new(db))
}

/// Every counting substrate the durability differential must cover: the
/// six concrete strategies, as sweep-compatible factories.
pub const ALL_FACTORIES: [(&str, CounterFactory); 6] = [
    ("horizontal", horizontal_factory),
    ("vertical", |db| {
        Box::new(ccs::itemset::VerticalCounter::new(db))
    }),
    ("parallel", |db| {
        Box::new(ParallelCounter::with_workers(db, 2))
    }),
    ("vertical-par", vertical_par_factory),
    ("sharded", sharded_factory),
    ("fp-tree", fptree_factory),
];

/// Wraps a real counter; at guarded-batch call number `trigger` it
/// simulates `fault` and abandons the batch without doing any work.
pub struct FaultCounter<C> {
    inner: C,
    guard: RunGuard,
    fault: TruncationReason,
    trigger: usize,
    batches_seen: usize,
}

impl<C: MintermCounter> FaultCounter<C> {
    pub fn new(inner: C, guard: RunGuard, fault: TruncationReason, trigger: usize) -> Self {
        FaultCounter {
            inner,
            guard,
            fault,
            trigger,
            batches_seen: 0,
        }
    }
}

impl<C: MintermCounter> MintermCounter for FaultCounter<C> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        self.inner.minterm_counts(set)
    }

    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        self.inner.minterm_counts_batch(sets)
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let index = self.batches_seen;
        self.batches_seen += 1;
        if index == self.trigger {
            match self.fault {
                TruncationReason::Cancelled => self.guard.cancel(),
                other => self.guard.trip(other),
            }
            return Err(BatchInterrupted::default());
        }
        self.inner.minterm_counts_batch_guarded(sets, probe)
    }

    fn n_transactions(&self) -> usize {
        self.inner.n_transactions()
    }

    fn stats(&self) -> CountingStats {
        self.inner.stats()
    }
}

/// Rewrites the RESUME section (tag 6) of the checkpoint `bytes` with
/// `patch`, then re-seals that section's checksum and the file's,
/// leaving every other section, the DBFP fingerprint included,
/// byte-identical: a crafted file that every checksum and
/// `Checkpoint::verify_db` accept.
pub fn patch_resume(bytes: &[u8], patch: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let crc32 = ccs::core::persist::crc32;
    let mut out = bytes[..16].to_vec();
    let mut at = 16;
    while at < bytes.len() - 4 {
        let tag = u16::from_le_bytes([bytes[at], bytes[at + 1]]);
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let mut payload = bytes[at + 12..at + 12 + len].to_vec();
        if tag == 6 {
            patch(&mut payload);
        }
        out.extend_from_slice(&bytes[at..at + 4]);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        at += 12 + len + 4;
    }
    let file_crc = crc32(&out);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

/// An in-place edit of a RESUME payload, for [`patch_resume`].
pub type ResumePatch = fn(&mut Vec<u8>);

/// The two crafted BMS++ resume patches no run stamps, by name: the
/// first candidate's first item becomes `1_000_000`, or the snapshot
/// level becomes 0. A BMS++ RESUME payload is the variant code (1), the
/// `u64` level, the `u64` candidate count, then each candidate as a
/// `u32` length and its `u32` items.
pub const CRAFTED_RESUME_PATCHES: [(&str, ResumePatch); 2] = [
    ("item outside the universe", |p| {
        assert_eq!(p[0], 1, "a BMS++ snapshot");
        assert!(
            u64::from_le_bytes(p[9..17].try_into().unwrap()) > 0,
            "a candidate"
        );
        p[21..25].copy_from_slice(&1_000_000u32.to_le_bytes());
    }),
    ("level 0", |p| {
        assert_eq!(p[0], 1, "a BMS++ snapshot");
        p[1..9].copy_from_slice(&0u64.to_le_bytes());
    }),
];

/// Two XOR-planted modules — `{0, 1, 2}` with item 2 present iff exactly
/// one of 0/1 is, and `{3, 4, 5}` likewise — plus a plain correlated pair
/// `{6, 7}`. The XOR triples are pairwise independent but strongly
/// three-way dependent, so their pairs stay below the significance
/// threshold at level 2 and every miner (including constraint-pushing
/// BMS++) grows genuine level-3 and level-4 candidates: multiple guarded
/// batches per run, with scratch-hungry deep batches for the vertical
/// counter.
pub fn db() -> TransactionDb {
    let mut txns = Vec::new();
    for i in 0..160u32 {
        let mut t = Vec::new();
        let (a, b) = (i & 1, (i >> 1) & 1);
        if a == 1 {
            t.push(0);
        }
        if b == 1 {
            t.push(1);
        }
        if a ^ b == 1 {
            t.push(2);
        }
        let (c, d) = ((i >> 2) & 1, (i >> 3) & 1);
        if c == 1 {
            t.push(3);
        }
        if d == 1 {
            t.push(4);
        }
        if c ^ d == 1 {
            t.push(5);
        }
        if i % 5 == 0 {
            t.extend([6, 7]);
        }
        txns.push(t);
    }
    TransactionDb::from_ids(8, txns)
}

/// Mixed constraints: one anti-monotone (`max ≤`) and one monotone
/// (`sum ≥`), so BMS++ pushes, BMS*/BMS** run a genuine phase-2 sweep,
/// and `VALID_MIN` ≠ `MIN_VALID`.
pub fn query() -> CorrelationQuery {
    CorrelationQuery {
        params: MiningParams {
            confidence: 0.9,
            support_fraction: 0.1,
            max_level: 4,
            ..MiningParams::paper()
        },
        constraints: ConstraintSet::new()
            .and(Constraint::max_le("price", 7.0))
            .and(Constraint::sum_ge("price", 3.0)),
    }
}

pub fn attrs() -> AttributeTable {
    AttributeTable::with_identity_prices(8)
}

pub fn sorted(answers: &[Itemset]) -> Vec<Itemset> {
    let mut v = answers.to_vec();
    v.sort_unstable();
    v
}

pub const ALL_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::BmsPlus,
    Algorithm::BmsPlusPlus,
    Algorithm::BmsStar,
    Algorithm::BmsStarStar,
    Algorithm::Naive,
    Algorithm::NaiveMinValid,
];
