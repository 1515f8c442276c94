//! Minterm (contingency-cell) counting strategies.
//!
//! Every mining algorithm needs, for a candidate itemset `S`, the count of
//! each of the `2^|S|` minterms over `S` — the cells of its contingency
//! table. Every counting backend sits behind the [`MintermCounter`]
//! trait; a backend changes what a table *costs*, never which tables are
//! built or what they hold:
//!
//! * [`HorizontalCounter`] scans the transaction database once per table,
//!   exactly as the paper's cost model assumes (work ∝ sets considered ×
//!   database size). The miners use this by default so measured runtimes
//!   follow the paper's analysis.
//! * [`Tiered`] wraps a faster [`TieredEngine`] — tid-set intersection
//!   ([`VerticalCounter`]), the pooled vertical engine over tid-range
//!   shards (one shard for class-parallel counting), or the FP-tree —
//!   in the one memory-pressure degradation ladder every such backend
//!   shares (see below).
//! * [`crate::parallel::ParallelCounter`] divides the horizontal scan
//!   across a worker pool.
//!
//! # One counting path
//!
//! Every table is counted by a guarded batch: each backend has exactly
//! one, [`MintermCounter::minterm_counts_batch_guarded`] for the
//! horizontal counters and [`TieredEngine::count_batch_guarded`] for an
//! engine, which has no counting method of its own. A single set is a
//! batch of one under [`NoProbe`]: [`MintermCounter::minterm_counts`]
//! charges exactly what that batch charges (one scan, every row and one
//! table for a horizontal counter; one table for a tiered one, whose
//! single sets skip the ladder and always reach the preferred engine).
//!
//! All implementations keep work counters so experiments can report
//! *sets considered* / *tables built* alongside wall-clock time.
//!
//! # The degradation ladder
//!
//! A tiered counter answers each batch from the highest
//! [`DegradationRung`] whose scratch memory fits the probe's
//! [`arena_budget_bytes`](CountProbe::arena_budget_bytes): its preferred
//! engine, then a full-range [`VerticalIndex`] twin (one scratch arena),
//! then guarded horizontal scans (none). Degradation is sticky and only
//! moves down; every batch below the preferred rung increments
//! [`CountingStats::degraded_batches`]. The rungs agree exactly (the
//! counting-equivalence property tests), so only the cost model changes.
//!
//! # Cooperative interruption
//!
//! Batch counting can run for a long time on a dense level, so every
//! counter also exposes a *guarded* batch entry point,
//! [`MintermCounter::minterm_counts_batch_guarded`], which consults a
//! [`CountProbe`] at interior loop boundaries (horizontal chunk loop,
//! vertical prefix-class loop, FP-tree projection loop) and abandons the
//! batch with [`BatchInterrupted`] when the probe asks it to stop. Every
//! backend follows one rule: check before a unit, charge after it.
//! Pooled jobs follow it on their own threads, through the probe's
//! [`share`](CountProbe::share)d handle. Work statistics stay accurate
//! across an abandoned batch: every *completed* unit (scan, prefix
//! class, table) is flushed into [`CountingStats`] before the error
//! returns. A unit in hand when the budget runs out is finished, so a
//! horizontal counter counts up to a whole batch past a work budget, a
//! sequential tid-set batch one prefix class, a pooled tid-set batch one
//! class per job and the FP-tree one candidate. The unguarded methods
//! are the guarded ones driven by [`NoProbe`].

use std::sync::Arc;

use crate::database::TransactionDb;
use crate::itemset::Itemset;
use crate::vertical::VerticalIndex;

/// The widest itemset whose contingency table the tid-set and FP-tree
/// counters build: a `k`-set's table has `2^k` cells, so a table at this
/// width already takes 8 MiB. `ccs-core` refuses a `max_level` above it.
pub const MAX_TABLE_WIDTH: usize = 20;

/// How many transactions a horizontal scan processes between probe
/// checks. Small enough to stay responsive on multi-million-row
/// databases, large enough that the check is free.
pub(crate) const PROBE_CHUNK: usize = 1024;

/// Counting work statistics, shared by all counter implementations.
/// Every field is work a counter did; a set a miner answers without
/// counting is not recorded here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingStats {
    /// Number of contingency tables built (candidate sets counted).
    pub tables_built: u64,
    /// Number of full database passes performed (horizontal only).
    pub db_scans: u64,
    /// Total transactions visited across all scans.
    pub transactions_visited: u64,
    /// Total contingency cells computed (`2^k` per `k`-itemset table).
    pub cells_counted: u64,
    /// Batches a [`Tiered`] counter answered below its preferred rung of
    /// the degradation ladder (preferred engine → vertical → horizontal)
    /// after a scratch-memory budget tripped.
    pub degraded_batches: u64,
}

impl CountingStats {
    /// The work performed since `base` was captured (field-wise
    /// difference; all counters are monotone).
    pub fn since(&self, base: &CountingStats) -> CountingStats {
        CountingStats {
            tables_built: self.tables_built - base.tables_built,
            db_scans: self.db_scans - base.db_scans,
            transactions_visited: self.transactions_visited - base.transactions_visited,
            cells_counted: self.cells_counted - base.cells_counted,
            degraded_batches: self.degraded_batches - base.degraded_batches,
        }
    }

    /// A record charging `tables` contingency tables totalling `cells`
    /// cells — the delta every counter reports per answered batch.
    pub fn tables(tables_built: u64, cells_counted: u64) -> CountingStats {
        CountingStats {
            tables_built,
            cells_counted,
            ..CountingStats::default()
        }
    }
}

/// Field-wise accumulation — the one merge every counter and metrics
/// record routes through, and the inverse of [`CountingStats::since`].
impl std::ops::AddAssign<&CountingStats> for CountingStats {
    fn add_assign(&mut self, rhs: &CountingStats) {
        self.tables_built += rhs.tables_built;
        self.db_scans += rhs.db_scans;
        self.transactions_visited += rhs.transactions_visited;
        self.cells_counted += rhs.cells_counted;
        self.degraded_batches += rhs.degraded_batches;
    }
}

impl std::ops::AddAssign for CountingStats {
    fn add_assign(&mut self, rhs: CountingStats) {
        *self += &rhs;
    }
}

/// A cooperative-interruption hook consulted inside batch counting loops.
///
/// Implemented by `ccs-core`'s `RunGuard`; [`NoProbe`] is the no-op used
/// by the unguarded paths. Probes must be [`Sync`], and
/// [`share`](Self::share) hands pooled jobs an owned handle on the same
/// state, so every thread checks and charges one budget.
pub trait CountProbe: Sync {
    /// `true` when counting should stop at the next boundary (deadline
    /// passed, budget exhausted, or externally cancelled).
    fn should_stop(&self) -> bool;

    /// Records `cells` contingency cells of completed work against the
    /// probe's work budget; returns `true` when the budget is now
    /// exhausted (the completed work is kept, further work should stop).
    fn charge(&self, cells: u64) -> bool;

    /// The memory budget, in bytes, for a counter's scratch space, or
    /// `None` for unlimited. [`Tiered`] counters degrade against it.
    fn arena_budget_bytes(&self) -> Option<usize> {
        None
    }

    /// An owned, thread-safe handle on this probe's state: what it
    /// reports and charges is what `self` reports and charges. Pooled
    /// jobs, which outlive any borrow, check and charge through it.
    fn share(&self) -> Arc<dyn CountProbe + Send + Sync>;
}

/// The probe that never interrupts: unguarded counting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl CountProbe for NoProbe {
    fn should_stop(&self) -> bool {
        false
    }
    fn charge(&self, _cells: u64) -> bool {
        false
    }
    fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
        Arc::new(NoProbe)
    }
}

/// A batch was abandoned at a probe checkpoint. Carries the work that
/// *did* complete, so callers can keep statistics accurate; the partial
/// count vectors themselves are discarded (a half-counted table is not a
/// sound table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchInterrupted {
    /// Tables fully counted before the interrupt.
    pub tables_completed: u64,
    /// Contingency cells of those completed tables.
    pub cells_completed: u64,
}

impl BatchInterrupted {
    /// The outcome of a batch whose completed work is `self`: an error
    /// only if it was `interrupted` *and* tables remain — an interrupt
    /// after the last table still completes the batch.
    pub(crate) fn settle(
        self,
        interrupted: bool,
        results: Vec<Vec<u64>>,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        if interrupted && self.tables_completed < results.len() as u64 {
            Err(self)
        } else {
            Ok(results)
        }
    }
}

/// Unwraps a batch counted under [`NoProbe`], which never interrupts.
pub(crate) fn unguarded<T>(outcome: Result<T, BatchInterrupted>) -> T {
    match outcome {
        Ok(tables) => tables,
        Err(_) => unreachable!("NoProbe never interrupts"),
    }
}

/// The table of a batch of one counted under [`NoProbe`]: how every
/// counter answers [`MintermCounter::minterm_counts`].
pub(crate) fn sole_table(outcome: Result<Vec<Vec<u64>>, BatchInterrupted>) -> Vec<u64> {
    unguarded(outcome).swap_remove(0)
}

/// Adds `part`'s tables into `acc` cell by cell — how per-chunk and
/// per-shard partial tables merge into whole-database tables.
pub(crate) fn add_tables(acc: &mut [Vec<u64>], part: &[Vec<u64>]) {
    for (table, p) in acc.iter_mut().zip(part) {
        for (cell, add) in table.iter_mut().zip(p) {
            *cell += *add;
        }
    }
}

/// A strategy for counting the `2^k` minterms of an itemset.
pub trait MintermCounter {
    /// Counts all `2^k` minterms (contingency-table cells) of a
    /// `k`-itemset.
    ///
    /// Cell indexing: for the sorted items `s_0 < … < s_{k-1}` of `set`,
    /// the count at index `c` is the number of transactions that contain
    /// exactly the items `{ s_j | bit j of c is 1 }` among the items of
    /// `set` (other items are unconstrained). Index `2^k - 1` is "all
    /// present", index `0` is "none present". Every counter and every
    /// batch path uses this indexing.
    ///
    /// Every counter in this crate answers a single set as a batch of
    /// one under [`NoProbe`].
    ///
    /// # Panics
    ///
    /// The tid-set and FP-tree counters panic if `set.len()` exceeds
    /// [`MAX_TABLE_WIDTH`].
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64>;

    /// Counts a whole level of candidates, returning one `2^k` count
    /// vector per candidate in input order.
    ///
    /// The default implementation is the guarded batch driven by
    /// [`NoProbe`]; counters share work across the level by overriding
    /// [`minterm_counts_batch_guarded`](Self::minterm_counts_batch_guarded)
    /// (a single scan for horizontal counters, prefix-shared tid-set
    /// recursion for vertical ones).
    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        unguarded(self.minterm_counts_batch_guarded(sets, &NoProbe))
    }

    /// [`minterm_counts_batch`](Self::minterm_counts_batch) with
    /// cooperative interruption: `probe` is consulted at interior loop
    /// boundaries and the batch is abandoned with [`BatchInterrupted`]
    /// when it asks to stop. Completed work is still recorded in
    /// [`stats`](Self::stats).
    ///
    /// The default implementation counts each set independently,
    /// checking the probe between sets.
    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut out = Vec::with_capacity(sets.len());
        let mut done = BatchInterrupted::default();
        for set in sets {
            if probe.should_stop() {
                return Err(done);
            }
            out.push(self.minterm_counts(set));
            let cells = 1u64 << set.len();
            done.tables_completed += 1;
            done.cells_completed += cells;
            if probe.charge(cells) {
                return Err(done);
            }
        }
        Ok(out)
    }

    /// Number of transactions in the underlying database.
    fn n_transactions(&self) -> usize;

    /// Work performed so far.
    fn stats(&self) -> CountingStats;
}

/// Forwarding impl so strategy-selection code can hand around a
/// `Box<dyn MintermCounter>` and still call everything through the
/// trait. Each method forwards explicitly — inheriting the trait's
/// per-set defaults here would silently discard the boxed counter's
/// batch sharing and guarded-interrupt behaviour.
impl MintermCounter for Box<dyn MintermCounter + '_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        (**self).minterm_counts(set)
    }

    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        (**self).minterm_counts_batch(sets)
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        (**self).minterm_counts_batch_guarded(sets, probe)
    }

    fn n_transactions(&self) -> usize {
        (**self).n_transactions()
    }

    fn stats(&self) -> CountingStats {
        (**self).stats()
    }
}

/// One guarded horizontal scan over `db`, updating every candidate's
/// table per transaction: the whole of [`HorizontalCounter`]'s counting,
/// a below-floor [`crate::parallel::ParallelCounter`] batch, and the
/// bottom rung of every [`Tiered`] ladder. A batch of one set charges
/// one scan, every row and one table. Flushes `stats` for the
/// scan's completed work whether or not the scan finishes: `db_scans`
/// counts the started scan, `transactions_visited` the rows actually
/// read, and `tables_built`/`cells_counted` only move when the scan
/// completes (a half-scanned table was never built).
pub(crate) fn horizontal_batch_guarded(
    db: &TransactionDb,
    sets: &[Itemset],
    probe: &dyn CountProbe,
    stats: &mut CountingStats,
) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
    if sets.is_empty() {
        return Ok(Vec::new());
    }
    let mut tables: Vec<Vec<u64>> = sets.iter().map(|s| vec![0u64; 1usize << s.len()]).collect();
    stats.db_scans += 1;
    let mut visited_in_chunk = 0usize;
    for t in db.transactions() {
        if visited_in_chunk == PROBE_CHUNK {
            visited_in_chunk = 0;
            if probe.should_stop() {
                return Err(BatchInterrupted::default());
            }
        }
        visited_in_chunk += 1;
        stats.transactions_visited += 1;
        for (set, table) in sets.iter().zip(tables.iter_mut()) {
            table[cell_index(t, set)] += 1;
        }
    }
    Ok(scan_completed(tables, probe, stats))
}

/// Charges the tables of a completed scan to `stats` and to `probe`.
/// The tables are sound, so the caller keeps them even if this charge
/// exhausts the budget — the *next* checkpoint observes the exhaustion.
pub(crate) fn scan_completed(
    tables: Vec<Vec<u64>>,
    probe: &dyn CountProbe,
    stats: &mut CountingStats,
) -> Vec<Vec<u64>> {
    let cells: u64 = tables.iter().map(|t| t.len() as u64).sum();
    *stats += CountingStats::tables(tables.len() as u64, cells);
    let _ = probe.charge(cells);
    tables
}

/// Paper-faithful counter: one database scan per contingency table.
#[derive(Debug)]
pub struct HorizontalCounter<'a> {
    db: &'a TransactionDb,
    stats: CountingStats,
}

impl<'a> HorizontalCounter<'a> {
    /// Creates a counter over `db`.
    pub fn new(db: &'a TransactionDb) -> Self {
        HorizontalCounter {
            db,
            stats: CountingStats::default(),
        }
    }
}

impl MintermCounter for HorizontalCounter<'_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        sole_table(self.minterm_counts_batch_guarded(std::slice::from_ref(set), &NoProbe))
    }

    /// Counts minterms for a whole level of candidates in a *single* scan,
    /// as Apriori-style implementations do: each transaction updates every
    /// candidate's table.
    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        horizontal_batch_guarded(self.db, sets, probe, &mut self.stats)
    }

    fn n_transactions(&self) -> usize {
        self.db.len()
    }

    fn stats(&self) -> CountingStats {
        self.stats
    }
}

/// The rung of the degradation ladder a [`Tiered`] counter is currently
/// answering batches from. Degradation is sticky and only moves down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationRung {
    /// The counter's own [`TieredEngine`] (the preferred rung).
    Preferred,
    /// Single-threaded vertical counting on a full-range
    /// [`VerticalIndex`] twin — the engine's footprint no longer fits the
    /// memory budget, one scratch arena still does.
    Vertical,
    /// Guarded horizontal scans — even one scratch arena exceeds the
    /// budget.
    Horizontal,
}

/// A counting engine a [`Tiered`] counter answers from while its scratch
/// memory fits the budget. An engine supplies only its counting and its
/// footprint; the ladder, the statistics and the lower rungs are
/// [`Tiered`]'s.
pub trait TieredEngine {
    /// Number of transactions the engine counts over.
    fn n_transactions(&self) -> usize;

    /// The engine's guarded batch, its one way to count: tables in input
    /// order (cells indexed as [`MintermCounter::minterm_counts`]
    /// states), or the exact completed work when `probe` interrupts it.
    fn count_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted>;

    /// Scratch bytes a batch over `sets` needs, where `depths` is the
    /// vertical recursion depth of its largest member. Checked against
    /// the probe's budget before anything is allocated.
    fn footprint_bytes(&self, sets: &[Itemset], depths: usize) -> u64;

    /// A vertical twin sharing this engine's tid-sets, if it has them.
    /// Without one, the ladder builds the twin on first use at the cost
    /// of one extra database scan.
    fn shared_twin(&self) -> Option<VerticalIndex> {
        None
    }
}

/// A counter that answers from a preferred [`TieredEngine`] and steps
/// down the memory-pressure ladder ([`DegradationRung`]) when a probe's
/// [`arena_budget_bytes`](CountProbe::arena_budget_bytes) cannot hold
/// the engine's footprint: to a full-range [`VerticalIndex`] twin, then
/// to guarded horizontal scans, which need no arena. It keeps the source
/// database for those lower rungs and does every counter's batch
/// accounting in one place.
#[derive(Debug)]
pub struct Tiered<'a, E> {
    db: &'a TransactionDb,
    engine: E,
    /// The `Vertical` rung: shared with the engine when it has tid-sets,
    /// otherwise built on first use.
    twin: Option<VerticalIndex>,
    stats: CountingStats,
    rung: DegradationRung,
}

impl<'a, E: TieredEngine> Tiered<'a, E> {
    /// Wraps `engine`, built over `db`, charging the one database scan
    /// every engine's build makes.
    pub(crate) fn from_engine(db: &'a TransactionDb, engine: E) -> Self {
        Tiered {
            db,
            twin: engine.shared_twin(),
            engine,
            stats: CountingStats {
                db_scans: 1,
                ..CountingStats::default()
            },
            rung: DegradationRung::Preferred,
        }
    }

    /// Direct access to the preferred engine.
    pub fn index(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the preferred engine (e.g. a pooled engine's
    /// `set_work_floor`).
    pub fn index_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The ladder rung the next batch will be answered from.
    pub fn rung(&self) -> DegradationRung {
        self.rung
    }

    /// Applies the (sticky, downward-only) degradation ladder to a batch.
    fn apply_ladder(&mut self, probe: &dyn CountProbe, sets: &[Itemset]) {
        let Some(budget) = probe.arena_budget_bytes() else {
            return;
        };
        let budget = budget as u64;
        let depths = sets
            .iter()
            .map(|s| s.len().saturating_sub(2))
            .max()
            .unwrap_or(0);
        if self.rung == DegradationRung::Preferred
            && self.engine.footprint_bytes(sets, depths) > budget
        {
            self.rung = DegradationRung::Vertical;
        }
        if self.rung == DegradationRung::Vertical
            && VerticalIndex::scratch_bytes(self.engine.n_transactions(), depths) as u64 > budget
        {
            self.rung = DegradationRung::Horizontal;
        }
    }
}

impl<E: TieredEngine> MintermCounter for Tiered<'_, E> {
    /// The preferred engine's batch of one, whatever the rung: a single
    /// set never moves the ladder or counts as a degraded batch.
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        let counts = sole_table(
            self.engine
                .count_batch_guarded(std::slice::from_ref(set), &NoProbe),
        );
        self.stats += CountingStats::tables(1, counts.len() as u64);
        counts
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        if sets.is_empty() {
            return Ok(Vec::new());
        }
        self.apply_ladder(probe, sets);
        if self.rung != DegradationRung::Preferred {
            self.stats.degraded_batches += 1;
        }
        let outcome = match self.rung {
            DegradationRung::Preferred => self.engine.count_batch_guarded(sets, probe),
            DegradationRung::Vertical => {
                let (db, stats) = (self.db, &mut self.stats);
                let twin = self.twin.get_or_insert_with(|| {
                    stats.db_scans += 1;
                    VerticalIndex::build(db)
                });
                twin.count_batch_guarded(sets, probe)
            }
            DegradationRung::Horizontal => {
                return horizontal_batch_guarded(self.db, sets, probe, &mut self.stats);
            }
        };
        self.stats += match &outcome {
            Ok(_) => CountingStats::tables(
                sets.len() as u64,
                sets.iter().map(|s| 1u64 << s.len()).sum::<u64>(),
            ),
            Err(partial) => {
                CountingStats::tables(partial.tables_completed, partial.cells_completed)
            }
        };
        outcome
    }

    fn n_transactions(&self) -> usize {
        self.engine.n_transactions()
    }

    fn stats(&self) -> CountingStats {
        self.stats
    }
}

/// Tid-set counter: builds a [`VerticalIndex`] once (one scan), then
/// answers each table by recursive tid-set splitting. Its footprint is
/// one scratch arena, so its two ladder checks trip together and it
/// drops straight to horizontal scans — the twin is never built.
pub type VerticalCounter<'a> = Tiered<'a, VerticalIndex>;

impl<'a> VerticalCounter<'a> {
    /// Builds the vertical index over `db` (one scan) and wraps it.
    pub fn new(db: &'a TransactionDb) -> Self {
        Tiered::from_engine(db, VerticalIndex::build(db))
    }
}

/// Computes which contingency cell a transaction falls in for `set`:
/// bit `j` set iff the `j`-th smallest item of `set` occurs in `t`.
#[inline]
pub fn cell_index(t: &[crate::item::Item], set: &Itemset) -> usize {
    let mut idx = 0usize;
    let mut ti = 0usize;
    for (j, &item) in set.items().iter().enumerate() {
        while ti < t.len() && t[ti] < item {
            ti += 1;
        }
        if ti < t.len() && t[ti] == item {
            idx |= 1 << j;
            ti += 1;
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn stats_add_assign_sums_every_field() {
        let a = CountingStats {
            tables_built: 1,
            db_scans: 2,
            transactions_visited: 3,
            cells_counted: 4,
            degraded_batches: 6,
        };
        let b = CountingStats {
            tables_built: 10,
            db_scans: 20,
            transactions_visited: 30,
            cells_counted: 40,
            degraded_batches: 60,
        };
        let mut sum = a;
        sum += b;
        assert_eq!(sum.tables_built, 11);
        assert_eq!(sum.db_scans, 22);
        assert_eq!(sum.transactions_visited, 33);
        assert_eq!(sum.cells_counted, 44);
        assert_eq!(sum.degraded_batches, 66);
        // `since` is the merge's inverse, field for field.
        assert_eq!(sum.since(&a), b);
        assert_eq!(sum.since(&b), a);
        // The by-ref form agrees with the by-value form.
        let mut by_ref = a;
        by_ref += &b;
        assert_eq!(by_ref, sum);
    }

    #[test]
    fn stats_tables_charges_only_tables_and_cells() {
        assert_eq!(
            CountingStats::tables(3, 24),
            CountingStats {
                tables_built: 3,
                cells_counted: 24,
                ..CountingStats::default()
            }
        );
    }

    fn db() -> TransactionDb {
        TransactionDb::from_ids(
            4,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
                vec![2],
                vec![],
                vec![3],
            ],
        )
    }

    /// A probe that stops after a fixed number of `charge` calls and can
    /// also stop unconditionally.
    #[derive(Clone)]
    struct BudgetProbe {
        budget_cells: u64,
        spent: Arc<AtomicU64>,
        stop_now: bool,
    }

    impl BudgetProbe {
        fn cells(budget_cells: u64) -> Self {
            BudgetProbe {
                budget_cells,
                spent: Arc::default(),
                stop_now: false,
            }
        }
        fn stopped() -> Self {
            BudgetProbe {
                budget_cells: u64::MAX,
                spent: Arc::default(),
                stop_now: true,
            }
        }
    }

    impl CountProbe for BudgetProbe {
        fn should_stop(&self) -> bool {
            self.stop_now || self.spent.load(Ordering::Relaxed) >= self.budget_cells
        }
        fn charge(&self, cells: u64) -> bool {
            self.spent.fetch_add(cells, Ordering::Relaxed) + cells >= self.budget_cells
        }
        fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
            Arc::new(self.clone())
        }
    }

    #[test]
    fn cell_index_matches_membership() {
        let set = Itemset::from_ids([1, 3]);
        let t: Vec<Item> = [0u32, 1, 2].iter().map(|&i| Item(i)).collect();
        assert_eq!(cell_index(&t, &set), 0b01); // item 1 present, item 3 absent
        let t2: Vec<Item> = [3u32].iter().map(|&i| Item(i)).collect();
        assert_eq!(cell_index(&t2, &set), 0b10);
        assert_eq!(cell_index(&[], &set), 0);
    }

    #[test]
    fn horizontal_and_vertical_agree() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        let mut v = VerticalCounter::new(&d);
        for set in [
            Itemset::from_ids([0]),
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([0, 1, 2, 3]),
        ] {
            assert_eq!(
                h.minterm_counts(&set),
                v.minterm_counts(&set),
                "counter mismatch for {set}"
            );
        }
    }

    #[test]
    fn counts_sum_to_database_size() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        let counts = h.minterm_counts(&Itemset::from_ids([0, 1, 2]));
        assert_eq!(counts.iter().sum::<u64>() as usize, d.len());
    }

    #[test]
    fn horizontal_stats_track_scans() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        h.minterm_counts(&Itemset::from_ids([0]));
        h.minterm_counts(&Itemset::from_ids([1]));
        let s = h.stats();
        assert_eq!(s.db_scans, 2);
        assert_eq!(s.tables_built, 2);
        assert_eq!(s.transactions_visited, 2 * d.len() as u64);
    }

    #[test]
    fn batch_counting_is_one_scan() {
        let d = db();
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])];
        let mut h = HorizontalCounter::new(&d);
        let batch = h.minterm_counts_batch(&sets);
        assert_eq!(h.stats().db_scans, 1);
        assert_eq!(h.stats().tables_built, 2);
        let mut h2 = HorizontalCounter::new(&d);
        assert_eq!(batch[0], h2.minterm_counts(&sets[0]));
        assert_eq!(batch[1], h2.minterm_counts(&sets[1]));
    }

    #[test]
    fn vertical_counts_index_build_as_one_scan() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        v.minterm_counts(&Itemset::from_ids([0, 1]));
        assert_eq!(v.stats().db_scans, 1);
        assert_eq!(v.stats().tables_built, 1);
        assert_eq!(v.stats().cells_counted, 4);
    }

    #[test]
    fn all_batch_paths_agree_with_singles() {
        let d = db();
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([3]),
        ];
        let expected: Vec<Vec<u64>> = {
            let mut h = HorizontalCounter::new(&d);
            sets.iter().map(|s| h.minterm_counts(s)).collect()
        };
        let mut h = HorizontalCounter::new(&d);
        assert_eq!(h.minterm_counts_batch(&sets), expected, "horizontal batch");
        let mut v = VerticalCounter::new(&d);
        assert_eq!(v.minterm_counts_batch(&sets), expected, "vertical batch");
    }

    #[test]
    fn default_trait_batch_loops_over_singles() {
        // A counter that does not override the batch method gets the
        // per-candidate default.
        struct Wrapper<'a>(HorizontalCounter<'a>);
        impl MintermCounter for Wrapper<'_> {
            fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
                self.0.minterm_counts(set)
            }
            fn n_transactions(&self) -> usize {
                self.0.n_transactions()
            }
            fn stats(&self) -> CountingStats {
                self.0.stats()
            }
        }
        let d = db();
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])];
        let mut w = Wrapper(HorizontalCounter::new(&d));
        let batch = w.minterm_counts_batch(&sets);
        assert_eq!(w.stats().db_scans, 2, "default batch is one scan per set");
        let mut h = HorizontalCounter::new(&d);
        assert_eq!(batch, h.minterm_counts_batch(&sets));
    }

    #[test]
    fn stats_since_diffs_fieldwise() {
        let d = db();
        let mut h = HorizontalCounter::new(&d);
        h.minterm_counts(&Itemset::from_ids([0]));
        let base = h.stats();
        h.minterm_counts(&Itemset::from_ids([0, 1]));
        let delta = h.stats().since(&base);
        assert_eq!(delta.tables_built, 1);
        assert_eq!(delta.db_scans, 1);
        assert_eq!(delta.cells_counted, 4);
        assert_eq!(delta.transactions_visited, d.len() as u64);
    }

    #[test]
    fn guarded_batch_with_noprobe_matches_unguarded() {
        let d = db();
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
        ];
        let mut h1 = HorizontalCounter::new(&d);
        let expected = h1.minterm_counts_batch(&sets);
        let mut h2 = HorizontalCounter::new(&d);
        assert_eq!(
            h2.minterm_counts_batch_guarded(&sets, &NoProbe).unwrap(),
            expected
        );
        assert_eq!(h1.stats(), h2.stats());
        let mut v = VerticalCounter::new(&d);
        assert_eq!(
            v.minterm_counts_batch_guarded(&sets, &NoProbe).unwrap(),
            expected
        );
    }

    #[test]
    fn stopped_probe_interrupts_horizontal_batch_and_flushes_stats() {
        let d = db();
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])];
        let mut h = HorizontalCounter::new(&d);
        // The probe is pre-stopped, but the first check happens after the
        // first chunk; this db is tiny, so the scan completes. Use a
        // pre-stopped probe against the *vertical* per-class loop (which
        // checks before each class) for the immediate-stop case.
        let mut v = VerticalCounter::new(&d);
        let err = v
            .minterm_counts_batch_guarded(&sets, &BudgetProbe::stopped())
            .unwrap_err();
        assert_eq!(err.tables_completed, 0);
        assert_eq!(v.stats().tables_built, 0, "no completed class, no tables");
        // Horizontal: budget of 1 cell trips after the first scan of the
        // batch completes (charge happens at scan end), so the whole
        // level's tables are still returned.
        let got = h
            .minterm_counts_batch_guarded(&sets, &BudgetProbe::cells(1))
            .unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn vertical_budget_interrupt_keeps_completed_class_stats() {
        let d = db();
        // Two prefix classes: pairs ([] prefix is shared — one class) and
        // a triple class. A 1-cell budget stops after the first class.
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([1, 2, 3]),
        ];
        let mut v = VerticalCounter::new(&d);
        let err = v
            .minterm_counts_batch_guarded(&sets, &BudgetProbe::cells(1))
            .unwrap_err();
        assert!(err.tables_completed >= 1, "first class completed");
        assert_eq!(v.stats().tables_built, err.tables_completed);
        assert_eq!(v.stats().cells_counted, err.cells_completed);
    }

    #[test]
    fn vertical_degrades_to_horizontal_under_arena_pressure() {
        struct TinyArena;
        impl CountProbe for TinyArena {
            fn should_stop(&self) -> bool {
                false
            }
            fn charge(&self, _cells: u64) -> bool {
                false
            }
            fn arena_budget_bytes(&self) -> Option<usize> {
                Some(1)
            }
            fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
                Arc::new(TinyArena)
            }
        }
        let d = db();
        let pairs = vec![Itemset::from_ids([0, 1])];
        let triples = vec![Itemset::from_ids([0, 1, 2])];
        let mut v = VerticalCounter::new(&d);
        // Pairs need no scratch arena: still vertical.
        v.minterm_counts_batch_guarded(&pairs, &TinyArena).unwrap();
        assert_eq!(v.rung(), DegradationRung::Preferred);
        // A triple needs one scratch depth > 1 byte: degrade, answer
        // horizontally, and stay degraded.
        let got = v
            .minterm_counts_batch_guarded(&triples, &TinyArena)
            .unwrap();
        assert_eq!(v.rung(), DegradationRung::Horizontal);
        assert_eq!(v.stats().degraded_batches, 1);
        let mut h = HorizontalCounter::new(&d);
        assert_eq!(got, h.minterm_counts_batch(&triples));
        v.minterm_counts_batch_guarded(&pairs, &TinyArena).unwrap();
        assert_eq!(v.stats().degraded_batches, 2, "degradation is sticky");
    }

    /// What the shared-ladder test needs from every tiered counter,
    /// whatever its engine.
    trait Ladder: MintermCounter {
        fn rung(&self) -> DegradationRung;
        fn footprint(&self, sets: &[Itemset]) -> u64;
    }

    impl<E: TieredEngine> Ladder for Tiered<'_, E> {
        fn rung(&self) -> DegradationRung {
            self.rung
        }
        fn footprint(&self, sets: &[Itemset]) -> u64 {
            self.engine.footprint_bytes(sets, 1)
        }
    }

    /// A probe whose only limit is a scratch-memory budget.
    struct Arena(usize);

    impl CountProbe for Arena {
        fn should_stop(&self) -> bool {
            false
        }
        fn charge(&self, _cells: u64) -> bool {
            false
        }
        fn arena_budget_bytes(&self) -> Option<usize> {
            Some(self.0)
        }
        fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
            Arc::new(Arena(self.0))
        }
    }

    #[test]
    fn every_tiered_counter_shares_one_ladder_contract() {
        use crate::fptree::FpTreeCounter;
        use crate::pool::WorkerPool;
        use crate::sharded::{ParallelVerticalCounter, ShardedVerticalCounter};

        type Make = fn(&TransactionDb) -> Box<dyn Ladder + '_>;
        // (name, counter, build scans, extra scans for the vertical twin —
        // `None` where the twin is never built).
        let cases: [(&str, Make, u64, Option<u64>); 4] = [
            ("vertical", |d| Box::new(VerticalCounter::new(d)), 1, None),
            (
                "vertical-par",
                |d| {
                    let mut c = ParallelVerticalCounter::with_pool(d, Arc::new(WorkerPool::new(2)));
                    c.index_mut().set_work_floor(0);
                    Box::new(c)
                },
                1,
                Some(0),
            ),
            (
                "sharded",
                |d| {
                    let mut c =
                        ShardedVerticalCounter::with_pool(d, 3, Arc::new(WorkerPool::new(2)));
                    c.index_mut().set_work_floor(0);
                    Box::new(c)
                },
                1,
                Some(1),
            ),
            ("fp-tree", |d| Box::new(FpTreeCounter::new(d)), 1, Some(1)),
        ];
        // 1000 pseudo-random baskets over 10 items: many distinct
        // profiles, so the FP-tree's projections outweigh one arena, and
        // 3 shards each pad to a whole superblock.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let d = TransactionDb::from_ids(
            10,
            (0..1000).map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (0..10u32)
                    .filter(|i| (state >> (20 + i)) & 1 == 1)
                    .collect::<Vec<_>>()
            }),
        );
        let sets = vec![
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([0, 1, 3]),
            Itemset::from_ids([2, 5, 7]),
            Itemset::from_ids([4, 6, 8]),
            Itemset::from_ids([1, 9]),
        ];
        let expected = HorizontalCounter::new(&d).minterm_counts_batch(&sets);
        let one_arena = VerticalIndex::scratch_bytes(d.len(), 1);
        for (name, make, build_scans, twin_scans) in cases {
            let footprint = make(&d).footprint(&sets);
            match twin_scans {
                None => assert_eq!(footprint, one_arena as u64, "{name}: one arena"),
                Some(_) => assert!(footprint > one_arena as u64, "{name}: fixture too small"),
            }
            // Budgets that fit the top rung, only the twin, and nothing.
            let budgets = [
                (footprint as usize, DegradationRung::Preferred),
                (one_arena, DegradationRung::Vertical),
                (1, DegradationRung::Horizontal),
            ];
            for (budget, mut rung) in budgets {
                if twin_scans.is_none() && rung == DegradationRung::Vertical {
                    // The plain vertical counter's two checks trip
                    // together: a budget that fits one arena keeps it on
                    // top, and it never builds a twin.
                    rung = DegradationRung::Preferred;
                }
                let degraded = u64::from(rung != DegradationRung::Preferred);
                let mut c = make(&d);
                let got = c.minterm_counts_batch_guarded(&sets, &Arena(budget));
                assert_eq!(got.unwrap(), expected, "{name} @ {budget}");
                assert_eq!(c.rung(), rung, "{name} @ {budget}");
                assert_eq!(c.stats().degraded_batches, degraded, "{name} @ {budget}");
                // A generous later budget never climbs back up.
                let got = c.minterm_counts_batch_guarded(&sets, &Arena(usize::MAX));
                assert_eq!(got.unwrap(), expected, "{name} @ {budget}, then generous");
                assert_eq!(c.rung(), rung, "{name}: degradation is sticky");
                assert_eq!(
                    c.stats().degraded_batches,
                    2 * degraded,
                    "{name} @ {budget}"
                );
                let extra = match rung {
                    DegradationRung::Preferred => 0,
                    DegradationRung::Vertical => twin_scans.unwrap_or(0),
                    DegradationRung::Horizontal => 2, // one scan per batch
                };
                assert_eq!(
                    c.stats().db_scans,
                    build_scans + extra,
                    "{name} @ {budget}: scans"
                );
                assert_eq!(c.stats().tables_built, 2 * sets.len() as u64, "{name}");
            }
        }
    }
}
