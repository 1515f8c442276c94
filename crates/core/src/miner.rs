//! Algorithm and counting-strategy vocabulary.
//!
//! The `mine*` / `resume*` free-function matrix that used to live here
//! grew a row per option axis (strategy × guard × counter × resume) and
//! was collapsed into the builder-style session API —
//! [`crate::session::MiningSession`] with a
//! [`crate::session::MineRequest`] — with one-release `#[deprecated]`
//! shims since removed.

use ccs_itemset::{
    available_workers, FpTreeCounter, HorizontalCounter, MintermCounter, ParallelCounter,
    ParallelVerticalCounter, ShardedVerticalCounter, TransactionDb, VerticalCounter,
};

use crate::query::Semantics;

/// The mining algorithms of the paper, plus the exhaustive reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BMS+ — naive `VALID_MIN`: run BMS, filter by constraints.
    BmsPlus,
    /// BMS++ — constraint-pushing `VALID_MIN`.
    BmsPlusPlus,
    /// BMS* — naive `MIN_VALID`: run BMS, then sweep upward.
    BmsStar,
    /// BMS** — constraint-pushing `MIN_VALID`.
    BmsStarStar,
    /// Exhaustive enumeration (ground truth; accepts `avg` constraints;
    /// exponential — small universes only).
    Naive,
    /// Exhaustive enumeration under `MIN_VALID` semantics.
    NaiveMinValid,
}

impl Algorithm {
    /// The answer-set semantics the algorithm computes.
    pub fn semantics(self) -> Semantics {
        match self {
            Algorithm::BmsPlus | Algorithm::BmsPlusPlus | Algorithm::Naive => Semantics::ValidMin,
            Algorithm::BmsStar | Algorithm::BmsStarStar | Algorithm::NaiveMinValid => {
                Semantics::MinValid
            }
        }
    }

    /// All four level-wise algorithms of the paper, in presentation
    /// order.
    pub fn paper_algorithms() -> [Algorithm; 4] {
        [
            Algorithm::BmsPlus,
            Algorithm::BmsPlusPlus,
            Algorithm::BmsStar,
            Algorithm::BmsStarStar,
        ]
    }

    /// Short display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::BmsPlus => "BMS+",
            Algorithm::BmsPlusPlus => "BMS++",
            Algorithm::BmsStar => "BMS*",
            Algorithm::BmsStarStar => "BMS**",
            Algorithm::Naive => "naive",
            Algorithm::NaiveMinValid => "naive(MIN_VALID)",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The CLI spellings: `bms+`, `bms++`, `bms*`, `bms**`, `naive` and
/// `naive-min-valid`.
impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bms+" => Ok(Algorithm::BmsPlus),
            "bms++" => Ok(Algorithm::BmsPlusPlus),
            "bms*" => Ok(Algorithm::BmsStar),
            "bms**" => Ok(Algorithm::BmsStarStar),
            "naive" => Ok(Algorithm::Naive),
            "naive-min-valid" => Ok(Algorithm::NaiveMinValid),
            other => Err(format!("unknown algorithm '{other}'")),
        }
    }
}

/// How contingency tables are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CountingStrategy {
    /// One database scan per table — the paper's cost model. Default.
    #[default]
    Horizontal,
    /// Tid-set intersections over a one-pass vertical index — the fast
    /// path (DESIGN.md ablation).
    Vertical,
    /// Horizontal scans fanned out over all available cores — identical
    /// cost model to `Horizontal`, divided across threads (an extension
    /// beyond the paper's single-core testbed).
    Parallel,
    /// The one-shard case of [`CountingStrategy::Sharded`]: one
    /// full-range vertical core whose prefix-equivalence classes are
    /// drained by one thread per available CPU, with a vertical →
    /// horizontal degradation ladder under memory pressure (DESIGN.md
    /// §6.2).
    VerticalPar,
    /// The pooled vertical engine over horizontally sharded tid ranges:
    /// each shard is a disjoint transaction slice with its own core.
    /// `min(workers, classes)` runners pull prefix classes from one
    /// cursor, each counts a class on every shard with an arena per
    /// shard, and the shards' contingency tables sum elementwise into
    /// exact whole-database tables (DESIGN.md §6.2, §6.3). A session
    /// runs one shard and one worker per available CPU; other shapes are
    /// built with `ShardedVerticalCounter::with_shards` and run through
    /// [`crate::mine_on`].
    Sharded,
    /// Pattern-growth counting over a compressed FP-tree: conditional
    /// projections are memoized across a batch, so a dense level pays
    /// one projection per header item instead of one tid-set
    /// intersection per candidate (DESIGN.md §6.4). Wins on dense,
    /// low-cardinality databases whose transactions collapse into few
    /// distinct profiles; degrades FpTree → Vertical → Horizontal
    /// under memory pressure.
    FpTree,
    /// Picks a concrete strategy from the database shape and available
    /// parallelism at mining time; see [`CountingStrategy::resolve`].
    Auto,
}

/// `Auto` routes to the FP-tree counter only when the item universe is
/// small enough that conditional projections stay compact…
const FPTREE_MAX_ITEMS: u32 = 512;
/// …and transactions are long enough that they collapse into shared
/// tree prefixes…
const FPTREE_MIN_AVG_LEN: f64 = 8.0;
/// …and the database is dense enough (avg transaction length / items)
/// that tid-set intersection pays per transaction for work the tree
/// answers per distinct profile.
const FPTREE_MIN_DENSITY: f64 = 0.2;

impl CountingStrategy {
    /// Resolves `Auto` to a concrete strategy from database shape.
    /// Non-`Auto` strategies return themselves.
    ///
    /// `workers` is `threads`, or the machine's available parallelism
    /// when `threads` is `None`. The rules, in order:
    ///
    /// 1. An empty database counts nothing: horizontal, which avoids
    ///    even the index build.
    /// 2. A huge, nearly empty item universe, whose per-item bitmaps
    ///    would pass 1 GiB at a density under 0.5%: horizontal.
    /// 3. A shard request (`shards` is `Some`) with more than one
    ///    worker: sharded, the only engine that honours it. With one
    ///    worker the hint is ignored.
    /// 4. A dense low-cardinality shape — a small item universe with
    ///    long transactions, whose baskets collapse into few distinct
    ///    profiles: the FP-tree counter, whose cost tracks distinct
    ///    profiles rather than transactions (DESIGN.md §6.4).
    /// 5. More than one worker and `n ≥ 65536` rows, enough that each
    ///    worker's tid slice still spans many cache-line superblocks:
    ///    sharded.
    /// 6. More than one worker and `n ≥ 4096` rows: vertical-par.
    /// 7. Otherwise the sequential vertical index.
    ///
    /// Rules 5 and 6 are heuristics, not rankings: the committed
    /// counting bench (`results/BENCH_counting.json`) does not separate
    /// the tid-set backends beyond its run-to-run spread. A
    /// [`crate::MiningSession`] passes neither a worker count nor a
    /// shard hint: it resolves against the machine.
    pub fn resolve(
        self,
        db: &TransactionDb,
        threads: Option<usize>,
        shards: Option<usize>,
    ) -> CountingStrategy {
        if self != CountingStrategy::Auto {
            return self;
        }
        let n = db.len();
        if n == 0 {
            return CountingStrategy::Horizontal;
        }
        // Vertical index footprint: one n-bit bitmap per item.
        let bitmap_bytes = (db.n_items() as usize).saturating_mul(n.div_ceil(64) * 8);
        let density = db.avg_transaction_len() / f64::from(db.n_items().max(1));
        if bitmap_bytes > (1 << 30) && density < 0.005 {
            return CountingStrategy::Horizontal;
        }
        let workers = threads.unwrap_or_else(available_workers);
        if workers > 1 && shards.is_some() {
            return CountingStrategy::Sharded;
        }
        if db.n_items() <= FPTREE_MAX_ITEMS
            && db.avg_transaction_len() >= FPTREE_MIN_AVG_LEN
            && density >= FPTREE_MIN_DENSITY
        {
            return CountingStrategy::FpTree;
        }
        if workers > 1 && n >= 65536 {
            return CountingStrategy::Sharded;
        }
        if workers > 1 && n >= 4096 {
            return CountingStrategy::VerticalPar;
        }
        CountingStrategy::Vertical
    }

    /// Builds this strategy's counter over `db`: the single place a
    /// strategy turns into a concrete counter, and the one a
    /// [`crate::MiningSession`] uses. `Auto` builds the counter of the
    /// strategy it [resolves](Self::resolve) to on this machine. The
    /// pooled counters use one worker per available CPU.
    pub fn counter(self, db: &TransactionDb) -> Box<dyn MintermCounter + '_> {
        match self {
            CountingStrategy::Horizontal => Box::new(HorizontalCounter::new(db)),
            CountingStrategy::Vertical => Box::new(VerticalCounter::new(db)),
            CountingStrategy::Parallel => Box::new(ParallelCounter::with_available_parallelism(db)),
            CountingStrategy::VerticalPar => Box::new(ParallelVerticalCounter::new(db)),
            CountingStrategy::Sharded => Box::new(ShardedVerticalCounter::new(db)),
            CountingStrategy::FpTree => Box::new(FpTreeCounter::new(db)),
            CountingStrategy::Auto => self.resolve(db, None, None).counter(db),
        }
    }

    /// The CLI-facing name (also what [`std::str::FromStr`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            CountingStrategy::Horizontal => "horizontal",
            CountingStrategy::Vertical => "vertical",
            CountingStrategy::Parallel => "parallel",
            CountingStrategy::VerticalPar => "vertical-par",
            CountingStrategy::Sharded => "sharded",
            CountingStrategy::FpTree => "fp-tree",
            CountingStrategy::Auto => "auto",
        }
    }
}

impl std::fmt::Display for CountingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl std::str::FromStr for CountingStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "horizontal" => Ok(CountingStrategy::Horizontal),
            "vertical" => Ok(CountingStrategy::Vertical),
            "parallel" => Ok(CountingStrategy::Parallel),
            "vertical-par" => Ok(CountingStrategy::VerticalPar),
            "sharded" => Ok(CountingStrategy::Sharded),
            "fp-tree" => Ok(CountingStrategy::FpTree),
            "auto" => Ok(CountingStrategy::Auto),
            other => Err(format!(
                "unknown counting strategy '{other}' \
                 (expected horizontal, vertical, parallel, vertical-par, \
                 sharded, fp-tree, or auto)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use crate::query::CorrelationQuery;
    use crate::session::{mine_on, MineRequest, MiningSession};
    use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};
    use ccs_itemset::{Itemset, ParallelVerticalCounter};

    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..50 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0u32, 1]);
            }
            if i % 5 == 0 {
                t.push(2);
            }
            txns.push(t);
        }
        TransactionDb::from_ids(3, txns)
    }

    fn query() -> CorrelationQuery {
        CorrelationQuery {
            params: MiningParams {
                confidence: 0.9,
                support_fraction: 0.1,
                max_level: 4,
                ..MiningParams::paper()
            },
            constraints: ConstraintSet::new().and(Constraint::max_le("price", 3.0)),
        }
    }

    #[test]
    fn semantics_mapping() {
        assert_eq!(Algorithm::BmsPlus.semantics(), Semantics::ValidMin);
        assert_eq!(Algorithm::BmsPlusPlus.semantics(), Semantics::ValidMin);
        assert_eq!(Algorithm::BmsStar.semantics(), Semantics::MinValid);
        assert_eq!(Algorithm::BmsStarStar.semantics(), Semantics::MinValid);
    }

    #[test]
    fn all_algorithms_agree_on_anti_monotone_query() {
        // Theorem 1.2: with only anti-monotone constraints the two
        // semantics coincide, so all four paper algorithms agree.
        let db = db();
        let attrs = AttributeTable::with_identity_prices(3);
        let q = query();
        let mut session = MiningSession::new(&db, &attrs);
        let results: Vec<_> = Algorithm::paper_algorithms()
            .iter()
            .map(|&a| {
                session
                    .mine(&q, &MineRequest::new(a))
                    .unwrap()
                    .result
                    .answers
            })
            .collect();
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
    }

    /// A database with two overlapping correlated modules over 8 items,
    /// so mining levels carry many same-prefix candidates: the
    /// level-batched evaluation paths (one-scan horizontal batch,
    /// prefix-sharing vertical batch, parallel fan-out) and BMS**'s
    /// recorded phase-1 verdicts all see real traffic.
    fn modular_db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..120u32 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0, 1, 2, 3]);
            }
            if i % 3 == 0 {
                t.extend([3, 4, 5, 6]);
            }
            if i % 5 == 0 {
                t.push(7);
            }
            if i % 7 == 0 {
                t.extend([1, 5]);
            }
            t.sort_unstable();
            t.dedup();
            txns.push(t);
        }
        TransactionDb::from_ids(8, txns)
    }

    #[test]
    fn all_counting_strategies_agree() {
        // Every algorithm routes candidates through the level-batched
        // `Engine::evaluate_level`, so this compares the horizontal
        // batch, the prefix-sharing vertical batch, and the parallel
        // fan-out against each other on both databases, byte for byte.
        let attrs = AttributeTable::with_identity_prices(8);
        let q = query();
        for db in [db(), modular_db()] {
            let mut session = MiningSession::new(&db, &attrs);
            for &a in &Algorithm::paper_algorithms() {
                let h = session
                    .mine(&q, &MineRequest::new(a))
                    .unwrap()
                    .result
                    .answers;
                for strategy in [
                    CountingStrategy::Vertical,
                    CountingStrategy::Parallel,
                    CountingStrategy::VerticalPar,
                    CountingStrategy::FpTree,
                    CountingStrategy::Auto,
                ] {
                    let v = session
                        .mine(&q, &MineRequest::new(a).strategy(strategy))
                        .unwrap()
                        .result
                        .answers;
                    assert_eq!(h, v, "{strategy:?} mismatch for {a}");
                }
            }
        }
    }

    #[test]
    fn vertical_par_agrees_across_explicit_thread_counts() {
        // The pooled vertical counter must be bit-identical to the
        // horizontal reference regardless of how many workers the run
        // is given — including a single worker.
        let attrs = AttributeTable::with_identity_prices(8);
        let q = query();
        let db = modular_db();
        let mut session = MiningSession::new(&db, &attrs);
        for &a in &Algorithm::paper_algorithms() {
            let h = session
                .mine(&q, &MineRequest::new(a))
                .unwrap()
                .result
                .answers;
            for workers in [1, 2, 4] {
                let mut counter = ParallelVerticalCounter::with_workers(&db, workers);
                let v = mine_on(&db, &attrs, &q, &MineRequest::new(a), &mut counter)
                    .unwrap()
                    .answers;
                assert_eq!(h, v, "vertical-par({workers} workers) mismatch for {a}");
            }
        }
    }

    #[test]
    fn auto_resolves_from_database_shape() {
        use CountingStrategy::*;
        let small = db(); // 50 transactions: below the pooled floor.
        assert_eq!(Auto.resolve(&small, Some(8), None), Vertical);
        assert_eq!(Auto.resolve(&small, Some(1), None), Vertical);
        let empty = TransactionDb::from_ids(3, Vec::<Vec<u32>>::new());
        assert_eq!(Auto.resolve(&empty, Some(8), None), Horizontal);
        // Concrete strategies are fixed points.
        for s in [Horizontal, Vertical, Parallel, VerticalPar, Sharded, FpTree] {
            assert_eq!(s.resolve(&small, None, None), s);
        }
        // A big database with workers to spare goes parallel-vertical.
        let big = TransactionDb::from_ids(4, (0..5000u32).map(|t| vec![t % 4, (t + 1) % 4]));
        assert_eq!(Auto.resolve(&big, Some(4), None), VerticalPar);
        assert_eq!(Auto.resolve(&big, Some(1), None), Vertical);
        // An explicit shard request routes Auto to the sharded engine —
        // but only with workers to run it: a 1-worker run ignores the
        // hint and stays sequential.
        assert_eq!(Auto.resolve(&big, Some(4), Some(3)), Sharded);
        assert_eq!(Auto.resolve(&big, Some(1), Some(3)), Vertical);
        // A huge database shards even without a hint.
        let huge = TransactionDb::from_ids(4, (0..70_000u32).map(|t| vec![t % 4, (t + 1) % 4]));
        assert_eq!(Auto.resolve(&huge, Some(4), None), Sharded);
        assert_eq!(Auto.resolve(&huge, Some(1), None), Vertical);
        // Dense low-cardinality: long transactions over a small item
        // universe collapse into few profiles — pattern growth wins
        // regardless of worker count, so it outranks the pooled routes.
        let dense = TransactionDb::from_ids(
            33,
            (0..5000u32).map(|t| (0..16).map(|j| (t % 3) + 2 * j).collect::<Vec<_>>()),
        );
        assert_eq!(Auto.resolve(&dense, Some(8), None), FpTree);
        assert_eq!(Auto.resolve(&dense, Some(1), None), FpTree);
    }

    #[test]
    fn every_strategy_builds_a_counter_with_horizontal_tables() {
        use CountingStrategy::*;
        let db = db();
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([0, 1, 2]),
        ];
        let expected = HorizontalCounter::new(&db).minterm_counts_batch(&sets);
        for s in [
            Horizontal,
            Vertical,
            Parallel,
            VerticalPar,
            Sharded,
            FpTree,
            Auto,
        ] {
            let mut counter = s.counter(&db);
            assert_eq!(counter.minterm_counts_batch(&sets), expected, "{s}");
            assert_eq!(counter.minterm_counts(&sets[2]), expected[2], "{s}");
            assert_eq!(counter.n_transactions(), db.len(), "{s}");
        }
    }

    #[test]
    fn strategy_names_round_trip_through_fromstr() {
        use CountingStrategy::*;
        for s in [
            Horizontal,
            Vertical,
            Parallel,
            VerticalPar,
            Sharded,
            FpTree,
            Auto,
        ] {
            assert_eq!(s.name().parse::<CountingStrategy>().unwrap(), s);
        }
        assert!("simd".parse::<CountingStrategy>().is_err());
        assert_eq!(VerticalPar.to_string(), "vertical-par");
        assert_eq!(Sharded.to_string(), "sharded");
        assert_eq!(FpTree.to_string(), "fp-tree");
        // One spelling per strategy: no aliases.
        assert!("fptree".parse::<CountingStrategy>().is_err());
    }

    #[test]
    fn unsatisfiable_query_short_circuits_without_counting() {
        // `max ≤ 1 & min ≥ 2` is provably empty, so every algorithm
        // returns a complete empty answer with zero counting work.
        let db = db();
        let attrs = AttributeTable::with_identity_prices(3);
        let mut q = query();
        q.constraints = ConstraintSet::new()
            .and(Constraint::max_le("price", 1.0))
            .and(Constraint::min_ge("price", 2.0));
        let mut session = MiningSession::new(&db, &attrs);
        for &a in &Algorithm::paper_algorithms() {
            let r = session.mine(&q, &MineRequest::new(a)).unwrap().result;
            assert!(r.answers.is_empty(), "{a} returned answers");
            assert_eq!(r.completion, crate::guard::Completion::Complete);
            assert_eq!(r.metrics.cells_counted, 0);
            assert_eq!(r.metrics.db_scans, 0);
        }
    }

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(Algorithm::BmsPlus.name(), "BMS+");
        assert_eq!(Algorithm::BmsStarStar.to_string(), "BMS**");
    }

    #[test]
    fn algorithms_parse_from_their_cli_spellings() {
        for (text, algorithm) in [
            ("bms+", Algorithm::BmsPlus),
            ("bms++", Algorithm::BmsPlusPlus),
            ("bms*", Algorithm::BmsStar),
            ("bms**", Algorithm::BmsStarStar),
            ("naive", Algorithm::Naive),
            ("naive-min-valid", Algorithm::NaiveMinValid),
        ] {
            assert_eq!(text.parse::<Algorithm>(), Ok(algorithm));
        }
        assert_eq!(
            "BMS++".parse::<Algorithm>(),
            Err("unknown algorithm 'BMS++'".to_owned())
        );
    }

    #[test]
    fn out_of_range_params_are_errors_for_every_algorithm() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(3);
        let good = query().params;
        let bad = [
            MiningParams {
                support_fraction: 1.5,
                ..good
            },
            MiningParams {
                ct_fraction: -0.5,
                ..good
            },
            MiningParams {
                min_item_support: 1.5,
                ..good
            },
            MiningParams {
                max_level: 1,
                ..good
            },
            MiningParams {
                max_level: 31,
                ..good
            },
            MiningParams {
                confidence: 1.0,
                ..good
            },
        ];
        let algorithms = [
            Algorithm::BmsPlus,
            Algorithm::BmsPlusPlus,
            Algorithm::BmsStar,
            Algorithm::BmsStarStar,
            Algorithm::Naive,
            Algorithm::NaiveMinValid,
        ];
        // Parameters are validated before the analyzer's unsatisfiable
        // short-circuit, so a provably empty conjunction is no escape.
        let unsatisfiable = ConstraintSet::new()
            .and(Constraint::max_le("price", 1.0))
            .and(Constraint::min_ge("price", 2.0));
        for constraints in [query().constraints, unsatisfiable] {
            for algorithm in algorithms {
                for params in bad {
                    let q = CorrelationQuery {
                        params,
                        constraints: constraints.clone(),
                    };
                    let got = MiningSession::new(&db, &attrs)
                        .mine(&q, &MineRequest::new(algorithm))
                        .map(|o| o.result);
                    assert!(
                        matches!(got, Err(crate::MiningError::Params(_))),
                        "{algorithm} {params:?} under {constraints}: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_request_counts_horizontally() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(3);
        let via_session = MiningSession::new(&db, &attrs)
            .mine(&query(), &MineRequest::new(Algorithm::BmsPlusPlus))
            .unwrap();
        assert_eq!(via_session.strategy, CountingStrategy::Horizontal);
    }
}
