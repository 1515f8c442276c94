//! The exhaustive reference miner.
//!
//! Enumerates *every* itemset over the item basis (up to `max_level`),
//! evaluates correlation, CT-support, and validity directly from the
//! definitions, and derives `VALID_MIN` / `MIN_VALID` by explicit
//! minimality checks against all proper subsets. Exponential in the
//! number of items — usable only on small universes — but it is the
//! ground truth every level-wise algorithm is tested against, and the
//! only miner that accepts neither-monotone (`avg`) constraints, whose
//! holey solution spaces defeat level-wise pruning (§6 of the paper).

use ccs_constraints::AttributeTable;
use ccs_itemset::{Item, Itemset, ItemsetMap, MintermCounter, TransactionDb};
use ccs_stats::Verdict;

use crate::engine::Engine;
use crate::guard::{ResumeInner, RunGuard};
use crate::kernel::{
    conclude, run_levelwise, AlgorithmPolicy, KernelConfig, LevelMark, LevelSeed, MinerScope,
};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::prep::frequent_items;
use crate::query::{CorrelationQuery, MiningError, MiningResult, Semantics};

#[derive(Debug, Clone, Copy)]
struct Flags {
    verdict: Verdict,
    valid: bool,
}

/// The largest item basis the exhaustive miner accepts.
pub const NAIVE_MAX_ITEMS: usize = 20;

/// Runs the exhaustive reference miner (`algorithm` is
/// [`Algorithm::Naive`] or [`Algorithm::NaiveMinValid`], which picks the
/// semantics) under a resource guard, for a query that has passed the
/// preamble.
///
/// Unlike the level-wise miners this accepts any constraint, including
/// `avg`. Note that for neither-monotone constraints the minimal answer
/// sets do not characterize the full solution space (it may have holes);
/// they are still well-defined and computed literally.
///
/// The exhaustive sweep holds no frontier worth snapshotting — every
/// level is the full `k`-combination space — so its resume state is a
/// plain restart marker. Truncated answers are still sound: a set's
/// minimality is decided by its proper subsets, all of which live at
/// completed lower levels.
///
/// # Errors
///
/// [`MiningError::UniverseTooLarge`] if the item basis exceeds
/// [`NAIVE_MAX_ITEMS`].
pub(crate) fn run_naive_guarded(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    algorithm: Algorithm,
    counter: &mut dyn MintermCounter,
    guard: &RunGuard,
    resume: Option<ResumeInner>,
) -> Result<MiningResult, MiningError> {
    match resume {
        None | Some(ResumeInner::NaiveRestart) => {}
        Some(_) => return Err(MiningError::foreign_snapshot(Algorithm::Naive.name())),
    }
    let scope = MinerScope::begin(counter.stats());
    let mut metrics = MiningMetrics::default();
    let mut engine = Engine::with_guard(counter, &query.params, guard.clone());

    // Same item basis as the level-wise miners.
    let basis: Vec<Item> = frequent_items(db, &query.params);
    if basis.len() > NAIVE_MAX_ITEMS {
        return Err(MiningError::UniverseTooLarge {
            basis: basis.len(),
            limit: NAIVE_MAX_ITEMS,
        });
    }

    let top = query.params.max_level.min(basis.len());
    // The snapshot pins the algorithm, and so the semantics: resuming a
    // MIN_VALID run must not restart under VALID_MIN.
    let semantics = algorithm.semantics();
    let mut policy = NaivePolicy {
        basis: &basis,
        constraints: &query.constraints,
        attrs,
        flags: ItemsetMap::default(),
    };
    let trip = run_levelwise(
        &mut engine,
        &mut policy,
        KernelConfig::new(algorithm, LevelMark::Untouched),
        2,
        top,
        &mut metrics,
    );
    let flags = policy.flags;

    let in_space = |f: &Flags, semantics: Semantics| match semantics {
        // The "space" minimality quantifies over differs per semantics:
        // VALID_MIN is minimal in {correlated ∧ CT-supported}, MIN_VALID
        // in {correlated ∧ CT-supported ∧ valid}.
        Semantics::ValidMin => f.verdict == Verdict::Supported { correlated: true },
        Semantics::MinValid => f.verdict == Verdict::Supported { correlated: true } && f.valid,
    };

    let mut answers = Vec::new();
    for (set, f) in &flags {
        if !in_space(f, semantics) {
            continue;
        }
        // For VALID_MIN the set itself must additionally be valid.
        if semantics == Semantics::ValidMin && !f.valid {
            continue;
        }
        let minimal = set
            .proper_subsets()
            .into_iter()
            .filter(|s| s.len() >= 2)
            .all(|s| flags.get(&s).is_none_or(|sf| !in_space(sf, semantics)));
        if minimal {
            answers.push(set.clone());
        }
    }

    metrics.max_level_reached = match &trip {
        None => top,
        Some(t) => t.frontier_level,
    };
    scope.seal(&engine, &mut metrics, answers.len());
    Ok(conclude(answers, semantics, metrics, trip))
}

/// The exhaustive sweep as a kernel policy: every `k`-combination of the
/// basis is a candidate; verdicts and validity land in a flag table the
/// epilogue derives both semantics from. The resume snapshot is a plain
/// restart marker — the full combination space is its own frontier.
struct NaivePolicy<'a> {
    basis: &'a [Item],
    constraints: &'a ccs_constraints::ConstraintSet,
    attrs: &'a AttributeTable,
    flags: ItemsetMap<Flags>,
}

impl AlgorithmPolicy for NaivePolicy<'_> {
    fn candidates(&mut self, k: usize) -> LevelSeed {
        LevelSeed::Cands(combinations(self.basis, k))
    }

    fn snapshot(&self, _level: usize, _cands: &[Itemset]) -> ResumeInner {
        ResumeInner::NaiveRestart
    }

    fn absorb(&mut self, _level: usize, survivors: Vec<Itemset>, verdicts: Vec<Verdict>, _: bool) {
        for (set, v) in survivors.into_iter().zip(verdicts) {
            let valid = self.constraints.satisfied(&set, self.attrs);
            self.flags.insert(set, Flags { verdict: v, valid });
        }
    }
}

/// All `k`-combinations of `items`, in lexicographic order.
fn combinations(items: &[Item], k: usize) -> Vec<Itemset> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    combine_rec(items, k, 0, &mut current, &mut out);
    out
}

fn combine_rec(
    items: &[Item],
    k: usize,
    start: usize,
    current: &mut Vec<Item>,
    out: &mut Vec<Itemset>,
) {
    if current.len() == k {
        out.push(Itemset::from_items(current.iter().copied()));
        return;
    }
    let needed = k - current.len();
    for i in start..=items.len().saturating_sub(needed) {
        current.push(items[i]);
        combine_rec(items, k, i + 1, current, out);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use crate::session::{mine_on, MineRequest};
    use ccs_constraints::{Constraint, ConstraintSet};
    use ccs_itemset::HorizontalCounter;

    /// Mines `q` exhaustively with `algorithm` on a fresh horizontal
    /// counter.
    fn mine_naive(
        db: &TransactionDb,
        attrs: &AttributeTable,
        q: &CorrelationQuery,
        algorithm: Algorithm,
    ) -> Result<MiningResult, MiningError> {
        let mut counter = HorizontalCounter::new(db);
        mine_on(db, attrs, q, &MineRequest::new(algorithm), &mut counter)
    }

    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..60 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0u32, 1]);
            }
            if i % 3 == 0 {
                t.extend([2, 3]);
            }
            if i % 5 == 0 {
                t.push(4);
            }
            txns.push(t);
        }
        TransactionDb::from_ids(5, txns)
    }

    fn query(constraints: ConstraintSet) -> CorrelationQuery {
        CorrelationQuery {
            params: MiningParams {
                confidence: 0.9,
                support_fraction: 0.1,
                max_level: 4,
                ..MiningParams::paper()
            },
            constraints,
        }
    }

    #[test]
    fn combinations_enumerate_binomials() {
        let items: Vec<Item> = (0..5).map(Item::new).collect();
        assert_eq!(combinations(&items, 2).len(), 10);
        assert_eq!(combinations(&items, 3).len(), 10);
        assert_eq!(combinations(&items, 5).len(), 1);
        assert_eq!(combinations(&items, 6).len(), 0);
    }

    #[test]
    fn unconstrained_semantics_coincide() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new());
        let vm = mine_naive(&db, &attrs, &q, Algorithm::Naive).unwrap();
        let mv = mine_naive(&db, &attrs, &q, Algorithm::NaiveMinValid).unwrap();
        assert_eq!(vm.answers, mv.answers);
        assert!(vm.contains(&Itemset::from_ids([0, 1])));
        assert!(vm.contains(&Itemset::from_ids([2, 3])));
    }

    #[test]
    fn valid_min_is_subset_of_min_valid() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        // Monotone constraint: total price at least 6.
        let q = query(ConstraintSet::new().and(Constraint::sum_ge("price", 6.0)));
        let vm = mine_naive(&db, &attrs, &q, Algorithm::Naive).unwrap();
        let mv = mine_naive(&db, &attrs, &q, Algorithm::NaiveMinValid).unwrap();
        for s in &vm.answers {
            assert!(
                mv.contains(s),
                "VALID_MIN member {s} missing from MIN_VALID"
            );
        }
    }

    #[test]
    fn anti_monotone_constraints_make_semantics_coincide() {
        // Theorem 1.2.
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::max_le("price", 4.0)));
        let vm = mine_naive(&db, &attrs, &q, Algorithm::Naive).unwrap();
        let mv = mine_naive(&db, &attrs, &q, Algorithm::NaiveMinValid).unwrap();
        assert_eq!(vm.answers, mv.answers);
    }

    #[test]
    fn avg_constraint_is_supported() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::Avg {
            attr: "price".into(),
            cmp: ccs_constraints::Cmp::Le,
            value: 2.0,
        }));
        let r = mine_naive(&db, &attrs, &q, Algorithm::NaiveMinValid).unwrap();
        // {0,1} has avg price 1.5 ≤ 2; {2,3} has avg 3.5.
        assert!(r.contains(&Itemset::from_ids([0, 1])));
        assert!(!r.contains(&Itemset::from_ids([2, 3])));
    }

    #[test]
    fn answers_are_mutually_minimal() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::sum_ge("price", 3.0)));
        let r = mine_naive(&db, &attrs, &q, Algorithm::NaiveMinValid).unwrap();
        for (i, a) in r.answers.iter().enumerate() {
            for b in &r.answers[i + 1..] {
                assert!(!a.is_subset_of(b) && !b.is_subset_of(a));
            }
        }
    }
}
