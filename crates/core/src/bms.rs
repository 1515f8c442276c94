//! Algorithm BMS — the unconstrained baseline of Brin, Motwani &
//! Silverstein (SIGMOD 1997), as a policy on the levelwise kernel.
//!
//! A level-wise sweep of the itemset lattice that exploits two closure
//! properties:
//!
//! * CT-support is *anti-monotone*: a candidate is only considered when
//!   every maximal proper subset survived as CT-supported,
//! * being correlated is *monotone* under the paper's χ² measure: the
//!   answer set is the *minimal* correlated sets, so a correlated set is
//!   reported (added to `SIG`) and never expanded; only CT-supported
//!   **un**correlated sets (`NOTSIG`) seed the next level. Under a
//!   *downward*-closed measure (all-confidence, bond) every minimal
//!   correlated set is a pair, so the sweep stops after level 2.
//!
//! The constrained algorithms of the paper (BMS+, BMS++, BMS*, BMS**) are
//! all modifications of this sweep.

use ccs_itemset::{candidate, Item, Itemset, ItemsetSet, MintermCounter, TransactionDb};
use ccs_stats::{MonotonicityClass, Verdict};

use crate::engine::Engine;
use crate::guard::{sorted_sets, BmsSnapshot, ResumeInner};
use crate::kernel::{
    run_levelwise, staged, AlgorithmPolicy, KernelConfig, KernelTrip, LevelMark, LevelSeed,
    MinerScope,
};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::params::MiningParams;
use crate::prep::frequent_items;
use crate::query::MiningError;

/// The complete state Algorithm BMS leaves behind: `SIG` (all minimal
/// correlated and CT-supported sets), `NOTSIG` (every CT-supported but
/// uncorrelated set encountered, at any level), and work metrics.
///
/// BMS* consumes both sets (renamed `SIG'` / `NOTSIG'` in the paper) to
/// seed its upward sweep.
#[derive(Debug, Clone)]
pub struct BmsOutput {
    /// Minimal correlated and CT-supported sets, sorted.
    pub sig: Vec<Itemset>,
    /// CT-supported, uncorrelated sets from every level.
    pub notsig: ItemsetSet,
    /// The frequent 1-items the sweep was seeded with.
    pub level1: Vec<Item>,
    /// Work accounting.
    pub metrics: MiningMetrics,
}

/// A BMS run plus its governance outcome: `trip` is `Some` when the
/// run's guard stopped the sweep, carrying the reason and the stamped
/// resume snapshot from the last completed level boundary.
pub(crate) struct BmsRun {
    pub(crate) output: BmsOutput,
    pub(crate) trip: Option<KernelTrip>,
}

/// The BMS sweep as a kernel policy: classify CT-supported survivors
/// into `SIG` (correlated, reported and never expanded) or the level's
/// `NOTSIG` (uncorrelated, seeds the next level via apriori-gen).
///
/// `wrap` chooses the [`ResumeInner`] variant a trip stamps, because the
/// same sweep runs standalone (BMS/BMS+) and as BMS* phase 1.
struct BmsPolicy {
    sig: Vec<Itemset>,
    notsig_all: ItemsetSet,
    /// Candidates staged for the next `candidates()` call.
    cands: Vec<Itemset>,
    /// The measure's closure direction. Under a downward-closed measure
    /// every minimal correlated set is a pair (correlation and
    /// CT-support are both inherited by subsets), so the sweep never
    /// extends beyond level 2.
    class: MonotonicityClass,
    wrap: fn(BmsSnapshot) -> ResumeInner,
}

impl AlgorithmPolicy for BmsPolicy {
    fn candidates(&mut self, _level: usize) -> LevelSeed {
        staged(&mut self.cands)
    }

    fn snapshot(&self, level: usize, cands: &[Itemset]) -> ResumeInner {
        (self.wrap)(BmsSnapshot {
            level,
            cands: cands.to_vec(),
            sig: self.sig.clone(),
            notsig: sorted_sets(self.notsig_all.iter().cloned()),
        })
    }

    fn absorb(
        &mut self,
        _level: usize,
        survivors: Vec<Itemset>,
        verdicts: Vec<Verdict>,
        last: bool,
    ) {
        let mut notsig_level = ItemsetSet::default();
        for (set, v) in survivors.into_iter().zip(verdicts) {
            match v {
                Verdict::Supported { correlated: true } => self.sig.push(set),
                Verdict::Supported { correlated: false } => {
                    notsig_level.insert(set);
                }
                Verdict::Unsupported => {}
            }
        }
        self.cands = if last || self.class.is_downward() {
            // At the cap no level follows. Under a downward-closed
            // measure a superset of an uncorrelated set is uncorrelated,
            // and a superset of a SIG member is non-minimal: nothing
            // above this level can be an answer.
            Vec::new()
        } else {
            candidate::apriori_gen(&notsig_level)
        };
        self.notsig_all.extend(notsig_level);
    }
}

/// Runs Algorithm BMS over `db` with the given statistical parameters.
///
/// # Errors
///
/// [`MiningError::Params`] if `params` fail [`MiningParams::validate`].
pub fn run_bms<C: MintermCounter>(
    db: &TransactionDb,
    params: &MiningParams,
    counter: &mut C,
) -> Result<BmsOutput, MiningError> {
    params.validate()?;
    let scope = MinerScope::begin(counter.stats());
    let mut engine = Engine::new(counter, params);
    let mut output = run_bms_with_engine(
        db,
        params,
        &mut engine,
        None,
        Algorithm::BmsPlus,
        ResumeInner::Bms,
    )
    .output;
    scope.seal(&engine, &mut output.metrics, output.sig.len());
    Ok(output)
}

/// [`run_bms`] over a caller-owned [`Engine`], so a two-phase algorithm
/// (BMS*) runs both phases on one engine and one guard.
///
/// `start` re-enters the level loop from a truncated run's snapshot
/// instead of from the all-pairs seed. A trip stamps `algorithm` and the
/// `wrap`ped snapshot into the resume state, so the same sweep serves
/// BMS/BMS+ and BMS* phase 1. The caller's [`MinerScope`] seals the
/// returned metrics.
pub(crate) fn run_bms_with_engine(
    db: &TransactionDb,
    params: &MiningParams,
    engine: &mut Engine<'_>,
    start: Option<BmsSnapshot>,
    algorithm: Algorithm,
    wrap: fn(BmsSnapshot) -> ResumeInner,
) -> BmsRun {
    let mut metrics = MiningMetrics::default();

    // Level 1: the item basis.
    let level1: Vec<Item> = frequent_items(db, params);

    // Level 2 candidates: all pairs of basis items — or the resumed
    // frontier.
    let (sig, notsig_all, cands, level) = match start {
        Some(s) => (
            s.sig,
            s.notsig.into_iter().collect::<ItemsetSet>(),
            s.cands,
            s.level,
        ),
        None => (
            Vec::new(),
            ItemsetSet::default(),
            candidate::all_pairs(&level1),
            2usize,
        ),
    };

    let mut policy = BmsPolicy {
        sig,
        notsig_all,
        cands,
        class: params.measure.monotonicity(),
        wrap,
    };
    let trip = run_levelwise(
        engine,
        &mut policy,
        KernelConfig::new(algorithm, LevelMark::Eager),
        level,
        params.max_level,
        &mut metrics,
    );

    let BmsPolicy {
        mut sig,
        notsig_all,
        ..
    } = policy;
    sig.sort_unstable();
    metrics.notsig_size = notsig_all.len() as u64;

    BmsRun {
        output: BmsOutput {
            sig,
            notsig: notsig_all,
            level1,
            metrics,
        },
        trip,
    }
}
