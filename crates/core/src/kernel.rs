//! The shared levelwise kernel every miner runs on.
//!
//! The paper's five algorithms — BMS and its four constrained variants —
//! are all the *same* level-wise sweep of the itemset lattice, differing
//! only in where constraints apply and which minimality semantics governs
//! acceptance. This module owns that sweep exactly once:
//!
//! * the level loop and its termination/skip protocol ([`LevelSeed`]),
//! * batch submission to [`Engine::evaluate_level`] (one counting batch
//!   per level),
//! * guard probing and the trip path: per-level [`ResumeState`] stamping,
//!   `max_level_reached` bookkeeping ([`LevelMark`]), and the
//!   `frontier_level = level − 1` contract the fault-injection harness
//!   checks.
//!
//! Each algorithm contributes only an [`AlgorithmPolicy`]: candidate
//! seeding, the pre-count constraint phase, the post-count acceptance
//! rule, and the shape of its resume snapshot. This is the seam the
//! interactive-session work (Goethals & Van den Bussche) and future
//! condensed-representation policies plug into; the §5 border sweep is
//! one such policy. Around the loop sit the one query preamble
//! ([`admit`]) and the one clock-and-counting bracket ([`MinerScope`]).
//!
//! **Invariant enforced by CI:** no level loop and no [`ResumeState`]
//! construction exists outside this module.

use std::collections::HashSet;
use std::time::Instant;

use ccs_constraints::{AttributeTable, ConstraintAnalysis};
use ccs_itemset::hash::ItemsetBuildHasher;
use ccs_itemset::{CountingStats, Item, Itemset};
use ccs_stats::Verdict;

use crate::engine::Engine;
use crate::guard::{wall_now, ResumeInner, ResumeState, TruncationReason};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::query::{CorrelationQuery, MiningError, MiningResult, Semantics};

/// What a policy feeds the kernel at the top of each level.
pub(crate) enum LevelSeed {
    /// The sweep is finished; leave the loop.
    Done,
    /// Nothing to do at this level, but deeper levels may still have
    /// work (BMS* phase 2 skips gap levels without a checkpoint).
    Skip,
    /// Evaluate these candidates. An empty vector is *processed*, not
    /// skipped: the level still checkpoints the guard, exactly like the
    /// hand-rolled loops did.
    Cands(Vec<Itemset>),
}

/// How the kernel maintains `metrics.max_level_reached`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum LevelMark {
    /// Mark the level as reached before counting; roll back to
    /// `level − 1` if the guard trips mid-level (the BMS-family loops).
    Eager,
    /// Mark only when the level has post-prefilter survivors, keeping the
    /// running maximum; never roll back (the BMS* upward sweep).
    Survivors,
    /// Leave the field alone; the wrapper sets it in its epilogue
    /// (naive, BMS** phase 2).
    Untouched,
}

/// Per-policy kernel configuration.
pub(crate) struct KernelConfig {
    /// Stamped into every [`ResumeState`] the kernel produces.
    pub(crate) algorithm: Algorithm,
    /// Whether candidate counts accrue to `metrics.candidates_generated`
    /// (BMS** phase 2 revisits phase-1 sets and must not double-count).
    pub(crate) count_candidates: bool,
    /// `max_level_reached` bookkeeping mode.
    pub(crate) mark: LevelMark,
}

impl KernelConfig {
    /// Candidate-counting configuration for `algorithm` with the given
    /// `max_level_reached` bookkeeping mode.
    pub(crate) fn new(algorithm: Algorithm, mark: LevelMark) -> KernelConfig {
        KernelConfig {
            algorithm,
            count_candidates: true,
            mark,
        }
    }

    /// Stops candidates from accruing to `metrics.candidates_generated`
    /// (BMS** phase 2 revisits phase-1 sets).
    pub(crate) fn uncounted(mut self) -> KernelConfig {
        self.count_candidates = false;
        self
    }
}

/// A guard trip, as the kernel reports it: the reason, the resume
/// snapshot taken at the interrupted level's boundary, and the deepest
/// fully-completed level (`trip level − 1`, uniformly across all
/// algorithms and phases).
pub(crate) struct KernelTrip {
    pub(crate) reason: TruncationReason,
    pub(crate) state: ResumeState,
    pub(crate) frontier_level: usize,
}

/// The paper-specific decisions of one algorithm (or one phase of a
/// two-phase algorithm). The kernel drives the loop; the policy supplies
/// candidates, constraint phases, and acceptance.
pub(crate) trait AlgorithmPolicy {
    /// Candidates for `level`, or [`LevelSeed::Done`]/[`LevelSeed::Skip`].
    /// Called once per level, in increasing level order.
    fn candidates(&mut self, level: usize) -> LevelSeed;

    /// The resume snapshot for a trip at this level boundary. Called
    /// *before* [`AlgorithmPolicy::prefilter`] mutates any policy state,
    /// so the snapshot re-enters the level from scratch.
    fn snapshot(&self, level: usize, cands: &[Itemset]) -> ResumeInner;

    /// The pre-count constraint phase: return the candidates that go
    /// into the counting batch, accounting any pruning in `metrics`
    /// (BMS++/BMS** residual anti-monotone checks, BMS* minimality
    /// prefilter). Defaults to pass-through.
    fn prefilter(
        &mut self,
        level: usize,
        cands: Vec<Itemset>,
        metrics: &mut MiningMetrics,
    ) -> Vec<Itemset> {
        let _ = (level, metrics);
        cands
    }

    /// The post-count phase: classify each survivor from its verdict
    /// (SIG entry, NOTSIG seeding, frontier growth) and stage the next
    /// level's state. `last` is `true` at the sweep's level cap: no
    /// level follows, so the policy stages no candidates.
    fn absorb(&mut self, level: usize, survivors: Vec<Itemset>, verdicts: Vec<Verdict>, last: bool);
}

/// Runs the levelwise sweep from `start_level` through `max_level`
/// (inclusive). Returns `Some` if the guard tripped; the policy then
/// holds the sound partial state accumulated through the last completed
/// level, and the trip carries the snapshot to resume from. Under an
/// unarmed guard the sweep takes no snapshots, stamps no checkpoints and
/// never trips.
pub(crate) fn run_levelwise(
    engine: &mut Engine<'_>,
    policy: &mut dyn AlgorithmPolicy,
    config: KernelConfig,
    start_level: usize,
    max_level: usize,
    metrics: &mut MiningMetrics,
) -> Option<KernelTrip> {
    let mut level = start_level;
    while level <= max_level {
        let cands = match policy.candidates(level) {
            LevelSeed::Done => break,
            LevelSeed::Skip => {
                level += 1;
                continue;
            }
            LevelSeed::Cands(c) => c,
        };
        let snapshot = engine
            .guard()
            .is_armed()
            .then(|| policy.snapshot(level, &cands));
        // Durability: stamp a checkpoint at exactly the points a resume
        // snapshot exists — the same level-boundary contract, so a crash
        // replays the interrupted level from scratch, like a trip does.
        if let (Some(inner), Some(recorder)) = (&snapshot, engine.guard().recorder()) {
            recorder.stamp_level(
                ResumeState {
                    algorithm: config.algorithm,
                    inner: inner.clone(),
                },
                level,
                metrics,
            );
        }
        if config.count_candidates {
            metrics.candidates_generated += cands.len() as u64;
        }
        if config.mark == LevelMark::Eager {
            metrics.max_level_reached = level;
        }
        let survivors = policy.prefilter(level, cands, metrics);
        if config.mark == LevelMark::Survivors && !survivors.is_empty() {
            metrics.max_level_reached = metrics.max_level_reached.max(level);
        }
        let verdicts = match engine.evaluate_level(&survivors) {
            Ok(v) => v,
            Err(reason) => {
                if config.mark == LevelMark::Eager {
                    metrics.max_level_reached = level - 1;
                }
                #[allow(clippy::expect_used)] // invariant: a trip implies an armed guard
                let inner = snapshot.expect("a trip implies an armed guard");
                return Some(KernelTrip {
                    reason,
                    state: ResumeState {
                        algorithm: config.algorithm,
                        inner,
                    },
                    frontier_level: level - 1,
                });
            }
        };
        policy.absorb(level, survivors, verdicts, level == max_level);
        level += 1;
    }
    None
}

/// The one query preamble: every algorithm (through
/// [`crate::session::dispatch`]), the border sweep and causal discovery
/// start here. The parameters are validated first, then the static
/// analyzer ([`ccs_constraints::analyze`]) validates the constraints and
/// builds the push plan. A provably unsatisfiable conjunction yields
/// `None`: no set of two or more items satisfies it, so the caller
/// answers with nothing and counts nothing (out-of-range parameters are
/// still an error). Otherwise the query comes back in its equivalent
/// normalized form, which preserves `satisfied()` on every set of ≥ 2
/// items, with the plan built for it. A `levelwise` caller refuses a
/// neither-monotone (`avg`) plan; only the naive miner takes one.
pub(crate) fn admit(
    query: &CorrelationQuery,
    attrs: &AttributeTable,
    levelwise: bool,
) -> Result<Option<(CorrelationQuery, ConstraintAnalysis)>, MiningError> {
    query.params.validate()?;
    let analysis = ccs_constraints::analyze(&query.constraints, attrs)?;
    let Some(plan) = analysis.plan() else {
        return Ok(None);
    };
    if levelwise && plan.has_neither_monotone() {
        return Err(MiningError::NonMonotoneConstraint);
    }
    let plan = plan.clone();
    let normalized = CorrelationQuery {
        params: query.params,
        constraints: analysis.normalized,
    };
    Ok(Some((normalized, plan)))
}

/// The staged-candidate protocol most policies use for `candidates()`:
/// drain the vector `absorb` staged, or finish when it is empty.
pub(crate) fn staged(cands: &mut Vec<Itemset>) -> LevelSeed {
    if cands.is_empty() {
        LevelSeed::Done
    } else {
        LevelSeed::Cands(std::mem::take(cands))
    }
}

/// The pre-count residual anti-monotone prune of BMS++ / BMS** phase 1
/// (modification III): failing candidates never reach the counter, and
/// each is accounted in `metrics.pruned_before_count`.
pub(crate) fn prune_am_residual(
    analysis: &ConstraintAnalysis,
    attrs: &AttributeTable,
    cands: Vec<Itemset>,
    metrics: &mut MiningMetrics,
) -> Vec<Itemset> {
    let mut survivors = Vec::with_capacity(cands.len());
    for set in cands {
        if analysis.am_residual_satisfied(&set, attrs) {
            survivors.push(set);
        } else {
            metrics.pruned_before_count += 1;
        }
    }
    survivors
}

/// The minimality prefilter of the upward sweeps: a candidate containing
/// an already-reported answer cannot be minimal. Exact when applied
/// against the pre-level `sig`: all candidates at a level have the same
/// size, so a same-level answer is never a proper subset of another
/// candidate.
///
/// The answers are indexed by size in one borrowed hash set each, built
/// and dropped within the call. A candidate `c` contains an answer iff,
/// for some answer size `j ≤ |c|`, one of its `j`-subsets is an answer
/// of that size. Each candidate either probes those `Σ_j C(|c|, j)`
/// subsets or, when the answers of those sizes are fewer, tests them
/// directly, so no candidate is tested against every answer.
pub(crate) fn prune_non_minimal(sig: &[Itemset], cands: Vec<Itemset>) -> Vec<Itemset> {
    if sig.is_empty() {
        return cands;
    }
    let mut by_size: Vec<(usize, AnswerIndex<'_>)> = Vec::new();
    for answer in sig {
        let j = answer.len();
        let at = match by_size.binary_search_by_key(&j, |&(size, _)| size) {
            Ok(at) => at,
            Err(at) => {
                by_size.insert(at, (j, AnswerIndex::default()));
                at
            }
        };
        by_size[at].1.insert(answer.items());
    }
    let mut subset = Vec::new();
    cands
        .into_iter()
        .filter(|c| {
            let m = c.len();
            let sizes = &by_size[..by_size.partition_point(|&(j, _)| j <= m)];
            let probes: u64 = sizes.iter().map(|&(j, _)| binomial(m, j)).sum();
            let answers: u64 = sizes.iter().map(|(_, index)| index.len() as u64).sum();
            let contains_answer = if probes <= answers {
                sizes
                    .iter()
                    .any(|(j, index)| any_subset(c.items(), *j, &mut subset, |s| index.contains(s)))
            } else {
                sizes
                    .iter()
                    .flat_map(|(_, index)| index.iter())
                    .any(|a| is_sorted_subset(a, c.items()))
            };
            !contains_answer
        })
        .collect()
}

/// The answers of one size, borrowed from `sig`.
type AnswerIndex<'a> = HashSet<&'a [Item], ItemsetBuildHasher>;

/// `C(n, k)` for `k ≤ n`; the sizes here are table widths, far below
/// overflow.
fn binomial(n: usize, k: usize) -> u64 {
    (0..k as u64).fold(1, |acc, i| acc * (n as u64 - i) / (i + 1))
}

/// Whether `hit` accepts some `j`-subset of `items`, each assembled in
/// `buf` in ascending order.
fn any_subset(
    items: &[Item],
    j: usize,
    buf: &mut Vec<Item>,
    mut hit: impl FnMut(&[Item]) -> bool,
) -> bool {
    let n = items.len();
    // `idx` walks the `j`-combinations of `0..n` in lexicographic order.
    let mut idx: Vec<usize> = (0..j).collect();
    loop {
        buf.clear();
        buf.extend(idx.iter().map(|&i| items[i]));
        if hit(buf) {
            return true;
        }
        let Some(pos) = (0..j).rev().find(|&p| idx[p] < n - j + p) else {
            return false;
        };
        idx[pos] += 1;
        for p in pos + 1..j {
            idx[p] = idx[p - 1] + 1;
        }
    }
}

/// `a ⊆ b` for ascending item slices.
fn is_sorted_subset(a: &[Item], b: &[Item]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.any(|y| y == x))
}

/// The wall-clock / counting-stats bracket around one run — every
/// miner, [`crate::bms::run_bms`], the border sweep and causal
/// discovery: [`MinerScope::begin`] at entry, [`MinerScope::seal`] at
/// exit. Owning it here keeps the since-baseline discipline (counters
/// are cumulative across a session) in one place.
pub(crate) struct MinerScope {
    start: Instant,
    base: CountingStats,
}

impl MinerScope {
    /// Starts the clock with the counting baseline to subtract at seal
    /// time (counters accumulate across runs; see `CountingStats::since`).
    pub(crate) fn begin(base: CountingStats) -> MinerScope {
        MinerScope {
            start: wall_now(),
            base,
        }
    }

    /// Finalizes `metrics`: the answer count, the counting delta since
    /// [`MinerScope::begin`], and the wall clock.
    pub(crate) fn seal(self, engine: &Engine<'_>, metrics: &mut MiningMetrics, answers: usize) {
        metrics.sig_size = answers as u64;
        metrics.absorb_counting(engine.counting_stats().since(&self.base));
        metrics.elapsed = self.start.elapsed();
    }
}

/// Converts a sealed run and the kernel's trip report into a complete or
/// truncated [`MiningResult`].
pub(crate) fn conclude(
    answers: Vec<Itemset>,
    semantics: Semantics,
    metrics: MiningMetrics,
    trip: Option<KernelTrip>,
) -> MiningResult {
    match trip {
        None => MiningResult::new(answers, semantics, metrics),
        Some(t) => MiningResult::truncated(
            answers,
            semantics,
            metrics,
            t.reason,
            t.frontier_level,
            t.state,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use ccs_itemset::{HorizontalCounter, TransactionDb};
    use proptest::prelude::*;

    /// Stages one candidate per level, and records what the kernel asks
    /// for and tells it.
    #[derive(Default)]
    struct Recording {
        staged: Vec<Itemset>,
        asked: Vec<usize>,
        absorbed: Vec<(usize, bool)>,
    }

    impl AlgorithmPolicy for Recording {
        fn candidates(&mut self, level: usize) -> LevelSeed {
            self.asked.push(level);
            staged(&mut self.staged)
        }

        fn snapshot(&self, _level: usize, _cands: &[Itemset]) -> ResumeInner {
            ResumeInner::NaiveRestart
        }

        fn absorb(&mut self, level: usize, _: Vec<Itemset>, _: Vec<Verdict>, last: bool) {
            self.absorbed.push((level, last));
            if !last {
                self.staged = vec![Itemset::from_ids(0..=level as u32)];
            }
        }
    }

    #[test]
    fn the_last_level_is_announced_and_nothing_above_it_is_asked_for() {
        let db = TransactionDb::from_ids(6, vec![vec![0, 1, 2, 3, 4], vec![1, 2], vec![]]);
        let params = MiningParams::paper();
        let mut counter = HorizontalCounter::new(&db);
        let mut engine = Engine::new(&mut counter, &params);
        let mut policy = Recording {
            staged: vec![Itemset::from_ids([0, 1])],
            ..Recording::default()
        };
        let mut metrics = MiningMetrics::default();
        let config = KernelConfig::new(Algorithm::BmsPlus, LevelMark::Eager);
        let trip = run_levelwise(&mut engine, &mut policy, config, 2, 4, &mut metrics);
        assert!(trip.is_none());
        assert_eq!(policy.asked, vec![2, 3, 4]);
        assert_eq!(policy.absorbed, vec![(2, false), (3, false), (4, true)]);
        assert!(policy.staged.is_empty(), "nothing is staged past the cap");
        assert_eq!(metrics.candidates_generated, 3);
        assert_eq!(metrics.max_level_reached, 4);
    }

    /// The `prune_non_minimal` the kernel shipped before minimality by
    /// subset probes, kept verbatim as the differential reference: every
    /// candidate tested against every answer.
    fn reference_prune_non_minimal(sig: &[Itemset], cands: Vec<Itemset>) -> Vec<Itemset> {
        cands
            .into_iter()
            .filter(|set| !sig.iter().any(|a| a.is_subset_of(set)))
            .collect()
    }

    proptest! {
        #[test]
        fn probe_minimality_matches_reference(
            answers in proptest::collection::vec(
                proptest::collection::btree_set(0u32..9, 1..=5usize),
                0..24,
            ),
            cands in proptest::collection::vec(
                proptest::collection::btree_set(0u32..9, 1..=6usize),
                0..32,
            ),
        ) {
            // Answers of mixed sizes, candidates of mixed sizes (a level
            // is uniform, but the rule must not depend on it).
            let sig: Vec<Itemset> = answers
                .iter()
                .map(|a| Itemset::from_ids(a.iter().copied()))
                .collect();
            let cands: Vec<Itemset> = cands
                .iter()
                .map(|c| Itemset::from_ids(c.iter().copied()))
                .collect();
            prop_assert_eq!(
                prune_non_minimal(&sig, cands.clone()),
                reference_prune_non_minimal(&sig, cands)
            );
        }
    }
}
