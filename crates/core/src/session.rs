//! The session entry point: one builder-style API over every miner.
//!
//! [`MiningSession`] replaces the former `mine` / `mine_with_strategy` /
//! `mine_with_options` / `mine_with_counter*` / `resume_with_*` matrix
//! with a single surface: build a [`MineRequest`] (algorithm, counting
//! strategy, guard), hand it to [`MiningSession::mine`] or
//! [`MiningSession::resume`], get a [`MineOutcome`] back.
//!
//! A session owns the counting substrate and keeps it **warm across
//! queries**: the vertical index (or worker pool) built for the first
//! query is reused by every later query with the same resolved strategy,
//! which is the iterative-session pattern of *Interactive Constrained
//! Association Rule Mining* (Goethals & Van den Bussche) — in an
//! exploration loop the analyst re-mines the same database under
//! shifting constraints, and the index build must not be paid per query.
//!
//! For callers that need to own the counter (fault injection, custom
//! substrates, post-run stats inspection), [`mine_on`] and [`resume_on`]
//! run one request against a borrowed counter.

use ccs_constraints::AttributeTable;
use ccs_itemset::{MintermCounter, TransactionDb};

use crate::bms_plus::run_bms_plus_guarded;
use crate::bms_plus_plus::run_bms_plus_plus_guarded;
use crate::bms_star::run_bms_star_guarded;
use crate::bms_star_star::run_bms_star_star_guarded;
use std::sync::Arc;

use crate::guard::{GuardLimits, ResumeInner, ResumeState, RunGuard};
use crate::kernel::admit;
use crate::metrics::MiningMetrics;
use crate::miner::{Algorithm, CountingStrategy};
use crate::naive::run_naive_guarded;
use crate::persist::{fingerprint_db, CheckpointPolicy, CheckpointRecorder, CheckpointReport};
use crate::query::{CorrelationQuery, MiningError, MiningResult};

/// One mining request: the algorithm to run, the counting strategy, the
/// resource guard and the durability policy. Built fluently:
///
/// ```ignore
/// MineRequest::new(Algorithm::BmsPlusPlus)
///     .strategy(CountingStrategy::Auto)
///     .guard(guard)
/// ```
#[derive(Debug, Clone)]
pub struct MineRequest {
    /// The algorithm to run. `None` (the [`MineRequest::default`] for
    /// resume requests, where the snapshot pins the algorithm) makes
    /// [`MiningSession::mine`] run BMS++, the paper's best `VALID_MIN`
    /// algorithm.
    pub algorithm: Option<Algorithm>,
    /// Counting strategy (`Auto` resolves per database at run time).
    pub strategy: CountingStrategy,
    /// Resource governor; defaults to the inert unlimited guard.
    pub guard: RunGuard,
    /// Durability: where (and how often) the run stamps crash-safe
    /// checkpoints. `None` (the default) keeps runs purely in-memory.
    /// Checkpointing requires resume snapshots, so a request with an
    /// unarmed guard is silently armed with empty limits — proven
    /// answer-preserving by the guard fault suite.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for MineRequest {
    fn default() -> Self {
        MineRequest {
            algorithm: None,
            strategy: CountingStrategy::default(),
            guard: RunGuard::unlimited(),
            checkpoint: None,
        }
    }
}

impl MineRequest {
    /// A request for `algorithm` with default counting (paper-faithful
    /// horizontal) and no resource limits.
    pub fn new(algorithm: Algorithm) -> Self {
        MineRequest {
            algorithm: Some(algorithm),
            strategy: CountingStrategy::default(),
            guard: RunGuard::unlimited(),
            checkpoint: None,
        }
    }

    /// Names (or, with `None`, un-names) the algorithm to run.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Sets the counting strategy (`Auto` resolves per database).
    #[must_use]
    pub fn strategy(mut self, strategy: CountingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a resource guard (deadline / work / memory budgets,
    /// cancellation).
    #[must_use]
    pub fn guard(mut self, guard: RunGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Attaches a durability policy: the run stamps crash-safe
    /// checkpoints through the policy's sink at its cadence, and always
    /// on a guard trip.
    #[must_use]
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }
}

/// What a session run produced: the mining result plus the request
/// echo — which algorithm ran and which concrete counting strategy the
/// request's (possibly `Auto`) strategy resolved to.
#[derive(Debug, Clone)]
pub struct MineOutcome {
    /// Answers, metrics, completion status, resume snapshot.
    pub result: MiningResult,
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// The concrete strategy the run counted with (never `Auto`).
    pub strategy: CountingStrategy,
    /// The durability summary, when the request carried a
    /// [`CheckpointPolicy`]: snapshots committed and the first write
    /// error, if any. Checkpoint I/O failures degrade durability, never
    /// the mining result.
    pub checkpoint: Option<CheckpointReport>,
}

/// A reusable mining session over one database: the single entry point
/// for every algorithm, counting strategy, guard, and resume path.
///
/// The counting substrate is cached between queries (keyed by resolved
/// strategy), so an interactive loop that re-mines under changing
/// constraints pays the vertical index build once. Statistics are
/// delta-based per run, so reuse never skews metrics.
pub struct MiningSession<'a> {
    db: &'a TransactionDb,
    attrs: &'a AttributeTable,
    counter: Option<CachedCounter<'a>>,
}

struct CachedCounter<'a> {
    strategy: CountingStrategy,
    counter: Box<dyn MintermCounter + 'a>,
}

impl<'a> MiningSession<'a> {
    /// Opens a session over `db` with item attributes `attrs`.
    pub fn new(db: &'a TransactionDb, attrs: &'a AttributeTable) -> Self {
        MiningSession {
            db,
            attrs,
            counter: None,
        }
    }

    /// The session's database.
    pub fn db(&self) -> &TransactionDb {
        self.db
    }

    /// The session's attribute table.
    pub fn attrs(&self) -> &AttributeTable {
        self.attrs
    }

    /// Runs one query.
    ///
    /// # Errors
    ///
    /// [`MiningError::Constraint`] on invalid constraints,
    /// [`MiningError::NonMonotoneConstraint`] when an `avg` constraint
    /// reaches a level-wise algorithm, or the naive miner's
    /// [`MiningError::UniverseTooLarge`]. Resource exhaustion is **not**
    /// an error — it yields a truncated [`MineOutcome`].
    pub fn mine(
        &mut self,
        query: &CorrelationQuery,
        request: &MineRequest,
    ) -> Result<MineOutcome, MiningError> {
        let algorithm = request.algorithm.unwrap_or(Algorithm::BmsPlusPlus);
        self.run(query, request, algorithm, None)
    }

    /// Continues a truncated run from its [`ResumeState`] snapshot. The
    /// snapshot pins the algorithm; a request naming a different one is
    /// rejected.
    /// Database, attributes, and query must be the ones the original run
    /// used.
    ///
    /// # Errors
    ///
    /// As [`MiningSession::mine`], plus [`MiningError::ResumeMismatch`].
    pub fn resume(
        &mut self,
        query: &CorrelationQuery,
        request: &MineRequest,
        state: ResumeState,
    ) -> Result<MineOutcome, MiningError> {
        let algorithm = check_resume(&state, request.algorithm)?;
        self.run(query, request, algorithm, Some(state.inner))
    }

    fn run(
        &mut self,
        query: &CorrelationQuery,
        request: &MineRequest,
        algorithm: Algorithm,
        resume: Option<ResumeInner>,
    ) -> Result<MineOutcome, MiningError> {
        let strategy = request.strategy.resolve(self.db, None, None);
        if !matches!(&self.counter, Some(c) if c.strategy == strategy) {
            self.counter = Some(CachedCounter {
                strategy,
                counter: strategy.counter(self.db),
            });
        }
        #[allow(clippy::expect_used)] // just installed above
        let cached = self.counter.as_mut().expect("counter installed above");
        let (result, checkpoint) = dispatch_with_checkpoint(
            self.db,
            self.attrs,
            query,
            algorithm,
            &mut *cached.counter,
            request,
            resume,
        )?;
        Ok(MineOutcome {
            result,
            algorithm,
            strategy,
            checkpoint,
        })
    }
}

/// Resolves a request's durability configuration into the guard to run
/// with: no policy passes the request's guard through untouched; a policy
/// builds the per-run recorder (pinning the *original* query, so resume
/// re-normalizes identically) and rides it on the guard — arming an
/// unarmed guard with empty limits first, because only armed guards take
/// the resume snapshots checkpoints are made of.
fn checkpoint_setup(
    db: &TransactionDb,
    query: &CorrelationQuery,
    request: &MineRequest,
) -> (RunGuard, Option<Arc<CheckpointRecorder>>) {
    let Some(policy) = &request.checkpoint else {
        return (request.guard.clone(), None);
    };
    let recorder = policy.recorder(query.clone(), fingerprint_db(db));
    let guard = if request.guard.is_armed() {
        request.guard.clone()
    } else {
        RunGuard::with_cancel_flag(GuardLimits::default(), request.guard.cancel_flag())
    };
    (guard.with_recorder(Arc::clone(&recorder)), Some(recorder))
}

/// Runs one request against a caller-owned counter — the expert path for
/// custom substrates, fault injection, and post-run counter inspection.
/// The request's counting strategy is ignored (the counter *is* the
/// strategy).
///
/// # Errors
///
/// As [`MiningSession::mine`].
pub fn mine_on(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    request: &MineRequest,
    counter: &mut dyn MintermCounter,
) -> Result<MiningResult, MiningError> {
    let algorithm = request.algorithm.unwrap_or(Algorithm::BmsPlusPlus);
    dispatch_with_checkpoint(db, attrs, query, algorithm, counter, request, None)
        .map(|(result, _)| result)
}

/// [`mine_on`] for resuming a truncated run from its snapshot.
///
/// # Errors
///
/// As [`MiningSession::resume`].
pub fn resume_on(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    request: &MineRequest,
    counter: &mut dyn MintermCounter,
    state: ResumeState,
) -> Result<MiningResult, MiningError> {
    let algorithm = check_resume(&state, request.algorithm)?;
    dispatch_with_checkpoint(
        db,
        attrs,
        query,
        algorithm,
        counter,
        request,
        Some(state.inner),
    )
    .map(|(result, _)| result)
}

/// [`dispatch`] plus the request's durability wiring, for the session
/// and the borrowed-counter entry points alike: the recorder rides on the
/// guard through the run, then stamps a trip and reports what it
/// committed.
fn dispatch_with_checkpoint(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    algorithm: Algorithm,
    counter: &mut dyn MintermCounter,
    request: &MineRequest,
    resume: Option<ResumeInner>,
) -> Result<(MiningResult, Option<CheckpointReport>), MiningError> {
    let (guard, recorder) = checkpoint_setup(db, query, request);
    let result = dispatch(db, attrs, query, algorithm, counter, &guard, resume)?;
    let report = recorder.map(|r| {
        r.stamp_trip(&result);
        r.report()
    });
    Ok((result, report))
}

/// Validates a resume snapshot against the request's algorithm (if it
/// names one), returning the algorithm to run.
fn check_resume(
    state: &ResumeState,
    requested: Option<Algorithm>,
) -> Result<Algorithm, MiningError> {
    let algorithm = state.algorithm();
    if let Some(requested) = requested {
        if requested != algorithm {
            return Err(MiningError::ResumeMismatch {
                expected: algorithm.name(),
                requested: requested.name(),
            });
        }
    }
    Ok(algorithm)
}

/// The single dispatch point every entry funnels into: one algorithm,
/// one counter, one guard, and (for resumed runs) the snapshot to
/// re-enter from.
///
/// The query passes the one preamble ([`crate::kernel::admit`]) first. A
/// provably unsatisfiable conjunction short-circuits to an empty complete
/// answer set with zero cells counted; otherwise the algorithm runs on
/// the normalized conjunction, and the constraint-pushing pair from the
/// analyzer's plan. Normalization preserves `satisfied()` on every set
/// of ≥ 2 items, so answer sets are unchanged for all algorithms.
pub(crate) fn dispatch(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    algorithm: Algorithm,
    counter: &mut dyn MintermCounter,
    guard: &RunGuard,
    resume: Option<ResumeInner>,
) -> Result<MiningResult, MiningError> {
    let levelwise = !matches!(algorithm, Algorithm::Naive | Algorithm::NaiveMinValid);
    let Some((query, plan)) = admit(query, attrs, levelwise)? else {
        return Ok(MiningResult::new(
            Vec::new(),
            algorithm.semantics(),
            MiningMetrics::default(),
        ));
    };
    let query = &query;
    match algorithm {
        Algorithm::BmsPlus => run_bms_plus_guarded(db, attrs, query, counter, guard, resume),
        Algorithm::BmsPlusPlus => {
            run_bms_plus_plus_guarded(db, attrs, query, &plan, counter, guard, resume)
        }
        Algorithm::BmsStar => run_bms_star_guarded(db, attrs, query, counter, guard, resume),
        Algorithm::BmsStarStar => {
            run_bms_star_star_guarded(db, attrs, query, &plan, counter, guard, resume)
        }
        Algorithm::Naive | Algorithm::NaiveMinValid => {
            run_naive_guarded(db, attrs, query, algorithm, counter, guard, resume)
        }
    }
}
