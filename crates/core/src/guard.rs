//! Resource governance for mining runs: budgets, cancellation, and
//! partial-result bookkeeping.
//!
//! A [`RunGuard`] is a cheap, clonable handle carrying a wall-clock
//! deadline, a work budget measured in contingency cells, an approximate
//! memory budget for the counters' scratch space, and an
//! external cancellation flag. The miners consult it *cooperatively*: at
//! every level boundary (the engine's level batch in `crate::engine`
//! checkpoints it) and, through the [`CountProbe`] implementation,
//! inside the counting layer's interior loops (horizontal chunk loop,
//! vertical prefix-class loop, FP-tree candidate loop). Pooled counting
//! jobs check and charge the same guard from their worker threads
//! through [`CountProbe::share`], a clone sharing its limits and trip
//! state.
//!
//! When a limit trips, the run does not panic or return garbage: it stops
//! at the next checkpoint and reports a **sound partial answer set** —
//! every reported set would also be reported by the unbounded run —
//! together with a [`Completion::Truncated`] status and a
//! [`ResumeState`] from which [`crate::session::MiningSession::resume`] can
//! continue the sweep and reproduce the complete answer exactly.
//!
//! The memory budget has a softer failure mode: a counter that would
//! exceed it *degrades* down `ccs-itemset`'s one shared ladder (its
//! preferred engine → vertical → horizontal scans) instead of aborting
//! (see `CountingStats::degraded_batches`). Every ladder ends at
//! horizontal scans, which need no arena, so no library counter trips
//! [`TruncationReason::MemoryBudget`]; an embedder's counter that cannot
//! degrade reports it through [`RunGuard::trip`], as the fault-injection
//! tests do.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccs_itemset::{CountProbe, Itemset, ItemsetSet};

use crate::miner::Algorithm;
use crate::persist::CheckpointRecorder;

/// The one sanctioned wall-clock read outside this module. Miners that
/// need a start-of-run timestamp take it from here so every clock the
/// mining layer sees funnels through guard code (`ccs-lint` enforces
/// this as `nondeterminism-in-kernel`), keeping a single seam for any
/// future virtual-clock testing.
#[must_use]
pub fn wall_now() -> Instant {
    Instant::now()
}

/// The resource limits a [`RunGuard`] enforces. All default to `None`
/// (unlimited); a guard with empty limits is still *armed* — it tracks
/// work, honours external cancellation, and produces resume snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardLimits {
    /// Wall-clock budget for the whole run, measured from guard creation.
    pub timeout: Option<Duration>,
    /// Work budget in contingency cells counted (`2^k` per `k`-set
    /// table), the paper's dominating cost term.
    pub work_budget_cells: Option<u64>,
    /// Approximate memory budget, in bytes, for counting scratch space.
    pub memory_budget_bytes: Option<usize>,
}

/// Why a run was truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The contingency-cell work budget was exhausted.
    WorkBudget,
    /// A memory budget tripped in a counter with no fallback strategy.
    MemoryBudget,
    /// The external cancellation flag was raised (e.g. Ctrl-C).
    Cancelled,
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncationReason::Deadline => write!(f, "deadline"),
            TruncationReason::WorkBudget => write!(f, "work budget"),
            TruncationReason::MemoryBudget => write!(f, "memory budget"),
            TruncationReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Whether a [`crate::MiningResult`] covers the whole search space or was
/// cut short by its [`RunGuard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completion {
    /// The run examined everything the algorithm would ever examine; the
    /// answer set is the exact, final one.
    #[default]
    Complete,
    /// The run stopped at a guard checkpoint. The answer set is a sound
    /// *subset* of the complete answer set (every reported set is a
    /// genuine, minimal answer), covering the lattice up to
    /// `frontier_level`.
    Truncated {
        /// Why the run stopped.
        reason: TruncationReason,
        /// The deepest fully-completed lattice level; answers above it
        /// may be missing.
        frontier_level: usize,
        /// Contingency tables built before stopping.
        sets_evaluated: u64,
    },
}

impl Completion {
    /// `true` for [`Completion::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// The truncation reason, if the run was truncated.
    pub fn truncation_reason(&self) -> Option<TruncationReason> {
        match self {
            Completion::Complete => None,
            Completion::Truncated { reason, .. } => Some(*reason),
        }
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Complete => write!(f, "complete"),
            Completion::Truncated {
                reason,
                frontier_level,
                sets_evaluated,
            } => write!(
                f,
                "truncated ({reason}) at level {frontier_level} after {sets_evaluated} sets"
            ),
        }
    }
}

const TRIP_NONE: u8 = 0;

impl TruncationReason {
    /// The reason's one-byte code (1–4), shared by the guard's trip flag
    /// and the checkpoint format; 0 is reserved for "not tripped".
    pub(crate) fn code(self) -> u8 {
        match self {
            TruncationReason::Deadline => 1,
            TruncationReason::WorkBudget => 2,
            TruncationReason::MemoryBudget => 3,
            TruncationReason::Cancelled => 4,
        }
    }

    /// The reason a [`TruncationReason::code`] stands for, if any.
    pub(crate) fn from_code(code: u8) -> Option<TruncationReason> {
        match code {
            1 => Some(TruncationReason::Deadline),
            2 => Some(TruncationReason::WorkBudget),
            3 => Some(TruncationReason::MemoryBudget),
            4 => Some(TruncationReason::Cancelled),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct GuardInner {
    /// Armed guards check limits, honour cancellation, and cause the
    /// miners to take resume snapshots; unarmed guards are inert no-ops
    /// so the infallible mining paths keep their exact pre-guard
    /// behaviour and cost.
    armed: bool,
    deadline: Option<Instant>,
    work_budget: Option<u64>,
    memory_budget: Option<usize>,
    cells_charged: AtomicU64,
    cancelled: Arc<AtomicBool>,
    /// `TRIP_NONE`, or the [`TruncationReason::code`] of the first trip. First trip
    /// wins; later trips (e.g. from racing parallel workers) are ignored.
    tripped: AtomicU8,
}

/// A clonable, thread-safe handle governing one mining run. See the
/// module docs for the checkpoint protocol.
#[derive(Debug, Clone)]
pub struct RunGuard {
    inner: Arc<GuardInner>,
    /// The durability layer's stamping hook, attached by the session when
    /// a [`crate::CheckpointPolicy`] is configured. Rides on the guard
    /// (not the engine or the miners) so the kernel can stamp at exactly
    /// the points it takes resume snapshots without widening any miner
    /// signature.
    recorder: Option<Arc<CheckpointRecorder>>,
}

impl RunGuard {
    /// An armed guard enforcing `limits` (empty limits still arm the
    /// guard: cancellation works and resume snapshots are taken).
    pub fn new(limits: GuardLimits) -> Self {
        Self::with_cancel_flag(limits, Arc::new(AtomicBool::new(false)))
    }

    /// An armed guard whose cancellation is driven by a caller-owned
    /// flag — e.g. one raised from a Ctrl-C handler.
    pub fn with_cancel_flag(limits: GuardLimits, cancelled: Arc<AtomicBool>) -> Self {
        RunGuard {
            inner: Arc::new(GuardInner {
                armed: true,
                deadline: limits.timeout.and_then(|t| Instant::now().checked_add(t)),
                work_budget: limits.work_budget_cells,
                memory_budget: limits.memory_budget_bytes,
                cells_charged: AtomicU64::new(0),
                cancelled,
                tripped: AtomicU8::new(TRIP_NONE),
            }),
            recorder: None,
        }
    }

    /// The inert guard used by the infallible mining paths: never trips,
    /// never charges, and suppresses resume snapshots, so unguarded runs
    /// behave byte-identically to a build without guards.
    pub fn unlimited() -> Self {
        RunGuard {
            inner: Arc::new(GuardInner {
                armed: false,
                deadline: None,
                work_budget: None,
                memory_budget: None,
                cells_charged: AtomicU64::new(0),
                cancelled: Arc::new(AtomicBool::new(false)),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
            recorder: None,
        }
    }

    /// `true` when limits, cancellation, and snapshotting are active.
    pub fn is_armed(&self) -> bool {
        self.inner.armed
    }

    /// Attaches the durability recorder; governed state (budgets, trip
    /// status, cancellation) stays shared with the original handle.
    pub(crate) fn with_recorder(&self, recorder: Arc<CheckpointRecorder>) -> Self {
        RunGuard {
            inner: Arc::clone(&self.inner),
            recorder: Some(recorder),
        }
    }

    /// The attached durability recorder, if checkpointing is configured.
    pub(crate) fn recorder(&self) -> Option<&CheckpointRecorder> {
        self.recorder.as_deref()
    }

    /// The shared cancellation flag; raise it (or call
    /// [`RunGuard::cancel`]) from any thread to stop the run at its next
    /// checkpoint.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.cancelled)
    }

    /// Raises the cancellation flag.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Forces the guard into the tripped state with `reason` (first trip
    /// wins). Public so fault-injection harnesses and embedders can
    /// simulate limit exhaustion deterministically.
    pub fn trip(&self, reason: TruncationReason) {
        let _ = self.inner.tripped.compare_exchange(
            TRIP_NONE,
            reason.code(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The first trip reason, if any limit has tripped.
    pub fn trip_reason(&self) -> Option<TruncationReason> {
        TruncationReason::from_code(self.inner.tripped.load(Ordering::Relaxed))
    }

    /// Contingency cells charged against the work budget so far.
    pub fn cells_charged(&self) -> u64 {
        self.inner.cells_charged.load(Ordering::Relaxed)
    }

    /// The cooperative checkpoint: `Ok(())` to keep going, or the
    /// truncation reason to stop. Checks, in order: an earlier trip, the
    /// cancellation flag, the deadline, and the work budget — and trips
    /// the guard on the first violation so every later checkpoint agrees
    /// on the reason. Always `Ok` on an unarmed guard.
    pub fn checkpoint(&self) -> Result<(), TruncationReason> {
        let inner = &*self.inner;
        if !inner.armed {
            return Ok(());
        }
        if let Some(reason) = self.trip_reason() {
            return Err(reason);
        }
        if inner.cancelled.load(Ordering::Relaxed) {
            self.trip(TruncationReason::Cancelled);
            return Err(TruncationReason::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                self.trip(TruncationReason::Deadline);
                return Err(TruncationReason::Deadline);
            }
        }
        if let Some(budget) = inner.work_budget {
            if inner.cells_charged.load(Ordering::Relaxed) >= budget {
                self.trip(TruncationReason::WorkBudget);
                return Err(TruncationReason::WorkBudget);
            }
        }
        Ok(())
    }
}

impl CountProbe for RunGuard {
    fn should_stop(&self) -> bool {
        self.checkpoint().is_err()
    }

    fn charge(&self, cells: u64) -> bool {
        let inner = &*self.inner;
        if !inner.armed {
            return false;
        }
        let total = inner.cells_charged.fetch_add(cells, Ordering::Relaxed) + cells;
        match inner.work_budget {
            Some(budget) if total >= budget => {
                self.trip(TruncationReason::WorkBudget);
                true
            }
            _ => false,
        }
    }

    fn arena_budget_bytes(&self) -> Option<usize> {
        if self.inner.armed {
            self.inner.memory_budget
        } else {
            None
        }
    }

    fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
        Arc::new(self.clone())
    }
}

/// The frontier a truncated run leaves behind: everything a fresh engine
/// needs to re-enter the interrupted sweep at its last completed level
/// boundary and finish it, reproducing the complete answer set exactly.
///
/// Opaque by design — produce one from a truncated
/// [`crate::MiningResult`], hand it back to
/// [`crate::session::MiningSession::resume`]. The snapshot never contains the
/// interrupted level's partial verdicts: that level is re-executed in
/// full on resume, which is what makes partially-counted batches safe to
/// discard.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    pub(crate) algorithm: Algorithm,
    pub(crate) inner: ResumeInner,
}

/// The resume-snapshot generation a checkpoint file's header carries.
/// Format 1 was the pre-kernel layout, whose snapshots carried
/// per-miner loop state the unified kernel no longer reconstructs the
/// same way; a file from another generation is refused with
/// [`crate::CheckpointError::FormatMismatch`] before its snapshot is
/// read. An in-memory [`ResumeState`] is always of this build's
/// generation.
pub const RESUME_FORMAT: u16 = 2;

impl ResumeState {
    /// The algorithm that produced this snapshot; resuming runs the same
    /// one.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }
}

/// Per-algorithm loop state at the last completed level boundary. Sets
/// are stored as sorted `Vec`s (not hash sets) so snapshots compare
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ResumeInner {
    /// The BMS level loop (BMS baseline and BMS+).
    Bms(BmsSnapshot),
    /// The BMS++ level loop.
    PlusPlus {
        level: usize,
        cands: Vec<Itemset>,
        sig_candidates: Vec<Itemset>,
    },
    /// BMS* interrupted during its phase-1 BMS run.
    StarPhase1(BmsSnapshot),
    /// BMS* interrupted during the phase-2 upward sweep.
    StarPhase2 {
        k: usize,
        sig: Vec<Itemset>,
        frontier: Vec<(usize, Vec<Itemset>)>,
    },
    /// BMS** interrupted during its phase-1 SUPP enumeration.
    StarStarPhase1 {
        level: usize,
        cands: Vec<Itemset>,
        supp: Vec<(usize, Vec<Itemset>)>,
    },
    /// BMS** interrupted during the phase-2 SIG sweep.
    StarStarPhase2 {
        k: usize,
        current: Vec<Itemset>,
        sig: Vec<Itemset>,
        supp: Vec<(usize, Vec<Itemset>)>,
    },
    /// The exhaustive miner keeps no incremental state; resuming restarts
    /// it from scratch.
    NaiveRestart,
}

/// The BMS level-loop state shared by several resume variants.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BmsSnapshot {
    pub(crate) level: usize,
    pub(crate) cands: Vec<Itemset>,
    pub(crate) sig: Vec<Itemset>,
    pub(crate) notsig: Vec<Itemset>,
}

/// Sorts a set-like collection of itemsets into the deterministic `Vec`
/// form snapshots use.
pub(crate) fn sorted_sets<I: IntoIterator<Item = Itemset>>(sets: I) -> Vec<Itemset> {
    let mut v: Vec<Itemset> = sets.into_iter().collect();
    v.sort_unstable();
    v
}

/// Deterministic snapshot form of a per-level set family (levels sorted,
/// sets within a level sorted) — the frontier of BMS* phase 2 and the
/// SUPP levels of BMS**.
pub(crate) fn freeze_levels<'a, S: IntoIterator<Item = &'a Itemset>>(
    levels: impl IntoIterator<Item = (&'a usize, S)>,
) -> Vec<(usize, Vec<Itemset>)> {
    let mut out: Vec<(usize, Vec<Itemset>)> = levels
        .into_iter()
        .map(|(&k, sets)| (k, sorted_sets(sets.into_iter().cloned())))
        .collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// Inverse of [`freeze_levels`].
pub(crate) fn thaw_levels(
    levels: Vec<(usize, Vec<Itemset>)>,
) -> std::collections::HashMap<usize, ItemsetSet> {
    levels
        .into_iter()
        .map(|(k, sets)| (k, sets.into_iter().collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_is_inert() {
        let g = RunGuard::unlimited();
        assert!(!g.is_armed());
        assert!(g.checkpoint().is_ok());
        assert!(!g.charge(1_000_000));
        assert!(!g.should_stop());
        assert_eq!(g.arena_budget_bytes(), None);
        assert!(!g.share().charge(1_000_000));
        assert_eq!(g.trip_reason(), None);
        assert!(g.checkpoint().is_ok());
    }

    #[test]
    fn armed_empty_limits_only_trip_on_cancel() {
        let g = RunGuard::new(GuardLimits::default());
        assert!(g.is_armed());
        assert!(g.checkpoint().is_ok());
        assert!(!g.charge(u64::MAX / 2));
        g.cancel();
        assert_eq!(g.checkpoint(), Err(TruncationReason::Cancelled));
        assert_eq!(g.trip_reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn work_budget_trips_on_charge_and_checkpoint() {
        let g = RunGuard::new(GuardLimits {
            work_budget_cells: Some(10),
            ..GuardLimits::default()
        });
        assert!(!g.charge(4));
        assert!(g.checkpoint().is_ok());
        assert!(g.charge(6), "reaching the budget exhausts it");
        assert_eq!(g.checkpoint(), Err(TruncationReason::WorkBudget));
    }

    #[test]
    fn zero_work_budget_trips_at_first_checkpoint() {
        let g = RunGuard::new(GuardLimits {
            work_budget_cells: Some(0),
            ..GuardLimits::default()
        });
        assert_eq!(g.checkpoint(), Err(TruncationReason::WorkBudget));
    }

    #[test]
    fn expired_deadline_trips() {
        let g = RunGuard::new(GuardLimits {
            timeout: Some(Duration::ZERO),
            ..GuardLimits::default()
        });
        assert_eq!(g.checkpoint(), Err(TruncationReason::Deadline));
        assert!(g.should_stop());
    }

    #[test]
    fn first_trip_wins() {
        let g = RunGuard::new(GuardLimits::default());
        g.trip(TruncationReason::MemoryBudget);
        g.trip(TruncationReason::Deadline);
        assert_eq!(g.trip_reason(), Some(TruncationReason::MemoryBudget));
        // The cancellation flag is set, but the earlier trip's reason is
        // reported by every later checkpoint.
        g.cancel();
        assert_eq!(g.checkpoint(), Err(TruncationReason::MemoryBudget));
    }

    #[test]
    fn clones_share_state() {
        let g = RunGuard::new(GuardLimits {
            work_budget_cells: Some(8),
            ..GuardLimits::default()
        });
        let h = g.clone();
        assert!(h.charge(8));
        assert_eq!(g.checkpoint(), Err(TruncationReason::WorkBudget));
        assert_eq!(g.cells_charged(), 8);
    }

    #[test]
    fn a_shared_handle_checks_and_charges_the_same_budget() {
        let g = RunGuard::new(GuardLimits {
            work_budget_cells: Some(8),
            ..GuardLimits::default()
        });
        let shared = g.share();
        let from_worker = std::thread::spawn(move || shared.charge(8));
        assert!(from_worker.join().unwrap(), "the handle's charge trips");
        assert_eq!(g.cells_charged(), 8);
        assert!(g.should_stop());
        assert!(g.share().should_stop(), "a later handle sees the trip");
    }

    #[test]
    fn external_cancel_flag_is_shared() {
        let flag = Arc::new(AtomicBool::new(false));
        let g = RunGuard::with_cancel_flag(GuardLimits::default(), Arc::clone(&flag));
        assert!(g.checkpoint().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(g.checkpoint(), Err(TruncationReason::Cancelled));
    }

    #[test]
    fn completion_display_and_accessors() {
        assert_eq!(Completion::Complete.to_string(), "complete");
        assert!(Completion::Complete.is_complete());
        let t = Completion::Truncated {
            reason: TruncationReason::Deadline,
            frontier_level: 3,
            sets_evaluated: 42,
        };
        assert!(!t.is_complete());
        assert_eq!(t.truncation_reason(), Some(TruncationReason::Deadline));
        assert_eq!(
            t.to_string(),
            "truncated (deadline) at level 3 after 42 sets"
        );
    }
}
