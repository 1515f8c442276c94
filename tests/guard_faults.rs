//! Fault-injection harness for the resource-governed mining runtime.
//!
//! A [`FaultCounter`] decorates the real horizontal counter and, at a
//! chosen guarded-batch index, simulates resource exhaustion — a passed
//! deadline, an exhausted work budget, a memory-budget trip, or external
//! cancellation — exactly the way the production paths do (via
//! [`RunGuard::trip`] or the cancellation flag), then abandons the
//! batch.
//!
//! For every algorithm and every injection point, the truncated run must
//! uphold the guard contract:
//!
//! (a) **soundness** — every reported answer also appears in the
//!     unguarded run's answer set (so it is a genuine, minimal member of
//!     the semantics' answer set);
//! (b) **mutual minimality** — no reported answer is a subset of
//!     another;
//! (c) **resumability** — continuing from the returned [`ResumeState`]
//!     under an untripped guard reproduces the complete answer set
//!     exactly.
//!
//! Injection indices sweep from 0 upward until the run completes, so
//! every checkpoint — including the boundary between BMS*/BMS** phase 1
//! and their phase-2 sweeps — sees each fault kind.

// Helper fns outside `#[test]` bodies still trip `unwrap_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

use ccs::itemset::{
    CountProbe, HorizontalCounter, MintermCounter, ParallelCounter, ParallelVerticalCounter,
    ShardedVerticalCounter, VerticalCounter,
};
use ccs::prelude::*;
use common::{
    attrs, db, fptree_factory, horizontal_factory, mine, mine_with_counter_guarded,
    mine_with_guard, query, resume_with_counter_guarded, sharded_factory, sorted,
    vertical_par_factory, wide_pool_factory, CounterFactory, FaultCounter, ALL_ALGORITHMS,
};

/// Injects `fault` at guarded-batch index 0, 1, 2, … until the run
/// completes, asserting the guard contract (soundness, minimality,
/// exact-resume) at every truncation point. Returns how many injection
/// points truncated the run.
fn sweep(algorithm: Algorithm, fault: TruncationReason) -> usize {
    sweep_with(algorithm, fault, horizontal_factory)
}

/// [`sweep`] with the decorated counter (and the resume counter) built
/// by `factory`, so the same injection schedule can run against any
/// counting substrate.
fn sweep_with(algorithm: Algorithm, fault: TruncationReason, factory: CounterFactory) -> usize {
    let db = db();
    let attrs = attrs();
    let q = query();
    let complete = mine(&db, &attrs, &q, algorithm).unwrap();
    assert!(complete.completion.is_complete());
    let complete_answers = sorted(&complete.answers);
    assert!(
        !complete_answers.is_empty(),
        "{algorithm}: the planted dataset must yield answers"
    );

    for trigger in 0..64 {
        let guard = RunGuard::new(GuardLimits::default());
        let mut counter = FaultCounter::new(factory(&db), guard.clone(), fault, trigger);
        let result =
            mine_with_counter_guarded(&db, &attrs, &q, algorithm, &mut counter, &guard).unwrap();
        match result.completion {
            Completion::Complete => {
                // The injection point lies beyond the last guarded batch:
                // the run never saw the fault and must match the
                // unguarded answer byte for byte.
                assert_eq!(sorted(&result.answers), complete_answers, "{algorithm}");
                assert!(result.resume.is_none());
                assert!(
                    trigger > 0,
                    "{algorithm}: the very first injection must truncate"
                );
                return trigger;
            }
            Completion::Truncated {
                reason,
                frontier_level,
                sets_evaluated,
            } => {
                assert_eq!(reason, fault, "{algorithm} trigger {trigger}");
                assert!(frontier_level >= 1, "{algorithm} trigger {trigger}");
                // Metrics must account exactly for the work the wrapped
                // counter really did, even though the level aborted
                // mid-batch.
                assert_eq!(
                    sets_evaluated,
                    counter.stats().tables_built,
                    "{algorithm} trigger {trigger}: sets_evaluated out of sync"
                );
                // (a) Soundness and (b) mutual minimality.
                assert_sound_and_minimal(
                    &format!("{algorithm} trigger {trigger}"),
                    &result.answers,
                    &complete.answers,
                );
                // (c) Resume-from-frontier reproduces the complete
                // answer exactly.
                let state = result
                    .resume
                    .expect("truncated runs carry a resume snapshot");
                assert_eq!(state.algorithm(), algorithm);
                let resume_guard = RunGuard::new(GuardLimits::default());
                let mut resume_counter = factory(&db);
                let resumed = resume_with_counter_guarded(
                    &db,
                    &attrs,
                    &q,
                    &mut resume_counter,
                    &resume_guard,
                    state,
                )
                .unwrap();
                assert!(
                    resumed.completion.is_complete(),
                    "{algorithm} trigger {trigger}: resume under an untripped guard must finish"
                );
                assert_eq!(
                    sorted(&resumed.answers),
                    complete_answers,
                    "{algorithm} trigger {trigger}: resume diverged from the unguarded run"
                );
            }
        }
    }
    panic!("{algorithm}: more than 64 guarded batches on the toy dataset");
}

/// The guard contract's checks on a truncated run's answers: (a)
/// soundness, every partial answer is a complete-run answer; (b) mutual
/// minimality, no partial answer contains another.
fn assert_sound_and_minimal(label: &str, partial: &[Itemset], complete: &[Itemset]) {
    for s in partial {
        assert!(complete.contains(s), "{label}: unsound partial answer {s}");
    }
    for (i, a) in partial.iter().enumerate() {
        for b in &partial[i + 1..] {
            assert!(
                !a.is_subset_of(b) && !b.is_subset_of(a),
                "{label}: {a} and {b} are nested"
            );
        }
    }
}

#[test]
fn work_budget_faults_every_injection_point() {
    for algorithm in ALL_ALGORITHMS {
        let truncating = sweep(algorithm, TruncationReason::WorkBudget);
        assert!(
            truncating >= 2,
            "{algorithm}: expected at least two guarded batches, found {truncating}"
        );
    }
}

#[test]
fn deadline_faults_every_injection_point() {
    for algorithm in Algorithm::paper_algorithms() {
        sweep(algorithm, TruncationReason::Deadline);
    }
}

#[test]
fn cancellation_faults_every_injection_point() {
    // The sweep drives the cancellation flag through every counting
    // batch. With a monotone `sum ≥` in the query, BMS* counts in both
    // phases, so its later injection indices land inside phase 2 and
    // prove the upward sweep observes the guard. A fresh BMS** run
    // counts only in phase 1, so all of its injections land there.
    for algorithm in [Algorithm::BmsStar, Algorithm::BmsStarStar] {
        sweep(algorithm, TruncationReason::Cancelled);
    }
}

#[test]
fn memory_faults_every_injection_point() {
    // Injected through `RunGuard::trip`, the path a fallback-less
    // counter takes when its arena budget is exceeded.
    for algorithm in [Algorithm::BmsPlus, Algorithm::BmsPlusPlus] {
        sweep(algorithm, TruncationReason::MemoryBudget);
    }
}

#[test]
fn star_star_phase_two_finishes_the_completed_supp_levels_after_a_trip() {
    // Every guarded batch of BMS** is a phase-1 SUPP level: phase 2 is
    // answered from the verdicts phase 1 recorded. After a phase-1 trip,
    // phase 2 runs on a disarmed engine over the completed levels, so the
    // truncated run reports exactly the complete run's answers up to its
    // frontier, and counts no table beyond what phase 1 counted.
    let db = db();
    let attrs = attrs();
    let q = query();
    let complete = mine(&db, &attrs, &q, Algorithm::BmsStarStar).unwrap();
    let mut truncated_with_answers = 0;
    for trigger in 0..64 {
        let guard = RunGuard::new(GuardLimits::default());
        let inner = HorizontalCounter::new(&db);
        let mut counter =
            FaultCounter::new(inner, guard.clone(), TruncationReason::WorkBudget, trigger);
        let result = mine_with_counter_guarded(
            &db,
            &attrs,
            &q,
            Algorithm::BmsStarStar,
            &mut counter,
            &guard,
        )
        .unwrap();
        let Completion::Truncated { frontier_level, .. } = result.completion else {
            break;
        };
        let expected: Vec<Itemset> = complete
            .answers
            .iter()
            .filter(|a| a.len() <= frontier_level)
            .cloned()
            .collect();
        assert_eq!(
            sorted(&result.answers),
            sorted(&expected),
            "trigger {trigger}"
        );
        assert_eq!(result.metrics.tables_built, counter.stats().tables_built);
        if !expected.is_empty() {
            truncated_with_answers += 1;
        }
    }
    assert!(
        truncated_with_answers > 0,
        "no trip left answers below its frontier; the check is vacuous"
    );
}

#[test]
fn star_star_resumes_trip_inside_phase_two() {
    // A fresh BMS** run counts only in phase 1, so every trip of the
    // sweeps above lands there. A run resumed from a phase-1 snapshot
    // counts in phase 2 as well: it recounts the SUPP levels it thawed.
    // Chaining the sweep (fault every batch of every such resume) trips
    // phase 2, its candidate generation and its minimality prefilter.
    let db = db();
    let attrs = attrs();
    let q = query();
    let complete = mine(&db, &attrs, &q, Algorithm::BmsStarStar).unwrap();
    let complete_answers = sorted(&complete.answers);
    let faulting = |trigger: usize| {
        let guard = RunGuard::new(GuardLimits::default());
        let counter = FaultCounter::new(
            HorizontalCounter::new(&db),
            guard.clone(),
            TruncationReason::WorkBudget,
            trigger,
        );
        (guard, counter)
    };
    let (mut runs, mut phase2_trips) = (0, 0);
    for first in 0..64 {
        let (guard, mut counter) = faulting(first);
        let result = mine_with_counter_guarded(
            &db,
            &attrs,
            &q,
            Algorithm::BmsStarStar,
            &mut counter,
            &guard,
        )
        .unwrap();
        runs += 1;
        let Some(snapshot) = result.resume else {
            break; // past the last batch of phase 1
        };
        assert!(format!("{snapshot:?}").contains("StarStarPhase1"));
        for second in 0..64 {
            let label = format!("trigger {first} then {second}");
            let (guard, mut counter) = faulting(second);
            let resumed = resume_with_counter_guarded(
                &db,
                &attrs,
                &q,
                &mut counter,
                &guard,
                snapshot.clone(),
            )
            .unwrap();
            runs += 1;
            let Some(state) = resumed.resume else {
                assert!(resumed.completion.is_complete(), "{label}");
                assert_eq!(sorted(&resumed.answers), complete_answers, "{label}");
                break;
            };
            assert_sound_and_minimal(&label, &resumed.answers, &complete.answers);
            if format!("{state:?}").contains("StarStarPhase2") {
                phase2_trips += 1;
            }
            let mut counter = HorizontalCounter::new(&db);
            let finished = resume_with_counter_guarded(
                &db,
                &attrs,
                &q,
                &mut counter,
                &RunGuard::new(GuardLimits::default()),
                state,
            )
            .unwrap();
            runs += 1;
            assert!(finished.completion.is_complete(), "{label}");
            assert_eq!(sorted(&finished.answers), complete_answers, "{label}");
        }
    }
    assert!(
        phase2_trips > 0,
        "no resumed run tripped inside phase 2 ({runs} runs); the sweep is vacuous"
    );
}

#[test]
fn armed_guard_without_limits_matches_unguarded_run() {
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in ALL_ALGORITHMS {
        let unguarded = mine(&db, &attrs, &q, algorithm).unwrap();
        let guard = RunGuard::new(GuardLimits::default());
        let guarded = mine_with_guard(
            &db,
            &attrs,
            &q,
            algorithm,
            CountingStrategy::Horizontal,
            &guard,
        )
        .unwrap();
        assert!(guarded.completion.is_complete());
        assert!(guarded.resume.is_none());
        assert_eq!(guarded.answers, unguarded.answers, "{algorithm}");
    }
}

#[test]
fn zero_work_budget_truncates_empty_at_level_one() {
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in ALL_ALGORITHMS {
        let guard = RunGuard::new(GuardLimits {
            work_budget_cells: Some(0),
            ..GuardLimits::default()
        });
        let result = mine_with_guard(
            &db,
            &attrs,
            &q,
            algorithm,
            CountingStrategy::Horizontal,
            &guard,
        )
        .unwrap();
        match result.completion {
            Completion::Truncated {
                reason: TruncationReason::WorkBudget,
                frontier_level,
                ..
            } => assert_eq!(frontier_level, 1, "{algorithm}"),
            other => panic!("{algorithm}: expected a work-budget truncation, got {other}"),
        }
        assert!(result.answers.is_empty(), "{algorithm}");
        // Even a nothing-done snapshot must resume to the full answer.
        let complete = mine(&db, &attrs, &q, algorithm).unwrap();
        let state = result.resume.expect("snapshot");
        let mut counter = HorizontalCounter::new(&db);
        let resumed = resume_with_counter_guarded(
            &db,
            &attrs,
            &q,
            &mut counter,
            &RunGuard::new(GuardLimits::default()),
            state,
        )
        .unwrap();
        assert_eq!(
            sorted(&resumed.answers),
            sorted(&complete.answers),
            "{algorithm}"
        );
    }
}

#[test]
fn already_expired_deadline_truncates_before_any_counting() {
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in Algorithm::paper_algorithms() {
        let guard = RunGuard::new(GuardLimits {
            timeout: Some(Duration::ZERO),
            ..GuardLimits::default()
        });
        let result = mine_with_guard(
            &db,
            &attrs,
            &q,
            algorithm,
            CountingStrategy::Horizontal,
            &guard,
        )
        .unwrap();
        assert_eq!(
            result.completion.truncation_reason(),
            Some(TruncationReason::Deadline),
            "{algorithm}"
        );
        assert!(result.answers.is_empty(), "{algorithm}");
        assert_eq!(result.metrics.tables_built, 0, "{algorithm}");
    }
}

#[test]
fn cancelled_before_start_truncates_immediately() {
    let db = db();
    let attrs = attrs();
    let q = query();
    let guard = RunGuard::new(GuardLimits::default());
    guard.cancel();
    let result = mine_with_guard(
        &db,
        &attrs,
        &q,
        Algorithm::BmsStarStar,
        CountingStrategy::Horizontal,
        &guard,
    )
    .unwrap();
    assert_eq!(
        result.completion.truncation_reason(),
        Some(TruncationReason::Cancelled)
    );
    assert!(result.answers.is_empty());
}

#[test]
fn tight_memory_budget_degrades_vertical_counting_without_truncation() {
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in Algorithm::paper_algorithms() {
        let unguarded = mine(&db, &attrs, &q, algorithm).unwrap();
        let guard = RunGuard::new(GuardLimits {
            memory_budget_bytes: Some(1),
            ..GuardLimits::default()
        });
        let result = mine_with_guard(
            &db,
            &attrs,
            &q,
            algorithm,
            CountingStrategy::Vertical,
            &guard,
        )
        .unwrap();
        // The vertical counter has a cheaper strategy to fall back on,
        // so a memory trip degrades instead of truncating.
        assert!(result.completion.is_complete(), "{algorithm}");
        assert!(
            result.metrics.degraded_batches > 0,
            "{algorithm}: expected degraded batches under a 1-byte arena budget"
        );
        assert_eq!(
            sorted(&result.answers),
            sorted(&unguarded.answers),
            "{algorithm}: degraded counting changed the answers"
        );
    }
}

#[test]
fn parallel_vertical_faults_every_injection_point() {
    // The full trip-at-every-batch-index sweep with the pooled
    // parallel-vertical counter underneath (work floor zeroed so every
    // batch fans out over the pool): partial answers stay sound, and
    // resuming — also on the pooled counter — reproduces the complete
    // answer set exactly.
    for algorithm in ALL_ALGORITHMS {
        let truncating = sweep_with(
            algorithm,
            TruncationReason::WorkBudget,
            vertical_par_factory,
        );
        assert!(
            truncating >= 2,
            "{algorithm}: expected at least two guarded batches, found {truncating}"
        );
    }
    for algorithm in [Algorithm::BmsStar, Algorithm::BmsStarStar] {
        sweep_with(algorithm, TruncationReason::Cancelled, vertical_par_factory);
    }
}

#[test]
fn sharded_faults_every_injection_point() {
    // The trip-at-every-batch-index sweep over the sharded counter, with
    // fewer and with more workers than shards:
    // partial answers stay sound and mutually minimal, and resuming —
    // also on the same counter shape — reproduces the complete answer
    // set exactly.
    for factory in [sharded_factory, wide_pool_factory] {
        for algorithm in ALL_ALGORITHMS {
            let truncating = sweep_with(algorithm, TruncationReason::WorkBudget, factory);
            assert!(
                truncating >= 2,
                "{algorithm}: expected at least two guarded batches, found {truncating}"
            );
        }
        for algorithm in [Algorithm::BmsStar, Algorithm::BmsStarStar] {
            sweep_with(algorithm, TruncationReason::Cancelled, factory);
        }
    }
}

#[test]
fn real_work_budget_trips_mid_shard_soundly() {
    // A genuine cell budget tripping *inside* the sharded guarded
    // batch: classes still in flight are never delivered, completed
    // classes are kept, partial answers stay sound, and resume is exact
    // — with fewer and with more workers than shards.
    let db = db();
    let attrs = attrs();
    let q = query();
    for factory in [sharded_factory, wide_pool_factory] {
        for algorithm in Algorithm::paper_algorithms() {
            let complete = mine(&db, &attrs, &q, algorithm).unwrap();
            for budget in [1u64, 40, 150, 400, 1000] {
                let guard = RunGuard::new(GuardLimits {
                    work_budget_cells: Some(budget),
                    ..GuardLimits::default()
                });
                let mut counter = factory(&db);
                let result =
                    mine_with_counter_guarded(&db, &attrs, &q, algorithm, &mut counter, &guard)
                        .unwrap();
                for s in &result.answers {
                    assert!(
                        complete.answers.contains(s),
                        "{algorithm} budget {budget}: unsound partial answer {s}"
                    );
                }
                let Some(state) = result.resume else {
                    assert!(
                        result.completion.is_complete(),
                        "{algorithm} budget {budget}: no snapshot on a truncated run"
                    );
                    continue;
                };
                let mut resume_counter = factory(&db);
                let resumed = resume_with_counter_guarded(
                    &db,
                    &attrs,
                    &q,
                    &mut resume_counter,
                    &RunGuard::new(GuardLimits::default()),
                    state,
                )
                .unwrap();
                assert_eq!(
                    sorted(&resumed.answers),
                    sorted(&complete.answers),
                    "{algorithm} budget {budget}: sharded resume diverged"
                );
            }
        }
    }
}

#[test]
fn tight_memory_budget_degrades_sharded_counting_without_truncation() {
    // The sharded ladder: a budget that fits one full-range arena but
    // not the per-shard sum degrades to the sequential vertical index; a
    // 1-byte budget degrades all the way to horizontal. Neither
    // truncates, and both keep the answers bit-identical.
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in [Algorithm::BmsPlusPlus, Algorithm::BmsStarStar] {
        let unguarded = mine(&db, &attrs, &q, algorithm).unwrap();
        for budget in [1usize, 64 * 1024] {
            let guard = RunGuard::new(GuardLimits {
                memory_budget_bytes: Some(budget),
                ..GuardLimits::default()
            });
            let mut counter = sharded_factory(&db);
            let result =
                mine_with_counter_guarded(&db, &attrs, &q, algorithm, &mut counter, &guard)
                    .unwrap();
            assert!(
                result.completion.is_complete(),
                "{algorithm} budget {budget}: the ladder must degrade, not truncate"
            );
            assert_eq!(
                sorted(&result.answers),
                sorted(&unguarded.answers),
                "{algorithm} budget {budget}: degraded counting changed the answers"
            );
        }
    }
}

#[test]
fn fptree_faults_every_injection_point() {
    // The trip-at-every-batch-index sweep over the pattern-growth
    // counter: partial answers stay sound and mutually minimal, and
    // resuming — also on an FP-tree counter — reproduces the complete
    // answer set exactly.
    for algorithm in ALL_ALGORITHMS {
        let truncating = sweep_with(algorithm, TruncationReason::WorkBudget, fptree_factory);
        assert!(
            truncating >= 2,
            "{algorithm}: expected at least two guarded batches, found {truncating}"
        );
    }
    for algorithm in [Algorithm::BmsStar, Algorithm::BmsStarStar] {
        sweep_with(algorithm, TruncationReason::Cancelled, fptree_factory);
    }
}

#[test]
fn real_work_budget_trips_mid_projection_soundly() {
    // A genuine cell budget tripping at the FP-tree's projection
    // boundaries: candidates whose conditional walks were in flight are
    // discarded wholesale, completed candidates are kept, partial
    // answers stay sound, and resume is exact.
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in Algorithm::paper_algorithms() {
        let complete = mine(&db, &attrs, &q, algorithm).unwrap();
        for budget in [1u64, 40, 150, 400, 1000] {
            let guard = RunGuard::new(GuardLimits {
                work_budget_cells: Some(budget),
                ..GuardLimits::default()
            });
            let mut counter = fptree_factory(&db);
            let result =
                mine_with_counter_guarded(&db, &attrs, &q, algorithm, &mut counter, &guard)
                    .unwrap();
            for s in &result.answers {
                assert!(
                    complete.answers.contains(s),
                    "{algorithm} budget {budget}: unsound partial answer {s}"
                );
            }
            let Some(state) = result.resume else {
                assert!(
                    result.completion.is_complete(),
                    "{algorithm} budget {budget}: no snapshot on a truncated run"
                );
                continue;
            };
            let mut resume_counter = fptree_factory(&db);
            let resumed = resume_with_counter_guarded(
                &db,
                &attrs,
                &q,
                &mut resume_counter,
                &RunGuard::new(GuardLimits::default()),
                state,
            )
            .unwrap();
            assert_eq!(
                sorted(&resumed.answers),
                sorted(&complete.answers),
                "{algorithm} budget {budget}: fp-tree resume diverged"
            );
        }
    }
}

#[test]
fn tight_memory_budget_degrades_fptree_counting_without_truncation() {
    // The FP-tree ladder: a budget the memoized projections overflow
    // drops to the lazily built vertical twin, and a 1-byte budget falls
    // through to horizontal scans. Neither truncates, and both keep the
    // answers bit-identical to the unguarded run.
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in [Algorithm::BmsPlusPlus, Algorithm::BmsStarStar] {
        let unguarded = mine(&db, &attrs, &q, algorithm).unwrap();
        for budget in [1usize, 64 * 1024] {
            let guard = RunGuard::new(GuardLimits {
                memory_budget_bytes: Some(budget),
                ..GuardLimits::default()
            });
            let mut counter = fptree_factory(&db);
            let result =
                mine_with_counter_guarded(&db, &attrs, &q, algorithm, &mut counter, &guard)
                    .unwrap();
            assert!(
                result.completion.is_complete(),
                "{algorithm} budget {budget}: the ladder must degrade, not truncate"
            );
            assert_eq!(
                sorted(&result.answers),
                sorted(&unguarded.answers),
                "{algorithm} budget {budget}: degraded counting changed the answers"
            );
            if budget == 1 {
                assert!(
                    counter.stats().degraded_batches > 0,
                    "{algorithm}: a 1-byte arena must force the ladder down"
                );
            }
        }
    }
}

#[test]
fn real_work_budget_trips_mid_pooled_batch_soundly() {
    // Not an injected fault: a genuine cell budget that trips *inside*
    // the pooled guarded batch, exercising first-trip-wins draining —
    // the tripped run keeps every completed prefix class, stays sound,
    // and resumes exactly. Budgets sweep from tiny to
    // nearly-the-whole-run so the trip lands at many different points
    // within and between batches.
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in Algorithm::paper_algorithms() {
        let complete = mine(&db, &attrs, &q, algorithm).unwrap();
        for budget in [1u64, 40, 150, 400, 1000] {
            let guard = RunGuard::new(GuardLimits {
                work_budget_cells: Some(budget),
                ..GuardLimits::default()
            });
            let mut counter = vertical_par_factory(&db);
            let result =
                mine_with_counter_guarded(&db, &attrs, &q, algorithm, &mut counter, &guard)
                    .unwrap();
            for s in &result.answers {
                assert!(
                    complete.answers.contains(s),
                    "{algorithm} budget {budget}: unsound partial answer {s}"
                );
            }
            let Some(state) = result.resume else {
                assert!(
                    result.completion.is_complete(),
                    "{algorithm} budget {budget}: no snapshot on a truncated run"
                );
                continue;
            };
            let mut resume_counter = vertical_par_factory(&db);
            let resumed = resume_with_counter_guarded(
                &db,
                &attrs,
                &q,
                &mut resume_counter,
                &RunGuard::new(GuardLimits::default()),
                state,
            )
            .unwrap();
            assert_eq!(
                sorted(&resumed.answers),
                sorted(&complete.answers),
                "{algorithm} budget {budget}: pooled resume diverged"
            );
        }
    }
}

#[test]
fn tight_memory_budget_degrades_pooled_counting_without_truncation() {
    // The parallel-vertical ladder: a budget that fits one arena but not
    // one per worker degrades to sequential vertical; a 1-byte budget
    // degrades all the way to horizontal. Neither truncates, and both
    // keep the answers bit-identical.
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in [Algorithm::BmsPlusPlus, Algorithm::BmsStarStar] {
        let unguarded = mine(&db, &attrs, &q, algorithm).unwrap();
        for budget in [1usize, 64 * 1024] {
            let guard = RunGuard::new(GuardLimits {
                memory_budget_bytes: Some(budget),
                ..GuardLimits::default()
            });
            let mut counter = vertical_par_factory(&db);
            let result =
                mine_with_counter_guarded(&db, &attrs, &q, algorithm, &mut counter, &guard)
                    .unwrap();
            assert!(
                result.completion.is_complete(),
                "{algorithm} budget {budget}: the ladder must degrade, not truncate"
            );
            assert_eq!(
                sorted(&result.answers),
                sorted(&unguarded.answers),
                "{algorithm} budget {budget}: degraded counting changed the answers"
            );
        }
    }
}

/// How many cells a backend may count past a work budget, for
/// [`work_budget_overshoot_is_bounded_per_backend`].
enum Past {
    Exactly(u64),
    AtMost(u64),
}

#[test]
fn work_budget_overshoot_is_bounded_per_backend() {
    // Every backend checks the probe before a unit of work and charges a
    // unit's cells when it completes, so the unit in hand when a budget
    // runs out is always finished (DESIGN.md §9). With a 1-cell budget
    // the first unit trips it: a horizontal scan charges its whole
    // batch, a sequential tid-set batch one prefix class, the FP-tree one
    // candidate. Pooled tid-set jobs check and charge the guard
    // themselves, so after the first charge each job finishes at most
    // the class in hand: one class per job. Pooled rows race, so they
    // run many times.
    let db = db();
    // Every triple over the 8 items: six prefix classes of 21, 15, 10,
    // 6, 3 and 1 members, walked in that order.
    let items: Vec<u32> = (0..8).collect();
    let mut level = Vec::new();
    for (i, &a) in items.iter().enumerate() {
        for (j, &b) in items.iter().enumerate().skip(i + 1) {
            for &c in &items[j + 1..] {
                level.push(Itemset::from_ids([a, b, c]));
            }
        }
    }
    let table = 8u64;
    let batch = level.len() as u64 * table;
    let budget = 1u64;
    // The cells of the `jobs` largest classes: what one class per job
    // can count at most.
    let classes_of = |jobs: usize| [21u64, 15, 10, 6, 3, 1][..jobs].iter().sum::<u64>() * table;
    let cases: [(&str, CounterFactory, Past, usize); 10] = [
        (
            "horizontal",
            horizontal_factory,
            Past::Exactly(batch - budget),
            1,
        ),
        (
            "parallel, inline",
            |d| Box::new(ParallelCounter::with_workers(d, 2)),
            Past::Exactly(batch - budget),
            1,
        ),
        (
            "parallel, pooled",
            |d| {
                let mut c = ParallelCounter::with_workers(d, 2);
                c.set_work_floor(0);
                Box::new(c)
            },
            Past::Exactly(batch - budget),
            1,
        ),
        (
            "vertical",
            |d| Box::new(VerticalCounter::new(d)),
            Past::Exactly(classes_of(1) - budget),
            1,
        ),
        (
            "vertical-par, below the work floor",
            |d| Box::new(ParallelVerticalCounter::with_workers(d, 2)),
            Past::Exactly(classes_of(1) - budget),
            1,
        ),
        (
            "sharded, below the work floor",
            |d| Box::new(ShardedVerticalCounter::with_shards(d, 3, 2)),
            Past::Exactly(classes_of(1) - budget),
            1,
        ),
        // One shard, two runners on one cursor: the first two classes.
        (
            "vertical-par, pooled",
            vertical_par_factory,
            Past::AtMost(classes_of(2) - budget),
            300,
        ),
        // Three shards on two workers: two runners on one cursor, each
        // counting a class on every shard.
        (
            "sharded, pooled",
            sharded_factory,
            Past::AtMost(classes_of(2) - budget),
            300,
        ),
        // Two shards on four workers: four runners on one cursor.
        (
            "sharded, more workers than shards",
            wide_pool_factory,
            Past::AtMost(classes_of(4) - budget),
            300,
        ),
        ("fp-tree", fptree_factory, Past::Exactly(table - budget), 1),
    ];
    for (name, factory, past, runs) in cases {
        for _ in 0..runs {
            let guard = RunGuard::new(GuardLimits {
                work_budget_cells: Some(budget),
                ..GuardLimits::default()
            });
            let mut counter = factory(&db);
            let outcome = counter.minterm_counts_batch_guarded(&level, &guard);
            assert_eq!(
                guard.trip_reason(),
                Some(TruncationReason::WorkBudget),
                "{name}"
            );
            let counted = counter.stats().cells_counted;
            assert_eq!(counted % table, 0, "{name}: a partial table was counted");
            match past {
                Past::Exactly(cells) => assert_eq!(counted - budget, cells, "{name}"),
                Past::AtMost(cells) => {
                    assert!(
                        counted >= budget && counted - budget <= cells,
                        "{name}: {counted}"
                    );
                    // Each completed class was charged once, by the
                    // runner that completed it.
                    assert_eq!(guard.cells_charged(), counted, "{name}");
                }
            }
            // The batch completes exactly when the overshoot covered it.
            assert_eq!(outcome.is_ok(), counted == batch, "{name}");
        }
    }
}

/// Trips on its first charge, counts its `should_stop` calls and
/// records the threads that make them: one per runner of a batch, as
/// every runner checks before its first claim.
#[derive(Default)]
struct FirstChargeTrips {
    tripped: AtomicBool,
    checks: AtomicUsize,
    runners: Mutex<HashSet<ThreadId>>,
}

impl CountProbe for FirstChargeTrips {
    fn should_stop(&self) -> bool {
        self.checks.fetch_add(1, Ordering::Relaxed);
        self.runners
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        self.tripped.load(Ordering::Relaxed)
    }
    fn charge(&self, _cells: u64) -> bool {
        self.tripped.store(true, Ordering::Relaxed);
        true
    }
}

#[test]
fn tripped_pooled_batch_stops_within_a_class_per_job() {
    // Eight shards on two workers, every triple over the 8 items. A
    // runner checks the probe before it claims a class and stops once a
    // charge trips, so after the first charge each runner finishes at
    // most the class in hand: a few checks per runner, not a walk over
    // every class of a shard before any class is whole enough to charge.
    let db = db();
    let items: Vec<u32> = (0..8).collect();
    let mut level = Vec::new();
    for (i, &a) in items.iter().enumerate() {
        for (j, &b) in items.iter().enumerate().skip(i + 1) {
            for &c in &items[j + 1..] {
                level.push(Itemset::from_ids([a, b, c]));
            }
        }
    }
    assert_eq!(level.len(), 56);
    for _ in 0..50 {
        let mut counter = ShardedVerticalCounter::with_shards(&db, 8, 2);
        counter.index_mut().set_work_floor(0);
        let probe = FirstChargeTrips::default();
        let outcome = counter.minterm_counts_batch_guarded(&level, &probe);
        assert!(outcome.is_err(), "one class cannot complete the level");
        let jobs = probe.runners.lock().unwrap().len() as u64;
        let checks = probe.checks.load(Ordering::Relaxed);
        assert_eq!(jobs, 2, "both workers drained the batch");
        assert!(
            checks as u64 <= 3 * jobs,
            "{checks} probe checks over {jobs} jobs"
        );
    }
}

#[test]
fn real_work_budget_truncates_and_resumes_exactly() {
    // Not an injected fault: an actual cell budget small enough to stop
    // the run partway, exercising the organic charge-then-trip path.
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in Algorithm::paper_algorithms() {
        let complete = mine(&db, &attrs, &q, algorithm).unwrap();
        let guard = RunGuard::new(GuardLimits {
            work_budget_cells: Some(150),
            ..GuardLimits::default()
        });
        let result = mine_with_guard(
            &db,
            &attrs,
            &q,
            algorithm,
            CountingStrategy::Horizontal,
            &guard,
        )
        .unwrap();
        let Completion::Truncated { reason, .. } = result.completion else {
            panic!("{algorithm}: 150 cells cannot cover the run");
        };
        assert_eq!(reason, TruncationReason::WorkBudget, "{algorithm}");
        for s in &result.answers {
            assert!(complete.answers.contains(s), "{algorithm}: unsound {s}");
        }
        let state = result.resume.expect("snapshot");
        let mut counter = HorizontalCounter::new(&db);
        let resumed = resume_with_counter_guarded(
            &db,
            &attrs,
            &q,
            &mut counter,
            &RunGuard::new(GuardLimits::default()),
            state,
        )
        .unwrap();
        assert_eq!(
            sorted(&resumed.answers),
            sorted(&complete.answers),
            "{algorithm}"
        );
    }
}

#[test]
fn resume_rejects_foreign_snapshot_shapes() {
    // A resume request naming a different algorithm than the snapshot
    // pins must be refused.
    let db = db();
    let attrs = attrs();
    let q = query();
    let guard = RunGuard::new(GuardLimits {
        work_budget_cells: Some(0),
        ..GuardLimits::default()
    });
    let result = mine_with_guard(
        &db,
        &attrs,
        &q,
        Algorithm::BmsPlusPlus,
        CountingStrategy::Horizontal,
        &guard,
    )
    .unwrap();
    let state = result.resume.expect("zero budget must truncate");

    let err = MiningSession::new(&db, &attrs)
        .resume(&q, &MineRequest::new(Algorithm::BmsStar), state.clone())
        .unwrap_err();
    assert!(
        matches!(err, MiningError::ResumeMismatch { .. }),
        "wrong rejection: {err}"
    );

    // The untampered snapshot still resumes to the complete answer set.
    let complete = mine(&db, &attrs, &q, Algorithm::BmsPlusPlus).unwrap();
    let resumed = MiningSession::new(&db, &attrs)
        .resume(&q, &MineRequest::default(), state)
        .unwrap()
        .result;
    assert_eq!(sorted(&resumed.answers), sorted(&complete.answers));
}
