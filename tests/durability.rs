//! Crash-safety harness for the durable checkpoint layer.
//!
//! Three kinds of adversity, each driven against real mined checkpoints:
//!
//! * **Torn media** — every strict byte prefix of a checkpoint file, and
//!   every kill-after-K torn commit, must parse to a clean
//!   [`CheckpointError::Corrupt`] (or leave the previous intact snapshot
//!   behind) — never a panic, never a silently wrong resume.
//! * **Failing sinks** — `ENOSPC`, fsync failure, short writes: the
//!   mining run itself must finish with byte-identical answers, the
//!   failure surfaces in the [`CheckpointReport`], and an atomic sink's
//!   previous snapshot survives.
//! * **Crash recovery** — for every algorithm and every counting
//!   strategy, a governed run that trips mid-mine leaves a checkpoint
//!   whose reload + resume reproduces the uninterrupted answer set
//!   bit for bit, and whose persisted resume snapshot is *equal* to the
//!   in-memory one it serialized.

// Helper fns outside `#[test]` bodies still trip `unwrap_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::io;
use std::sync::{Arc, Mutex};

use ccs::itemset::{HorizontalCounter, MintermCounter};
use ccs::prelude::*;
use common::{
    attrs, db, patch_resume, query, resume_with_counter_guarded, sorted, FaultCounter,
    ALL_ALGORITHMS, CRAFTED_RESUME_PATCHES,
};
use proptest::prelude::*;

const STRATEGIES: [CountingStrategy; 5] = [
    CountingStrategy::Horizontal,
    CountingStrategy::Vertical,
    CountingStrategy::Parallel,
    CountingStrategy::VerticalPar,
    CountingStrategy::Sharded,
];

/// An in-memory sink whose storage outlives the `CheckpointPolicy` that
/// swallows it, so tests can read back what a run committed.
#[derive(Clone, Default)]
struct SharedSink {
    store: Arc<Mutex<Option<Vec<u8>>>>,
}

impl SharedSink {
    fn bytes(&self) -> Option<Vec<u8>> {
        self.store.lock().unwrap().clone()
    }
}

impl CheckpointSink for SharedSink {
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()> {
        *self.store.lock().unwrap() = Some(bytes.to_vec());
        Ok(())
    }

    fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.bytes())
    }
}

/// How a [`FaultSink`] misbehaves on commit.
#[derive(Clone, Copy)]
enum FaultMode {
    /// The disk is full: the atomic sink detects it before replacing the
    /// snapshot, so storage is untouched and commit errors.
    Enospc,
    /// The data never became durable: storage untouched, commit errors.
    FsyncFail,
    /// The process died K bytes into a *non-atomic* write: storage holds
    /// a torn prefix and commit errors.
    KillAfter(usize),
    /// A buggy sink silently drops the tail but reports success — the
    /// format's own checksums are the last line of defense.
    ShortWrite(usize),
}

/// A sink that injects `mode` on every commit.
#[derive(Clone)]
struct FaultSink {
    store: Arc<Mutex<Option<Vec<u8>>>>,
    mode: FaultMode,
}

impl FaultSink {
    fn new(mode: FaultMode, previous: Option<Vec<u8>>) -> FaultSink {
        FaultSink {
            store: Arc::new(Mutex::new(previous)),
            mode,
        }
    }

    fn bytes(&self) -> Option<Vec<u8>> {
        self.store.lock().unwrap().clone()
    }
}

impl CheckpointSink for FaultSink {
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.mode {
            FaultMode::Enospc => Err(io::ErrorKind::StorageFull.into()),
            FaultMode::FsyncFail => Err(io::Error::other("fsync failed")),
            FaultMode::KillAfter(k) => {
                *self.store.lock().unwrap() = Some(bytes[..k.min(bytes.len())].to_vec());
                Err(io::Error::other(format!("killed after {k} bytes")))
            }
            FaultMode::ShortWrite(k) => {
                *self.store.lock().unwrap() = Some(bytes[..k.min(bytes.len())].to_vec());
                Ok(())
            }
        }
    }

    fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.bytes())
    }
}

/// Runs a governed (work budget 150) BMS++ mine with every-level
/// checkpointing into a [`SharedSink`] and returns the committed bytes
/// plus the run's own result.
fn governed_checkpoint_bytes(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
) -> (Vec<u8>, MiningResult) {
    let sink = SharedSink::default();
    let guard = RunGuard::new(GuardLimits {
        work_budget_cells: Some(150),
        ..GuardLimits::default()
    });
    let outcome = MiningSession::new(db, attrs)
        .mine(
            q,
            &MineRequest::new(Algorithm::BmsPlusPlus)
                .guard(guard)
                .checkpoint(CheckpointPolicy::new(
                    Box::new(sink.clone()),
                    CheckpointCadence::EveryLevel,
                )),
        )
        .unwrap();
    assert!(
        !outcome.result.completion.is_complete(),
        "a 150-cell budget must truncate the planted dataset"
    );
    let report = outcome.checkpoint.clone().expect("checkpointing was on");
    assert!(report.error.is_none(), "memory sink cannot fail");
    assert!(report.written >= 1, "the trip stamp always commits");
    (sink.bytes().expect("trip stamp committed"), outcome.result)
}

#[test]
fn every_torn_prefix_of_a_mined_checkpoint_is_rejected_cleanly() {
    let db = db();
    let attrs = attrs();
    let q = query();
    let (bytes, _) = governed_checkpoint_bytes(&db, &attrs, &q);

    // The intact file parses and validates against its database.
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
    ckpt.verify_db(&db).unwrap();

    // Every strict prefix — a crash at any byte boundary of a
    // non-atomic write — is caught by the header checks or the
    // whole-file checksum: a clean `Corrupt`, never a panic, never a
    // wrong resume.
    for k in 0..bytes.len() {
        match Checkpoint::from_bytes(&bytes[..k]) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("prefix of {k} bytes: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn sink_faults_never_disturb_the_run_and_degrade_cleanly() {
    let db = db();
    let attrs = attrs();
    let q = query();
    let (previous, _) = governed_checkpoint_bytes(&db, &attrs, &q);

    // The reference: the same governed run with no checkpointing at all.
    let guard = || {
        RunGuard::new(GuardLimits {
            work_budget_cells: Some(150),
            ..GuardLimits::default()
        })
    };
    let reference = MiningSession::new(&db, &attrs)
        .mine(&q, &MineRequest::new(Algorithm::BmsPlusPlus).guard(guard()))
        .unwrap()
        .result;

    let torn_points = [
        0usize,
        1,
        7,
        8,
        11,
        12,
        previous.len() / 2,
        previous.len() - 1,
    ];
    let mut modes = vec![FaultMode::Enospc, FaultMode::FsyncFail];
    modes.extend(torn_points.iter().map(|&k| FaultMode::KillAfter(k)));
    modes.extend(torn_points.iter().map(|&k| FaultMode::ShortWrite(k)));

    for mode in modes {
        let sink = FaultSink::new(mode, Some(previous.clone()));
        let outcome = MiningSession::new(&db, &attrs)
            .mine(
                &q,
                &MineRequest::new(Algorithm::BmsPlusPlus)
                    .guard(guard())
                    .checkpoint(CheckpointPolicy::new(
                        Box::new(sink.clone()),
                        CheckpointCadence::EveryLevel,
                    )),
            )
            .unwrap();

        // Durability is best-effort: the mining result is bit-identical
        // to the checkpoint-free run no matter how the sink fails.
        assert_eq!(outcome.result.answers, reference.answers);
        assert_eq!(outcome.result.completion, reference.completion);

        let report = outcome.checkpoint.expect("checkpointing was on");
        match mode {
            FaultMode::Enospc | FaultMode::FsyncFail | FaultMode::KillAfter(_) => {
                assert_eq!(report.written, 0, "every commit fails in this mode");
                assert!(report.error.is_some(), "the first failure must surface");
                if matches!(mode, FaultMode::Enospc | FaultMode::FsyncFail) {
                    // An atomic sink that fails leaves the previous
                    // snapshot byte-for-byte intact and still loadable.
                    assert_eq!(sink.bytes().as_deref(), Some(previous.as_slice()));
                    Checkpoint::from_bytes(&previous).unwrap();
                }
            }
            FaultMode::ShortWrite(_) => {
                assert!(report.error.is_none(), "the sink lied about success");
            }
        }

        // Whatever the sink now holds either validates or is cleanly
        // corrupt — a reader can always tell which.
        if let Some(stored) = sink.bytes() {
            match Checkpoint::from_bytes(&stored) {
                Ok(ckpt) => ckpt.verify_db(&db).unwrap(),
                Err(CheckpointError::Corrupt(_)) => {}
                Err(other) => panic!("torn snapshot must read as Corrupt, got {other}"),
            }
        }
    }
}

#[test]
fn crash_recovery_differential_every_algorithm_and_strategy() {
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in ALL_ALGORITHMS {
        for strategy in STRATEGIES {
            let complete = MiningSession::new(&db, &attrs)
                .mine(&q, &MineRequest::new(algorithm).strategy(strategy))
                .unwrap()
                .result;
            assert!(complete.completion.is_complete());
            let complete_answers = sorted(&complete.answers);

            let sink = SharedSink::default();
            let guard = RunGuard::new(GuardLimits {
                work_budget_cells: Some(150),
                ..GuardLimits::default()
            });
            let outcome = MiningSession::new(&db, &attrs)
                .mine(
                    &q,
                    &MineRequest::new(algorithm)
                        .strategy(strategy)
                        .guard(guard)
                        .checkpoint(CheckpointPolicy::new(
                            Box::new(sink.clone()),
                            CheckpointCadence::EveryLevel,
                        )),
                )
                .unwrap();
            assert!(
                !outcome.result.completion.is_complete(),
                "{algorithm} {strategy:?}: 150 cells must truncate"
            );

            // Reload the durable trip stamp: it validates, names the
            // run's algorithm and database, and carries exactly the
            // sealed partial answers.
            let bytes = sink.bytes().expect("trip stamp committed");
            let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
            ckpt.verify_db(&db).unwrap();
            assert_eq!(ckpt.algorithm(), algorithm, "{strategy:?}");
            assert!(
                matches!(ckpt.status, CheckpointStatus::Tripped { .. }),
                "{algorithm} {strategy:?}"
            );
            assert_eq!(
                sorted(&ckpt.answers),
                sorted(&outcome.result.answers),
                "{algorithm} {strategy:?}: persisted partial answers diverged"
            );

            // The persisted resume snapshot is *equal* to the in-memory
            // one the run returned.
            assert_eq!(
                Some(&ckpt.resume),
                outcome.result.resume.as_ref(),
                "{algorithm} {strategy:?}: resume snapshot did not round-trip"
            );

            // A fresh process resuming from the reloaded checkpoint
            // reproduces the uninterrupted answer set bit for bit.
            let resumed = MiningSession::new(&db, &attrs)
                .resume(
                    &ckpt.query,
                    &MineRequest::default().strategy(strategy),
                    ckpt.resume,
                )
                .unwrap()
                .result;
            assert!(resumed.completion.is_complete(), "{algorithm} {strategy:?}");
            assert_eq!(
                sorted(&resumed.answers),
                complete_answers,
                "{algorithm} {strategy:?}: durable resume diverged"
            );
        }
    }
}

#[test]
fn persisted_resume_matches_in_memory_resume_at_every_injection_point() {
    let db = db();
    let attrs = attrs();
    let q = query();
    for algorithm in ALL_ALGORITHMS {
        let complete_answers = {
            let complete = MiningSession::new(&db, &attrs)
                .mine(&q, &MineRequest::new(algorithm))
                .unwrap()
                .result;
            sorted(&complete.answers)
        };
        for trigger in 0..64 {
            let sink = SharedSink::default();
            let guard = RunGuard::new(GuardLimits::default());
            let mut counter = FaultCounter::new(
                HorizontalCounter::new(&db),
                guard.clone(),
                TruncationReason::WorkBudget,
                trigger,
            );
            let result = mine_on(
                &db,
                &attrs,
                &q,
                &MineRequest::new(algorithm).guard(guard.clone()).checkpoint(
                    CheckpointPolicy::new(Box::new(sink.clone()), CheckpointCadence::EveryLevel),
                ),
                &mut counter,
            )
            .unwrap();
            let Some(state) = result.resume else {
                assert!(result.completion.is_complete());
                assert!(trigger > 0, "{algorithm}: first injection must truncate");
                break;
            };

            // Persist → load: the checkpoint round-trips byte-stably and
            // reproduces the in-memory snapshot exactly.
            let bytes = sink.bytes().expect("trip stamp committed");
            let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
            assert_eq!(
                ckpt.to_bytes(),
                bytes,
                "{algorithm} trigger {trigger}: double-serialize diverged"
            );
            assert_eq!(
                ckpt.resume, state,
                "{algorithm} trigger {trigger}: persisted snapshot diverged"
            );

            // Resuming from the persisted snapshot ≡ resuming from the
            // in-memory one ≡ the uninterrupted run.
            let mut in_memory_counter = HorizontalCounter::new(&db);
            let in_memory = resume_with_counter_guarded(
                &db,
                &attrs,
                &q,
                &mut in_memory_counter,
                &RunGuard::new(GuardLimits::default()),
                state,
            )
            .unwrap();
            let durable = MiningSession::new(&db, &attrs)
                .resume(&ckpt.query, &MineRequest::default(), ckpt.resume)
                .unwrap()
                .result;
            assert_eq!(
                durable.answers, in_memory.answers,
                "{algorithm} trigger {trigger}: durable and in-memory resume disagree"
            );
            assert_eq!(sorted(&durable.answers), complete_answers, "{algorithm}");
        }
    }
}

#[test]
fn golden_future_resume_format_is_format_mismatch() {
    // Pinned fixture: valid magic and file version, resume format 3 (one
    // past the current 2), arbitrary tail. A future build's checkpoint
    // must be refused with a version error, not misread as corruption.
    let bytes = include_bytes!("goldens/future_resume_format.ccs");
    match Checkpoint::from_bytes(bytes) {
        Err(CheckpointError::FormatMismatch {
            found: 3,
            expected: 2,
        }) => {}
        other => panic!("expected FormatMismatch {{ found: 3, expected: 2 }}, got {other:?}"),
    }
}

#[test]
fn golden_future_file_version_is_format_mismatch() {
    // Pinned fixture: file version 3, one past the current 2 (version 2
    // added the measure tag to the QUERY payload).
    let bytes = include_bytes!("goldens/future_file_version.ccs");
    match Checkpoint::from_bytes(bytes) {
        Err(CheckpointError::FormatMismatch {
            found: 3,
            expected: 2,
        }) => {}
        other => panic!("expected FormatMismatch {{ found: 3, expected: 2 }}, got {other:?}"),
    }
}

#[test]
fn golden_garbled_magic_is_corrupt() {
    let bytes = include_bytes!("goldens/garbled_magic.ccs");
    match Checkpoint::from_bytes(bytes) {
        Err(CheckpointError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn checkpoint_refuses_a_foreign_database() {
    let db = db();
    let attrs = attrs();
    let q = query();
    let (bytes, _) = governed_checkpoint_bytes(&db, &attrs, &q);
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();

    // Same item count, different content: only the fingerprint differs.
    let other = TransactionDb::from_ids(8, (0..160u32).map(|i| vec![i % 8]));
    match ckpt.verify_db(&other) {
        Err(CheckpointError::DbMismatch { .. }) => {}
        other => panic!("expected DbMismatch, got {other:?}"),
    }
}

#[test]
fn crafted_snapshot_content_is_corrupt() {
    // Checksums re-sealed and the fingerprint untouched, so only the
    // snapshot's content gives these files away: an item past the
    // 8-item universe (a vertical resume would index its tid-sets out of
    // bounds) or a level below the pairs every sweep starts at (a
    // resumed run that trips would compute level - 1).
    let db = db();
    let attrs = attrs();
    let q = query();
    let (bytes, _) = governed_checkpoint_bytes(&db, &attrs, &q);
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
    ckpt.verify_db(&db).unwrap();
    for (name, patch) in CRAFTED_RESUME_PATCHES {
        let crafted = patch_resume(&bytes, patch);
        assert_ne!(crafted, bytes, "{name}");
        match Checkpoint::from_bytes(&crafted) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(
                    msg.contains("outside the universe") || msg.contains("below 2"),
                    "{name}: {msg}"
                )
            }
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
    }
    // Re-sealing an unpatched payload reproduces the file exactly.
    assert_eq!(patch_resume(&bytes, |_| {}), bytes);
}

#[test]
fn file_sink_survives_a_real_process_boundary() {
    let db = db();
    let attrs = attrs();
    let q = query();
    let dir = std::env::temp_dir().join(format!("ccs-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ccs");

    let complete = MiningSession::new(&db, &attrs)
        .mine(&q, &MineRequest::new(Algorithm::BmsStarStar))
        .unwrap()
        .result;
    let guard = RunGuard::new(GuardLimits {
        work_budget_cells: Some(150),
        ..GuardLimits::default()
    });
    let outcome = MiningSession::new(&db, &attrs)
        .mine(
            &q,
            &MineRequest::new(Algorithm::BmsStarStar)
                .guard(guard)
                .checkpoint(CheckpointPolicy::file(&path, CheckpointCadence::EveryLevel)),
        )
        .unwrap();
    assert!(!outcome.result.completion.is_complete());
    assert!(outcome.checkpoint.unwrap().error.is_none());

    // The atomic commit leaves no temp file behind, only the snapshot.
    assert!(path.exists());
    assert!(!dir.join("run.ccs.tmp").exists());

    // A "new process": nothing shared but the file path.
    let ckpt = read_checkpoint_file(&path).unwrap();
    ckpt.verify_db(&db).unwrap();
    let resumed = MiningSession::new(&db, &attrs)
        .resume(&ckpt.query, &MineRequest::default(), ckpt.resume)
        .unwrap()
        .result;
    assert_eq!(sorted(&resumed.answers), sorted(&complete.answers));

    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Randomized crash points on randomized budgets: whatever run a
    /// (algorithm, budget) pair truncates, the persisted checkpoint
    /// reloads byte-stably and resumes to the uninterrupted answers.
    #[test]
    fn random_truncated_runs_round_trip_through_persistence(
        algo_idx in 0usize..6,
        budget in 40u64..400,
    ) {
        let db = db();
        let attrs = attrs();
        let q = query();
        let algorithm = ALL_ALGORITHMS[algo_idx];
        let sink = SharedSink::default();
        let guard = RunGuard::new(GuardLimits {
            work_budget_cells: Some(budget),
            ..GuardLimits::default()
        });
        let outcome = MiningSession::new(&db, &attrs)
            .mine(
                &q,
                &MineRequest::new(algorithm)
                    .guard(guard)
                    .checkpoint(CheckpointPolicy::new(
                        Box::new(sink.clone()),
                        CheckpointCadence::EveryLevel,
                    )),
            )
            .unwrap();
        if let Some(state) = outcome.result.resume {
            let bytes = sink.bytes().expect("trip stamp committed");
            let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
            prop_assert_eq!(ckpt.to_bytes(), bytes);
            prop_assert_eq!(&ckpt.resume, &state);
            let complete = MiningSession::new(&db, &attrs)
                .mine(&q, &MineRequest::new(algorithm))
                .unwrap()
                .result;
            let resumed = MiningSession::new(&db, &attrs)
                .resume(&ckpt.query, &MineRequest::default(), ckpt.resume)
                .unwrap()
                .result;
            prop_assert_eq!(sorted(&resumed.answers), sorted(&complete.answers));
        }
    }
}

/// An in-memory sink that keeps every commit in order, so a test can
/// resume from any level stamp of a run.
#[derive(Clone, Default)]
struct LogSink {
    commits: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl CheckpointSink for LogSink {
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.commits.lock().unwrap().push(bytes.to_vec());
        Ok(())
    }

    fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.commits.lock().unwrap().last().cloned())
    }
}

#[test]
fn star_star_resumes_count_only_what_their_snapshot_lost() {
    // BMS** phase 2 answers a set that this run's phase 1 counted without
    // a table (a cache hit); a set whose SUPP level was thawed from a
    // snapshot is counted again. A fresh run, a phase-1 resume at level 3
    // and a phase-2 resume at level 3 pin the split: (tables, hits).
    let db = db();
    let attrs = attrs();
    let q = query();
    let sink = LogSink::default();
    let fresh = mine_on(
        &db,
        &attrs,
        &q,
        &MineRequest::new(Algorithm::BmsStarStar)
            .guard(RunGuard::new(GuardLimits::default()))
            .checkpoint(CheckpointPolicy::new(
                Box::new(sink.clone()),
                CheckpointCadence::EveryLevel,
            )),
        &mut HorizontalCounter::new(&db),
    )
    .unwrap();
    assert!(fresh.completion.is_complete());

    // Phase 1 stamps levels 2, 3, …; phase 2 starts over at level 2.
    let stamps: Vec<(usize, ResumeState)> = sink
        .commits
        .lock()
        .unwrap()
        .iter()
        .map(|bytes| {
            let ckpt = Checkpoint::from_bytes(bytes).unwrap();
            let CheckpointStatus::InProgress { level } = ckpt.status else {
                panic!("a complete run writes only level stamps");
            };
            (level, ckpt.resume)
        })
        .collect();
    let phase_2_at = (1..stamps.len())
        .find(|&i| stamps[i].0 <= stamps[i - 1].0)
        .expect("phase 2 stamps its levels");
    let at_level_3 = |stamps: &[(usize, ResumeState)]| {
        stamps
            .iter()
            .find(|(level, _)| *level == 3)
            .expect("a level-3 stamp")
            .1
            .clone()
    };
    let phase_1 = at_level_3(&stamps[..phase_2_at]);
    let phase_2 = at_level_3(&stamps[phase_2_at..]);

    let resume = |state: ResumeState| {
        let mut counter = HorizontalCounter::new(&db);
        let r = resume_on(
            &db,
            &attrs,
            &q,
            &MineRequest::default(),
            &mut counter,
            state,
        )
        .unwrap();
        assert!(r.completion.is_complete());
        assert_eq!(r.answers, fresh.answers);
        assert_eq!(r.metrics.tables_built, counter.stats().tables_built);
        (r.metrics.tables_built, r.metrics.cache_hits)
    };
    let work = |r: &MiningResult| (r.metrics.tables_built, r.metrics.cache_hits);
    // Fresh: phase 1 counts 21 pairs and 70 deeper sets; phase 2
    // revisits 21 + 53 of them, every one a hit.
    assert_eq!(work(&fresh), (91, 74), "fresh run");
    // Phase-1 resume: levels 3 and 4 are counted again (70) and answered
    // in phase 2 (53 hits); the 21 thawed pairs are counted in phase 2.
    assert_eq!(resume(phase_1), (91, 53), "phase-1 resume at level 3");
    // Phase-2 resume: every SUPP level is thawed, so each of the 53
    // phase-2 sets from level 3 on is counted.
    assert_eq!(resume(phase_2), (53, 0), "phase-2 resume at level 3");
}
