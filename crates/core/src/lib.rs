//! # ccs-core — constrained correlated set mining
//!
//! A from-scratch Rust implementation of *Efficient Mining of Constrained
//! Correlated Sets* (Grahne, Lakshmanan & Wang, ICDE 2000): the four
//! constrained variants of the Brin–Motwani–Silverstein correlation miner,
//! the baseline itself, and an exhaustive reference.
//!
//! | Algorithm | Answer set | Constraint pushing |
//! |-----------|------------|--------------------|
//! | [`bms`] (baseline) | minimal correlated + CT-supported | — |
//! | [`bms_plus`] | `VALID_MIN` | none (post-filter) |
//! | [`bms_plus_plus`] | `VALID_MIN` | full (§3.1) |
//! | [`bms_star`] | `MIN_VALID` | none (BMS + upward sweep) |
//! | [`bms_star_star`] | `MIN_VALID` | full (§3.2) |
//! | [`naive`] | either | exhaustive ground truth |
//!
//! Start from [`MiningSession`]: build a [`MineRequest`] naming an
//! algorithm (plus counting strategy, resource guard and checkpoint
//! policy, if you need them) and get a [`MineOutcome`] back; [`mine_on`]
//! and [`resume_on`] run one request on a counter you own. These are the
//! only way to run the four constrained algorithms and the naive
//! reference. Every query first passes
//! one preamble: parameter validation, static constraint analysis (a
//! provably unsatisfiable query is answered empty without counting), and
//! normalization. All algorithms then run on one level-wise kernel
//! (`kernel`), differing only in their policy. Beside them,
//! [`solution_space`] computes both borders of the solution space — the
//! complete characterization §5 of the paper calls for — and
//! [`discover_causality`] applies the causal rules of §6; both take the
//! same preamble. [`run_bms`] runs the unconstrained baseline on bare
//! parameters.

#![warn(missing_docs)]

pub mod bms;
pub mod bms_plus;
pub mod bms_plus_plus;
pub mod bms_star;
pub mod bms_star_star;
pub mod border;
pub mod causality;
mod engine;
pub mod guard;
mod kernel;
pub mod metrics;
pub mod miner;
pub mod naive;
pub mod params;
pub mod persist;
mod prep;
pub mod query;
pub mod session;

pub use bms::{run_bms, BmsOutput};
pub use border::{solution_space, SolutionSpace};
pub use causality::{discover_causality, CausalAnalysis, CausalFinding};
pub use guard::{Completion, GuardLimits, ResumeState, RunGuard, TruncationReason};
pub use metrics::MiningMetrics;
pub use miner::{Algorithm, CountingStrategy};
pub use naive::NAIVE_MAX_ITEMS;
pub use params::{MiningParams, ParamError};
pub use persist::{
    fingerprint_db, read_checkpoint_file, Checkpoint, CheckpointCadence, CheckpointError,
    CheckpointPolicy, CheckpointReport, CheckpointSink, CheckpointStatus, DbFingerprint, FileSink,
    MemorySink,
};
pub use query::{CorrelationQuery, MiningError, MiningResult, Semantics};
pub use session::{mine_on, resume_on, MineOutcome, MineRequest, MiningSession};
