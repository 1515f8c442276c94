//! Crash-safe persistence for governed mining runs.
//!
//! PR 2/PR 5 gave every guarded run an exact in-memory [`ResumeState`]
//! at each level boundary; this module makes those snapshots **durable**.
//! A checkpoint file carries everything a fresh process needs to continue
//! an interrupted sweep: the resume snapshot itself, the original query
//! (parameters + constraint AST), a fingerprint of the database the run
//! was mining, the metrics accumulated so far, and the answers already
//! known at the stamp.
//!
//! ## File format (version 2)
//!
//! All integers are little-endian; `f64` is stored as its IEEE-754 bit
//! pattern, so parameters round-trip exactly. Version 2 prepends a
//! one-byte correlation-measure tag to the QUERY section; version 1
//! files (written before the measure layer existed) are still read, and
//! decode as the paper's χ² measure.
//!
//! | offset | bytes | field |
//! |--------|-------|-------|
//! | 0      | 8     | magic `"CCSCKPT\n"` |
//! | 8      | 2     | file format version ([`CHECKPOINT_FILE_VERSION`]) |
//! | 10     | 2     | resume format generation ([`RESUME_FORMAT`]) |
//! | 12     | 4     | section count |
//! | 16     | …     | sections |
//! | end−4  | 4     | CRC32 of every preceding byte |
//!
//! Each section is self-describing — `u16` tag, `u16` reserved, `u64`
//! payload length, payload, `u32` CRC32 of the payload — so a reader can
//! skip tags it does not know (within a format generation) and corruption
//! is localized to a section. The trailing whole-file CRC32 makes every
//! torn prefix detectable: truncating the file at *any* byte boundary
//! fails the load with [`CheckpointError::Corrupt`], never a panic and
//! never a silently wrong resume.
//!
//! ## Atomicity
//!
//! [`FileSink`] commits a snapshot by writing to a sibling temporary
//! file, `fsync`ing it, and atomically renaming it over the destination
//! (then syncing the directory). A crash at any point leaves either the
//! previous complete snapshot or the new complete snapshot on disk —
//! never a torn hybrid. The fault-injection suite (`tests/durability.rs`)
//! drives short writes, `ENOSPC`, fsync failures, and kill-after-K-bytes
//! truncation through the [`CheckpointSink`] seam to prove it.
//!
//! ## Corruption handling
//!
//! Loading validates, in order: the magic header, the file and resume
//! format tags, the whole-file checksum, each section checksum, and
//! finally the payload grammar. Every failure maps to a typed
//! [`CheckpointError`]; a corrupt or version-skewed checkpoint is a
//! recoverable condition ("restart from scratch with a warning"), not a
//! panic.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ccs_constraints::{AggFn, Cmp, Constraint, ConstraintSet};
use ccs_itemset::{Itemset, TransactionDb};
use ccs_stats::Measure;
use thiserror::Error;

use crate::guard::{BmsSnapshot, Completion};
use crate::guard::{ResumeInner, ResumeState, TruncationReason, RESUME_FORMAT};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::params::MiningParams;
use crate::query::{CorrelationQuery, MiningResult};

/// The eight magic bytes every checkpoint file starts with.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CCSCKPT\n";

/// The on-disk container version this build writes. Bumped only when
/// the header/section layout itself changes; snapshot *content*
/// evolution is tracked by [`RESUME_FORMAT`]. Version 2 added the
/// correlation-measure tag to the QUERY section.
pub const CHECKPOINT_FILE_VERSION: u16 = 2;

/// The oldest container version this build still reads. Version 1
/// predates the measure layer; its queries decode as χ².
pub const CHECKPOINT_MIN_FILE_VERSION: u16 = 1;

const TAG_META: u16 = 1;
const TAG_QUERY: u16 = 2;
const TAG_DBFP: u16 = 3;
const TAG_METRICS: u16 = 4;
const TAG_ANSWERS: u16 = 5;
const TAG_RESUME: u16 = 6;

/// Why a checkpoint could not be written or read back.
///
/// Deliberately *not* `Clone`/`PartialEq` (it carries an
/// [`std::io::Error`]); match on the variant instead.
#[derive(Debug, Error)]
pub enum CheckpointError {
    /// The bytes are not a complete, checksum-valid checkpoint: garbled
    /// magic, a torn prefix, a failed CRC, or an ill-formed section
    /// payload. The message pinpoints the first violation.
    #[error("corrupt checkpoint: {0}")]
    Corrupt(String),
    /// The checkpoint was stamped by a different format generation
    /// (container or resume format); its content cannot be interpreted
    /// safely, so the run must be restarted instead of resumed.
    #[error("checkpoint format {found} is not the {expected} this build reads; restart the run instead of resuming")]
    FormatMismatch {
        /// The tag found in the file.
        found: u16,
        /// The tag this build stamps and accepts.
        expected: u16,
    },
    /// The checkpoint was taken against a different database (size or
    /// content fingerprint differs); resuming would silently mine the
    /// wrong data.
    #[error("checkpoint does not match this database: {field} is {actual} here but was {stored} at stamp time; resume against the original database")]
    DbMismatch {
        /// Which fingerprint component disagreed.
        field: &'static str,
        /// The value recorded in the checkpoint.
        stored: u64,
        /// The value computed from the present database.
        actual: u64,
    },
    /// The underlying I/O failed (write, fsync, rename, or read).
    #[error("checkpoint I/O failed while {context}: {source}")]
    Io {
        /// What the sink was doing when the operation failed.
        context: String,
        /// The operating-system error.
        #[source]
        source: io::Error,
    },
}

impl CheckpointError {
    fn corrupt(msg: impl Into<String>) -> CheckpointError {
        CheckpointError::Corrupt(msg.into())
    }

    fn io(context: impl Into<String>, source: io::Error) -> CheckpointError {
        CheckpointError::Io {
            context: context.into(),
            source,
        }
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // ccs-lint: allow(no-panic-in-io-paths, reason = "const-evaluated table build; i < 256 by the loop bound")
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC32 checksum (IEEE) used for both the per-section and the
/// whole-file integrity checks.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        // ccs-lint: allow(no-panic-in-io-paths, reason = "index is masked to 0xFF and the table has 256 entries")
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Database fingerprint
// ---------------------------------------------------------------------

/// A cheap identity check for "is this the database the checkpoint was
/// stamped against": the shape (transaction count, item-universe size)
/// plus an FNV-1a hash of the full transaction content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbFingerprint {
    /// Number of transactions.
    pub n_transactions: u64,
    /// Size of the item universe.
    pub n_items: u32,
    /// FNV-1a 64-bit hash over every transaction's item ids, in order.
    pub content_hash: u64,
}

/// Computes the [`DbFingerprint`] of `db`. The content hash is computed
/// once per database ([`TransactionDb::content_hash`]) and read back by
/// every later save, load and verify against the same database.
pub fn fingerprint_db(db: &TransactionDb) -> DbFingerprint {
    DbFingerprint {
        n_transactions: db.len() as u64,
        n_items: db.n_items(),
        content_hash: db.content_hash(),
    }
}

// ---------------------------------------------------------------------
// Checkpoint value
// ---------------------------------------------------------------------

/// Where the run stood when the checkpoint was stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointStatus {
    /// A mid-run stamp at a level boundary: the run was still going, and
    /// `level` is the one about to be evaluated. The embedded metrics
    /// cover the work up to that boundary (counting-layer totals are
    /// folded in at run end, so mid-run stamps may under-report them),
    /// and the answer section is empty — answers are recomputed exactly
    /// on resume.
    InProgress {
        /// The lattice level the interrupted sweep would evaluate next.
        level: usize,
    },
    /// The final stamp of a truncated run: the guard tripped, the run
    /// sealed a sound partial answer set, and this checkpoint is its
    /// durable continuation.
    Tripped {
        /// Why the run stopped.
        reason: TruncationReason,
        /// The deepest fully-completed lattice level.
        frontier_level: usize,
        /// Contingency tables built before stopping.
        sets_evaluated: u64,
    },
}

/// One durable snapshot of a governed mining run: everything a fresh
/// process needs to validate, report on, and continue the interrupted
/// sweep. Serialize with [`Checkpoint::to_bytes`]; parse and validate
/// with [`Checkpoint::from_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The *original* (pre-normalization) query, so a resumed run passes
    /// through exactly the same admission and analysis pipeline.
    pub query: CorrelationQuery,
    /// Fingerprint of the database the run was mining.
    pub fingerprint: DbFingerprint,
    /// Metrics accumulated up to the stamp.
    pub metrics: MiningMetrics,
    /// Answers known at the stamp: empty for mid-run stamps (they are
    /// recomputed exactly on resume), the sealed sound partial answer
    /// set for trip stamps.
    pub answers: Vec<Itemset>,
    /// Where the run stood.
    pub status: CheckpointStatus,
    /// The snapshot to re-enter the sweep from.
    pub resume: ResumeState,
}

impl Checkpoint {
    /// The algorithm that was running (pinned by the resume snapshot).
    pub fn algorithm(&self) -> Algorithm {
        self.resume.algorithm()
    }

    /// Serializes the checkpoint. Deterministic: the same checkpoint
    /// always produces identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_FILE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.resume.format().to_le_bytes());
        out.extend_from_slice(&6u32.to_le_bytes());
        push_section(&mut out, TAG_META, &encode_meta(self));
        push_section(&mut out, TAG_QUERY, &encode_query(&self.query));
        push_section(&mut out, TAG_DBFP, &encode_fingerprint(&self.fingerprint));
        push_section(&mut out, TAG_METRICS, &encode_metrics(&self.metrics));
        push_section(&mut out, TAG_ANSWERS, &encode_itemsets(&self.answers));
        push_section(&mut out, TAG_RESUME, &encode_resume(&self.resume.inner));
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }

    /// Parses and validates a checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] on a garbled magic header, torn
    /// prefix, checksum failure, or ill-formed payload;
    /// [`CheckpointError::FormatMismatch`] when the file or resume
    /// format tag belongs to a different build generation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() {
            return Err(CheckpointError::corrupt(format!(
                "{} bytes is shorter than the magic header",
                bytes.len()
            )));
        }
        if !bytes.starts_with(&CHECKPOINT_MAGIC) {
            return Err(CheckpointError::corrupt("bad magic header"));
        }
        if bytes.len() < 16 {
            return Err(CheckpointError::corrupt("truncated header"));
        }
        // ccs-lint: allow(no-panic-in-io-paths, reason = "len >= 16 checked above; fault-injection tests cover truncation")
        let file_version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if !(CHECKPOINT_MIN_FILE_VERSION..=CHECKPOINT_FILE_VERSION).contains(&file_version) {
            return Err(CheckpointError::FormatMismatch {
                found: file_version,
                expected: CHECKPOINT_FILE_VERSION,
            });
        }
        // ccs-lint: allow(no-panic-in-io-paths, reason = "len >= 16 checked above; fault-injection tests cover truncation")
        let resume_format = u16::from_le_bytes([bytes[10], bytes[11]]);
        if resume_format != RESUME_FORMAT {
            return Err(CheckpointError::FormatMismatch {
                found: resume_format,
                expected: RESUME_FORMAT,
            });
        }
        // Whole-file checksum: catches every torn prefix and any byte
        // flip anywhere, before section parsing trusts a single length.
        if bytes.len() < 20 {
            return Err(CheckpointError::corrupt("truncated before trailer"));
        }
        // ccs-lint: allow(no-panic-in-io-paths, reason = "len >= 20 checked above; the trailer is present")
        let body = &bytes[..bytes.len() - 4];
        let stored = read_u32_at(bytes, bytes.len() - 4);
        let actual = crc32(body);
        if stored != actual {
            return Err(CheckpointError::corrupt(format!(
                "file checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        let n_sections = read_u32_at(bytes, 12) as usize;
        // ccs-lint: allow(no-panic-in-io-paths, reason = "len >= 20 checked above, so body holds the 16-byte header")
        let mut dec = Dec::new(&body[16..]);
        let mut meta = None;
        let mut query = None;
        let mut fingerprint = None;
        let mut metrics = None;
        let mut answers = None;
        let mut resume = None;
        for _ in 0..n_sections {
            let tag = dec.u16()?;
            let _reserved = dec.u16()?;
            let len = dec.len_prefixed()?;
            let payload = dec.bytes(len)?;
            let section_crc = dec.u32()?;
            let computed = crc32(payload);
            if section_crc != computed {
                return Err(CheckpointError::corrupt(format!(
                    "section {tag} checksum mismatch"
                )));
            }
            let mut p = Dec::new(payload);
            match tag {
                TAG_META => set_once(&mut meta, decode_meta(&mut p)?, "META")?,
                TAG_QUERY => set_once(&mut query, decode_query(&mut p, file_version)?, "QUERY")?,
                TAG_DBFP => set_once(&mut fingerprint, decode_fingerprint(&mut p)?, "DBFP")?,
                TAG_METRICS => set_once(&mut metrics, decode_metrics(&mut p)?, "METRICS")?,
                TAG_ANSWERS => set_once(&mut answers, decode_itemsets(&mut p)?, "ANSWERS")?,
                TAG_RESUME => set_once(&mut resume, decode_resume(&mut p)?, "RESUME")?,
                // Unknown sections from a same-generation writer with
                // extra data: checksum-verified above, then skipped.
                _ => continue,
            }
            p.finish(tag)?;
        }
        if !dec.is_empty() {
            return Err(CheckpointError::corrupt(
                "trailing bytes after the last section",
            ));
        }
        let (algorithm, status) = section(meta, "META")?;
        let inner = section(resume, "RESUME")?;
        Ok(Checkpoint {
            query: section(query, "QUERY")?,
            fingerprint: section(fingerprint, "DBFP")?,
            metrics: section(metrics, "METRICS")?,
            answers: section(answers, "ANSWERS")?,
            status,
            resume: ResumeState {
                format: resume_format,
                algorithm,
                inner,
            },
        })
    }

    /// Checks that `db` is the database this checkpoint was stamped
    /// against.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::DbMismatch`] naming the first fingerprint
    /// component that disagrees.
    pub fn verify_db(&self, db: &TransactionDb) -> Result<(), CheckpointError> {
        let actual = fingerprint_db(db);
        let stored = self.fingerprint;
        if stored.n_transactions != actual.n_transactions {
            return Err(CheckpointError::DbMismatch {
                field: "transaction count",
                stored: stored.n_transactions,
                actual: actual.n_transactions,
            });
        }
        if stored.n_items != actual.n_items {
            return Err(CheckpointError::DbMismatch {
                field: "item universe size",
                stored: stored.n_items as u64,
                actual: actual.n_items as u64,
            });
        }
        if stored.content_hash != actual.content_hash {
            return Err(CheckpointError::DbMismatch {
                field: "content hash",
                stored: stored.content_hash,
                actual: actual.content_hash,
            });
        }
        Ok(())
    }
}

fn set_once<T>(slot: &mut Option<T>, value: T, name: &str) -> Result<(), CheckpointError> {
    if slot.is_some() {
        return Err(CheckpointError::corrupt(format!(
            "duplicate {name} section"
        )));
    }
    *slot = Some(value);
    Ok(())
}

fn section<T>(slot: Option<T>, name: &str) -> Result<T, CheckpointError> {
    slot.ok_or_else(|| CheckpointError::corrupt(format!("missing {name} section")))
}

fn read_u32_at(bytes: &[u8], at: usize) -> u32 {
    // ccs-lint: allow(no-panic-in-io-paths, reason = "both callers sit behind from_bytes's header length checks")
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn push_section(out: &mut Vec<u8>, tag: u16, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

// ---------------------------------------------------------------------
// Payload encoding / decoding
// ---------------------------------------------------------------------

/// Bounded little-endian reader over one payload; every primitive is
/// range-checked, so an ill-formed payload is a typed `Corrupt` error,
/// never a panic or a huge allocation.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn finish(&self, tag: u16) -> Result<(), CheckpointError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::corrupt(format!(
                "section {tag} has trailing bytes"
            )))
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CheckpointError::corrupt("payload overruns its section"))?;
        // ccs-lint: allow(no-panic-in-io-paths, reason = "end is checked_add-validated against len on the lines above")
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// A fixed-size prefix of the remaining payload, as an array. The
    /// `try_into` can only fail if `bytes(N)` returned the wrong length,
    /// which it never does — but failing as `Corrupt` keeps this path
    /// panic-free without trusting that argument.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| CheckpointError::corrupt("internal length mismatch"))
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CheckpointError::corrupt("value exceeds this platform's usize"))
    }

    /// A `u64` length that must still fit in the remaining bytes (each
    /// counted element is at least one byte), bounding allocations.
    fn len_prefixed(&mut self) -> Result<usize, CheckpointError> {
        let len = self.usize()?;
        if len > self.bytes.len() - self.pos {
            return Err(CheckpointError::corrupt(
                "length prefix exceeds the remaining payload",
            ));
        }
        Ok(len)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CheckpointError::corrupt("string is not valid UTF-8"))
    }

    fn u32_set(&mut self) -> Result<std::collections::BTreeSet<u32>, CheckpointError> {
        let n = self.u32()? as usize;
        let mut set = std::collections::BTreeSet::new();
        for _ in 0..n {
            set.insert(self.u32()?);
        }
        Ok(set)
    }

    fn itemset(&mut self) -> Result<Itemset, CheckpointError> {
        let n = self.u32()? as usize;
        if n * 4 > self.bytes.len() - self.pos {
            return Err(CheckpointError::corrupt("itemset overruns its section"));
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(self.u32()?);
        }
        Ok(Itemset::from_ids(ids))
    }

    fn itemsets(&mut self) -> Result<Vec<Itemset>, CheckpointError> {
        let n = self.len_prefixed()?;
        let mut sets = Vec::with_capacity(n);
        for _ in 0..n {
            sets.push(self.itemset()?);
        }
        Ok(sets)
    }

    fn levels(&mut self) -> Result<Vec<(usize, Vec<Itemset>)>, CheckpointError> {
        let n = self.len_prefixed()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = self.usize()?;
            out.push((k, self.itemsets()?));
        }
        Ok(out)
    }
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn u32_set(&mut self, set: &std::collections::BTreeSet<u32>) {
        self.u32(set.len() as u32);
        for &v in set {
            self.u32(v);
        }
    }

    fn itemset(&mut self, set: &Itemset) {
        self.u32(set.len() as u32);
        for item in set.iter() {
            self.u32(item.id());
        }
    }

    fn itemsets(&mut self, sets: &[Itemset]) {
        self.usize(sets.len());
        for s in sets {
            self.itemset(s);
        }
    }

    fn levels(&mut self, levels: &[(usize, Vec<Itemset>)]) {
        self.usize(levels.len());
        for (k, sets) in levels {
            self.usize(*k);
            self.itemsets(sets);
        }
    }
}

fn algorithm_code(a: Algorithm) -> u8 {
    match a {
        Algorithm::BmsPlus => 0,
        Algorithm::BmsPlusPlus => 1,
        Algorithm::BmsStar => 2,
        Algorithm::BmsStarStar => 3,
        Algorithm::Naive => 4,
        Algorithm::NaiveMinValid => 5,
    }
}

fn code_algorithm(code: u8) -> Result<Algorithm, CheckpointError> {
    Ok(match code {
        0 => Algorithm::BmsPlus,
        1 => Algorithm::BmsPlusPlus,
        2 => Algorithm::BmsStar,
        3 => Algorithm::BmsStarStar,
        4 => Algorithm::Naive,
        5 => Algorithm::NaiveMinValid,
        other => {
            return Err(CheckpointError::corrupt(format!(
                "unknown algorithm code {other}"
            )))
        }
    })
}

fn code_reason(code: u8) -> Result<TruncationReason, CheckpointError> {
    TruncationReason::from_code(code)
        .ok_or_else(|| CheckpointError::corrupt(format!("unknown truncation reason code {code}")))
}

fn encode_meta(ckpt: &Checkpoint) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(algorithm_code(ckpt.algorithm()));
    match ckpt.status {
        CheckpointStatus::InProgress { level } => {
            e.u8(0);
            e.usize(level);
        }
        CheckpointStatus::Tripped {
            reason,
            frontier_level,
            sets_evaluated,
        } => {
            e.u8(1);
            e.u8(reason.code());
            e.usize(frontier_level);
            e.u64(sets_evaluated);
        }
    }
    e.buf
}

fn decode_meta(d: &mut Dec<'_>) -> Result<(Algorithm, CheckpointStatus), CheckpointError> {
    let algorithm = code_algorithm(d.u8()?)?;
    let status = match d.u8()? {
        0 => CheckpointStatus::InProgress { level: d.usize()? },
        1 => CheckpointStatus::Tripped {
            reason: code_reason(d.u8()?)?,
            frontier_level: d.usize()?,
            sets_evaluated: d.u64()?,
        },
        other => {
            return Err(CheckpointError::corrupt(format!(
                "unknown checkpoint status code {other}"
            )))
        }
    };
    Ok((algorithm, status))
}

fn encode_query(query: &CorrelationQuery) -> Vec<u8> {
    let mut e = Enc::new();
    let p = &query.params;
    e.u8(p.measure.tag());
    e.f64(p.confidence);
    e.f64(p.support_fraction);
    e.f64(p.ct_fraction);
    e.f64(p.min_item_support);
    e.usize(p.max_level);
    let constraints = query.constraints.constraints();
    e.u32(constraints.len() as u32);
    for c in constraints {
        encode_constraint(&mut e, c);
    }
    e.buf
}

fn decode_query(d: &mut Dec<'_>, file_version: u16) -> Result<CorrelationQuery, CheckpointError> {
    // Version 1 predates the measure layer: every v1 run was χ².
    let measure = if file_version >= 2 {
        let tag = d.u8()?;
        Measure::from_tag(tag)
            .ok_or_else(|| CheckpointError::corrupt(format!("unknown measure tag {tag}")))?
    } else {
        Measure::Chi2
    };
    let params = MiningParams {
        measure,
        confidence: d.f64()?,
        support_fraction: d.f64()?,
        ct_fraction: d.f64()?,
        min_item_support: d.f64()?,
        max_level: d.usize()?,
    };
    let n = d.u32()? as usize;
    let mut constraints = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        constraints.push(decode_constraint(d)?);
    }
    Ok(CorrelationQuery {
        params,
        constraints: ConstraintSet::from_vec(constraints),
    })
}

fn agg_code(agg: AggFn) -> u8 {
    match agg {
        AggFn::Min => 0,
        AggFn::Max => 1,
        AggFn::Sum => 2,
        AggFn::Count => 3,
    }
}

fn code_agg(code: u8) -> Result<AggFn, CheckpointError> {
    Ok(match code {
        0 => AggFn::Min,
        1 => AggFn::Max,
        2 => AggFn::Sum,
        3 => AggFn::Count,
        other => {
            return Err(CheckpointError::corrupt(format!(
                "unknown aggregate code {other}"
            )))
        }
    })
}

fn cmp_code(cmp: Cmp) -> u8 {
    match cmp {
        Cmp::Le => 0,
        Cmp::Ge => 1,
    }
}

fn code_cmp(code: u8) -> Result<Cmp, CheckpointError> {
    Ok(match code {
        0 => Cmp::Le,
        1 => Cmp::Ge,
        other => {
            return Err(CheckpointError::corrupt(format!(
                "unknown comparison code {other}"
            )))
        }
    })
}

fn encode_constraint(e: &mut Enc, c: &Constraint) {
    match c {
        Constraint::Agg {
            agg,
            attr,
            cmp,
            value,
        } => {
            e.u8(0);
            e.u8(agg_code(*agg));
            e.string(attr);
            e.u8(cmp_code(*cmp));
            e.f64(*value);
        }
        Constraint::ConstSubset {
            attr,
            categories,
            negated,
        } => {
            e.u8(1);
            e.string(attr);
            e.u32_set(categories);
            e.u8(*negated as u8);
        }
        Constraint::Disjoint {
            attr,
            categories,
            negated,
        } => {
            e.u8(2);
            e.string(attr);
            e.u32_set(categories);
            e.u8(*negated as u8);
        }
        Constraint::CountDistinct { attr, cmp, value } => {
            e.u8(3);
            e.string(attr);
            e.u8(cmp_code(*cmp));
            e.u64(*value);
        }
        Constraint::Avg { attr, cmp, value } => {
            e.u8(4);
            e.string(attr);
            e.u8(cmp_code(*cmp));
            e.f64(*value);
        }
        Constraint::ItemSubset { items, negated } => {
            e.u8(5);
            e.u32_set(items);
            e.u8(*negated as u8);
        }
        Constraint::ItemDisjoint { items, negated } => {
            e.u8(6);
            e.u32_set(items);
            e.u8(*negated as u8);
        }
    }
}

fn decode_bool(d: &mut Dec<'_>) -> Result<bool, CheckpointError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(CheckpointError::corrupt(format!(
            "invalid boolean byte {other}"
        ))),
    }
}

fn decode_constraint(d: &mut Dec<'_>) -> Result<Constraint, CheckpointError> {
    Ok(match d.u8()? {
        0 => Constraint::Agg {
            agg: code_agg(d.u8()?)?,
            attr: d.string()?,
            cmp: code_cmp(d.u8()?)?,
            value: d.f64()?,
        },
        1 => Constraint::ConstSubset {
            attr: d.string()?,
            categories: d.u32_set()?,
            negated: decode_bool(d)?,
        },
        2 => Constraint::Disjoint {
            attr: d.string()?,
            categories: d.u32_set()?,
            negated: decode_bool(d)?,
        },
        3 => Constraint::CountDistinct {
            attr: d.string()?,
            cmp: code_cmp(d.u8()?)?,
            value: d.u64()?,
        },
        4 => Constraint::Avg {
            attr: d.string()?,
            cmp: code_cmp(d.u8()?)?,
            value: d.f64()?,
        },
        5 => Constraint::ItemSubset {
            items: d.u32_set()?,
            negated: decode_bool(d)?,
        },
        6 => Constraint::ItemDisjoint {
            items: d.u32_set()?,
            negated: decode_bool(d)?,
        },
        other => {
            return Err(CheckpointError::corrupt(format!(
                "unknown constraint code {other}"
            )))
        }
    })
}

fn encode_fingerprint(fp: &DbFingerprint) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(fp.n_transactions);
    e.u32(fp.n_items);
    e.u64(fp.content_hash);
    e.buf
}

fn decode_fingerprint(d: &mut Dec<'_>) -> Result<DbFingerprint, CheckpointError> {
    Ok(DbFingerprint {
        n_transactions: d.u64()?,
        n_items: d.u32()?,
        content_hash: d.u64()?,
    })
}

fn encode_metrics(m: &MiningMetrics) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(m.candidates_generated);
    e.u64(m.tables_built);
    e.u64(m.pruned_before_count);
    e.u64(m.db_scans);
    e.u64(m.transactions_visited);
    e.u64(m.cells_counted);
    e.u64(m.cache_hits);
    e.u64(m.degraded_batches);
    e.usize(m.max_level_reached);
    e.u64(m.sig_size);
    e.u64(m.notsig_size);
    e.u64(m.elapsed.as_secs());
    e.u32(m.elapsed.subsec_nanos());
    e.buf
}

fn decode_metrics(d: &mut Dec<'_>) -> Result<MiningMetrics, CheckpointError> {
    Ok(MiningMetrics {
        candidates_generated: d.u64()?,
        tables_built: d.u64()?,
        pruned_before_count: d.u64()?,
        db_scans: d.u64()?,
        transactions_visited: d.u64()?,
        cells_counted: d.u64()?,
        cache_hits: d.u64()?,
        degraded_batches: d.u64()?,
        max_level_reached: d.usize()?,
        sig_size: d.u64()?,
        notsig_size: d.u64()?,
        elapsed: std::time::Duration::new(d.u64()?, {
            let nanos = d.u32()?;
            if nanos >= 1_000_000_000 {
                return Err(CheckpointError::corrupt("elapsed nanoseconds out of range"));
            }
            nanos
        }),
    })
}

fn encode_itemsets(sets: &[Itemset]) -> Vec<u8> {
    let mut e = Enc::new();
    e.itemsets(sets);
    e.buf
}

fn decode_itemsets(d: &mut Dec<'_>) -> Result<Vec<Itemset>, CheckpointError> {
    d.itemsets()
}

fn encode_bms_snapshot(e: &mut Enc, s: &BmsSnapshot) {
    e.usize(s.level);
    e.itemsets(&s.cands);
    e.itemsets(&s.sig);
    e.itemsets(&s.notsig);
}

fn decode_bms_snapshot(d: &mut Dec<'_>) -> Result<BmsSnapshot, CheckpointError> {
    Ok(BmsSnapshot {
        level: d.usize()?,
        cands: d.itemsets()?,
        sig: d.itemsets()?,
        notsig: d.itemsets()?,
    })
}

fn encode_resume(inner: &ResumeInner) -> Vec<u8> {
    let mut e = Enc::new();
    match inner {
        ResumeInner::Bms(s) => {
            e.u8(0);
            encode_bms_snapshot(&mut e, s);
        }
        ResumeInner::PlusPlus {
            level,
            cands,
            sig_candidates,
        } => {
            e.u8(1);
            e.usize(*level);
            e.itemsets(cands);
            e.itemsets(sig_candidates);
        }
        ResumeInner::StarPhase1(s) => {
            e.u8(2);
            encode_bms_snapshot(&mut e, s);
        }
        ResumeInner::StarPhase2 { k, sig, frontier } => {
            e.u8(3);
            e.usize(*k);
            e.itemsets(sig);
            e.levels(frontier);
            // The slot of the retired `seen` list, kept so the layout
            // (and `RESUME_FORMAT`) does not change.
            e.itemsets(&[]);
        }
        ResumeInner::StarStarPhase1 { level, cands, supp } => {
            e.u8(4);
            e.usize(*level);
            e.itemsets(cands);
            e.levels(supp);
        }
        ResumeInner::StarStarPhase2 {
            k,
            current,
            sig,
            supp,
        } => {
            e.u8(5);
            e.usize(*k);
            e.itemsets(current);
            e.itemsets(sig);
            e.levels(supp);
        }
        ResumeInner::NaiveRestart => e.u8(6),
    }
    e.buf
}

fn decode_resume(d: &mut Dec<'_>) -> Result<ResumeInner, CheckpointError> {
    Ok(match d.u8()? {
        0 => ResumeInner::Bms(decode_bms_snapshot(d)?),
        1 => ResumeInner::PlusPlus {
            level: d.usize()?,
            cands: d.itemsets()?,
            sig_candidates: d.itemsets()?,
        },
        2 => ResumeInner::StarPhase1(decode_bms_snapshot(d)?),
        3 => {
            let state = ResumeInner::StarPhase2 {
                k: d.usize()?,
                sig: d.itemsets()?,
                frontier: d.levels()?,
            };
            // Older writers stored a `seen` list here. Phase 2 never
            // needed it, so it is read for well-formedness and dropped.
            d.itemsets()?;
            state
        }
        4 => ResumeInner::StarStarPhase1 {
            level: d.usize()?,
            cands: d.itemsets()?,
            supp: d.levels()?,
        },
        5 => ResumeInner::StarStarPhase2 {
            k: d.usize()?,
            current: d.itemsets()?,
            sig: d.itemsets()?,
            supp: d.levels()?,
        },
        6 => ResumeInner::NaiveRestart,
        other => {
            return Err(CheckpointError::corrupt(format!(
                "unknown resume snapshot code {other}"
            )))
        }
    })
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Where committed checkpoint bytes go. The seam the fault-injection
/// suite plugs into: production uses [`FileSink`]; tests wrap it (or
/// replace it) with sinks that inject short writes, `ENOSPC`, fsync
/// failures, and torn-write truncation.
///
/// A `commit` must be **atomic**: after it returns (success *or*
/// failure), a subsequent [`CheckpointSink::load`] observes either the
/// previous complete snapshot or the new complete snapshot, never a torn
/// hybrid.
pub trait CheckpointSink: Send {
    /// Durably replaces the current snapshot with `bytes`.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the previous snapshot must survive it.
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Reads back the current snapshot, or `None` if nothing has been
    /// committed yet.
    ///
    /// # Errors
    ///
    /// Any I/O failure other than the snapshot not existing.
    fn load(&mut self) -> io::Result<Option<Vec<u8>>>;
}

/// The production sink: write-to-temp + fsync + atomic rename (+
/// directory sync), so the destination path always holds a complete
/// snapshot.
#[derive(Debug, Clone)]
pub struct FileSink {
    path: PathBuf,
}

impl FileSink {
    /// A sink committing to `path` (conventionally `*.ccs`); the sibling
    /// temporary file is `path` + `.tmp`.
    pub fn new(path: impl Into<PathBuf>) -> FileSink {
        FileSink { path: path.into() }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn tmp_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    }
}

impl CheckpointSink for FileSink {
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.tmp_path();
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable. Failure to sync the directory
        // is not a torn state (the rename was atomic), so best-effort.
        #[cfg(unix)]
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// An in-memory sink for tests and embedders: `commit` replaces the
/// stored snapshot wholesale (atomic by construction).
#[derive(Debug, Default)]
pub struct MemorySink {
    snapshot: Option<Vec<u8>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The current snapshot, if one has been committed.
    pub fn snapshot(&self) -> Option<&[u8]> {
        self.snapshot.as_deref()
    }
}

impl CheckpointSink for MemorySink {
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.snapshot.clone())
    }
}

/// Reads and validates the checkpoint file at `path`.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the file cannot be read (including when
/// it does not exist), plus every [`Checkpoint::from_bytes`] validation
/// error.
pub fn read_checkpoint_file(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    let path = path.as_ref();
    let bytes = fs::read(path)
        .map_err(|e| CheckpointError::io(format!("reading {}", path.display()), e))?;
    Checkpoint::from_bytes(&bytes)
}

// ---------------------------------------------------------------------
// Checkpoint policy and recorder
// ---------------------------------------------------------------------

/// When a governed run stamps durable checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCadence {
    /// At every level boundary where the kernel takes a resume snapshot.
    EveryLevel,
    /// At every `n`-th level boundary (1 behaves like
    /// [`CheckpointCadence::EveryLevel`]; 0 is treated as 1).
    EveryLevels(usize),
    /// Only the final stamp of a truncated run (cheapest; a hard crash
    /// before the trip leaves no checkpoint).
    OnTrip,
}

impl CheckpointCadence {
    fn stamps_level(self, stamp_index: u64) -> bool {
        match self {
            CheckpointCadence::EveryLevel => true,
            CheckpointCadence::EveryLevels(n) => stamp_index.is_multiple_of(n.max(1) as u64),
            CheckpointCadence::OnTrip => false,
        }
    }
}

/// Durability configuration for a [`crate::MineRequest`]: where
/// checkpoints go and how often they are stamped. Whatever the cadence,
/// a guard trip always stamps a final checkpoint — the durable
/// continuation behind `ccs resume`.
#[derive(Clone)]
pub struct CheckpointPolicy {
    cadence: CheckpointCadence,
    sink: Arc<Mutex<Box<dyn CheckpointSink>>>,
}

impl CheckpointPolicy {
    /// A policy committing through `sink` at `cadence`.
    pub fn new(sink: Box<dyn CheckpointSink>, cadence: CheckpointCadence) -> CheckpointPolicy {
        CheckpointPolicy {
            cadence,
            sink: Arc::new(Mutex::new(sink)),
        }
    }

    /// A policy committing atomically to the file at `path`.
    pub fn file(path: impl Into<PathBuf>, cadence: CheckpointCadence) -> CheckpointPolicy {
        CheckpointPolicy::new(Box::new(FileSink::new(path)), cadence)
    }

    /// The stamping cadence.
    pub fn cadence(&self) -> CheckpointCadence {
        self.cadence
    }

    /// Builds the per-run recorder the session threads through the guard.
    pub(crate) fn recorder(
        &self,
        query: CorrelationQuery,
        fingerprint: DbFingerprint,
    ) -> Arc<CheckpointRecorder> {
        Arc::new(CheckpointRecorder {
            cadence: self.cadence,
            sink: Arc::clone(&self.sink),
            query,
            fingerprint,
            stamps_seen: AtomicU64::new(0),
            written: AtomicU64::new(0),
            first_error: Mutex::new(None),
        })
    }
}

impl fmt::Debug for CheckpointPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointPolicy")
            .field("cadence", &self.cadence)
            .finish_non_exhaustive()
    }
}

/// What a run's durability layer did: how many snapshots were committed
/// and the first write error, if any. Checkpoint writes are best-effort —
/// a failing sink degrades durability, never the mining result — so the
/// error is reported here instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointReport {
    /// Snapshots committed successfully.
    pub written: u64,
    /// The first commit failure, rendered; later stamps are still
    /// attempted (a transient `ENOSPC` may clear).
    pub error: Option<String>,
}

/// The per-run stamping state: pre-baked run-constant sections (query,
/// fingerprint), the sink, and the cadence counter. Carried by the
/// [`crate::RunGuard`] so the kernel can stamp at exactly the points it
/// takes resume snapshots, without widening any miner signature.
pub(crate) struct CheckpointRecorder {
    cadence: CheckpointCadence,
    sink: Arc<Mutex<Box<dyn CheckpointSink>>>,
    query: CorrelationQuery,
    fingerprint: DbFingerprint,
    stamps_seen: AtomicU64,
    written: AtomicU64,
    first_error: Mutex<Option<String>>,
}

impl CheckpointRecorder {
    /// A mid-run stamp at a level boundary, gated by the cadence.
    pub(crate) fn stamp_level(&self, state: ResumeState, level: usize, metrics: &MiningMetrics) {
        let index = self.stamps_seen.fetch_add(1, Ordering::Relaxed);
        if !self.cadence.stamps_level(index) {
            return;
        }
        self.write(Checkpoint {
            query: self.query.clone(),
            fingerprint: self.fingerprint,
            metrics: metrics.clone(),
            answers: Vec::new(),
            status: CheckpointStatus::InProgress { level },
            resume: state,
        });
    }

    /// The final stamp of a truncated run — written under every cadence,
    /// so exit code 2 always leaves a durable continuation. A no-op for
    /// complete runs (their checkpoint file, if any, goes stale but
    /// still resumes to the same final answer).
    pub(crate) fn stamp_trip(&self, result: &MiningResult) {
        let (
            Completion::Truncated {
                reason,
                frontier_level,
                sets_evaluated,
            },
            Some(resume),
        ) = (result.completion, &result.resume)
        else {
            return;
        };
        self.write(Checkpoint {
            query: self.query.clone(),
            fingerprint: self.fingerprint,
            metrics: result.metrics.clone(),
            answers: result.answers.clone(),
            status: CheckpointStatus::Tripped {
                reason,
                frontier_level,
                sets_evaluated,
            },
            resume: resume.clone(),
        });
    }

    fn write(&self, ckpt: Checkpoint) {
        let bytes = ckpt.to_bytes();
        let committed = match self.sink.lock() {
            Ok(mut sink) => sink.commit(&bytes),
            Err(_) => Err(io::Error::other("checkpoint sink mutex poisoned")),
        };
        match committed {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                if let Ok(mut slot) = self.first_error.lock() {
                    slot.get_or_insert_with(|| e.to_string());
                }
            }
        }
    }

    /// The run's durability summary.
    pub(crate) fn report(&self) -> CheckpointReport {
        CheckpointReport {
            written: self.written.load(Ordering::Relaxed),
            error: self.first_error.lock().ok().and_then(|slot| slot.clone()),
        }
    }
}

impl fmt::Debug for CheckpointRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointRecorder")
            .field("cadence", &self.cadence)
            .field("written", &self.written.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardLimits;
    use crate::RunGuard;

    fn sample_state() -> ResumeState {
        ResumeState {
            format: RESUME_FORMAT,
            algorithm: Algorithm::BmsStarStar,
            inner: ResumeInner::StarStarPhase2 {
                k: 3,
                current: vec![Itemset::from_ids([0, 1, 2])],
                sig: vec![Itemset::from_ids([4, 5])],
                supp: vec![(
                    2,
                    vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])],
                )],
            },
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let query = CorrelationQuery {
            params: MiningParams {
                measure: Measure::Chi2,
                confidence: 0.9,
                support_fraction: 0.1,
                ct_fraction: 0.25,
                min_item_support: 0.0,
                max_level: 4,
            },
            constraints: ConstraintSet::new()
                .and(Constraint::max_le("price", 7.0))
                .and(Constraint::sum_ge("price", 3.0))
                .and(Constraint::ItemSubset {
                    items: [1, 3].into_iter().collect(),
                    negated: true,
                }),
        };
        Checkpoint {
            query,
            fingerprint: DbFingerprint {
                n_transactions: 160,
                n_items: 8,
                content_hash: 0xDEAD_BEEF_CAFE_F00D,
            },
            metrics: MiningMetrics {
                candidates_generated: 42,
                tables_built: 17,
                max_level_reached: 3,
                elapsed: std::time::Duration::new(1, 234_567_890),
                ..MiningMetrics::default()
            },
            answers: vec![Itemset::from_ids([0, 1]), Itemset::from_ids([2, 4, 5])],
            status: CheckpointStatus::Tripped {
                reason: TruncationReason::WorkBudget,
                frontier_level: 2,
                sets_evaluated: 17,
            },
            resume: sample_state(),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.algorithm(), Algorithm::BmsStarStar);
    }

    #[test]
    fn serialization_is_byte_stable() {
        let ckpt = sample_checkpoint();
        assert_eq!(ckpt.to_bytes(), ckpt.to_bytes());
    }

    #[test]
    fn every_resume_variant_round_trips() {
        let bms = BmsSnapshot {
            level: 2,
            cands: vec![Itemset::from_ids([0, 1])],
            sig: vec![],
            notsig: vec![Itemset::from_ids([3])],
        };
        let variants = [
            (ResumeInner::Bms(bms.clone()), Algorithm::BmsPlus),
            (
                ResumeInner::PlusPlus {
                    level: 3,
                    cands: vec![Itemset::from_ids([0, 1, 2])],
                    sig_candidates: vec![Itemset::from_ids([4, 5])],
                },
                Algorithm::BmsPlusPlus,
            ),
            (ResumeInner::StarPhase1(bms), Algorithm::BmsStar),
            (
                ResumeInner::StarPhase2 {
                    k: 3,
                    sig: vec![Itemset::from_ids([0, 1])],
                    frontier: vec![(3, vec![Itemset::from_ids([0, 1, 2])])],
                },
                Algorithm::BmsStar,
            ),
            (
                ResumeInner::StarStarPhase1 {
                    level: 2,
                    cands: vec![],
                    supp: vec![(2, vec![Itemset::from_ids([6, 7])])],
                },
                Algorithm::BmsStarStar,
            ),
            (ResumeInner::NaiveRestart, Algorithm::Naive),
        ];
        for (inner, algorithm) in variants {
            let mut ckpt = sample_checkpoint();
            ckpt.resume = ResumeState {
                format: RESUME_FORMAT,
                algorithm,
                inner,
            };
            let back = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            assert_eq!(back.resume, ckpt.resume);
        }
    }

    /// The durability suites' 160-row fixture: XOR triples over items
    /// 0–2 and 3–5, and items 6 and 7 together in every fifth row.
    fn xor_db() -> TransactionDb {
        let txns = (0..160u32).map(|i| {
            let bits = |lo: u32| ((i >> lo) & 1, (i >> (lo + 1)) & 1);
            let (a, b) = bits(0);
            let (c, d) = bits(2);
            let mut t = Vec::new();
            for (item, present) in [(0, a), (1, b), (2, a ^ b), (3, c), (4, d), (5, c ^ d)] {
                if present == 1 {
                    t.push(item);
                }
            }
            if i % 5 == 0 {
                t.extend([6, 7]);
            }
            t
        });
        TransactionDb::from_ids(8, txns.collect::<Vec<_>>())
    }

    /// A BMS* phase-2 checkpoint from a writer that still stored the
    /// sweep's `seen` list decodes to the same snapshot as one whose list
    /// is empty, and both resume to the uninterrupted run's answers.
    #[test]
    fn legacy_star_phase2_seen_list_is_read_and_dropped() {
        use crate::session::{MineRequest, MiningSession};
        use ccs_constraints::AttributeTable;

        let db = xor_db();
        let attrs = AttributeTable::with_identity_prices(8);
        let query = CorrelationQuery {
            params: MiningParams {
                confidence: 0.9,
                support_fraction: 0.1,
                max_level: 5,
                ..MiningParams::paper()
            },
            // Phase 1 finds {0, 1, 2} (price sum 6) and {3, 4, 5}; the
            // sum floor sends the first up into a phase-2 sweep.
            constraints: ConstraintSet::new()
                .and(Constraint::max_le("price", 7.0))
                .and(Constraint::sum_ge("price", 10.0)),
        };
        let mut session = MiningSession::new(&db, &attrs);
        let request = MineRequest::new(Algorithm::BmsStar);
        let mut complete = session.mine(&query, &request).unwrap().result.answers;
        complete.sort_unstable();
        // The smallest work budget that trips inside the sweep.
        let (result, state) = (1..)
            .map(|budget| {
                let guard = RunGuard::new(GuardLimits {
                    work_budget_cells: Some(budget),
                    ..GuardLimits::default()
                });
                let result = session.mine(&query, &request.clone().guard(guard));
                result.unwrap().result
            })
            .map_while(|result| result.resume.clone().map(|state| (result, state)))
            .find(|(_, state)| matches!(state.inner, ResumeInner::StarPhase2 { .. }))
            .expect("some budget trips inside phase 2");
        let ResumeInner::StarPhase2 { k, sig, frontier } = &state.inner else {
            unreachable!("found by its variant");
        };
        let ckpt = Checkpoint {
            query: query.clone(),
            fingerprint: fingerprint_db(&db),
            metrics: result.metrics,
            answers: result.answers,
            status: CheckpointStatus::Tripped {
                reason: TruncationReason::WorkBudget,
                frontier_level: *k,
                sets_evaluated: 0,
            },
            resume: state.clone(),
        };
        let bytes = ckpt.to_bytes();
        // The older layout: the same fields, then the sets earlier sweep
        // levels judged (here, the frontier) in the `seen` slot.
        let seen: Vec<Itemset> = frontier.iter().flat_map(|(_, sets)| sets.clone()).collect();
        assert!(!seen.is_empty(), "a sweep has a frontier");
        let mut e = Enc::new();
        e.u8(3);
        e.usize(*k);
        e.itemsets(sig);
        e.levels(frontier);
        e.itemsets(&seen);
        // RESUME is the last section: swap its payload and re-seal.
        let resume_len = encode_resume(&state.inner).len();
        let mut legacy = bytes[..bytes.len() - 4 - 4 - resume_len - 12].to_vec();
        push_section(&mut legacy, TAG_RESUME, &e.buf);
        let crc = crc32(&legacy);
        legacy.extend_from_slice(&crc.to_le_bytes());
        assert_ne!(legacy, bytes);

        let from_legacy = Checkpoint::from_bytes(&legacy).unwrap();
        assert_eq!(from_legacy, Checkpoint::from_bytes(&bytes).unwrap());
        assert_eq!(from_legacy, ckpt);
        for resume in [from_legacy.resume, ckpt.resume] {
            let resumed = session.resume(&query, &MineRequest::default(), resume);
            let mut answers = resumed.unwrap().result.answers;
            answers.sort_unstable();
            assert_eq!(answers, complete);
        }
    }

    #[test]
    fn every_torn_prefix_is_rejected_cleanly() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in 0..bytes.len() {
            match Checkpoint::from_bytes(&bytes[..cut]) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("prefix of {cut} bytes: expected Corrupt, got {other:?}"),
            }
        }
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(
                Checkpoint::from_bytes(&mutated).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    /// Serializes `ckpt` exactly as the version-1 writer did: file
    /// version 1 in the header and no measure tag in the QUERY section.
    fn to_bytes_v1(ckpt: &Checkpoint) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes());
        out.extend_from_slice(&ckpt.resume.format().to_le_bytes());
        out.extend_from_slice(&6u32.to_le_bytes());
        let mut q = Enc::new();
        let p = &ckpt.query.params;
        q.f64(p.confidence);
        q.f64(p.support_fraction);
        q.f64(p.ct_fraction);
        q.f64(p.min_item_support);
        q.usize(p.max_level);
        let constraints = ckpt.query.constraints.constraints();
        q.u32(constraints.len() as u32);
        for c in constraints {
            encode_constraint(&mut q, c);
        }
        push_section(&mut out, TAG_META, &encode_meta(ckpt));
        push_section(&mut out, TAG_QUERY, &q.buf);
        push_section(&mut out, TAG_DBFP, &encode_fingerprint(&ckpt.fingerprint));
        push_section(&mut out, TAG_METRICS, &encode_metrics(&ckpt.metrics));
        push_section(&mut out, TAG_ANSWERS, &encode_itemsets(&ckpt.answers));
        push_section(&mut out, TAG_RESUME, &encode_resume(&ckpt.resume.inner));
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }

    #[test]
    fn version_1_checkpoints_decode_as_chi_squared() {
        let ckpt = sample_checkpoint();
        let v1 = to_bytes_v1(&ckpt);
        let back = Checkpoint::from_bytes(&v1).unwrap();
        assert_eq!(back.query.params.measure, Measure::Chi2);
        assert_eq!(back, ckpt);
    }

    #[test]
    fn measure_round_trips_through_version_2() {
        for measure in Measure::ALL {
            let mut ckpt = sample_checkpoint();
            ckpt.query.params.measure = measure;
            if measure != Measure::Chi2 {
                ckpt.query.params.confidence = 0.6;
            }
            let back = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            assert_eq!(back.query.params.measure, measure, "{measure}");
            assert_eq!(back, ckpt);
        }
    }

    #[test]
    fn future_file_version_is_format_mismatch() {
        let mut bytes = sample_checkpoint().to_bytes();
        let future = (CHECKPOINT_FILE_VERSION + 1).to_le_bytes();
        bytes[8] = future[0];
        bytes[9] = future[1];
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::FormatMismatch { found, expected }) => {
                assert_eq!(found, CHECKPOINT_FILE_VERSION + 1);
                assert_eq!(expected, CHECKPOINT_FILE_VERSION);
            }
            other => panic!("expected FormatMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_measure_tag_is_corrupt() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        // The QUERY payload begins with the measure tag; find it by
        // re-encoding the section and locating its payload in the file.
        let payload = encode_query(&ckpt.query);
        let pos = bytes
            .windows(payload.len())
            .position(|w| w == &payload[..])
            .expect("QUERY payload present");
        let mut mutated = bytes.clone();
        mutated[pos] = 250; // no such measure
                            // Fix the section CRC (4 bytes after the payload) and file CRC.
        let section_crc = crc32(&mutated[pos..pos + payload.len()]);
        mutated[pos + payload.len()..pos + payload.len() + 4]
            .copy_from_slice(&section_crc.to_le_bytes());
        let len = mutated.len();
        let file_crc = crc32(&mutated[..len - 4]);
        mutated[len - 4..].copy_from_slice(&file_crc.to_le_bytes());
        match Checkpoint::from_bytes(&mutated) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains("measure tag"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn future_resume_format_is_format_mismatch() {
        let mut bytes = sample_checkpoint().to_bytes();
        let future = (RESUME_FORMAT + 1).to_le_bytes();
        bytes[10] = future[0];
        bytes[11] = future[1];
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::FormatMismatch { found, expected }) => {
                assert_eq!(found, RESUME_FORMAT + 1);
                assert_eq!(expected, RESUME_FORMAT);
            }
            other => panic!("expected FormatMismatch, got {other:?}"),
        }
    }

    #[test]
    fn garbled_magic_is_corrupt() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn db_fingerprint_verification() {
        let db = TransactionDb::from_ids(4, vec![vec![0, 1], vec![2, 3]]);
        let other = TransactionDb::from_ids(4, vec![vec![0, 1], vec![2]]);
        let mut ckpt = sample_checkpoint();
        ckpt.fingerprint = fingerprint_db(&db);
        assert!(ckpt.verify_db(&db).is_ok());
        assert!(matches!(
            ckpt.verify_db(&other),
            Err(CheckpointError::DbMismatch { .. })
        ));
    }

    #[test]
    fn fingerprint_of_a_fixed_database_is_pinned() {
        // Checkpoint files store this value; it must never drift, or
        // every existing checkpoint stops verifying.
        let db = TransactionDb::from_ids(300, vec![vec![2, 0, 1], vec![], vec![299, 7], vec![256]]);
        assert_eq!(
            fingerprint_db(&db),
            DbFingerprint {
                n_transactions: 4,
                n_items: 300,
                content_hash: 0xEE16_D88A_2EA2_6988,
            }
        );
        // Ids of one to four significant bytes, zero bytes in between.
        let wide = TransactionDb::from_ids(
            0x100_0006,
            vec![
                vec![0, 255, 256],
                vec![65535, 65536],
                vec![],
                vec![0xFF_FFFF, 0x100_0000, 0x100_0005],
                vec![0x1_0203],
            ],
        );
        assert_eq!(
            fingerprint_db(&wide),
            DbFingerprint {
                n_transactions: 5,
                n_items: 0x100_0006,
                content_hash: 0x9475_BDFE_0E27_654D,
            }
        );
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = TransactionDb::from_ids(4, vec![vec![0, 1], vec![2, 3]]);
        let b = TransactionDb::from_ids(4, vec![vec![0, 1], vec![2, 3]]);
        let c = TransactionDb::from_ids(4, vec![vec![0, 1], vec![3, 2]]);
        let d = TransactionDb::from_ids(4, vec![vec![0], vec![1, 2, 3]]);
        assert_eq!(fingerprint_db(&a), fingerprint_db(&b));
        // Transactions are stored sorted, so order within one is identity.
        assert_eq!(fingerprint_db(&a), fingerprint_db(&c));
        assert_ne!(
            fingerprint_db(&a).content_hash,
            fingerprint_db(&d).content_hash
        );
    }

    #[test]
    fn memory_sink_save_load_round_trip() {
        let mut sink = MemorySink::new();
        assert!(sink.load().unwrap().is_none());
        let ckpt = sample_checkpoint();
        sink.commit(&ckpt.to_bytes()).unwrap();
        let bytes = sink.load().unwrap().unwrap();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn file_sink_commits_atomically_and_reloads() {
        let dir = std::env::temp_dir().join(format!("ccs-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ccs");
        let mut sink = FileSink::new(&path);
        assert!(sink.load().unwrap().is_none());
        let ckpt = sample_checkpoint();
        sink.commit(&ckpt.to_bytes()).unwrap();
        assert!(!sink.tmp_path().exists(), "temp file must be renamed away");
        assert_eq!(read_checkpoint_file(&path).unwrap(), ckpt);
        let mut second = sample_checkpoint();
        second.answers.clear();
        sink.commit(&second.to_bytes()).unwrap();
        assert!(!sink.tmp_path().exists(), "temp file must be renamed away");
        let bytes = sink.load().unwrap().unwrap();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), second);
        assert_eq!(read_checkpoint_file(&path).unwrap(), second);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_checkpoint_file("/nonexistent/dir/run.ccs"),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn cadence_gating() {
        assert!(CheckpointCadence::EveryLevel.stamps_level(0));
        assert!(CheckpointCadence::EveryLevel.stamps_level(7));
        assert!(CheckpointCadence::EveryLevels(3).stamps_level(0));
        assert!(!CheckpointCadence::EveryLevels(3).stamps_level(1));
        assert!(CheckpointCadence::EveryLevels(3).stamps_level(3));
        assert!(
            CheckpointCadence::EveryLevels(0).stamps_level(1),
            "0 behaves like 1"
        );
        assert!(!CheckpointCadence::OnTrip.stamps_level(0));
    }

    #[test]
    fn recorder_gates_by_cadence_and_reports() {
        let policy = CheckpointPolicy::new(
            Box::new(MemorySink::new()),
            CheckpointCadence::EveryLevels(2),
        );
        let ckpt = sample_checkpoint();
        let recorder = policy.recorder(ckpt.query.clone(), ckpt.fingerprint);
        let metrics = MiningMetrics::default();
        recorder.stamp_level(sample_state(), 2, &metrics); // index 0: written
        recorder.stamp_level(sample_state(), 3, &metrics); // index 1: skipped
        recorder.stamp_level(sample_state(), 4, &metrics); // index 2: written
        let report = recorder.report();
        assert_eq!(report.written, 2);
        assert_eq!(report.error, None);
    }

    #[test]
    fn recorder_records_first_sink_error_without_aborting() {
        struct FailingSink;
        impl CheckpointSink for FailingSink {
            fn commit(&mut self, _bytes: &[u8]) -> io::Result<()> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
                Ok(None)
            }
        }
        let policy = CheckpointPolicy::new(Box::new(FailingSink), CheckpointCadence::EveryLevel);
        let ckpt = sample_checkpoint();
        let recorder = policy.recorder(ckpt.query.clone(), ckpt.fingerprint);
        recorder.stamp_level(sample_state(), 2, &MiningMetrics::default());
        let report = recorder.report();
        assert_eq!(report.written, 0);
        assert!(report.error.unwrap().contains("disk full"));
    }

    #[test]
    fn trip_stamp_writes_under_every_cadence() {
        let result = MiningResult::truncated(
            vec![Itemset::from_ids([0, 1])],
            crate::query::Semantics::ValidMin,
            MiningMetrics::default(),
            TruncationReason::Deadline,
            2,
            sample_state(),
        );
        for cadence in [
            CheckpointCadence::EveryLevel,
            CheckpointCadence::EveryLevels(5),
            CheckpointCadence::OnTrip,
        ] {
            let policy = CheckpointPolicy::new(Box::new(MemorySink::new()), cadence);
            let ckpt = sample_checkpoint();
            let recorder = policy.recorder(ckpt.query.clone(), ckpt.fingerprint);
            recorder.stamp_trip(&result);
            assert_eq!(recorder.report().written, 1, "{cadence:?}");
        }
    }

    #[test]
    fn trip_stamp_ignores_complete_results() {
        let result = MiningResult::new(
            vec![],
            crate::query::Semantics::ValidMin,
            MiningMetrics::default(),
        );
        let policy =
            CheckpointPolicy::new(Box::new(MemorySink::new()), CheckpointCadence::EveryLevel);
        let ckpt = sample_checkpoint();
        let recorder = policy.recorder(ckpt.query.clone(), ckpt.fingerprint);
        recorder.stamp_trip(&result);
        assert_eq!(recorder.report().written, 0);
    }

    #[test]
    fn unknown_sections_are_skipped_when_checksummed() {
        let ckpt = sample_checkpoint();
        let mut bytes = ckpt.to_bytes();
        // Rebuild: bump the section count, append an unknown section
        // before the trailer, re-seal both checksums.
        bytes.truncate(bytes.len() - 4);
        let count = read_u32_at(&bytes, 12) + 1;
        bytes[12..16].copy_from_slice(&count.to_le_bytes());
        push_section(&mut bytes, 0x7FFF, b"future data");
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn guard_carries_recorder_to_clones() {
        let policy =
            CheckpointPolicy::new(Box::new(MemorySink::new()), CheckpointCadence::EveryLevel);
        let ckpt = sample_checkpoint();
        let recorder = policy.recorder(ckpt.query.clone(), ckpt.fingerprint);
        let guard = RunGuard::new(GuardLimits::default()).with_recorder(Arc::clone(&recorder));
        assert!(guard.recorder().is_some());
        assert!(guard.clone().recorder().is_some());
        assert!(RunGuard::unlimited().recorder().is_none());
    }
}
