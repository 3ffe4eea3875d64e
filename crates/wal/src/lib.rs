//! # crowdjoin-wal — the crash-safe answer journal
//!
//! The paper's whole economy is *never pay the crowd twice*: transitive
//! deduction exists so a question already answered is never re-asked. That
//! economy is worthless if a killed job throws the answers away — crowd
//! jobs run for hours of real wall-clock time, so durability is the
//! difference between a demo and a production system. This crate is the
//! durability layer: an append-only **write-ahead journal** of crowd
//! answers that survives a crash at any byte and lets
//! `crowdjoin_engine::Engine::resume` continue a killed job while paying
//! only for the questions the crashed run never bought.
//!
//! The crate is deliberately dependency-free (plain `std`): it defines the
//! on-disk format, a thread-safe appender, and a prefix-or-loud reader.
//! What the records *mean* — how a journal is replayed back into labelers
//! and platforms — lives one layer up in `crowdjoin-engine`.
//!
//! ## Layout
//!
//! The `frame` module is the only code that knows the byte discipline:
//! one frame encoder ([`encode_frame`]), one decode loop ([`decode`]), one
//! appender ([`FrameLog`]), each generic over a [`RecordFamily`]. A family
//! is a vocabulary — tag table, payload codec, header variant — and there
//! are two: [`Record`] (answers; [`Journal`] = `FrameLog<Record>`) and
//! [`StreamRecord`] (arrivals; [`StreamJournal`] wraps
//! `FrameLog<StreamRecord>` and syncs every frame). A new check or a fuzz
//! target is written once, in `frame`.
//!
//! ## On-disk format
//!
//! A journal is a flat sequence of **frames**, nothing else — no footer, no
//! index, no in-place mutation. Each frame is:
//!
//! ```text
//! ┌───────────────┬────────────────────┬──────────────────┐
//! │ len: u32 (LE) │ crc32(payload): u32│ payload: len bytes│
//! └───────────────┴────────────────────┴──────────────────┘
//! ```
//!
//! * `len` is the payload length in bytes (`1 ..= MAX_RECORD_LEN`).
//! * `crc32` is the IEEE CRC-32 of the payload bytes (and only the
//!   payload; a corrupted `len` is caught because the payload it frames
//!   cannot pass the CRC).
//! * `payload[0]` is a record tag; the remaining bytes are the record's
//!   fixed-width little-endian fields. Decoding must consume the payload
//!   exactly — trailing bytes are corruption, not padding.
//!
//! The first frame of every journal is a [`JobHeader`] carrying the format
//! version and a fingerprint of the job's inputs (object universe, labeling
//! order, ground-truth source, platform and engine configuration). A resume
//! attempt with different inputs fails loudly at the header check instead
//! of silently diverging mid-replay.
//!
//! ## Truncation rule (torn-tail recovery)
//!
//! Appends can be torn by a crash, so the reader classifies every decode
//! failure as either a **torn tail** (recover the valid prefix) or
//! **corruption** (refuse loudly). The rule, applied at each frame start:
//!
//! * fewer than 8 bytes remain, or `len` points past end-of-file → the
//!   frame was torn mid-append: **stop, keep the prefix**;
//! * the CRC of the *final* frame mismatches (frame ends exactly at
//!   end-of-file) → torn payload write: **stop, keep the prefix**;
//! * the CRC of a non-final frame mismatches, or a CRC-valid payload does
//!   not decode → not a crash artifact: **fail with
//!   [`WalError::Corrupt`]**.
//!
//! Consequently any byte-level truncation of a valid journal recovers a
//! strict prefix of its records, and any single-bit flip either recovers a
//! strict prefix or fails loudly — never a silently different record
//! stream (property-tested in `tests/corruption.rs`).
//!
//! ## Durability levels
//!
//! [`FrameLog::append`] writes the frame and flushes it to the OS: the
//! record survives a **process** crash. [`FrameLog::append_durable`]
//! additionally `fsync`s: the record survives a **power** failure. The
//! engine appends answers with the former and round-barrier / completion
//! records with the latter, so the expensive sync is paid once
//! per publish round, not once per answer.
//!
//! ## Record stream semantics
//!
//! Per shard (keyed by the engine's shard index) the stream is strictly
//! `Answer* Barrier Answer* Barrier …`, and a final [`CompleteRecord`]
//! marks a finished job. [`GenerationRecord`]s marked the global barriers
//! of dynamic re-sharding, which older builds wrote; the codec still reads
//! them, and the engine refuses such journals by their header.
//! [`partition_replay`] splits a decoded record list back into those
//! per-shard queues for the engine's replay. See `docs/ARCHITECTURE.md` for the crash & resume walkthrough.
//!
//! ## The stream journal
//!
//! Streaming jobs additionally journal record *arrivals* to a sibling
//! `FILE.stream` file (see [`StreamJournal`]) — the same `frame` code
//! over a second family with a disjoint tag range, so the two journal
//! kinds reject each other loudly. The answer journal stays byte-identical
//! to a batch run's; the stream journal is what lets a killed stream
//! rebuild its corpus before `Engine::resume` replays the answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod journal;
mod record;
mod stream;

pub use frame::{crc32, decode, encode_frame, Contents, FrameLog, RecordFamily};
pub use journal::{
    open_resume, partition_replay, read_journal, Journal, JournalContents, ReplayPlan,
};
pub use record::{
    fnv1a64, AnswerRecord, BarrierRecord, CompleteRecord, GenerationRecord, JobHeader, Record,
    ShardEvent, StatsSnapshot, FORMAT_VERSION, MAX_RECORD_LEN,
};
pub use stream::{
    open_resume_stream, read_stream_journal, IngestFrame, SealRecord, StreamContents, StreamEntry,
    StreamHeader, StreamJournal, StreamRecord, INGEST_FRAME_RECORDS, MAX_STREAM_RECORD_LEN,
    STREAM_FORMAT_VERSION,
};

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong opening, reading, or appending a journal.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file is not a journal (empty, wrong magic, or no header frame).
    NotAJournal(String),
    /// The journal was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the journal header.
        found: u32,
    },
    /// A frame in the middle of the file is damaged — this is data
    /// corruption, not a torn append, so recovery refuses to guess.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// What failed to validate.
        reason: String,
    },
    /// The journal's job fingerprint does not match the job being resumed
    /// (different inputs, seed, or configuration).
    HeaderMismatch {
        /// Which fingerprint field disagreed.
        field: &'static str,
        /// Value recorded in the journal.
        journal: u64,
        /// Value computed from the resuming job.
        job: u64,
    },
    /// Refusing to start a *new* journal over an existing non-empty file —
    /// it may hold paid-for answers; resume it or delete it explicitly.
    AlreadyExists(PathBuf),
    /// Another process holds the journal's exclusive lock — two writers
    /// interleaving appends would destroy the paid-for history, so the
    /// second opener is refused.
    Locked(PathBuf),
    /// A record's payload cannot fit one frame; nothing was written.
    RecordTooLarge {
        /// External id of the offending streamed record, when the record
        /// is one entry of an ingest batch.
        external: Option<u32>,
        /// Payload bytes the smallest frame carrying the record needs.
        bytes: u64,
        /// The family's frame payload limit.
        max: u32,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "journal I/O error: {e}"),
            WalError::NotAJournal(why) => write!(f, "not an answer journal: {why}"),
            WalError::VersionMismatch { found } => write!(
                f,
                "journal format version {found} is not supported (this build reads v{FORMAT_VERSION})"
            ),
            WalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            WalError::HeaderMismatch { field, journal, job } => write!(
                f,
                "journal belongs to a different job: {field} is {journal:#x} in the journal \
                 but {job:#x} for this run (same input, seeds, and flags are required to resume)"
            ),
            WalError::AlreadyExists(path) => write!(
                f,
                "journal {} already exists and is non-empty; resume it or delete it before \
                 starting a new job",
                path.display()
            ),
            WalError::Locked(path) => write!(
                f,
                "journal {} is locked by another process (a run is already journaling to it)",
                path.display()
            ),
            WalError::RecordTooLarge { external, bytes, max } => {
                match external {
                    Some(id) => write!(f, "streamed record with external id {id}")?,
                    None => write!(f, "journal record")?,
                }
                write!(f, " needs a {bytes}-byte frame payload, over the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}
