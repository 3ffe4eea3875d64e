//! The streaming ingestion journal — the `Ingest` half of a streaming
//! job's WAL.
//!
//! A streaming job journals to **two** files: `FILE.stream` (this module)
//! records *which records arrived*, and `FILE` (the ordinary answer
//! journal, created once the stream is closed and the labeling order is
//! final) records *which questions were paid for*. Splitting keeps the
//! batch journal format byte-identical — the answer journal's
//! [`JobHeader`](crate::JobHeader) fingerprints a finalized labeling
//! order, which a stream does not have until close — while still letting a
//! killed stream resume bit-identically: replay the `Ingest` frames to
//! rebuild the arrived corpus, continue ingesting, then let
//! `Engine::resume` replay the answers.
//!
//! The on-disk discipline is the crate-level one — this module is only a
//! second record family for `crate::frame` (`[len][crc][payload]`
//! frames, torn-tail truncation, exclusive advisory lock all live there).
//! Stream tags live in a disjoint range (16+) so feeding either journal to
//! the other reader fails with [`WalError::NotAJournal`] instead of
//! mis-decoding.
//!
//! Frame stream: one [`StreamHeader`] (always first), then [`IngestFrame`]s
//! carrying batches of arrived records (each with its caller-assigned
//! external id and raw field values — enough to re-tokenize on resume),
//! optionally ending with a [`SealRecord`] fingerprinting the final
//! candidate order once the stream closed. Ingest frames carry a running
//! `seq` (records arrived before the frame), so replay detects missing or
//! reordered frames as corruption.

use crate::frame::{self, Contents, FrameLog, Reader, RecordFamily, Writer};
use crate::WalError;
use std::path::Path;

/// Stream-journal format version this build writes and reads.
pub const STREAM_FORMAT_VERSION: u32 = 1;

/// Upper bound on a stream frame payload. Larger than the answer
/// journal's (ingest frames carry raw record text), still small enough
/// that an absurd length is recognized as corruption.
pub const MAX_STREAM_RECORD_LEN: u32 = 1 << 24;

/// Records per ingest frame cap: [`StreamJournal::append_ingest`] closes a
/// frame at this many records or when the next record would push its
/// payload past [`MAX_STREAM_RECORD_LEN`], whichever comes first.
pub const INGEST_FRAME_RECORDS: usize = 1024;

/// Payload bytes of an ingest frame before its first entry (tag, `seq`,
/// entry count).
const INGEST_PRELUDE_LEN: usize = 1 + 8 + 4;

/// Frame tag values — disjoint from the answer journal's (1..=5) so the
/// two formats reject each other loudly.
mod tag {
    pub const STREAM_HEADER: u8 = 16;
    pub const INGEST: u8 = 17;
    pub const SEAL: u8 = 18;
}

/// The first frame of every stream journal: format version plus the
/// stream's identity (schema arity, a fingerprint of the matcher/engine
/// configuration, and the job seed). Resume checks these before replaying
/// a single record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Format version ([`STREAM_FORMAT_VERSION`] when written by this
    /// build).
    pub version: u32,
    /// Schema arity of the streamed records.
    pub arity: u32,
    /// [`fnv1a64`](crate::fnv1a64) fingerprint of the job configuration
    /// (matcher floor and weights, engine threshold, …) — resuming with a
    /// different configuration would silently change the candidate set.
    pub config_hash: u64,
    /// The job's master seed.
    pub seed: u64,
}

/// One arrived record inside an [`IngestFrame`]: its caller-assigned
/// external id plus the raw field values (everything needed to
/// re-tokenize it on resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEntry {
    /// Caller-assigned external id (the record's identity across arrival
    /// orders — the close path sorts by it).
    pub external: u32,
    /// Raw field values, schema order.
    pub fields: Vec<String>,
}

impl StreamEntry {
    /// Bytes this entry occupies inside an ingest frame's payload.
    fn encoded_len(&self) -> usize {
        4 + 4 + self.fields.iter().map(|f| 4 + f.len()).sum::<usize>()
    }
}

/// A durable batch of arrived records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestFrame {
    /// Number of records ingested before this frame (replay validates the
    /// running count, so a missing frame is corruption, not silence).
    pub seq: u64,
    /// The records, arrival order.
    pub entries: Vec<StreamEntry>,
}

/// The stream was closed: records the final corpus size and a fingerprint
/// of the canonical candidate order handed to the engine. A resume after
/// close verifies it reproduces the same order bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealRecord {
    /// Records ingested in total.
    pub num_records: u64,
    /// Candidate pairs in the canonical labeling order.
    pub order_len: u64,
    /// [`fnv1a64`](crate::fnv1a64) over the ordered pairs and likelihood
    /// bits (same recipe as the answer journal's `order_hash`).
    pub order_hash: u64,
}

/// Any stream-journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRecord {
    /// Stream identity; always the first frame.
    Header(StreamHeader),
    /// A batch of arrived records.
    Ingest(IngestFrame),
    /// Close marker with the canonical-order fingerprint.
    Seal(SealRecord),
}

impl RecordFamily for StreamRecord {
    type Header = StreamHeader;
    const VERSION: u32 = STREAM_FORMAT_VERSION;
    const MAX_PAYLOAD: u32 = MAX_STREAM_RECORD_LEN;
    const HEADER_NAME: &'static str = "stream header";

    fn from_header(header: StreamHeader) -> Self {
        StreamRecord::Header(header)
    }

    fn as_header(&self) -> Option<&StreamHeader> {
        match self {
            StreamRecord::Header(h) => Some(h),
            _ => None,
        }
    }

    fn header_version(header: &StreamHeader) -> u32 {
        header.version
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        // Length prefixes are written with `as u32`: a count or field too
        // long for 32 bits makes the payload exceed `MAX_PAYLOAD` many times
        // over, so `encode_frame` refuses it before the truncation matters.
        match self {
            StreamRecord::Header(h) => {
                w.u8(tag::STREAM_HEADER);
                w.u32(h.version);
                w.u32(h.arity);
                w.u64(h.config_hash);
                w.u64(h.seed);
            }
            StreamRecord::Ingest(i) => {
                w.u8(tag::INGEST);
                w.u64(i.seq);
                w.u32(i.entries.len() as u32);
                for e in &i.entries {
                    w.u32(e.external);
                    w.u32(e.fields.len() as u32);
                    for f in &e.fields {
                        w.u32(f.len() as u32);
                        w.0.extend_from_slice(f.as_bytes());
                    }
                }
            }
            StreamRecord::Seal(s) => {
                w.u8(tag::SEAL);
                w.u64(s.num_records);
                w.u64(s.order_len);
                w.u64(s.order_hash);
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes: payload, pos: 0 };
        let record = match r.u8()? {
            tag::STREAM_HEADER => StreamRecord::Header(StreamHeader {
                version: r.u32()?,
                arity: r.u32()?,
                config_hash: r.u64()?,
                seed: r.u64()?,
            }),
            tag::INGEST => {
                let seq = r.u64()?;
                let count = r.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(INGEST_FRAME_RECORDS));
                for _ in 0..count {
                    let external = r.u32()?;
                    let arity = r.u32()? as usize;
                    let mut fields = Vec::with_capacity(arity.min(64));
                    for _ in 0..arity {
                        let len = r.u32()? as usize;
                        let bytes = r.take(len)?;
                        fields.push(
                            String::from_utf8(bytes.to_vec())
                                .map_err(|_| "field value is not UTF-8".to_string())?,
                        );
                    }
                    entries.push(StreamEntry { external, fields });
                }
                StreamRecord::Ingest(IngestFrame { seq, entries })
            }
            tag::SEAL => StreamRecord::Seal(SealRecord {
                num_records: r.u64()?,
                order_len: r.u64()?,
                order_hash: r.u64()?,
            }),
            t => return Err(format!("unknown stream record tag {t}")),
        };
        r.done()?;
        Ok(record)
    }
}

/// A decoded stream journal.
pub type StreamContents = Contents<StreamRecord>;

impl StreamContents {
    /// Flattens the ingest frames into one arrival-ordered entry list,
    /// validating frame sequencing, and returns the seal if the stream
    /// was closed.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] if frame `seq`s do not form a running record
    /// count, if an ingest follows the seal, or if the seal's record count
    /// disagrees with the replayed entries.
    pub fn replay(&self) -> Result<(Vec<StreamEntry>, Option<SealRecord>), WalError> {
        let mut entries: Vec<StreamEntry> = Vec::new();
        let mut seal: Option<SealRecord> = None;
        for (r, &offset) in self.records.iter().zip(&self.offsets) {
            let corrupt = |reason: String| Err(WalError::Corrupt { offset, reason });
            match r {
                StreamRecord::Header(_) => unreachable!("the decoder strips the header frame"),
                StreamRecord::Ingest(_) if seal.is_some() => {
                    return corrupt("ingest frame after the seal".to_string());
                }
                StreamRecord::Ingest(i) if i.seq != entries.len() as u64 => {
                    return corrupt(format!(
                        "ingest frame seq {} but {} records replayed",
                        i.seq,
                        entries.len()
                    ));
                }
                StreamRecord::Ingest(i) => entries.extend(i.entries.iter().cloned()),
                StreamRecord::Seal(s) if s.num_records != entries.len() as u64 => {
                    return corrupt(format!(
                        "seal records {} but {} records replayed",
                        s.num_records,
                        entries.len()
                    ));
                }
                StreamRecord::Seal(s) => seal = Some(*s),
            }
        }
        Ok((entries, seal))
    }
}

/// A stream journal open for appending: a [`FrameLog`] of the stream
/// family in which **every** frame is `fsync`ed (ingests are chunky and
/// infrequent, so the sync cost is per batch, not per record).
#[derive(Debug)]
pub struct StreamJournal(FrameLog<StreamRecord>);

impl StreamJournal {
    /// Creates a fresh stream journal at `path` (exclusive lock, durable
    /// header frame).
    ///
    /// # Errors
    ///
    /// [`WalError::AlreadyExists`] for a non-empty file,
    /// [`WalError::Locked`] if another process holds it, [`WalError::Io`]
    /// on I/O failure.
    pub fn create(path: &Path, header: &StreamHeader) -> Result<Self, WalError> {
        FrameLog::create(path, header).map(Self)
    }

    /// Appends one record and `fsync`s it.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on write or sync failure (fatal for the job);
    /// [`WalError::RecordTooLarge`] for a record over
    /// [`MAX_STREAM_RECORD_LEN`] (nothing is written).
    pub fn append(&self, record: &StreamRecord) -> Result<(), WalError> {
        self.0.append_durable(record)
    }

    /// Journals a batch of arrived records as one or more ingest frames,
    /// closing a frame at [`INGEST_FRAME_RECORDS`] entries or at the
    /// [`MAX_STREAM_RECORD_LEN`] byte budget. `seq` is the number of
    /// records ingested before this batch.
    ///
    /// # Errors
    ///
    /// [`WalError::RecordTooLarge`] — naming the external id — if a single
    /// record cannot fit one frame; the batch is checked first, so nothing
    /// is written. [`WalError::Io`] on write or sync failure.
    pub fn append_ingest(&self, mut seq: u64, entries: &[StreamEntry]) -> Result<(), WalError> {
        let budget = MAX_STREAM_RECORD_LEN as usize - INGEST_PRELUDE_LEN;
        let sizes: Vec<usize> = entries.iter().map(StreamEntry::encoded_len).collect();
        if let Some(i) = sizes.iter().position(|&bytes| bytes > budget) {
            return Err(WalError::RecordTooLarge {
                external: Some(entries[i].external),
                bytes: (sizes[i] + INGEST_PRELUDE_LEN) as u64,
                max: MAX_STREAM_RECORD_LEN,
            });
        }
        let mut start = 0;
        while start < entries.len() {
            let (mut end, mut bytes) = (start, 0);
            while end < entries.len()
                && end - start < INGEST_FRAME_RECORDS
                && bytes + sizes[end] <= budget
            {
                bytes += sizes[end];
                end += 1;
            }
            let frame = IngestFrame { seq, entries: entries[start..end].to_vec() };
            self.append(&StreamRecord::Ingest(frame))?;
            seq += (end - start) as u64;
            start = end;
        }
        Ok(())
    }

    /// Journals the close marker.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on write or sync failure.
    pub fn append_seal(&self, seal: &SealRecord) -> Result<(), WalError> {
        self.append(&StreamRecord::Seal(*seal))
    }
}

/// Reads a stream journal without modifying it.
///
/// # Errors
///
/// Everything [`decode`](crate::decode) raises, plus [`WalError::Io`].
pub fn read_stream_journal(path: &Path) -> Result<StreamContents, WalError> {
    frame::read(path)
}

/// Opens a stream journal for resuming — [`FrameLog::open_resume`] for the
/// stream family: exclusive lock, read, truncate any torn tail on disk,
/// return the contents plus a journal positioned to append after the last
/// valid frame.
///
/// # Errors
///
/// Everything [`read_stream_journal`] raises, plus [`WalError::Locked`]
/// and [`WalError::Io`] on the truncate/seek.
pub fn open_resume_stream(path: &Path) -> Result<(StreamContents, StreamJournal), WalError> {
    let (contents, log) = FrameLog::open_resume(path)?;
    Ok((contents, StreamJournal(log)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> StreamHeader {
        StreamHeader { version: STREAM_FORMAT_VERSION, arity: 2, config_hash: 77, seed: 42 }
    }

    fn entry(external: u32, name: &str) -> StreamEntry {
        StreamEntry { external, fields: vec![name.to_string(), "9.99".to_string()] }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("crowdjoin-walstream-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_ingest_and_seal() {
        let path = temp_path("roundtrip.stream");
        let _ = std::fs::remove_file(&path);
        let journal = StreamJournal::create(&path, &header()).expect("create");
        journal.append_ingest(0, &[entry(3, "sony tv"), entry(1, "canon cam")]).expect("ingest");
        journal.append_ingest(2, &[entry(0, "sony tv 40")]).expect("ingest");
        journal
            .append_seal(&SealRecord { num_records: 3, order_len: 2, order_hash: 0xbeef })
            .expect("seal");
        drop(journal);

        let contents = read_stream_journal(&path).expect("read");
        assert_eq!(contents.header, header());
        assert_eq!(contents.torn_bytes, 0);
        let (entries, seal) = contents.replay().expect("replay");
        assert_eq!(
            entries,
            vec![entry(3, "sony tv"), entry(1, "canon cam"), entry(0, "sony tv 40")]
        );
        assert_eq!(seal, Some(SealRecord { num_records: 3, order_len: 2, order_hash: 0xbeef }));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn golden_bytes() {
        let cafe = StreamEntry { external: 1, fields: vec!["café ☕".into(), String::new()] };
        frame::assert_golden(
            StreamHeader { config_hash: 0x1234_5678_9abc_def0, ..header() },
            &[
                StreamRecord::Ingest(IngestFrame {
                    seq: 0,
                    entries: vec![entry(3, "sony tv"), cafe],
                }),
                StreamRecord::Seal(SealRecord { num_records: 2, order_len: 1, order_hash: 0xbeef }),
            ],
            &[
                "190000008d617241100100000002000000f0debc9a785634122a00000000000000",
                "4100000097bf2ab611000000000000000002000000030000000200000007000000736f6e79207476\
                 04000000392e3939010000000200000009000000636166c3a920e2989500000000",
                "190000001251577c1202000000000000000100000000000000efbe000000000000",
            ],
        );
    }

    #[test]
    fn large_batches_split_into_frames_with_running_seq() {
        let path = temp_path("split.stream");
        let _ = std::fs::remove_file(&path);
        let journal = StreamJournal::create(&path, &header()).expect("create");
        let batch: Vec<StreamEntry> =
            (0..INGEST_FRAME_RECORDS as u32 + 10).map(|i| entry(i, "x")).collect();
        journal.append_ingest(0, &batch).expect("ingest");
        drop(journal);
        let contents = read_stream_journal(&path).expect("read");
        assert_eq!(contents.records.len(), 2, "split into two frames");
        let (entries, seal) = contents.replay().expect("replay");
        assert_eq!(entries.len(), batch.len());
        assert!(seal.is_none());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_tail_recovers_prefix_and_resume_appends() {
        let path = temp_path("torn.stream");
        let _ = std::fs::remove_file(&path);
        let journal = StreamJournal::create(&path, &header()).expect("create");
        journal.append_ingest(0, &[entry(0, "a")]).expect("ingest");
        journal.append_ingest(1, &[entry(1, "b")]).expect("ingest");
        drop(journal);
        let full = std::fs::read(&path).expect("read bytes");
        std::fs::write(&path, &full[..full.len() - 5]).expect("tear");

        let (contents, journal) = open_resume_stream(&path).expect("resume");
        assert!(contents.torn_bytes > 0);
        let (entries, _) = contents.replay().expect("replay");
        assert_eq!(entries, vec![entry(0, "a")]);
        // Continue the stream from the replayed count.
        journal.append_ingest(entries.len() as u64, &[entry(1, "b")]).expect("re-ingest");
        drop(journal);
        let (entries, _) = read_stream_journal(&path).expect("read").replay().expect("replay");
        assert_eq!(entries, vec![entry(0, "a"), entry(1, "b")]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn byte_budget_closes_frames_and_an_unframeable_record_is_a_typed_error() {
        let path = temp_path("budget.stream");
        let _ = std::fs::remove_file(&path);
        let journal = StreamJournal::create(&path, &header()).expect("create");
        // Three 6 MiB records: two fit one 16 MiB frame, the third opens
        // the next.
        let batch: Vec<StreamEntry> = (0..3).map(|i| entry(i, &"x".repeat(6 << 20))).collect();
        journal.append_ingest(0, &batch).expect("ingest");
        let len_before = std::fs::metadata(&path).expect("stat").len();
        // One record over the frame limit fails the whole batch up front.
        let huge = [entry(7, "ok"), entry(8, &"y".repeat(MAX_STREAM_RECORD_LEN as usize))];
        match journal.append_ingest(3, &huge) {
            Err(WalError::RecordTooLarge { external: Some(8), bytes, max }) => {
                assert!(bytes > u64::from(max));
            }
            other => panic!("expected RecordTooLarge for external 8, got {other:?}"),
        }
        let direct = StreamRecord::Ingest(IngestFrame { seq: 3, entries: huge.to_vec() });
        assert!(matches!(
            journal.append(&direct),
            Err(WalError::RecordTooLarge { external: None, .. })
        ));
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), len_before, "nothing written");
        drop(journal);

        let contents = read_stream_journal(&path).expect("read");
        let frame_sizes: Vec<usize> = contents
            .records
            .iter()
            .map(|r| match r {
                StreamRecord::Ingest(i) => i.entries.len(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(frame_sizes, [2, 1]);
        assert_eq!(contents.replay().expect("replay").0, batch);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn seq_gap_is_corruption() {
        let ingest = |seq| StreamRecord::Ingest(IngestFrame { seq, entries: vec![entry(0, "a")] });
        let seal = |num_records| {
            StreamRecord::Seal(SealRecord { num_records, order_len: 0, order_hash: 0 })
        };
        // Every out-of-sequence shape is corruption at the offending frame.
        for records in [vec![ingest(5)], vec![ingest(0), seal(2)], vec![seal(0), ingest(0)]] {
            let offsets: Vec<u64> = (0..records.len() as u64).map(|i| 36 + 40 * i).collect();
            let bad = *offsets.last().expect("non-empty");
            let contents =
                StreamContents { header: header(), records, offsets, valid_len: 0, torn_bytes: 0 };
            match contents.replay() {
                Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, bad),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn answer_journal_and_stream_journal_reject_each_other() {
        use crate::record::{JobHeader, Record, FORMAT_VERSION};
        // An answer journal fed to the stream reader.
        let mut answer_bytes = Vec::new();
        let job_header = Record::Header(JobHeader {
            version: FORMAT_VERSION,
            num_objects: 3,
            order_len: 1,
            order_hash: 1,
            truth_hash: 2,
            platform_hash: 3,
            engine_seed: 4,
            num_shards: 1,
            instant_decision: true,
            reshard: false,
            ordering: 0,
        });
        frame::encode_frame(&job_header, &mut answer_bytes).expect("encode");
        assert!(matches!(
            frame::decode::<StreamRecord>(&answer_bytes),
            Err(WalError::NotAJournal(_))
        ));
        // A stream journal fed to the answer-journal reader.
        let mut stream_bytes = Vec::new();
        frame::encode_frame(&StreamRecord::Header(header()), &mut stream_bytes).expect("encode");
        assert!(matches!(frame::decode::<Record>(&stream_bytes), Err(WalError::NotAJournal(_))));
    }

    #[test]
    fn future_stream_version_rejected() {
        let mut h = header();
        h.version = STREAM_FORMAT_VERSION + 1;
        let mut bytes = Vec::new();
        frame::encode_frame(&StreamRecord::Header(h), &mut bytes).expect("encode");
        assert!(matches!(
            frame::decode::<StreamRecord>(&bytes),
            Err(WalError::VersionMismatch { found }) if found == STREAM_FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn exclusive_lock_refuses_second_writer() {
        let path = temp_path("lock.stream");
        let _ = std::fs::remove_file(&path);
        let journal = StreamJournal::create(&path, &header()).expect("create");
        assert!(matches!(open_resume_stream(&path), Err(WalError::Locked(_))));
        assert!(matches!(StreamJournal::create(&path, &header()), Err(WalError::Locked(_))));
        drop(journal);
        let (_, resumed) = open_resume_stream(&path).expect("lock released");
        drop(resumed);
        std::fs::remove_file(&path).expect("cleanup");
    }
}
