//! The answer journal's records: record types, tag table, and payload
//! codec.
//!
//! Payloads are a one-byte tag followed by fixed-width little-endian
//! fields. Encoding and decoding are exact inverses, and decoding validates
//! that the payload is consumed to the last byte. Framing, checksums and
//! the decode loop live in `crate::frame`.

use crate::frame::{Reader, Writer};

/// Journal format version this build writes and reads.
///
/// History: v1 had no `ordering` header field (and re-sharding barriers
/// sized generations by raw open-pair count); v2 added the field for a
/// selectable question-ordering policy and predicts publishable counts at
/// barriers, so v1 journals are refused rather than replayed under
/// different semantics. The policies other than likelihood-descending were
/// since retired on measurement; the byte stays in the v2 layout as a
/// reserved field (see [`JobHeader::ordering`]), so journal bytes did not
/// change. Dynamic re-sharding was retired the same way: its header byte
/// is reserved ([`JobHeader::reshard`]), and its generation-barrier record
/// (tag 4) is no longer part of the format.
pub const FORMAT_VERSION: u32 = 2;

/// Upper bound on a frame payload; anything larger is corruption (real
/// records are under 100 bytes).
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Frame tag values (payload byte 0). Tag 4 was the generation barrier of
/// the retired dynamic re-sharding; it now decodes as an unknown tag, so a
/// journal holding one is refused as corrupt at that frame.
mod tag {
    pub const HEADER: u8 = 1;
    pub const ANSWER: u8 = 2;
    pub const BARRIER: u8 = 3;
    pub const COMPLETE: u8 = 5;
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// FNV-1a over a byte stream — the stable 64-bit fingerprint hash used for
/// the job-identity fields of [`JobHeader`].
#[must_use]
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------------

/// The first frame of every journal: format version plus a fingerprint of
/// the job's inputs. Resuming checks every field before replaying a single
/// answer, so a journal can never be replayed into the wrong job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHeader {
    /// Format version ([`FORMAT_VERSION`] when written by this build).
    pub version: u32,
    /// Size of the object universe.
    pub num_objects: u64,
    /// Number of pairs in the global labeling order.
    pub order_len: u64,
    /// [`fnv1a64`] over every ordered pair and its likelihood bits — the
    /// labeling order decides what gets asked, so it is part of the job's
    /// identity.
    pub order_hash: u64,
    /// [`fnv1a64`] over the ground-truth entity assignment driving the
    /// simulated workers.
    pub truth_hash: u64,
    /// [`fnv1a64`] over the platform configuration (crowd size, batching,
    /// prices, latency model, platform seed).
    pub platform_hash: u64,
    /// The engine's master seed (per-shard platform seeds derive from it).
    pub engine_seed: u64,
    /// Effective target shard count the job partitioned for.
    pub num_shards: u32,
    /// Whether the instant-decision optimization was on.
    pub instant_decision: bool,
    /// Reserved; always written 0. Builds that still had dynamic
    /// re-sharding wrote 1 here when it was on; such a journal's answers
    /// belong to shards this build never creates, so resume refuses it.
    pub reshard: bool,
    /// Reserved; always written 0 (likelihood-descending, the one labeling
    /// order). Builds that still had selectable question-ordering policies
    /// wrote 1 = exact or 2 = online here; such a journal's crowdsourced
    /// set cannot be replayed by this build, so resume refuses any non-zero
    /// value.
    pub ordering: u8,
}

/// One paid crowd answer: the journal's bread-and-butter record, appended
/// *before* the engine applies the answer to its labeler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerRecord {
    /// Index of the shard that asked.
    pub shard: u32,
    /// Smaller object id of the pair (global ids).
    pub a: u32,
    /// Larger object id of the pair (global ids).
    pub b: u32,
    /// Majority-vote label: `true` = matching.
    pub matching: bool,
    /// Worker votes for "matching".
    pub yes_votes: u32,
    /// Worker votes for "non-matching".
    pub no_votes: u32,
    /// Virtual time (ms) the platform resolved the answer.
    pub time: u64,
    /// The shard platform's cumulative spend (cents) at that moment —
    /// the money ledger entry backing "never pay twice".
    pub cost_cents: u64,
}

/// A shard platform's aggregate counters, embedded in barrier records so a
/// replay can verify money and work accounting bit-for-bit at every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// HITs published so far.
    pub hits_published: u64,
    /// Pairs published so far.
    pub pairs_published: u64,
    /// Pair capacity of the published HITs.
    pub pair_slots: u64,
    /// Assignments completed so far.
    pub assignments_completed: u64,
    /// Total cost in cents.
    pub total_cost_cents: u64,
    /// Virtual time (ms) of the last resolution.
    pub last_resolution: u64,
    /// Workers that passed qualification.
    pub qualified_workers: u64,
    /// Assignments abandoned and re-opened.
    pub assignments_abandoned: u64,
}

/// A shard's fully-resolved publish-round boundary: its platform drained
/// with nothing in flight. Fsynced, so every barrier is a durable point a
/// resume can rebuild exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierRecord {
    /// Index of the shard.
    pub shard: u32,
    /// Publish rounds on the shard's critical path so far.
    pub rounds: u32,
    /// Virtual time (ms) at the boundary.
    pub time: u64,
    /// The shard platform's counters at the boundary.
    pub stats: StatsSnapshot,
}

/// The job finished; resuming a journal that ends with this record replays
/// everything and asks nothing new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteRecord {
    /// Total crowd answers paid for across the whole job.
    pub answers: u64,
    /// Total money spent, in cents.
    pub cost_cents: u64,
    /// Virtual completion time (ms) — the critical path over shards.
    pub completion: u64,
}

/// Any journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Job identity; always the first frame.
    Header(JobHeader),
    /// One paid crowd answer.
    Answer(AnswerRecord),
    /// A shard's round boundary.
    Barrier(BarrierRecord),
    /// Job completion marker.
    Complete(CompleteRecord),
}

/// A per-shard replay event: the subsequence of the journal belonging to
/// one shard, in append order (see
/// [`partition_replay`](crate::partition_replay)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEvent {
    /// A paid answer to verify (and not re-pay) during replay.
    Answer(AnswerRecord),
    /// A round boundary whose platform counters must match exactly.
    Barrier(BarrierRecord),
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

impl Record {
    /// Appends the payload (tag byte + fields) to `out`.
    pub(crate) fn encode_payload(&self, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        match self {
            Record::Header(h) => {
                w.u8(tag::HEADER);
                w.u32(h.version);
                w.u64(h.num_objects);
                w.u64(h.order_len);
                w.u64(h.order_hash);
                w.u64(h.truth_hash);
                w.u64(h.platform_hash);
                w.u64(h.engine_seed);
                w.u32(h.num_shards);
                w.bool(h.instant_decision);
                w.bool(h.reshard);
                w.u8(h.ordering);
            }
            Record::Answer(a) => {
                w.u8(tag::ANSWER);
                w.u32(a.shard);
                w.u32(a.a);
                w.u32(a.b);
                w.bool(a.matching);
                w.u32(a.yes_votes);
                w.u32(a.no_votes);
                w.u64(a.time);
                w.u64(a.cost_cents);
            }
            Record::Barrier(b) => {
                w.u8(tag::BARRIER);
                w.u32(b.shard);
                w.u32(b.rounds);
                w.u64(b.time);
                for v in b.stats.as_array() {
                    w.u64(v);
                }
            }
            Record::Complete(c) => {
                w.u8(tag::COMPLETE);
                w.u64(c.answers);
                w.u64(c.cost_cents);
                w.u64(c.completion);
            }
        }
    }

    /// Decodes one payload, consuming it exactly.
    ///
    /// # Errors
    ///
    /// A description of the first field that failed to decode.
    pub(crate) fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes: payload, pos: 0 };
        let record = match r.u8()? {
            tag::HEADER => Record::Header(JobHeader {
                version: r.u32()?,
                num_objects: r.u64()?,
                order_len: r.u64()?,
                order_hash: r.u64()?,
                truth_hash: r.u64()?,
                platform_hash: r.u64()?,
                engine_seed: r.u64()?,
                num_shards: r.u32()?,
                instant_decision: r.bool()?,
                reshard: r.bool()?,
                ordering: r.u8()?,
            }),
            tag::ANSWER => Record::Answer(AnswerRecord {
                shard: r.u32()?,
                a: r.u32()?,
                b: r.u32()?,
                matching: r.bool()?,
                yes_votes: r.u32()?,
                no_votes: r.u32()?,
                time: r.u64()?,
                cost_cents: r.u64()?,
            }),
            tag::BARRIER => Record::Barrier(BarrierRecord {
                shard: r.u32()?,
                rounds: r.u32()?,
                time: r.u64()?,
                stats: StatsSnapshot {
                    hits_published: r.u64()?,
                    pairs_published: r.u64()?,
                    pair_slots: r.u64()?,
                    assignments_completed: r.u64()?,
                    total_cost_cents: r.u64()?,
                    last_resolution: r.u64()?,
                    qualified_workers: r.u64()?,
                    assignments_abandoned: r.u64()?,
                },
            }),
            tag::COMPLETE => Record::Complete(CompleteRecord {
                answers: r.u64()?,
                cost_cents: r.u64()?,
                completion: r.u64()?,
            }),
            t => return Err(format!("unknown record tag {t}")),
        };
        r.done()?;
        Ok(record)
    }
}

impl StatsSnapshot {
    fn as_array(self) -> [u64; 8] {
        [
            self.hits_published,
            self.pairs_published,
            self.pair_slots,
            self.assignments_completed,
            self.total_cost_cents,
            self.last_resolution,
            self.qualified_workers,
            self.assignments_abandoned,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{crc32, decode, encode_frame};
    use crate::WalError;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Answer(AnswerRecord {
                shard: 3,
                a: 1,
                b: 9,
                matching: true,
                yes_votes: 2,
                no_votes: 1,
                time: 123_456,
                cost_cents: 42,
            }),
            Record::Barrier(BarrierRecord {
                shard: 3,
                rounds: 1,
                time: 222_222,
                stats: StatsSnapshot {
                    hits_published: 2,
                    pairs_published: 21,
                    pair_slots: 40,
                    assignments_completed: 6,
                    total_cost_cents: 12,
                    last_resolution: 222_222,
                    qualified_workers: 5,
                    assignments_abandoned: 1,
                },
            }),
            Record::Complete(CompleteRecord { answers: 21, cost_cents: 12, completion: 222_222 }),
        ]
    }

    fn sample_header() -> JobHeader {
        JobHeader {
            version: FORMAT_VERSION,
            num_objects: 100,
            order_len: 250,
            order_hash: 0xdead_beef,
            truth_hash: 0xfeed_f00d,
            platform_hash: 7,
            engine_seed: 42,
            num_shards: 8,
            instant_decision: true,
            reshard: false,
            ordering: 2,
        }
    }

    fn frame_of(record: &Record) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(record, &mut frame).expect("fixed-width records fit a frame");
        frame
    }

    fn encode_all(header: JobHeader, records: &[Record]) -> Vec<u8> {
        std::iter::once(&Record::Header(header)).chain(records).flat_map(frame_of).collect()
    }

    #[test]
    fn roundtrip_every_record_type() {
        let bytes = encode_all(sample_header(), &sample_records());
        let contents = decode(&bytes).expect("valid stream");
        assert_eq!(contents.header, sample_header());
        assert_eq!(contents.records, sample_records());
        assert_eq!((contents.valid_len, contents.torn_bytes), (bytes.len() as u64, 0));
        assert_eq!(contents.offsets.len(), contents.records.len());
        // Each offset points at a frame whose payload re-encodes to the
        // bytes in place.
        for (&off, r) in contents.offsets.iter().zip(&contents.records) {
            let frame = frame_of(r);
            assert_eq!(&bytes[off as usize..off as usize + frame.len()], &frame[..]);
        }
    }

    #[test]
    fn golden_bytes() {
        crate::frame::assert_golden(
            sample_header(),
            &sample_records(),
            &[
                "3c000000a237fa1f01020000006400000000000000fa00000000000000efbeadde000000000df0\
                 edfe0000000007000000000000002a0000000000000008000000010002",
                "26000000bfdffe9f0203000000010000000900000001020000000100000040e2010000000000\
                 2a00000000000000",
                "51000000365587370303000000010000000e640300000000000200000000000000\
                 1500000000000000280000000000000006000000000000000c000000000000000e640300\
                 0000000005000000000000000100000000000000",
                "190000009d8b746b0515000000000000000c000000000000000e64030000000000",
            ],
        );
    }

    #[test]
    fn truncation_recovers_prefix() {
        let bytes = encode_all(sample_header(), &sample_records());
        // Dropping the last byte tears the final record.
        let contents = decode(&bytes[..bytes.len() - 1]).expect("torn tail ok");
        assert_eq!(contents.records, sample_records()[..2]);
        assert!(contents.valid_len < bytes.len() as u64);
        assert_eq!(contents.valid_len + contents.torn_bytes, bytes.len() as u64 - 1);
    }

    #[test]
    fn midfile_corruption_is_loud() {
        let mut bytes = encode_all(sample_header(), &sample_records());
        // Flip a payload byte of the first answer record (well past the
        // header frame, well before the final record).
        let header_len = frame_of(&Record::Header(sample_header())).len();
        bytes[header_len + 10] ^= 0x40;
        match decode(&bytes) {
            Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, header_len as u64),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn missing_or_damaged_header_rejected() {
        assert!(matches!(decode(&[]), Err(WalError::NotAJournal(_))));
        let no_header = frame_of(&sample_records()[0]);
        assert!(matches!(decode(&no_header), Err(WalError::NotAJournal(_))));

        let mut bytes = encode_all(sample_header(), &[]);
        bytes[9] ^= 0xff; // damage the header payload
        assert!(matches!(decode(&bytes), Err(WalError::NotAJournal(_))));
    }

    #[test]
    fn second_header_and_implausible_lengths_are_classified() {
        let again = [Record::Header(sample_header())];
        match decode(&encode_all(sample_header(), &again)) {
            Err(WalError::Corrupt { reason, .. }) => assert!(reason.contains("second"), "{reason}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A length over the family maximum (or zero) cannot start a
        // journal, and after the header it can only be a torn tail.
        for len in [0, MAX_RECORD_LEN + 1] {
            let mut prelude = len.to_le_bytes().to_vec();
            prelude.extend_from_slice(&[0; 12]);
            assert!(matches!(decode(&prelude), Err(WalError::NotAJournal(_))));
            let mut bytes = encode_all(sample_header(), &sample_records()[..1]);
            let valid = bytes.len() as u64;
            bytes.extend_from_slice(&prelude);
            let contents = decode(&bytes).expect("implausible tail is torn");
            assert_eq!(contents.records, sample_records()[..1]);
            assert_eq!((contents.valid_len, contents.torn_bytes), (valid, 16));
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut h = sample_header();
        h.version = FORMAT_VERSION + 1;
        let bytes = encode_all(h, &[]);
        assert!(matches!(
            decode(&bytes),
            Err(WalError::VersionMismatch { found }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn fnv_distinguishes_streams() {
        assert_ne!(fnv1a64(*b"abc"), fnv1a64(*b"abd"));
        assert_ne!(fnv1a64(*b"ab"), fnv1a64(*b"abc"));
        assert_eq!(fnv1a64([]), 0xcbf2_9ce4_8422_2325);
    }
}
