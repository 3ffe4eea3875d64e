//! The answer journal: the framed log instantiated for the answer record
//! family, plus the split of its records into the engine's replay queues.

use crate::frame::{self, Contents, FrameLog};
use crate::record::{CompleteRecord, GenerationRecord, Record, ShardEvent};
use crate::WalError;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

/// An answer journal open for appending — see [`FrameLog`] for the
/// locking and durability contract ([`FrameLog::create`],
/// [`FrameLog::append`], [`FrameLog::append_durable`]).
pub type Journal = FrameLog<Record>;

/// A decoded answer journal.
pub type JournalContents = Contents<Record>;

/// Reads a journal without modifying it, recovering the valid prefix under
/// the crate-level truncation rule.
///
/// # Errors
///
/// Everything [`decode`](crate::decode) raises, plus [`WalError::Io`].
pub fn read_journal(path: &Path) -> Result<JournalContents, WalError> {
    frame::read(path)
}

/// Opens a journal for resuming — [`FrameLog::open_resume`] for the answer
/// family: lock, read, truncate any torn tail on disk, and return the
/// contents with a [`Journal`] positioned to append after the last valid
/// record.
///
/// # Errors
///
/// Everything [`read_journal`] raises, plus [`WalError::Locked`] if
/// another process holds the journal and [`WalError::Io`] on the
/// truncate/seek.
pub fn open_resume(path: &Path) -> Result<(JournalContents, Journal), WalError> {
    Journal::open_resume(path)
}

/// A journal split into the queues the engine replays: per-shard event
/// streams, the generation-barrier stream (written only by older builds
/// with dynamic re-sharding, whose journals the engine refuses), and the
/// completion marker if the job finished.
#[derive(Debug, Clone, Default)]
pub struct ReplayPlan {
    /// Per shard index, its answers and round barriers in append order.
    pub shards: BTreeMap<u32, VecDeque<ShardEvent>>,
    /// Re-sharding barriers in order.
    pub generations: VecDeque<GenerationRecord>,
    /// Present iff the journal records a finished job.
    pub complete: Option<CompleteRecord>,
}

impl ReplayPlan {
    /// Total journaled answers across all shards — the questions already
    /// paid for.
    #[must_use]
    pub fn num_answers(&self) -> usize {
        self.shards
            .values()
            .map(|q| q.iter().filter(|e| matches!(e, ShardEvent::Answer(_))).count())
            .sum()
    }
}

/// Splits decoded records into the engine's replay queues.
#[must_use]
pub fn partition_replay(records: &[Record]) -> ReplayPlan {
    let mut plan = ReplayPlan::default();
    for r in records {
        match *r {
            Record::Header(_) => unreachable!("the decoder strips the header frame"),
            Record::Answer(a) => {
                plan.shards.entry(a.shard).or_default().push_back(ShardEvent::Answer(a));
            }
            Record::Barrier(b) => {
                plan.shards.entry(b.shard).or_default().push_back(ShardEvent::Barrier(b));
            }
            Record::Generation(g) => plan.generations.push_back(g),
            Record::Complete(c) => plan.complete = Some(c),
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AnswerRecord, BarrierRecord, JobHeader, StatsSnapshot, FORMAT_VERSION};

    fn header() -> JobHeader {
        JobHeader {
            version: FORMAT_VERSION,
            num_objects: 10,
            order_len: 12,
            order_hash: 1,
            truth_hash: 2,
            platform_hash: 3,
            engine_seed: 4,
            num_shards: 2,
            instant_decision: true,
            reshard: false,
            ordering: 0,
        }
    }

    fn answer(shard: u32, a: u32, b: u32) -> Record {
        Record::Answer(AnswerRecord {
            shard,
            a,
            b,
            matching: a + 1 == b,
            yes_votes: 3,
            no_votes: 0,
            time: u64::from(a) * 1000,
            cost_cents: 6,
        })
    }

    fn barrier(shard: u32) -> Record {
        Record::Barrier(BarrierRecord {
            shard,
            rounds: 1,
            time: 9_000,
            stats: StatsSnapshot { pairs_published: 2, ..StatsSnapshot::default() },
        })
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("crowdjoin-wal-{}-{name}", std::process::id()))
    }

    #[test]
    fn create_append_read_roundtrip() {
        let path = temp_path("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header()).expect("create");
        journal.append(&answer(0, 1, 2)).expect("append");
        journal.append_durable(&barrier(0)).expect("append durable");
        journal.sync().expect("sync");
        drop(journal);

        let contents = read_journal(&path).expect("read");
        assert_eq!(contents.header, header());
        assert_eq!(contents.records, vec![answer(0, 1, 2), barrier(0)]);
        assert_eq!(contents.offsets.len(), 2);
        assert_eq!(contents.torn_bytes, 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn create_refuses_existing_journal() {
        let path = temp_path("exists.wal");
        let _ = std::fs::remove_file(&path);
        drop(Journal::create(&path, &header()).expect("create"));
        assert!(matches!(Journal::create(&path, &header()), Err(WalError::AlreadyExists(_))));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn open_resume_truncates_torn_tail_and_appends() {
        let path = temp_path("resume.wal");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header()).expect("create");
        journal.append(&answer(0, 1, 2)).expect("append");
        journal.append(&answer(1, 3, 4)).expect("append");
        drop(journal);

        // Tear the last record.
        let full = std::fs::read(&path).expect("read bytes");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");

        let (contents, journal) = open_resume(&path).expect("open_resume");
        assert_eq!(contents.records, vec![answer(0, 1, 2)]);
        assert!(contents.torn_bytes > 0);
        journal.append(&answer(1, 5, 6)).expect("append after resume");
        drop(journal);

        let contents = read_journal(&path).expect("read after resume");
        assert_eq!(contents.records, vec![answer(0, 1, 2), answer(1, 5, 6)]);
        assert_eq!(contents.torn_bytes, 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn exclusive_lock_refuses_second_writer() {
        let path = temp_path("lock.wal");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header()).expect("create");
        // While a writer is alive, both re-creating and resuming refuse.
        assert!(matches!(open_resume(&path), Err(WalError::Locked(_))));
        assert!(matches!(Journal::create(&path, &header()), Err(WalError::Locked(_))));
        // Read-only inspection stays possible.
        assert!(read_journal(&path).is_ok());
        drop(journal);
        let (_, resumed) = open_resume(&path).expect("lock released on drop");
        drop(resumed);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn partition_replay_groups_by_shard() {
        let records = vec![
            answer(0, 1, 2),
            answer(1, 3, 4),
            barrier(0),
            answer(0, 5, 6),
            Record::Generation(GenerationRecord {
                generation: 1,
                shards: 1,
                time: 9_000,
                rounds: 1,
                open_pairs: 3,
            }),
            Record::Complete(CompleteRecord { answers: 3, cost_cents: 18, completion: 9_000 }),
        ];
        let plan = partition_replay(&records);
        assert_eq!(plan.num_answers(), 3);
        assert_eq!(plan.shards.len(), 2);
        assert_eq!(plan.shards[&0].len(), 3, "two answers and a barrier for shard 0");
        assert_eq!(plan.generations.len(), 1);
        assert_eq!(plan.complete.expect("complete").answers, 3);
    }
}
