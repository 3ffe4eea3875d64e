//! The journal's recovery contract, property-tested: any byte-level
//! truncation of a valid journal recovers a **strict prefix** of its
//! records, and any single-bit flip either recovers a prefix or fails
//! loudly — never a silently different record stream (and therefore never
//! silently wrong labels on resume).

use crowdjoin_wal::{
    decode, encode_frame, AnswerRecord, BarrierRecord, CompleteRecord, JobHeader, Record,
    StatsSnapshot, WalError, FORMAT_VERSION,
};
use proptest::prelude::*;

fn sample_header(seed: u64) -> JobHeader {
    JobHeader {
        version: FORMAT_VERSION,
        num_objects: 500,
        order_len: 1000,
        order_hash: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        truth_hash: seed ^ 0xabcd,
        platform_hash: seed.rotate_left(17),
        engine_seed: seed,
        num_shards: 8,
        instant_decision: seed.is_multiple_of(2),
        reshard: seed.is_multiple_of(3),
        ordering: (seed % 3) as u8,
    }
}

/// A varied but deterministic record stream: answers punctuated by round
/// barriers, and a completion marker.
fn sample_records(seed: u64, n: usize) -> Vec<Record> {
    let mut records = Vec::new();
    let mut x = seed | 1;
    let mut step = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    for i in 0..n {
        let shard = (step() % 4) as u32;
        let a = (step() % 400) as u32;
        records.push(Record::Answer(AnswerRecord {
            shard,
            a,
            b: a + 1 + (step() % 90) as u32,
            matching: step() % 2 == 0,
            yes_votes: (step() % 4) as u32,
            no_votes: (step() % 4) as u32,
            time: step() % 1_000_000,
            cost_cents: step() % 10_000,
        }));
        if i % 7 == 6 {
            records.push(Record::Barrier(BarrierRecord {
                shard,
                rounds: (i / 7) as u32,
                time: step() % 1_000_000,
                stats: StatsSnapshot {
                    hits_published: step() % 100,
                    pairs_published: step() % 2000,
                    pair_slots: step() % 2000,
                    assignments_completed: step() % 6000,
                    total_cost_cents: step() % 12_000,
                    last_resolution: step() % 1_000_000,
                    qualified_workers: step() % 40,
                    assignments_abandoned: step() % 10,
                },
            }));
        }
    }
    records.push(Record::Complete(CompleteRecord {
        answers: n as u64,
        cost_cents: step() % 50_000,
        completion: step() % 1_000_000,
    }));
    records
}

fn encode_log(seed: u64, records: &[Record]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in std::iter::once(&Record::Header(sample_header(seed))).chain(records) {
        encode_frame(r, &mut bytes).expect("sample records fit a frame");
    }
    bytes
}

/// Decoding `bytes` must yield a (possibly empty, possibly full) prefix of
/// `original`, or fail with an explicit error — anything else is silent
/// corruption.
fn assert_prefix_or_loud(bytes: &[u8], original: &[Record]) -> Result<(), TestCaseError> {
    match decode(bytes) {
        Ok(contents) => {
            let recovered = contents.records;
            prop_assert!(
                recovered.len() <= original.len(),
                "recovered {} records from a journal of {}",
                recovered.len(),
                original.len()
            );
            prop_assert_eq!(
                &recovered[..],
                &original[..recovered.len()],
                "recovered records are not a prefix of the originals"
            );
        }
        Err(
            WalError::Corrupt { .. } | WalError::NotAJournal(_) | WalError::VersionMismatch { .. },
        ) => {}
        Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
    }
    Ok(())
}

fn truncation_case(seed: u64, n: usize, cut_frac: f64) -> Result<(), TestCaseError> {
    let records = sample_records(seed, n);
    let bytes = encode_log(seed, &records);
    let cut = ((bytes.len() as f64) * cut_frac) as usize;
    match decode(&bytes[..cut]) {
        // Cutting inside the header frame is "not a journal" — loud.
        Err(WalError::NotAJournal(_)) => {}
        Ok(contents) => {
            prop_assert_eq!(contents.header, sample_header(seed));
            prop_assert!(contents.valid_len as usize <= cut);
            prop_assert_eq!(contents.valid_len + contents.torn_bytes, cut as u64);
            prop_assert_eq!(&contents.records[..], &records[..contents.records.len()]);
        }
        Err(other) => prop_assert!(false, "truncation must never report corruption: {other}"),
    }
    Ok(())
}

fn bit_flip_case(
    seed: u64,
    n: usize,
    cut_frac: Option<f64>,
    pos_frac: f64,
    bit: u8,
) -> Result<(), TestCaseError> {
    let records = sample_records(seed, n);
    let mut bytes = encode_log(seed, &records);
    if let Some(cut_frac) = cut_frac {
        // Crashes and corruption compose: a torn tail on top of a flipped
        // bit must still never fabricate records.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        bytes.truncate(cut.max(1));
    }
    let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
    bytes[pos] ^= 1 << bit;
    assert_prefix_or_loud(&bytes, &records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_recovers_a_strict_prefix(
        seed in proptest::any::<u64>(),
        n in 1usize..40,
        cut_frac in 0.0f64..1.0,
    ) {
        truncation_case(seed, n, cut_frac)?;
    }

    #[test]
    fn single_bit_flip_is_prefix_or_loud(
        seed in proptest::any::<u64>(),
        n in 1usize..40,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        bit_flip_case(seed, n, None, pos_frac, bit)?;
    }

    #[test]
    fn flip_then_truncate_is_prefix_or_loud(
        seed in proptest::any::<u64>(),
        n in 1usize..25,
        pos_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        bit_flip_case(seed, n, Some(cut_frac), pos_frac, bit)?;
    }
}
