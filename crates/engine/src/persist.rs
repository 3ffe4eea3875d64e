//! Journal glue between the engine and `crowdjoin-wal`: job fingerprints,
//! header verification, and the stats-snapshot conversion.
//!
//! The wal crate defines the on-disk format but knows nothing about
//! labelers or platforms; this module is where journal records gain their
//! engine meaning. The resume entry point lives in
//! [`crate::Engine::resume`]; the record append/verify points live in
//! [`crate::task::ShardTask`] and the event loop.

use crate::engine::EngineConfig;
use crowdjoin_core::{GroundTruth, ScoredPair};
use crowdjoin_sim::{PlatformConfig, PlatformStats};
use crowdjoin_wal::{fnv1a64, JobHeader, StatsSnapshot, WalError, FORMAT_VERSION};

/// Converts live platform counters into the journal's snapshot encoding.
pub(crate) fn snapshot_of(stats: &PlatformStats) -> StatsSnapshot {
    StatsSnapshot {
        hits_published: stats.hits_published as u64,
        pairs_published: stats.pairs_published as u64,
        pair_slots: stats.pair_slots as u64,
        assignments_completed: stats.assignments_completed as u64,
        total_cost_cents: stats.total_cost_cents,
        last_resolution: stats.last_resolution.0,
        qualified_workers: stats.qualified_workers as u64,
        assignments_abandoned: stats.assignments_abandoned as u64,
    }
}

/// Fingerprint of the global labeling order: the order decides what gets
/// crowdsourced versus deduced, so it is part of the job's identity.
fn order_hash(order: &[ScoredPair]) -> u64 {
    fnv1a64(order.iter().flat_map(|sp| {
        sp.pair
            .a()
            .to_le_bytes()
            .into_iter()
            .chain(sp.pair.b().to_le_bytes())
            .chain(sp.likelihood.to_bits().to_le_bytes())
    }))
}

/// Fingerprint of the ground-truth entity assignment the simulated workers
/// answer from.
fn truth_hash(truth: &GroundTruth) -> u64 {
    fnv1a64((0..truth.num_objects() as u32).flat_map(|o| truth.entity_of(o).to_le_bytes()))
}

/// Fingerprint of the platform configuration: every tunable (including
/// the platform seed) hashed field by field, floats by their exact bits.
/// Deliberately *not* a hash of the `Debug` rendering — that format is
/// unstable across toolchains, and a fingerprint that drifts under a
/// rebuild would refuse to resume journals of identical jobs.
fn platform_hash(cfg: &PlatformConfig) -> u64 {
    let dist = |d: &crowdjoin_sim::LogNormal| [d.median().to_bits(), d.sigma().to_bits()];
    let policy = match cfg.assignment_policy {
        crowdjoin_sim::AssignmentPolicy::Random => 0u64,
        crowdjoin_sim::AssignmentPolicy::NonMatchingFirst => 1u64,
    };
    let mut words: Vec<u64> = vec![
        cfg.batch_size as u64,
        u64::from(cfg.assignments_per_hit),
        u64::from(cfg.price_per_assignment_cents),
        cfg.num_workers as u64,
        cfg.spammer_fraction.to_bits(),
        cfg.good_accuracy.to_bits(),
        cfg.spammer_accuracy.to_bits(),
        u64::from(cfg.qualification_test),
        u64::from(cfg.qualification_questions),
        policy,
    ];
    words.extend(dist(&cfg.work_time_per_pair));
    words.extend(dist(&cfg.revisit_delay));
    words.extend(dist(&cfg.between_assignments));
    words.extend([
        cfg.abandonment_rate.to_bits(),
        cfg.abandonment_timeout_secs.to_bits(),
        cfg.seed,
    ]);
    fnv1a64(words.into_iter().flat_map(u64::to_le_bytes))
}

/// Builds the job-identity header a journaled run writes as its first
/// frame. `num_shards` is the *effective* target shard count (after the
/// `0 = one per CPU` default is resolved), so a journal resumes to the
/// same partition on any machine.
pub(crate) fn job_header(
    num_objects: usize,
    order: &[ScoredPair],
    truth: &GroundTruth,
    platform: &PlatformConfig,
    config: &EngineConfig,
    num_shards: usize,
) -> JobHeader {
    JobHeader {
        version: FORMAT_VERSION,
        num_objects: num_objects as u64,
        order_len: order.len() as u64,
        order_hash: order_hash(order),
        truth_hash: truth_hash(truth),
        platform_hash: platform_hash(platform),
        engine_seed: config.seed,
        num_shards: num_shards as u32,
        instant_decision: config.instant_decision,
        reshard: false,
        ordering: 0,
    }
}

/// Checks field-by-field that the journal belongs to the job being
/// resumed, reporting the first disagreeing field. The labeling order comes
/// first: it decides which questions were paid for, and a changed input
/// (records added to or edited in a stream's spool) shows there first.
pub(crate) fn verify_header(journal: &JobHeader, job: &JobHeader) -> Result<(), WalError> {
    let fields: [(&'static str, u64, u64); 10] = [
        ("order_len", journal.order_len, job.order_len),
        ("order_hash", journal.order_hash, job.order_hash),
        ("num_objects", journal.num_objects, job.num_objects),
        ("truth_hash", journal.truth_hash, job.truth_hash),
        ("platform_hash (platform config/seed)", journal.platform_hash, job.platform_hash),
        ("engine_seed", journal.engine_seed, job.engine_seed),
        ("num_shards", u64::from(journal.num_shards), u64::from(job.num_shards)),
        ("instant_decision", u64::from(journal.instant_decision), u64::from(job.instant_decision)),
        // Reserved, always 0 for this build. Non-zero means a retired
        // dynamic re-sharding barrier moved the journal's answers into
        // shards this build never creates; replaying them would diverge.
        (
            "reshard (the journal was written with dynamic re-sharding, which this build no \
             longer has, and must be finished by the build that started it)",
            u64::from(journal.reshard),
            u64::from(job.reshard),
        ),
        // Reserved, always 0 for this build. Non-zero means a retired
        // question-ordering policy chose the journal's crowdsourced pairs;
        // replaying it through the one remaining order would diverge.
        (
            "ordering (the journal was written under a question-ordering policy this build \
             no longer has and must be finished by the build that started it)",
            u64::from(journal.ordering),
            u64::from(job.ordering),
        ),
    ];
    for (field, j, r) in fields {
        if j != r {
            return Err(WalError::HeaderMismatch { field, journal: j, job: r });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_core::Pair;

    fn sample_inputs() -> (Vec<ScoredPair>, GroundTruth, PlatformConfig) {
        let order =
            vec![ScoredPair::new(Pair::new(0, 1), 0.9), ScoredPair::new(Pair::new(1, 2), 0.8)];
        (order, GroundTruth::from_clusters(3, &[vec![0, 1]]), PlatformConfig::perfect_workers(7))
    }

    #[test]
    fn header_is_stable_and_input_sensitive() {
        let (order, truth, platform) = sample_inputs();
        let cfg = EngineConfig::default();
        let h = job_header(3, &order, &truth, &platform, &cfg, 2);
        assert_eq!(h, job_header(3, &order, &truth, &platform, &cfg, 2), "deterministic");
        verify_header(&h, &h).expect("header matches itself");

        // Any input change must be caught.
        let mut reordered = order.clone();
        reordered.swap(0, 1);
        let h2 = job_header(3, &reordered, &truth, &platform, &cfg, 2);
        assert!(verify_header(&h, &h2).is_err(), "order change detected");

        let other_truth = GroundTruth::all_distinct(3);
        let h3 = job_header(3, &order, &other_truth, &platform, &cfg, 2);
        assert!(verify_header(&h, &h3).is_err(), "truth change detected");

        let h4 = job_header(3, &order, &truth, &PlatformConfig::perfect_workers(8), &cfg, 2);
        assert!(verify_header(&h, &h4).is_err(), "platform seed change detected");

        let knobs = PlatformConfig { batch_size: 10, ..platform.clone() };
        let h4b = job_header(3, &order, &truth, &knobs, &cfg, 2);
        assert!(verify_header(&h, &h4b).is_err(), "platform knob change detected");

        let latency = PlatformConfig {
            revisit_delay: crowdjoin_sim::LogNormal::from_median(900.0, 1.0),
            ..platform.clone()
        };
        let h4c = job_header(3, &order, &truth, &latency, &cfg, 2);
        assert!(verify_header(&h, &h4c).is_err(), "latency model change detected");

        let other_cfg = EngineConfig { seed: 1, ..EngineConfig::default() };
        let h5 = job_header(3, &order, &truth, &platform, &other_cfg, 2);
        assert!(verify_header(&h, &h5).is_err(), "engine seed change detected");

        assert_eq!(h.ordering, 0, "the reserved byte is always written 0");
        let retired = JobHeader { ordering: 2, ..h };
        let err = verify_header(&retired, &h).expect_err("retired policy byte detected");
        assert!(
            err.to_string().contains("ordering"),
            "mismatch must name the ordering field: {err}"
        );

        assert!(!h.reshard, "the reserved byte is always written 0");
        let resharded = JobHeader { reshard: true, ..h };
        let err = verify_header(&resharded, &h).expect_err("re-sharded journal detected");
        assert!(err.to_string().contains("re-sharding"), "mismatch must name the field: {err}");
    }
}
