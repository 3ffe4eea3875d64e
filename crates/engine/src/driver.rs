//! The platform drive loop, shared by the single-platform runner (in the
//! `crowdjoin` facade) and the engine's per-shard driver.
//!
//! Policy encoded here, in one place:
//!
//! * publishable pairs are staged and released in full HITs
//!   ([`HitStager`]), flushing partial HITs only when the platform would
//!   otherwise idle;
//! * with *instant decision* the publishable set is recomputed after every
//!   HIT resolution, otherwise only once nothing is outstanding;
//! * an idle platform with an incomplete labeler must always yield a
//!   non-empty batch (anything else means the algorithm cannot progress).

use crowdjoin_core::{Label, Pair, ParallelLabeler, ScoredPair};
use crowdjoin_sim::{HitStager, Platform, TaskSpec, VirtualTime};
use crowdjoin_util::FxHashMap;

/// Drives `labeler` to completion against `platform` and returns the number
/// of publish rounds.
///
/// `truth_of` supplies the ground-truth answer the simulator uses to
/// synthesize worker responses, in the **labeler's** id space (map inside
/// the closure when labeler ids are shard-local). `on_resolution` fires
/// after each resolution batch is fed back, with `(crowdsourced so far,
/// open pairs on the platform, virtual time)` — the hook the runner uses to
/// record Figure 15 availability series.
///
/// # Panics
///
/// Panics if the labeler reports incomplete while the platform is idle and
/// no batch is publishable — impossible for well-formed inputs.
pub fn drive_to_completion(
    labeler: &mut ParallelLabeler,
    platform: &mut Platform,
    instant_decision: bool,
    truth_of: &dyn Fn(Pair) -> bool,
    on_resolution: &mut dyn FnMut(usize, usize, VirtualTime),
) -> usize {
    let mut ids: FxHashMap<u64, Pair> = FxHashMap::default();
    let mut next_id = 0u64;
    let mut stager = HitStager::new();
    let mut to_tasks = |batch: &[ScoredPair], ids: &mut FxHashMap<u64, Pair>| -> Vec<TaskSpec> {
        batch
            .iter()
            .map(|sp| {
                let id = next_id;
                next_id += 1;
                ids.insert(id, sp.pair);
                TaskSpec { id, truth: truth_of(sp.pair), priority: sp.likelihood }
            })
            .collect()
    };

    let first = labeler.next_batch();
    stager.stage(to_tasks(&first, &mut ids));
    stager.release(platform, true);

    while !labeler.is_complete() {
        match platform.step() {
            Some((time, resolved)) => {
                for r in &resolved {
                    let pair = ids[&r.id];
                    let label = if r.label { Label::Matching } else { Label::NonMatching };
                    labeler.submit_answer(pair, label);
                }
                on_resolution(labeler.result().num_crowdsourced(), platform.num_open_pairs(), time);
                let may_publish = instant_decision || platform.num_unresolved_pairs() == 0;
                if may_publish && !labeler.is_complete() {
                    let batch = labeler.next_batch();
                    stager.stage(to_tasks(&batch, &mut ids));
                    // Flush partial HITs only when the platform would
                    // otherwise go idle waiting for them.
                    let flush = platform.num_unresolved_pairs() == 0;
                    stager.release(platform, flush);
                }
            }
            None => {
                // Platform drained; labeling must still be able to progress.
                let batch = labeler.next_batch();
                stager.stage(to_tasks(&batch, &mut ids));
                assert!(
                    stager.num_staged() > 0,
                    "labeler stuck: platform idle but only {} pairs labeled",
                    labeler.result().num_labeled()
                );
                stager.release(platform, true);
            }
        }
    }
    stager.publish_rounds()
}
