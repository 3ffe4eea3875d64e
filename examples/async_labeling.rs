//! Driving the labeling framework from a separate thread over channels —
//! the shape a real AMT integration takes, where crowd answers arrive
//! asynchronously and the labeler must decide *instantly* which pairs to
//! publish next (the paper's instant-decision optimization).
//!
//! A "platform" thread simulates workers answering HITs and streams answers
//! back over an `mpsc` channel; the main thread owns the
//! [`ParallelLabeler`] state machine, feeds answers in as they arrive, and
//! pushes newly publishable pairs out.
//!
//! ```bash
//! cargo run --release -p crowdjoin --example async_labeling
//! ```

use crowdjoin::{
    CandidateSet, GroundTruth, Label, Pair, ParallelLabeler, ScoredPair, SortStrategy,
};
use std::sync::mpsc;
use std::thread;

/// Messages to the platform thread: pairs to publish (with their truth, so
/// the fake crowd can answer).
struct PublishRequest {
    pair: Pair,
    truth: Label,
}

fn main() {
    // A chain of 30 objects in one entity cluster plus distractors: the
    // candidate graph is a long path, so everything can be published in one
    // wave (Section 5.1's motivating case).
    let n = 40u32;
    let truth = GroundTruth::from_clusters(n as usize, &[(0..30).collect()]);
    let mut pairs = Vec::new();
    for i in 0..29u32 {
        pairs.push(ScoredPair::new(Pair::new(i, i + 1), 0.9 - i as f64 * 0.01));
    }
    for i in 30..n - 1 {
        pairs.push(ScoredPair::new(Pair::new(i, i + 1), 0.3));
    }
    let candidates = CandidateSet::new(n as usize, pairs);
    let order = crowdjoin::sort_pairs(&candidates, SortStrategy::ExpectedLikelihood);

    let (publish_tx, publish_rx) = mpsc::channel::<PublishRequest>();
    let (answer_tx, answer_rx) = mpsc::channel::<(Pair, Label)>();

    // Platform thread: answers each published pair after a tiny delay.
    let platform = thread::spawn(move || {
        let mut answered = 0usize;
        while let Ok(req) = publish_rx.recv() {
            thread::sleep(std::time::Duration::from_millis(1));
            if answer_tx.send((req.pair, req.truth)).is_err() {
                break;
            }
            answered += 1;
        }
        answered
    });

    // Labeler loop: publish what must be crowdsourced, ingest answers as
    // they arrive, publish any newly necessary pairs immediately.
    let mut labeler = ParallelLabeler::new(n as usize, order);
    let mut published = 0usize;
    let initial = labeler.next_batch();
    println!("first wave: publishing {} of {} pairs", initial.len(), candidates.len());
    for sp in initial {
        published += 1;
        publish_tx
            .send(PublishRequest { pair: sp.pair, truth: truth.label_of(sp.pair) })
            .expect("platform thread alive");
    }

    while !labeler.is_complete() {
        let (pair, label) = answer_rx.recv().expect("answers keep flowing");
        labeler.submit_answer(pair, label);
        // Instant decision: anything that just became provably necessary
        // goes out without waiting for the rest of the wave.
        for sp in labeler.next_batch() {
            published += 1;
            publish_tx
                .send(PublishRequest { pair: sp.pair, truth: truth.label_of(sp.pair) })
                .expect("platform thread alive");
        }
    }
    drop(publish_tx);
    let answered = platform.join().expect("platform thread exits cleanly");

    let result = labeler.into_result();
    println!(
        "done: {} pairs labeled, {} crowdsourced ({} published, {} answered), {} deduced",
        result.num_labeled(),
        result.num_crowdsourced(),
        published,
        answered,
        result.num_deduced()
    );
    assert_eq!(result.num_crowdsourced(), published);
    for sp in candidates.pairs() {
        assert_eq!(result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
    }
    println!("all labels verified against ground truth");
}
