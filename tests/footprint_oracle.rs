//! The dependency store's footprint gauges are O(1) counters kept by the
//! store's writing methods. This suite checks them against a full walk
//! of the store (`DependencyStore::walk_footprint`, the oracle) for the
//! three aggregation shapes the engine meters differently:
//!
//! * `f64` (PageRank) — fixed-size entries,
//! * `Vec<f64>` (label propagation) — heap bytes by capacity,
//! * `MinBag` (multiset SSSP) — heap bytes by candidate count,
//!
//! after the initial run, every batch, a checkpoint restore, and every
//! rung of the degrade ladder.

use graphbolt::algorithms::{LabelPropagation, PageRank, ShortestPathsMultiset};
use graphbolt::core::checkpoint::{Checkpoint, F64Codec, VecF64Codec};
use graphbolt::core::{agg_total_bytes, Algorithm, DegradeLevel, EngineOptions, StreamingEngine};
use graphbolt::graph::generators::{rmat, RmatConfig};
use graphbolt::graph::{Edge, GraphSnapshot, MutationBatch, MutationStream, StreamConfig};

const ITERS: usize = 10;

fn assert_counters_match_walk<A: Algorithm>(engine: &StreamingEngine<A>, ctx: &str) {
    let walked = engine
        .store()
        .walk_footprint(|a| agg_total_bytes(engine.algorithm(), a));
    assert_eq!(
        (
            engine.dependency_memory_bytes(),
            engine.stored_aggregations()
        ),
        walked,
        "{ctx}: (bytes, entries) counters vs walk"
    );
}

fn fixture(seed: u64) -> (MutationStream, GraphSnapshot) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let edges = rmat(&RmatConfig::new(8, 6), &mut rng);
    let cfg = StreamConfig {
        deletion_fraction: 0.3,
        ..StreamConfig::default()
    };
    let stream = MutationStream::new(edges, cfg);
    let g0 = stream.initial_snapshot();
    (stream, g0)
}

/// Applies `batches` stream batches of `size` mutations, checking the
/// counters after each; the last one also adds a vertex past |V|.
fn stream_batches<A: Algorithm>(
    engine: &mut StreamingEngine<A>,
    stream: &mut MutationStream,
    batches: usize,
    size: usize,
    ctx: &str,
) {
    for b in 0..batches {
        let Some(mut batch) = stream.next_batch(engine.graph(), size) else {
            break;
        };
        if b + 1 == batches {
            let n = engine.graph().num_vertices() as u32;
            let mut grow = MutationBatch::new();
            grow.add(Edge::new(0, n, 1.0)).add(Edge::new(n, 1, 1.0));
            for e in batch.additions() {
                grow.add(*e);
            }
            for e in batch.deletions() {
                grow.delete(*e);
            }
            batch = grow.normalize_against(engine.graph());
        }
        engine.apply_batch(&batch).unwrap();
        assert_counters_match_walk(engine, &format!("{ctx}: batch {b}"));
    }
}

/// Checkpoints an engine and restores it into a new one.
type RoundTrip<A> = dyn Fn(&StreamingEngine<A>) -> StreamingEngine<A>;

/// Drives one algorithm through the initial run, batches, an optional
/// checkpoint round trip, both forced degrade rungs, and a budgeted
/// engine whose watchdog walks the cut-off halvings.
fn exercise<A: Algorithm + Clone>(alg: A, seed: u64, round_trip: Option<&RoundTrip<A>>) {
    let (mut stream, g0) = fixture(seed);
    let opts = EngineOptions::with_iterations(ITERS);
    let mut engine = StreamingEngine::new(g0.clone(), alg.clone(), opts);
    engine.run_initial();
    assert_counters_match_walk(&engine, "initial");
    stream_batches(&mut engine, &mut stream, 4, 24, "stream");

    if let Some(round_trip) = round_trip {
        let mut restored = round_trip(&engine);
        assert_counters_match_walk(&restored, "restored");
        stream_batches(&mut restored, &mut stream, 2, 24, "after restore");
    }

    let full_bytes = engine.dependency_memory_bytes();
    for level in [DegradeLevel::PrunedStore, DegradeLevel::DroppedStore] {
        engine.force_degrade(level);
        assert_counters_match_walk(&engine, &format!("{level:?}"));
        stream_batches(&mut engine, &mut stream, 2, 24, &format!("{level:?}"));
    }

    // A budget below the full store: the watchdog halves the cut-off
    // rung by rung until the store fits (or drops it).
    let mut budgeted = StreamingEngine::new(g0, alg, opts.budget(full_bytes / 3));
    budgeted.run_initial();
    assert!(budgeted.degrade_level() > DegradeLevel::None);
    assert_counters_match_walk(&budgeted, "budgeted");
    stream_batches(&mut budgeted, &mut stream, 2, 24, "budgeted");
}

#[test]
fn pagerank_f64_counters_match_walk() {
    let round_trip = |e: &StreamingEngine<PageRank>| {
        Checkpoint::capture(e, &F64Codec, &F64Codec)
            .restore(
                e.graph().clone(),
                e.algorithm().clone(),
                *e.options(),
                &F64Codec,
                &F64Codec,
            )
            .unwrap()
    };
    exercise(PageRank::default(), 3, Some(&round_trip));
}

#[test]
fn label_propagation_vec_counters_match_walk() {
    let (_, g0) = fixture(5);
    let lp = LabelPropagation::with_synthetic_seeds(4, g0.num_vertices(), 8);
    let round_trip = |e: &StreamingEngine<LabelPropagation>| {
        Checkpoint::capture(e, &VecF64Codec, &VecF64Codec)
            .restore(
                e.graph().clone(),
                e.algorithm().clone(),
                *e.options(),
                &VecF64Codec,
                &VecF64Codec,
            )
            .unwrap()
    };
    exercise(lp, 5, Some(&round_trip));
}

/// `MinBag` has no checkpoint codec, so this one skips the round trip.
#[test]
fn multiset_sssp_minbag_counters_match_walk() {
    exercise(ShortestPathsMultiset::new(0), 7, None);
}
