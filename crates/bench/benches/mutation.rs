//! Microbenchmarks of the graph substrate itself: snapshot construction
//! and batched structure adjustment (the paper quotes ~850 ms to adjust a
//! 1B-edge graph by 10K mutations, §4.1 — this measures the chunked
//! copy-on-write snapshot update at miniature scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use graphbolt_bench::experiments::suite::draw_batches;
use graphbolt_bench::workloads::{standard_stream, GraphSpec};
use graphbolt_graph::{GraphSnapshot, WorkloadBias};

const SCALE: u32 = 12;

fn benches(c: &mut Criterion) {
    let spec = GraphSpec::at_scale(SCALE);
    let edges = spec.edges();
    let n = graphbolt_graph::generators::vertex_count(&edges);

    let mut group = c.benchmark_group("mutation/substrate");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("build_snapshot", |b| {
        b.iter(|| GraphSnapshot::from_edges(n, &edges))
    });

    for &size in &[16usize, 256, 4096] {
        let mut stream = standard_stream(spec, WorkloadBias::Uniform);
        let g0 = stream.initial_snapshot();
        let Some(batch) = draw_batches(&mut stream, &g0, &[size]).into_iter().next() else {
            continue;
        };
        group.throughput(Throughput::Elements(batch.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("apply_batch_rebuild", size),
            &batch,
            |b, batch| b.iter(|| g0.apply(batch).expect("batch validates")),
        );
    }
    group.finish();
}

criterion_group!(mutation, benches);
criterion_main!(mutation);
