//! Criterion bench for experiment E4: per-bunch collection pause versus
//! whole-heap collection pause as the heap grows, and one bunch
//! collection as its inter-bunch stub table grows.

use bmx_bench::fixtures;
use bmx_common::NodeId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const OBJECTS_PER_BUNCH: usize = 150;

fn bench_pause(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_pause_vs_heap");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    for bunches in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("per_bunch_bgc", bunches),
            &bunches,
            |b, &k| {
                b.iter_batched(
                    || fixtures::multi_bunch_heap(k, OBJECTS_PER_BUNCH).expect("heap"),
                    |(mut cluster, ids)| cluster.run_bgc(NodeId(0), ids[0]).expect("bgc"),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("whole_heap_ggc", bunches),
            &bunches,
            |b, &k| {
                b.iter_batched(
                    || fixtures::multi_bunch_heap(k, OBJECTS_PER_BUNCH).expect("heap"),
                    |(mut cluster, _ids)| cluster.run_ggc(NodeId(0)).expect("ggc"),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

/// `run_bgc` over a bunch holding 1k, 10k and 100k inter-bunch stubs: a
/// collection should cost linear time in its live objects and SSP
/// entries, so ns/iter should grow about tenfold per row.
fn bench_stub_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_bgc_vs_inter_stubs");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    for stubs in [1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("run_bgc", stubs), &stubs, |b, &n| {
            b.iter_batched(
                || fixtures::inter_stub_heap(n).expect("heap"),
                |(mut cluster, a)| cluster.run_bgc(NodeId(0), a).expect("bgc"),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pause, bench_stub_scaling);
criterion_main!(benches);
