//! Criterion bench: the campaign runtime — sequential batch evaluation,
//! and whole scenario-grid throughput with the shared evaluation cache on
//! vs off.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use evaluator::{EvalRequest, EvaluateBatch, SurrogateEvaluator};
use fahana_runtime::{CampaignConfig, CampaignEngine};

fn batch_requests(count: usize) -> Vec<EvalRequest> {
    (0..count)
        .map(|i| {
            let mut arch = archspace::zoo::paper_fahana_small(5, 64);
            arch.set_name(format!("bench-child-{i}"));
            EvalRequest::new(arch, 2)
        })
        .collect()
}

fn campaign(threads: usize, use_cache: bool) -> CampaignConfig {
    CampaignConfig {
        episodes: 10,
        samples: 150,
        threads,
        use_cache,
        ..CampaignConfig::default()
    }
}

fn bench_runtime(c: &mut Criterion) {
    let requests = batch_requests(64);
    c.bench_function("runtime/batch64_sequential", |b| {
        let mut stage = SurrogateEvaluator::default();
        b.iter(|| black_box(stage.evaluate_batch(black_box(&requests))))
    });

    c.bench_function("runtime/campaign8_1_thread_no_cache", |b| {
        b.iter(|| {
            let engine = CampaignEngine::new(campaign(1, false)).expect("valid grid");
            black_box(engine.run().expect("campaign runs").scenarios.len())
        })
    });
    c.bench_function("runtime/campaign8_4_threads_cached", |b| {
        b.iter(|| {
            let engine = CampaignEngine::new(campaign(4, true)).expect("valid grid");
            black_box(engine.run().expect("campaign runs").scenarios.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime
}
criterion_main!(benches);
