//! Criterion bench behind ablation A1: the three CPU lowerings of the
//! same automaton (registers vs frontier NFA vs subset DFA), plus the
//! parallel chunking wrapper.

use crispr_bench::workloads;
use crispr_engines::{
    BitParallelEngine, DfaEngine, Engine, IndelEngine, NfaEngine, ParallelEngine, ScalarEngine,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_lowerings(c: &mut Criterion) {
    let (genome, guides, _) = workloads::planted(300_000, 2, 1, 27);
    let mut group = c.benchmark_group("cpu_lowerings_300kbp_2guides_k1");
    group.sample_size(10);
    group.bench_function("bitparallel", |b| {
        let engine = BitParallelEngine::new();
        b.iter(|| engine.search(&genome, &guides, 1).expect("engine runs"));
    });
    group.bench_function("nfa-frontier", |b| {
        let engine = NfaEngine::new();
        b.iter(|| engine.search(&genome, &guides, 1).expect("engine runs"));
    });
    group.bench_function("dfa-subset", |b| {
        let engine = DfaEngine::new();
        b.iter(|| engine.search(&genome, &guides, 1).expect("engine runs"));
    });
    group.bench_function("scalar-reference", |b| {
        let engine = ScalarEngine::new();
        b.iter(|| engine.search(&genome, &guides, 1).expect("engine runs"));
    });
    // Exact-fragment (pigeonhole) filtration, as the batched cascade's
    // fragment lookup runs it for the whole guide set.
    group.bench_function("pigeonhole-filtration", |b| {
        let engine = BitParallelEngine::batched();
        b.iter(|| engine.search(&genome, &guides, 1).expect("engine runs"));
    });
    group.finish();
}

fn bench_indels(c: &mut Criterion) {
    // Mismatch-only vs edit-distance search at the same budget: the price
    // of indel tolerance on the CPU (Myers registers vs shift-and).
    let (genome, guides, _) = workloads::planted(300_000, 2, 2, 29);
    let mut group = c.benchmark_group("indels_300kbp_2guides_k2");
    group.sample_size(10);
    group.bench_function("mismatch-bitparallel", |b| {
        let engine = BitParallelEngine::new();
        b.iter(|| engine.search(&genome, &guides, 2).expect("engine runs"));
    });
    group.bench_function("edit-distance-myers", |b| {
        let engine = IndelEngine::new();
        b.iter(|| engine.search(&genome, &guides, 2));
    });
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    let (genome, guides, _) = workloads::planted(2_000_000, 20, 3, 28);
    let mut group = c.benchmark_group("chunked_threads_2mbp_20guides_k3");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("bitparallel", threads), &threads, |b, &t| {
            let engine = ParallelEngine::new(BitParallelEngine::new(), t);
            b.iter(|| engine.search(&genome, &guides, 3).expect("engine runs"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lowerings, bench_threads, bench_indels);
criterion_main!(benches);
