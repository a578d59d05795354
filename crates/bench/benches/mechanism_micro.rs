//! Criterion micro-benchmarks of the mechanism itself (simulator-host
//! performance): forwarding-chain resolution, the relocation primitive,
//! list linearization, and raw demand-access throughput. These measure the
//! cost of *simulating* memory forwarding, complementing the simulated-
//! cycle experiments of the figure benches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use memfwd::{list_linearize, relocate, ListDesc, Machine, SimConfig};
use memfwd_tagmem::{resolve, Addr, TaggedMemory, DEFAULT_HOP_LIMIT};
use std::hint::black_box;

fn bench_chain_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_resolution");
    for hops in [0u64, 1, 4, 16] {
        let mut mem = TaggedMemory::new();
        for h in 0..hops {
            mem.unforwarded_write(Addr(0x1000 + h * 64), 0x1000 + (h + 1) * 64, true);
        }
        group.bench_function(format!("{hops}_hops"), |b| {
            b.iter(|| resolve(&mem, black_box(Addr(0x1004)), DEFAULT_HOP_LIMIT).unwrap())
        });
    }
    group.finish();
}

fn bench_relocate(c: &mut Criterion) {
    c.bench_function("relocate_64_words", |b| {
        b.iter_batched(
            || {
                let mut m = Machine::new(SimConfig::default());
                let src = m.malloc(64 * 8);
                let tgt = m.malloc(64 * 8);
                for i in 0..64 {
                    m.store_word(src.add_words(i), i);
                }
                (m, src, tgt)
            },
            |(mut m, src, tgt)| {
                relocate(&mut m, src, tgt, 64);
                m
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_linearize(c: &mut Criterion) {
    const DESC: ListDesc = ListDesc {
        node_words: 4,
        next_word: 0,
    };
    c.bench_function("linearize_256_nodes", |b| {
        b.iter_batched(
            || {
                let mut m = Machine::new(SimConfig::default());
                let head = m.malloc(8);
                m.store_ptr(head, Addr::NULL);
                for i in 0..256u64 {
                    let node = m.malloc(32);
                    let first = m.load_ptr(head);
                    m.store_ptr(node, first);
                    m.store_word(node + 8, i);
                    m.store_ptr(head, node);
                }
                let pool = m.new_pool();
                (m, head, pool)
            },
            |(mut m, head, mut pool)| {
                list_linearize(&mut m, head, DESC, &mut pool);
                m
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_demand_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("demand_access_throughput");
    group.bench_function("load_hit", |b| {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(64);
        m.store_word(a, 7);
        b.iter(|| black_box(m.load_word(black_box(a))))
    });
    group.bench_function("load_forwarded_1_hop", |b| {
        let mut m = Machine::new(SimConfig::default());
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store_word(new, 7);
        m.unforwarded_write(old, new.0, true);
        b.iter(|| black_box(m.load_word(black_box(old))))
    });
    group.bench_function("strided_miss_stream", |b| {
        let mut m = Machine::new(SimConfig::default());
        let base = m.malloc(1 << 22);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 4096) & ((1 << 22) - 1);
            black_box(m.load_word(base + i))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_chain_resolution,
    bench_relocate,
    bench_linearize,
    bench_demand_access
);
criterion_main!(benches);
