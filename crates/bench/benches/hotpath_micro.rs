//! Criterion micro-benchmarks of the access-pipeline hot paths touched by
//! the host-performance overhaul: page translation (micro-TLB), the
//! combined data+fbit read, scratch-buffer chain resolution, and the cache
//! probe fast path. These are the repo's regression guard for simulator
//! *host* speed; simulated timing is covered by the golden tests.

use criterion::{criterion_group, criterion_main, Criterion};
use memfwd::{Machine, SimConfig};
use memfwd_cache::{AccessKind, Hierarchy, HierarchyConfig, MshrFile};
use memfwd_tagmem::{
    merge_mask, resolve_with_scratch, Addr, FxHashMap, PageMask, SpecView, TaggedMemory,
    DEFAULT_HOP_LIMIT, PAGE_BYTES,
};
use std::hint::black_box;

fn bench_page_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_translation");
    let mut mem = TaggedMemory::new();
    for p in 0..64u64 {
        mem.write_data(Addr(0x10_000 + p * PAGE_BYTES as u64), 8, p);
    }
    // Sequential words within one page: every access after the first hits
    // the micro-TLB.
    group.bench_function("read_sequential_tlb_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % PAGE_BYTES as u64;
            black_box(mem.read_data(Addr(0x10_000 + i), 8))
        })
    });
    // Page-strided reads: every access changes page, forcing the index
    // probe (the micro-TLB worst case).
    group.bench_function("read_page_strided_tlb_miss", |b| {
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 64;
            black_box(mem.read_data(Addr(0x10_000 + p * PAGE_BYTES as u64), 8))
        })
    });
    group.bench_function("write_sequential", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % PAGE_BYTES as u64;
            mem.write_data(Addr(0x10_000 + i), 8, i);
        })
    });
    group.bench_function("read_word_tagged_combined", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % PAGE_BYTES as u64;
            black_box(mem.read_word_tagged(Addr(0x10_000 + i)))
        })
    });
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolve_scratch");
    let mut mem = TaggedMemory::new();
    // An unforwarded word, a short chain, and a chain long enough to
    // engage the accurate cycle check.
    for h in 0..4u64 {
        mem.unforwarded_write(Addr(0x2000 + h * 64), 0x2000 + (h + 1) * 64, true);
    }
    for h in 0..32u64 {
        mem.unforwarded_write(Addr(0x8000 + h * 64), 0x8000 + (h + 1) * 64, true);
    }
    let mut scratch = Vec::new();
    group.bench_function("unforwarded", |b| {
        b.iter(|| {
            resolve_with_scratch(
                &mem,
                black_box(Addr(0x100)),
                DEFAULT_HOP_LIMIT,
                &mut scratch,
            )
            .unwrap()
        })
    });
    group.bench_function("4_hops", |b| {
        b.iter(|| {
            resolve_with_scratch(
                &mem,
                black_box(Addr(0x2004)),
                DEFAULT_HOP_LIMIT,
                &mut scratch,
            )
            .unwrap()
        })
    });
    group.bench_function("32_hops_cycle_check_engaged", |b| {
        b.iter(|| {
            resolve_with_scratch(
                &mem,
                black_box(Addr(0x8004)),
                DEFAULT_HOP_LIMIT,
                &mut scratch,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_cache_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_probe");
    group.bench_function("l1_hit", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let warm = h.access(0, 0x40, AccessKind::Load);
        let mut t = warm.complete_at;
        b.iter(|| {
            let a = h.access(t, black_box(0x40), AccessKind::Load);
            t = a.complete_at;
            black_box(a)
        })
    });
    group.bench_function("miss_stream", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let mut t = 0u64;
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(4096) & 0x3F_FFFF;
            let a = h.access(t, black_box(addr), AccessKind::Load);
            t = a.complete_at;
            black_box(a)
        })
    });
    group.finish();
}

fn bench_machine_refs(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_refs");
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
    group.bench_function("store_hit", |b| {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(64);
        b.iter(|| m.store_word(black_box(a), 9))
    });
    group.finish();
}

fn bench_bitmap_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_scan");
    let mut mem = TaggedMemory::new();
    // Touch two pages so the scan crosses a page boundary in the long
    // case; all forwarding bits stay clear (the common case).
    mem.write_data(Addr(0x10_000), 8, 1);
    mem.write_data(Addr(0x10_000 + PAGE_BYTES as u64), 8, 1);
    group.bench_function("clear_range_4_words", |b| {
        b.iter(|| black_box(mem.fbits_clear_range(black_box(Addr(0x10_040)), 4)))
    });
    group.bench_function("clear_range_32_words", |b| {
        b.iter(|| black_box(mem.fbits_clear_range(black_box(Addr(0x10_040)), 32)))
    });
    group.bench_function("clear_range_cross_page_512_words", |b| {
        let base = Addr(0x10_000 + PAGE_BYTES as u64 - 256 * 8);
        b.iter(|| black_box(mem.fbits_clear_range(black_box(base), 512)))
    });
    // One set bit near the end: the scan must walk almost the whole span
    // before failing — the worst case for the chunked kernel.
    let mut dirty = TaggedMemory::new();
    dirty.unforwarded_write(Addr(0x10_000 + 31 * 8), 0x9000, true);
    group.bench_function("clear_range_32_words_hit_at_31", |b| {
        b.iter(|| black_box(dirty.fbits_clear_range(black_box(Addr(0x10_000)), 32)))
    });
    group.finish();
}

fn bench_mshr_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("mshr_probe");
    // A populated MSHR file probed the way a run of misses probes it:
    // repeated in_flight checks against the flat lane-chunked array.
    let mut mshr = MshrFile::new(8);
    for i in 0..8u64 {
        mshr.allocate(0x100 + i, u64::MAX - i, false);
    }
    group.bench_function("probe_hit_8_entries", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 8;
            black_box(mshr.in_flight(black_box(0x100 + i)))
        })
    });
    group.bench_function("probe_miss_8_entries", |b| {
        b.iter(|| black_box(mshr.in_flight(black_box(0xDEAD))))
    });
    group.bench_function("batched_probe_32_misses", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for i in 0..32u64 {
                if mshr.in_flight(black_box(0x100 + i)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("prune_nothing_expired", |b| {
        b.iter(|| {
            mshr.prune(black_box(1));
            black_box(mshr.outstanding())
        })
    });
    group.finish();
}

fn bench_epoch_conflict_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_conflict_probe");
    // A task delta with reads and writes across 16 pages, probed against a
    // committed-writes map the way the epoch committer validates every
    // speculative task: word-granular bitmap intersection per page.
    let mut mem = TaggedMemory::new();
    for p in 0..16u64 {
        mem.write_data(Addr(p * PAGE_BYTES as u64), 8, p + 1);
    }
    let base = mem.spec_base();
    let mut v = SpecView::new(base);
    for p in 0..16u64 {
        v.read_word_tagged(Addr(p * PAGE_BYTES as u64 + 64));
        v.write_data(Addr(p * PAGE_BYTES as u64 + 128), 8, p);
    }
    let delta = v.into_delta();
    // Earlier tasks wrote the same 16 pages but different words: the
    // false-sharing shape the word masks exist to clear.
    let mut disjoint: FxHashMap<u64, PageMask> = FxHashMap::default();
    let mut overlapping: FxHashMap<u64, PageMask> = FxHashMap::default();
    for (pno, mask) in delta.reads.iter() {
        let mut shifted = *mask;
        for limb in shifted.iter_mut() {
            *limb = limb.rotate_left(1);
        }
        merge_mask(&mut disjoint, *pno, &shifted);
        merge_mask(&mut overlapping, *pno, mask);
    }
    group.bench_function("disjoint_16_pages", |b| {
        b.iter(|| black_box(delta.disjoint_from(black_box(&disjoint))))
    });
    group.bench_function("overlap_16_pages", |b| {
        b.iter(|| black_box(delta.disjoint_from(black_box(&overlapping))))
    });
    group.bench_function("classify_overlap_pure_reads", |b| {
        b.iter(|| black_box(delta.pure_reads_overlap(black_box(&overlapping))))
    });
    group.finish();
}

fn bench_epoch_delta_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_delta_merge");
    // Committing a clean task's page delta into main memory: the masked
    // word patch, sparse (one dirty word) and dense (whole page dirty).
    let mut mem = TaggedMemory::new();
    mem.write_data(Addr(0), 8, 1);
    let src = {
        let base = mem.spec_base();
        let mut v = SpecView::new(base);
        for w in 0..(PAGE_BYTES as u64 / 8) {
            v.write_data(Addr(w * 8), 8, w);
        }
        v.into_delta()
    };
    let (_, dense_page, dense_mask) = &src.pages[0];
    let mut sparse_mask: PageMask = [0; PAGE_BYTES / 8 / 64];
    sparse_mask[3] = 1 << 17;
    group.bench_function("install_words_sparse_1_word", |b| {
        b.iter(|| mem.install_words(black_box(0), dense_page, &sparse_mask))
    });
    group.bench_function("install_words_dense_512_words", |b| {
        b.iter(|| mem.install_words(black_box(0), dense_page, dense_mask))
    });
    group.finish();
}

fn bench_epoch_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_commit");
    // A full run_tasks round trip — speculate, validate, merge, replay
    // timing — against the identical work done as a plain serial loop.
    // The gap between the two is the engine's whole-epoch overhead tax.
    let task_work = |d: &mut dyn memfwd::Demand, base: Addr, i: usize| {
        let a = base.add_words(i as u64 * 8);
        let mut acc = 0u64;
        for w in 0..8u64 {
            d.store_word(a.add_words(w), i as u64 + w);
            acc = acc.wrapping_add(d.load_word(a.add_words(w)));
        }
        acc
    };
    group.bench_function("run_tasks_64_direct", |b| {
        let mut m = Machine::new(SimConfig::default().with_epoch_threads(0));
        let base = m.malloc(64 * 64 * 8);
        b.iter(|| black_box(m.run_tasks(64, |i, d| task_work(d, base, i))))
    });
    group.bench_function("run_tasks_64_threads_1", |b| {
        let mut m = Machine::new(SimConfig::default().with_epoch_threads(1));
        let base = m.malloc(64 * 64 * 8);
        b.iter(|| black_box(m.run_tasks(64, |i, d| task_work(d, base, i))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_page_translation,
    bench_resolve,
    bench_cache_probe,
    bench_machine_refs,
    bench_bitmap_scan,
    bench_mshr_probe,
    bench_epoch_conflict_probe,
    bench_epoch_delta_merge,
    bench_epoch_commit
);
criterion_main!(benches);
