//! The kernel pass of the traced run: host time per call of the public
//! kernels of `tagmem`, `cache`, `cpu` and `core`.
//!
//! Each kernel is timed in batches whose size is calibrated so that the
//! two clock reads around a batch cost under 1% of it; the per-call time
//! of an empty routine, timed the same way, is subtracted, and the median
//! over [`SAMPLES`] batches is reported. Timing every call separately
//! would put a floor of one clock read (tens of nanoseconds) under every
//! entry.

use crate::util::{median, Metrics};
use memfwd::{Machine, SimConfig};
use memfwd_cache::{AccessKind, Hierarchy, HierarchyConfig};
use memfwd_cpu::{GradAccountant, OpClass, Pipeline, PipelineConfig, SpecQueue, StallClass};
use memfwd_tagmem::{resolve_with_scratch, Addr, TaggedMemory, DEFAULT_HOP_LIMIT, PAGE_BYTES};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 21;

/// Clock overhead is kept below 1% of a batch: a batch lasts at least
/// 100 clock reads' worth of time, and never less than this.
const MIN_BATCH: Duration = Duration::from_micros(200);

/// Median cost of one `Instant::now()` pair, in nanoseconds.
fn clock_ns() -> f64 {
    let mut v = Vec::new();
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(Instant::now());
        }
        v.push(t.elapsed().as_nanos() as f64 / 1000.0);
    }
    median(&v)
}

/// Times `run(n)` (which performs `n` calls and returns the time they
/// took) in calibrated batches; returns the median nanoseconds per call.
fn per_call(clock: f64, mut run: impl FnMut(u64) -> Duration) -> (f64, f64) {
    let floor = MIN_BATCH.max(Duration::from_nanos((clock * 100.0) as u64));
    let mut n = 1u64;
    while run(n) < floor {
        n *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| run(n).as_nanos() as f64 / n as f64)
        .collect();
    let per = median(&samples);
    // Share of a batch spent reading the clock.
    (per, 100.0 * clock / (per * n as f64))
}

/// Times a kernel that needs no per-batch set-up.
fn simple(clock: f64, mut f: impl FnMut()) -> (f64, f64) {
    per_call(clock, |n| {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        t.elapsed()
    })
}

pub fn run(m: &mut Metrics) {
    let clock = clock_ns();
    let (baseline, _) = simple(clock, || {
        black_box(());
    });
    let mut worst_clock_pct = 0.0f64;
    let mut put = |m: &mut Metrics, name: &str, (ns, pct): (f64, f64), per: f64| {
        worst_clock_pct = worst_clock_pct.max(pct);
        m.put(name.to_string(), ((ns - baseline) / per).max(0.0), "ns");
    };

    // tagmem: combined data+fbit read, chain resolution, fbit span scan.
    let mut mem = TaggedMemory::new();
    for p in 0..64u64 {
        mem.write_data(Addr(0x10_000 + p * PAGE_BYTES as u64), 8, p);
    }
    mem.unforwarded_write(Addr(0x3000), 0x3040, true);
    for h in 0..4u64 {
        mem.unforwarded_write(Addr(0x2000 + h * 64), 0x2000 + (h + 1) * 64, true);
    }
    let mut i = 0u64;
    let r = simple(clock, || {
        i = (i + 8) % PAGE_BYTES as u64;
        black_box(mem.read_word_tagged(Addr(0x10_000 + i)));
    });
    put(m, "tagmem.read_tagged_ns", r, 1.0);
    let mut scratch = Vec::new();
    for (name, addr) in [
        ("tagmem.resolve_0hop_ns", 0x100),
        ("tagmem.resolve_1hop_ns", 0x3000),
        ("tagmem.resolve_4hop_ns", 0x2000),
    ] {
        let r = simple(clock, || {
            let res =
                resolve_with_scratch(&mem, black_box(Addr(addr)), DEFAULT_HOP_LIMIT, &mut scratch);
            black_box(res.is_ok());
        });
        put(m, name, r, 1.0);
    }
    let r = simple(clock, || {
        black_box(mem.fbits_clear_range(black_box(Addr(0x10_040)), 32));
    });
    put(m, "tagmem.fbits_scan_32w_ns", r, 1.0);

    // cache: an L1 hit, and a stream of page-strided misses.
    let mut h = Hierarchy::new(HierarchyConfig::default());
    let mut t = h.access(0, 0x40, AccessKind::Load).complete_at;
    let r = simple(clock, || {
        let a = h.access(t, black_box(0x40), AccessKind::Load);
        t = a.complete_at;
    });
    put(m, "cache.access_l1_hit_ns", r, 1.0);
    let mut h = Hierarchy::new(HierarchyConfig::default());
    let (mut t, mut addr) = (0u64, 0u64);
    let r = simple(clock, || {
        addr = addr.wrapping_add(4096) & 0x3F_FFFF;
        let a = h.access(t, black_box(addr), AccessKind::Load);
        t = a.complete_at;
    });
    put(m, "cache.access_miss_ns", r, 1.0);

    // cpu: dispatch+complete (graduating through a full ROB), the
    // speculation check of an unforwarded load against a window of
    // unresolved stores, and graduation.
    let mut p = Pipeline::new(PipelineConfig::default());
    let r = simple(clock, || {
        let d = p.dispatch();
        p.complete(OpClass::Load, d, d + 3, false);
    });
    put(m, "cpu.dispatch_complete_ns", r, 1.0);
    let mut q = SpecQueue::new();
    for w in 0..64u64 {
        q.on_store(w, w, u64::MAX / 2);
    }
    let mut cycle = 0u64;
    let r = simple(clock, || {
        cycle += 1;
        black_box(q.check_load(cycle, 1000 + cycle % 64, 1000 + cycle % 64));
    });
    put(m, "cpu.spec_check_ns", r, 1.0);
    let mut g = GradAccountant::new(4);
    let mut gc = 0u64;
    let r = simple(clock, || {
        gc += 1;
        black_box(g.graduate(gc / 2, gc / 2, StallClass::InstStall));
    });
    put(m, "cpu.graduate_ns", r, 1.0);

    // core: whole demand references through the machine, and relocation.
    let mut mach = Machine::new(SimConfig::default());
    let a = mach.malloc(64);
    mach.store_word(a, 7);
    let old = mach.malloc(8);
    let new = mach.malloc(8);
    mach.store_word(new, 7);
    mach.unforwarded_write(old, new.0, true);
    let r = simple(clock, || {
        black_box(mach.load_word(black_box(a)));
    });
    put(m, "core.load_word_hit_ns", r, 1.0);
    let r = simple(clock, || mach.store_word(black_box(a), 9));
    put(m, "core.store_word_hit_ns", r, 1.0);
    let r = simple(clock, || {
        black_box(mach.load_word(black_box(old)));
    });
    put(m, "core.load_fwd1_ns", r, 1.0);
    const WORDS: u64 = 64;
    let mut mach = Machine::new(SimConfig::default());
    let r = per_call(clock, |n| {
        let pairs: Vec<_> = (0..n)
            .map(|_| (mach.malloc(WORDS * 8), mach.malloc(WORDS * 8)))
            .collect();
        let t = Instant::now();
        for &(src, tgt) in &pairs {
            memfwd::relocate(&mut mach, src, tgt, WORDS);
        }
        t.elapsed()
    });
    put(m, "core.relocate_ns_per_word", r, WORDS as f64);

    m.put("kernel.baseline_ns", baseline, "ns");
    m.put("kernel.clock_overhead_pct", worst_clock_pct, "%");
}
