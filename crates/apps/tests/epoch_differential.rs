//! Differential property suite for the epoch-parallel execution engine.
//!
//! `Machine::run_tasks` with `epoch_threads >= 1` must be **bit-identical**
//! to serial execution: equal checksums and equal statistics down to every
//! counter, with two invariant tiers —
//!
//! - across worker counts `>= 1` the *complete* `RunStats` (including the
//!   `EpochStats` bookkeeping block) is identical: commit decisions depend
//!   on task order and footprints, never on scheduling;
//! - against `epoch_threads == 0` (the plain serial loop) everything but
//!   the epoch block — which is then all zero — is identical.
//!
//! The same identity covers the machine's two instances of the demand
//! body: a run with an attached observer that can never fire (a watchdog
//! stall bound of `u64::MAX`) takes the observed instance — and the direct
//! path of every task group — and must match the unobserved run exactly.
//!
//! The properties drive whole application runs across apps × seeds at
//! thread counts {0, 1, 2, 4} and on the observed instance, split runs at
//! random checkpoint cadences so resumes land mid-epoch-stream, and force
//! replays with a seeded high-conflict workload (every task
//! read-modify-writes one shared word).

use memfwd::{Machine, SimConfig};
use memfwd_apps::{run_ck, run_ok, App, Checkpointer, CkOutcome, RunConfig, Variant};
use proptest::prelude::*;

fn config(variant: Variant, seed: u64, threads: usize) -> RunConfig {
    let mut cfg = RunConfig::new(variant).smoke();
    cfg.seed = seed;
    cfg.sim.epoch_threads = threads;
    cfg
}

/// The serial configuration with an inert observer attached, which routes
/// every reference through the observed demand body.
fn observed(variant: Variant, seed: u64) -> RunConfig {
    let mut cfg = config(variant, seed, 0);
    cfg.sim.watchdog.stall_cycles = Some(u64::MAX);
    cfg
}

/// Runs to completion; renders the deterministic statistics and the epoch
/// bookkeeping block separately (they have different identity tiers).
fn full_run(app: App, cfg: &RunConfig) -> (u64, String, String) {
    let out = run_ok(app, cfg);
    (
        out.checksum,
        format!("{:?}", out.stats.sans_epoch()),
        format!("{:?}", out.stats.epoch),
    )
}

/// Runs with a `stop_after(1)` checkpointer at `cadence` refs, then
/// resumes the captured snapshot to completion. Checkpoint boundaries sit
/// *between* epochs (a `run_tasks` group is atomic), so the resumed run
/// re-enters the epoch stream mid-way through it.
fn split_run(app: App, cfg: &RunConfig, cadence: u64) -> (u64, String, String) {
    let mut ck = Checkpointer::stop_after(1).with_every(cadence);
    match run_ck(app, cfg, &mut ck).expect("split run faulted") {
        CkOutcome::Done(out) => (
            out.checksum,
            format!("{:?}", out.stats.sans_epoch()),
            format!("{:?}", out.stats.epoch),
        ),
        CkOutcome::Stopped => {
            let image = ck.take_captured().expect("stopped run captured a snapshot");
            let mut resumed = Checkpointer::disabled().resume_from(image);
            match run_ck(app, cfg, &mut resumed).expect("resumed run faulted") {
                CkOutcome::Done(out) => (
                    out.checksum,
                    format!("{:?}", out.stats.sans_epoch()),
                    format!("{:?}", out.stats.epoch),
                ),
                CkOutcome::Stopped => unreachable!("disabled checkpointer never stops"),
            }
        }
    }
}

/// All wired apps × 3 fixed seeds: the exhaustive grid the suite promises,
/// cheap enough to run in full (smoke scale).
#[test]
fn all_apps_identical_across_thread_counts() {
    for app in App::ALL {
        for seed in [11u64, 4242, 90_001] {
            let base = full_run(app, &config(Variant::Optimized, seed, 0));
            let general = full_run(app, &observed(Variant::Optimized, seed));
            assert_eq!(
                &base,
                &general,
                "{} seed {seed}: observed demand body diverged from unobserved",
                app.name()
            );
            let one = full_run(app, &config(Variant::Optimized, seed, 1));
            assert_eq!(
                (&base.0, &base.1),
                (&one.0, &one.1),
                "{} seed {seed}: threads 1 diverged from serial",
                app.name()
            );
            for threads in [2usize, 4] {
                let t = full_run(app, &config(Variant::Optimized, seed, threads));
                assert_eq!(
                    &one,
                    &t,
                    "{} seed {seed}: threads {threads} diverged from threads 1 \
                     (epoch block included)",
                    app.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random app/variant/seed probes of the same identity, three ways:
    /// unobserved serial, observed serial, and committed replay.
    #[test]
    fn threaded_runs_are_bit_identical(
        app_idx in 0usize..8,
        variant in prop_oneof![
            Just(Variant::Original),
            Just(Variant::Optimized),
            Just(Variant::Static),
        ],
        seed in 1u64..100_000,
    ) {
        let app = App::ALL[app_idx];
        let base = full_run(app, &config(variant, seed, 0));
        let general = full_run(app, &observed(variant, seed));
        prop_assert_eq!(
            &base, &general,
            "{} {:?} seed {}: observed demand body diverged", app.name(), variant, seed
        );
        let one = full_run(app, &config(variant, seed, 1));
        prop_assert_eq!(
            (&base.0, &base.1), (&one.0, &one.1),
            "{} {:?} seed {}: threads 1 diverged from serial", app.name(), variant, seed
        );
        for threads in [2usize, 4] {
            let t = full_run(app, &config(variant, seed, threads));
            prop_assert_eq!(
                &one, &t,
                "{} {:?} seed {}: threads {} diverged", app.name(), variant, seed, threads
            );
        }
    }

    /// Checkpoint/resume differential: a threaded or observed run split at
    /// a random reference cadence (the resume lands mid-epoch-stream) must
    /// finish with the same checksum and statistics as the uninterrupted
    /// serial run — and with the same epoch bookkeeping as the unsplit
    /// threaded run up to the epochs the resumed half re-counts from zero.
    #[test]
    fn resumed_threaded_runs_agree(
        app_idx in 0usize..8,
        seed in 1u64..100_000,
        cadence in 2_000u64..60_000,
    ) {
        let app = App::ALL[app_idx];
        let whole = full_run(app, &config(Variant::Optimized, seed, 0));
        let splits = [
            ("threads 1", config(Variant::Optimized, seed, 1)),
            ("threads 4", config(Variant::Optimized, seed, 4)),
            ("observed", observed(Variant::Optimized, seed)),
        ];
        for (label, cfg) in &splits {
            let split = split_run(app, cfg, cadence);
            prop_assert_eq!(
                (&whole.0, &whole.1), (&split.0, &split.1),
                "{} seed {} cadence {} {}: split run diverged",
                app.name(), seed, cadence, label
            );
        }
        // Worker-count invariance holds across the split too (the resumed
        // half's epoch block counts only its own epochs, but identically
        // at every worker count >= 1).
        let s1 = split_run(app, &config(Variant::Optimized, seed, 1), cadence);
        let s4 = split_run(app, &config(Variant::Optimized, seed, 4), cadence);
        prop_assert_eq!(
            &s1, &s4,
            "{} seed {} cadence {}: resumed epoch bookkeeping diverged",
            app.name(), seed, cadence
        );
    }
}

/// A seeded high-conflict workload: every task read-modify-writes the same
/// shared word, so every task after the first reads a word an earlier task
/// wrote. The engine must surface the replays in `EpochStats` (nonzero),
/// keep them identical across worker counts, and still produce the serial
/// result.
#[test]
fn high_conflict_workload_forces_replays() {
    let run = |threads: usize| {
        let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
        let shared = m.malloc(4096);
        let seen = m.run_tasks(16, |_, d| {
            let v = d.load_word(shared);
            d.store_word(shared, v + 1);
            v
        });
        let final_val = m.load_word(shared);
        (seen, final_val, m.finish())
    };
    let (seen0, final0, stats0) = run(0);
    assert_eq!(final0, 16, "serial RMW chain sums to the task count");
    let (seen1, final1, stats1) = run(1);
    assert_eq!(seen1, seen0);
    assert_eq!(final1, final0);
    assert_eq!(stats1.sans_epoch(), stats0.sans_epoch());
    assert!(
        stats1.epoch.replayed >= 15,
        "every task past the first must conflict: {:?}",
        stats1.epoch
    );
    // RMW tasks rewrite the word they misread, so the collisions classify
    // as write/write (read-modify-write), not pure-read dependences.
    assert!(stats1.epoch.conflicts_ww >= 15, "{:?}", stats1.epoch);
    for threads in [2usize, 4] {
        let (seen, final_val, stats) = run(threads);
        assert_eq!(seen, seen0, "threads {threads}");
        assert_eq!(final_val, final0, "threads {threads}");
        assert_eq!(
            stats, stats1,
            "threads {threads}: epoch bookkeeping diverged"
        );
    }
}
