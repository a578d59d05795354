//! The simulator workloads: `grid` (the Fig. 5 grid, serial) and
//! `single-run` (health cells on the epoch engine).
//!
//! Both run the farm's `run_sweep` with one worker, so the simulator hot
//! path (apps -> core -> cache/cpu -> tagmem) does nearly all the work. A
//! job is one application x {original, optimized} pair at one seed, the
//! unit the paper compares and the unit a service client submits.
//!
//! The untraced workloads run each pass in a fresh process (`--run-pass`),
//! as a user running `memfwd_sweep` would: the peak resident set of a
//! process that ran one pass repeats from run to run, while a long-lived
//! process's peak depends on what its allocator kept from earlier passes.

use crate::util::{app_seed, fnv64, median, vm_hwm_mb, Metrics, Tally, Tracer};
use memfwd::RunStats;
use memfwd_apps::{App, Scale, Variant};
use memfwd_farm::sweep::{run_cell, run_sweep_with, set_epoch_threads};
use memfwd_farm::{CellSpec, SweepReport, SweepSpec};
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The seed whose cell digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of every cell at [`DEFAULT_SEED`]: `<workload> <cell> <hex>`.
const RECORDED: &str = include_str!("../digests.txt");

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Grid,
    SingleRun,
}

impl SimKind {
    pub fn name(self) -> &'static str {
        match self {
            SimKind::Grid => "grid",
            SimKind::SingleRun => "single-run",
        }
    }

    pub fn from_name(name: &str) -> Option<SimKind> {
        [SimKind::Grid, SimKind::SingleRun]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Epoch worker count per cell: `grid` bypasses the epoch engine,
    /// `single-run` gives it two workers.
    fn threads(self) -> usize {
        match self {
            SimKind::Grid => 0,
            SimKind::SingleRun => 2,
        }
    }

    /// The cells of one pass, generated from the benchmark seed.
    fn spec(self, seed: u64, scale: Scale) -> SweepSpec {
        let (apps, seeds) = match self {
            SimKind::Grid => (App::ALL.to_vec(), vec![app_seed(seed, 0)]),
            SimKind::SingleRun => (
                vec![App::Health],
                (1..=3).map(|s| app_seed(seed, s)).collect(),
            ),
        };
        SweepSpec {
            apps,
            variants: vec![Variant::Original, Variant::Optimized],
            line_bytes: vec![32],
            mem_latency: vec![75],
            seeds,
            scale,
        }
    }
}

/// One cell's outcome, as the checks and the metrics need it.
struct Cell {
    app: String,
    variant: String,
    seed: u64,
    /// The simulated result, or why the cell failed.
    result: Result<CellSum, String>,
}

struct CellSum {
    checksum: u64,
    /// Digest of the checksum and the `RunStats` without the epoch block
    /// (host-execution bookkeeping), so a cell run on the epoch engine
    /// must digest equal to the same cell run serially.
    digest: u64,
    refs: u64,
    host_nanos: u64,
    epochs: u64,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/{}/{}", self.app, self.variant, self.seed)
    }

    /// The tab-separated form a `--run-pass` child prints.
    fn to_line(&self) -> String {
        let head = format!("{}\t{}\t{}", self.app, self.variant, self.seed);
        match &self.result {
            Ok(s) => format!(
                "cell\t{head}\t{:x}\t{:x}\t{}\t{}\t{}",
                s.checksum, s.digest, s.refs, s.host_nanos, s.epochs
            ),
            Err(e) => format!("fail\t{head}\t{}", e.replace(['\t', '\n'], " ")),
        }
    }

    fn from_line(line: &str) -> Option<Cell> {
        let f: Vec<&str> = line.split('\t').collect();
        let result = match (f.first()?, f.len()) {
            (&"cell", 9) => Ok(CellSum {
                checksum: u64::from_str_radix(f[4], 16).ok()?,
                digest: u64::from_str_radix(f[5], 16).ok()?,
                refs: f[6].parse().ok()?,
                host_nanos: f[7].parse().ok()?,
                epochs: f[8].parse().ok()?,
            }),
            (&"fail", 5) => Err(f[4].to_string()),
            _ => return None,
        };
        Some(Cell {
            app: f[1].into(),
            variant: f[2].into(),
            seed: f[3].parse().ok()?,
            result,
        })
    }
}

/// One `run_sweep` pass.
pub struct Pass {
    wall_ns: u64,
    cells: Vec<Cell>,
    /// Sum of the traced cell spans (0 when untraced).
    cell_span_ns: u64,
    /// The farm's report (in-process passes only).
    report: Option<SweepReport>,
    /// Peak resident set of the process that ran the pass (fresh-process
    /// passes only).
    peak_rss_mb: f64,
}

impl Pass {
    fn done(&self) -> impl Iterator<Item = &CellSum> {
        self.cells.iter().filter_map(|c| c.result.as_ref().ok())
    }

    fn refs(&self) -> u64 {
        self.done().map(|c| c.refs).sum()
    }

    /// Full statistics of each completed cell (in-process passes only).
    fn stats(&self) -> Vec<RunStats> {
        let cells = self.report.iter().flat_map(|r| &r.cells);
        cells.filter_map(|c| c.sim()).map(|r| r.stats).collect()
    }

    fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Each job's app and host milliseconds (original + optimized cell).
    fn job_ms(&self) -> Vec<(&str, f64)> {
        let mut jobs: Vec<((&str, u64), u64)> = Vec::new();
        for c in &self.cells {
            let ns = c.result.as_ref().map_or(0, |s| s.host_nanos);
            let k = (c.app.as_str(), c.seed);
            match jobs.iter_mut().find(|(j, _)| *j == k) {
                Some((_, t)) => *t += ns,
                None => jobs.push((k, ns)),
            }
        }
        jobs.into_iter()
            .map(|((app, _), ns)| (app, ns as f64 / 1e6))
            .collect()
    }
}

/// Runs one pass of `spec` in this process with `threads` epoch workers;
/// with a tracer, records a pass span and one span per cell.
fn run_pass(kind: SimKind, spec: &SweepSpec, threads: usize, tracer: Option<&Tracer>) -> Pass {
    set_epoch_threads(threads);
    let key = |c: &CellSpec| format!("{}/{}/{}", c.app.name(), c.variant.name(), c.seed);
    let span_ns = AtomicU64::new(0);
    let t = Instant::now();
    let report = match tracer {
        None => run_sweep_with(spec, 1, &|scale, c| run_cell(scale, c)),
        Some(tr) => {
            tr.span(kind.name(), "pass", 0, |pass_id| {
                run_sweep_with(spec, 1, &|scale, c| {
                    let (r, ns) = tr.span("cell", &key(&c), pass_id, |_| run_cell(scale, c));
                    span_ns.fetch_add(ns, Ordering::Relaxed);
                    r
                })
            })
            .0
        }
    };
    let wall_ns = t.elapsed().as_nanos() as u64;
    let cells = report
        .cells
        .iter()
        .map(|c| Cell {
            app: c.spec.app.name().into(),
            variant: c.spec.variant.name().into(),
            seed: c.spec.seed,
            result: match c.sim() {
                Some(r) => Ok(CellSum {
                    checksum: r.checksum,
                    digest: fnv64(
                        format!("{:#018x} {:?}", r.checksum, r.stats.sans_epoch()).as_bytes(),
                    ),
                    refs: r.refs,
                    host_nanos: r.host_nanos,
                    epochs: r.stats.epoch.epochs,
                }),
                None => Err(c.error.clone().unwrap_or_else(|| c.outcome.name().into())),
            },
        })
        .collect();
    Pass {
        wall_ns,
        cells,
        cell_span_ns: span_ns.into_inner(),
        report: Some(report),
        peak_rss_mb: f64::NAN,
    }
}

/// `--run-pass`: one untraced pass at bench scale (or, with `smoke`, at
/// smoke scale), printed as one line per cell and a closing `pass` line
/// with the wall time and this process's peak resident set.
pub fn run_pass_child(kind: SimKind, seed: u64, smoke: bool) {
    let scale = if smoke { Scale::Smoke } else { Scale::Bench };
    let pass = run_pass(kind, &kind.spec(seed, scale), kind.threads(), None);
    let mut out = String::new();
    for c in &pass.cells {
        out.push_str(&c.to_line());
        out.push('\n');
    }
    let rss = vm_hwm_mb(std::process::id()).unwrap_or(f64::NAN);
    out.push_str(&format!("pass\t{}\t{rss}\n", pass.wall_ns));
    print!("{out}");
}

/// Runs `--run-pass` in a fresh process; returns the pass and the wall
/// time from spawn to exit.
fn run_pass_fresh(kind: SimKind, seed: u64, smoke: bool) -> Result<(Pass, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--run-pass", kind.name(), "--seed", &seed.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let t = Instant::now();
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let spawn_to_exit = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("pass process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut cells = Vec::new();
    let mut tail = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("pass\t") {
            let mut f = rest.split('\t');
            tail = f
                .next()
                .and_then(|w| w.parse::<u64>().ok())
                .zip(f.next().and_then(|r| r.parse::<f64>().ok()));
        } else {
            cells.push(Cell::from_line(line).ok_or_else(|| format!("bad pass line: {line}"))?);
        }
    }
    let (wall_ns, peak_rss_mb) = tail.ok_or("pass process printed no pass line")?;
    let pass = Pass {
        wall_ns,
        cells,
        cell_span_ns: 0,
        report: None,
        peak_rss_mb,
    };
    Ok((pass, spawn_to_exit))
}

/// The output checks of the simulator workloads.
struct Checker {
    kind: SimKind,
    /// Compare with `digests.txt` (bench-scale passes at the default seed).
    recorded: bool,
    /// Digest of each cell the first time it ran.
    first: HashMap<String, u64>,
    tally: Tally,
    /// Why the first failed check failed, for the log.
    first_error: Option<String>,
}

impl Checker {
    fn new(kind: SimKind, seed: u64, scale: Scale) -> Checker {
        Checker {
            kind,
            recorded: seed == DEFAULT_SEED && scale == Scale::Bench,
            first: HashMap::new(),
            tally: Tally::default(),
            first_error: None,
        }
    }

    fn fail(&mut self, why: String) -> bool {
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
        false
    }

    fn recorded(&self, key: &str) -> Option<u64> {
        RECORDED.lines().find_map(|l| {
            let mut f = l.split_whitespace();
            if f.next()? != self.kind.name() || f.next()? != key {
                return None;
            }
            u64::from_str_radix(f.next()?, 16).ok()
        })
    }

    /// Checks every cell of `pass`: it completed; its original and
    /// optimized checksums agree (relocation was safe); its digest equals
    /// the digest of its first run (the epoch engine, a fresh process and
    /// a repeated run change nothing simulated); and at the default seed
    /// it equals the recorded digest.
    fn check(&mut self, pass: &Pass) {
        let checksums: HashMap<(&str, &str, u64), u64> = pass
            .cells
            .iter()
            .filter_map(|c| {
                Some((
                    (c.app.as_str(), c.variant.as_str(), c.seed),
                    c.result.as_ref().ok()?.checksum,
                ))
            })
            .collect();
        for c in &pass.cells {
            let key = c.key();
            let ok = match &c.result {
                Err(e) => self.fail(format!("{key}: {e}")),
                Ok(s) => {
                    let other = if c.variant == "original" {
                        "optimized"
                    } else {
                        "original"
                    };
                    let expect = *self.first.entry(key.clone()).or_insert(s.digest);
                    if checksums.get(&(c.app.as_str(), other, c.seed)) != Some(&s.checksum) {
                        self.fail(format!("{key}: original and optimized checksums differ"))
                    } else if s.digest != expect {
                        self.fail(format!("{key}: digest changed between runs"))
                    } else if self.recorded && self.recorded(&key) != Some(s.digest) {
                        self.fail(format!(
                            "{key}: digest {:016x} is not the recorded one",
                            s.digest
                        ))
                    } else {
                        true
                    }
                }
            };
            self.tally.add(ok);
        }
    }

    /// Checks that the epoch engine ran tasks in every cell of a threaded
    /// pass (otherwise `single-run` would not measure it).
    fn check_engaged(&mut self, pass: &Pass) {
        if pass.done().any(|c| c.epochs == 0) {
            self.tally.failed += 1;
            self.fail("a threaded cell ran no epochs".into());
        }
    }

    /// Operations checked, and the first failure if any.
    fn outcome(self) -> (Tally, Vec<String>) {
        (self.tally, self.first_error.into_iter().collect())
    }

    fn check_pass(&mut self, pass: Result<(Pass, f64), String>) -> Option<(Pass, f64)> {
        match pass {
            Ok((p, s)) => {
                self.check(&p);
                if self.kind == SimKind::SingleRun {
                    self.check_engaged(&p);
                }
                Some((p, s))
            }
            Err(e) => {
                self.tally.add(false);
                self.fail(e);
                None
            }
        }
    }
}

/// The untraced workload: fresh-process passes until `seconds` are used
/// (at least three), then the end-to-end metrics, each a median over
/// passes.
///
/// `setup_s` is sampled before every pass: a fresh process runs the
/// workload's cells at smoke scale, which is process start, lazy
/// initialisation and machine construction for every cell with little
/// simulation. Host speed drifts by tens of percent over seconds on a
/// shared machine, so the samples are interleaved with the passes rather
/// than taken back to back.
pub fn run_workload(
    kind: SimKind,
    seed: u64,
    seconds: u64,
    work: &Path,
    m: &mut Metrics,
) -> (Tally, Vec<String>) {
    let mut checker = Checker::new(kind, seed, Scale::Bench);
    let mut smoke = Checker::new(kind, seed, Scale::Smoke);
    let budget_ns = u128::from(seconds) * 1_000_000_000;
    let (mut passes, mut setups) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while passes.len() < 3
        || t0.elapsed().as_nanos() * (passes.len() as u128 + 1) / (passes.len() as u128)
            <= budget_ns
    {
        if let Some((_, s)) = smoke.check_pass(run_pass_fresh(kind, seed, true)) {
            setups.push(s);
        }
        match checker.check_pass(run_pass_fresh(kind, seed, false)) {
            Some((p, _)) => passes.push(p),
            None if checker.tally.failed + smoke.tally.failed > 8 => break,
            None => {}
        }
    }
    checker.tally.merge(smoke.tally);
    if checker.first_error.is_none() {
        checker.first_error = smoke.first_error;
    }
    if passes.is_empty() || setups.is_empty() {
        return checker.outcome();
    }
    write_cell_times(&passes, &work.join("cells.tsv"));
    if kind == SimKind::SingleRun {
        // The serial reference: every threaded cell must digest equal to
        // the same cell with the epoch engine off.
        let serial = run_pass(kind, &kind.spec(seed, Scale::Bench), 0, None);
        checker.check(&serial);
    }

    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.refs() as f64 / p.wall_s())
        .collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    // The median job time of each app, averaged over the apps: the plain
    // median of a mix of apps would sit in the gap between two apps.
    let mut by_app: Vec<(&str, Vec<f64>)> = Vec::new();
    for (app, ms) in passes.iter().flat_map(Pass::job_ms) {
        match by_app.iter_mut().find(|(a, _)| *a == app) {
            Some((_, v)) => v.push(ms),
            None => by_app.push((app, vec![ms])),
        }
    }
    let job_p50_ms = by_app.iter().map(|(_, v)| median(v)).sum::<f64>() / by_app.len() as f64;
    let wall_s = median(&walls);
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", wall_s, "s");
    m.put("sim_refs_per_s", median(&rates), "1/s");
    m.put("peak_rss_mb", median(&rss), "MiB");
    m.put(
        "jobs_per_s",
        passes[0].job_ms().len() as f64 / wall_s,
        "1/s",
    );
    m.put("job_p50_ms", job_p50_ms, "ms");
    eprintln!(
        "{}: {} passes of {walls:?} s, {} refs per pass, set-up {setups:?} s, peak RSS {rss:?} MiB",
        kind.name(),
        passes.len(),
        passes[0].refs(),
    );
    checker.outcome()
}

/// Writes each cell's host time, one row per cell per pass.
fn write_cell_times(passes: &[Pass], path: &Path) {
    let mut rows = String::new();
    for (i, p) in passes.iter().enumerate() {
        for c in &p.cells {
            let ms = c
                .result
                .as_ref()
                .map_or(f64::NAN, |s| s.host_nanos as f64 / 1e6);
            rows.push_str(&format!("{i}\t{}\t{ms}\n", c.key()));
        }
    }
    if let Err(e) = std::fs::write(path, rows) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn put_overhead(m: &mut Metrics, kind: SimKind, untraced: &[Pass], traced: &[Pass]) {
    let wall = |ps: &[Pass]| median(&ps.iter().map(Pass::wall_s).collect::<Vec<_>>());
    m.put(
        format!("{}.trace_overhead_s", kind.name()),
        wall(traced) - wall(untraced),
        "s",
    );
}

/// Traced profile of `grid`: two untraced and two traced in-process
/// passes, alternating. Emits the apps, core, cache, cpu and farm layer
/// metrics.
pub fn profile_grid(seed: u64, tracer: &Tracer, m: &mut Metrics) -> (Tally, Vec<String>) {
    let kind = SimKind::Grid;
    let spec = kind.spec(seed, Scale::Bench);
    let mut checker = Checker::new(kind, seed, Scale::Bench);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let u = run_pass(kind, &spec, 0, None);
        checker.check(&u);
        untraced.push(u);
        let t = run_pass(kind, &spec, 0, Some(tracer));
        checker.check(&t);
        traced.push(t);
    }

    for app in App::ALL {
        let (mut ns, mut refs) = (0u64, 0u64);
        for p in &traced {
            for c in p.cells.iter().filter(|c| c.app == app.name()) {
                if let Ok(s) = &c.result {
                    ns += s.host_nanos;
                    refs += s.refs;
                }
            }
        }
        m.put(
            format!("apps.{}.ns_per_ref", app.name()),
            ns as f64 / refs as f64,
            "ns",
        );
        m.put(
            format!("apps.{}.refs", app.name()),
            (refs / traced.len() as u64) as f64,
            "count",
        );
    }

    let stats = traced[0].stats();
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>();
    let hop_refs = |s: &RunStats, weighted: bool| -> u64 {
        (1..memfwd::HOPS_BUCKETS)
            .map(|i| {
                (s.fwd.load_hops[i] + s.fwd.store_hops[i]) * if weighted { i as u64 } else { 1 }
            })
            .sum()
    };
    let refs = sum(&|s| s.fwd.loads + s.fwd.stores);
    let fwd_refs = sum(&|s| hop_refs(s, false));
    m.put("core.refs", refs as f64, "count");
    m.put("core.fwd_refs", fwd_refs as f64, "count");
    m.put("core.fwd_ref_share", fwd_refs as f64 / refs as f64, "ratio");
    m.put(
        "core.hops_per_fwd_ref",
        sum(&|s| hop_refs(s, true)) as f64 / fwd_refs.max(1) as f64,
        "hops",
    );
    m.put(
        "core.relocated_words",
        sum(&|s| s.fwd.relocated_words) as f64,
        "count",
    );
    let l1 = sum(&|s| s.cache.loads.total() + s.cache.stores.total());
    let l1_miss = sum(&|s| s.cache.loads.misses() + s.cache.stores.misses());
    let l2 = sum(&|s| s.cache.l2_hits + s.cache.l2_misses);
    m.put("cache.l1_accesses", l1 as f64, "count");
    m.put("cache.l1_miss_ratio", l1_miss as f64 / l1 as f64, "ratio");
    m.put("cache.l2_accesses", l2 as f64, "count");
    m.put(
        "cache.l2_miss_ratio",
        sum(&|s| s.cache.l2_misses) as f64 / l2 as f64,
        "ratio",
    );
    m.put(
        "cpu.misspeculations",
        sum(&|s| s.fwd.misspeculations) as f64,
        "count",
    );

    let overhead: Vec<f64> = traced
        .iter()
        .map(|p| (p.wall_ns as f64 - p.cell_span_ns as f64) / 1e6)
        .collect();
    m.put("farm.overhead_ms", median(&overhead), "ms");
    let report = traced[1]
        .report
        .as_ref()
        .expect("in-process passes keep their report");
    let json_ms: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(report.to_json());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("farm.report_json_ms", median(&json_ms), "ms");
    put_overhead(m, kind, &untraced, &traced);
    checker.outcome()
}

/// Traced profile of `single-run`: two rounds of an untraced threaded
/// pass, a traced threaded pass and a serial pass. Emits the epoch
/// engine's counters and its speed-up over serial on the same cells.
pub fn profile_single_run(seed: u64, tracer: &Tracer, m: &mut Metrics) -> (Tally, Vec<String>) {
    let kind = SimKind::SingleRun;
    let spec = kind.spec(seed, Scale::Bench);
    let mut checker = Checker::new(kind, seed, Scale::Bench);
    let (mut untraced, mut traced, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        let u = run_pass(kind, &spec, kind.threads(), None);
        checker.check(&u);
        checker.check_engaged(&u);
        untraced.push(u);
        let t = run_pass(kind, &spec, kind.threads(), Some(tracer));
        checker.check(&t);
        traced.push(t);
        let s = run_pass(kind, &spec, 0, None);
        checker.check(&s);
        serial.push(s);
    }
    let stats = untraced[0].stats();
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    m.put("core.epoch.epochs", sum(&|s| s.epoch.epochs), "count");
    m.put("core.epoch.committed", sum(&|s| s.epoch.committed), "count");
    m.put("core.epoch.replayed", sum(&|s| s.epoch.replayed), "count");
    m.put("core.epoch.direct", sum(&|s| s.epoch.direct), "count");
    let wall = |ps: &[Pass]| median(&ps.iter().map(Pass::wall_s).collect::<Vec<_>>());
    let (serial_s, threaded_s) = (wall(&serial), wall(&untraced));
    m.put("core.epoch.serial_s", serial_s, "s");
    m.put("core.epoch.threaded_s", threaded_s, "s");
    m.put("core.epoch.speedup", serial_s / threaded_s, "ratio");
    put_overhead(m, kind, &untraced, &traced);
    checker.outcome()
}

/// `--print-digests`: the lines of `digests.txt` for the default seed,
/// computed with the epoch engine off.
pub fn print_digests(out: &Path) -> std::io::Result<()> {
    let mut text = String::new();
    for kind in [SimKind::Grid, SimKind::SingleRun] {
        let pass = run_pass(kind, &kind.spec(DEFAULT_SEED, Scale::Bench), 0, None);
        for c in &pass.cells {
            let digest = c
                .result
                .as_ref()
                .map_err(|e| std::io::Error::other(e.clone()))?
                .digest;
            text.push_str(&format!("{} {} {digest:016x}\n", kind.name(), c.key()));
        }
    }
    std::fs::write(out, text)
}
