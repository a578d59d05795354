//! The `service` workload: the built `memfwd_served` (`--jobs 2`, fresh
//! state directory and socket) driven by one closed-loop client.
//!
//! Each job is one session like `memfwd_sweep --submit`: connect, submit,
//! poll `status` every [`POLL`], fetch `report`, close. Cold jobs (one app
//! x {original, optimized} at smoke scale with a fresh seed, so every cell
//! misses the result cache) alternate with warm jobs (a resubmission of an
//! earlier cold job chosen at random, so every cell hits it). The warm
//! working set grows past the cache's 128-entry hot tier during a run, so
//! both cache tiers take load.

use crate::util::{app_seed, mean, median, p90, Metrics, Rng, Tally, Tracer};
use memfwd_apps::App;
use memfwd_farm::minijson::{parse_json, Json};
use memfwd_farm::sweep::{strip_volatile_lines, validate_report};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The client's status poll interval (the sweep CLI polls every 50 ms).
const POLL: Duration = Duration::from_millis(2);

/// Server starts timed for `setup_s` before the session (the last one
/// serves it) and again after it, so the samples span the run.
const SETUP_STARTS: usize = 4;

/// Jobs per block: `wall_s` is the median block wall time.
const BLOCK: usize = 8;

/// A job that has not finished after this long counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

struct Server {
    child: Child,
    socket: PathBuf,
    /// Spawn to first `health` answer.
    setup_s: f64,
}

fn start_server(exe: &Path, dir: &Path) -> Result<Server, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let socket = dir.join("s.sock");
    let log = std::fs::File::create(dir.join("served.log")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .arg("--socket")
        .arg(&socket)
        .arg("--state-dir")
        .arg(dir.join("state"))
        .args(["--jobs", "2"])
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let mut fail = |msg: String| -> Result<Server, String> {
        let _ = child.kill();
        let _ = child.wait();
        Err(msg)
    };
    let mut conn = loop {
        match Conn::open(&socket) {
            Ok(c) => break c,
            Err(_) if t.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(5))
            }
            Err(e) => return fail(format!("server never listened: {e}")),
        }
    };
    match conn.call("{\"op\":\"health\"}") {
        Ok(v) if v.get("state").and_then(Json::as_str) == Some("ok") => {}
        other => return fail(format!("bad health answer: {other:?}")),
    }
    Ok(Server {
        child,
        socket,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

impl Server {
    fn peak_rss_mb(&self) -> f64 {
        crate::util::vm_hwm_mb(self.child.id()).unwrap_or(-1.0)
    }

    /// Requests a graceful drain and waits for the process; `Ok` only for
    /// exit code 0.
    fn drain(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call("{\"op\":\"drain\"}"));
        let t = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("drain: {asked:?}, exit {status}")),
                Ok(None) if t.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after drain".into());
                }
            }
        }
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let s = UnixStream::connect(socket)?;
        s.set_read_timeout(Some(JOB_DEADLINE))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    /// One request line, one response object.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| e.to_string())?;
        parse_json(&resp)
    }
}

/// One job's timings, in nanoseconds.
struct JobTiming {
    total: u64,
    submit: u64,
    status: Vec<u64>,
    report: u64,
    /// First status request sent to the `done` answer.
    run: u64,
}

struct Done {
    timing: JobTiming,
    report: String,
}

fn spec_json(app: App, seed: u64) -> String {
    format!(
        "{{\"apps\":[\"{}\"],\"variants\":[\"original\",\"optimized\"],\"line_bytes\":[32],\"mem_latency\":[75],\"seeds\":[{seed}],\"scale\":\"smoke\"}}",
        app.name()
    )
}

/// Runs one session: connect, submit, poll, report, close.
fn run_job(socket: &Path, spec: &str, tracer: Option<(&Tracer, &str)>) -> Result<Done, String> {
    let t0 = Instant::now();
    let step = |name: &'static str, f: &mut dyn FnMut() -> Result<Json, String>| {
        let t = Instant::now();
        let r = match tracer {
            Some((tr, key)) => tr.span(name, key, 0, |_| f()).0,
            None => f(),
        };
        (r, t.elapsed().as_nanos() as u64)
    };
    let mut conn = None;
    let (accepted, submit) = step("served.submit", &mut || {
        let c = conn.insert(Conn::open(socket).map_err(|e| e.to_string())?);
        c.call(&format!("{{\"op\":\"submit\",\"spec\":{spec}}}"))
    });
    let accepted = accepted?;
    let mut conn = conn.expect("connected before submit");
    let job = match (
        accepted.get("type").and_then(Json::as_str),
        accepted.get("job"),
    ) {
        (Some("accepted"), Some(Json::Str(id))) => id.clone(),
        _ => return Err(format!("submit refused: {accepted:?}")),
    };
    let status_req = format!("{{\"op\":\"status\",\"job\":\"{job}\"}}");
    let mut status = Vec::new();
    let first_status = Instant::now();
    loop {
        let (v, ns) = step("served.status", &mut || conn.call(&status_req));
        status.push(ns);
        let v = v?;
        match v.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("queued" | "running") if t0.elapsed() < JOB_DEADLINE => std::thread::sleep(POLL),
            _ => return Err(format!("job {job}: {v:?}")),
        }
    }
    let run = first_status.elapsed().as_nanos() as u64;
    let (v, report_ns) = step("served.report", &mut || {
        conn.call(&format!("{{\"op\":\"report\",\"job\":\"{job}\"}}"))
    });
    let v = v?;
    if v.get("degraded").and_then(Json::as_bool) != Some(false) {
        return Err(format!("job {job} degraded: {v:?}"));
    }
    let report = v
        .get("report")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("job {job}: no report"))?
        .to_string();
    Ok(Done {
        timing: JobTiming {
            total: t0.elapsed().as_nanos() as u64,
            submit,
            status,
            report: report_ns,
            run,
        },
        report,
    })
}

/// What a report carries that the metrics and checks need.
struct ReportFacts {
    refs: u64,
    cell_ms: Vec<f64>,
}

/// Checks a report: it validates, both cells completed, and the original
/// and optimized checksums agree.
fn report_facts(report: &str) -> Result<ReportFacts, String> {
    validate_report(report)?;
    let v = parse_json(report)?;
    let cells = v.get("cells").and_then(Json::as_arr).ok_or("no cells")?;
    let field = |c: &Json, k: &str| c.get(k).cloned().ok_or(format!("cell without {k}"));
    let mut checksums = Vec::new();
    let mut facts = ReportFacts {
        refs: 0,
        cell_ms: Vec::new(),
    };
    for c in cells {
        checksums.push(field(c, "checksum")?);
        facts.refs += field(c, "refs")?.as_u64().ok_or("bad refs")?;
        let ns = field(c, "host_nanos")?.as_u64().ok_or("bad host_nanos")?;
        facts.cell_ms.push(ns as f64 / 1e6);
    }
    if checksums.len() != 2 || checksums[0] != checksums[1] {
        return Err(format!(
            "original and optimized checksums differ: {checksums:?}"
        ));
    }
    Ok(facts)
}

/// The client's job mix and everything it measured.
struct Session {
    rng: Rng,
    seed: u64,
    /// Cold specs submitted so far, with their stripped reports.
    cold: Vec<(String, String)>,
    app_order: Vec<App>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    block_s: Vec<f64>,
    traced_block_s: Vec<f64>,
    untraced_block_s: Vec<f64>,
    timings: Vec<(bool, JobTiming)>,
    cold_cell_ms: Vec<f64>,
    refs: u64,
    tally: Tally,
    first_error: Option<String>,
}

impl Session {
    fn new(seed: u64) -> Session {
        let mut rng = Rng::new(seed ^ 0x005e_5510);
        let mut app_order = App::ALL.to_vec();
        for i in (1..app_order.len()).rev() {
            app_order.swap(i, rng.below(i + 1));
        }
        Session {
            rng,
            seed,
            cold: Vec::new(),
            app_order,
            cold_ms: Vec::new(),
            warm_ms: Vec::new(),
            block_s: Vec::new(),
            traced_block_s: Vec::new(),
            untraced_block_s: Vec::new(),
            timings: Vec::new(),
            cold_cell_ms: Vec::new(),
            refs: 0,
            tally: Tally::default(),
            first_error: None,
        }
    }

    /// The cold and the warm median, averaged: with a one-to-one mix, the
    /// plain median would sit in the gap between the two kinds once their
    /// latencies differ.
    fn job_p50_ms(&self) -> f64 {
        (median_or_nan(&self.cold_ms) + median_or_nan(&self.warm_ms)) / 2.0
    }

    /// Runs job number `i` of the mix: even jobs cold, odd jobs warm.
    fn job(&mut self, socket: &Path, i: usize, tracer: Option<&Tracer>) {
        let cold = i.is_multiple_of(2) || self.cold.is_empty();
        let spec = if cold {
            let k = self.cold.len();
            spec_json(
                self.app_order[k % self.app_order.len()],
                app_seed(self.seed, 100 + k as u64),
            )
        } else {
            let k = self.rng.below(self.cold.len());
            self.cold[k].0.clone()
        };
        let key = format!("job-{i}");
        let r = run_job(socket, &spec, tracer.map(|t| (t, key.as_str())));
        let checked = r.and_then(|done| {
            let facts = report_facts(&done.report)?;
            let stripped = strip_volatile_lines(&done.report);
            if cold {
                self.cold_cell_ms.extend(&facts.cell_ms);
                self.cold.push((spec.clone(), stripped));
            } else if !self.cold.iter().any(|(s, r)| *s == spec && *r == stripped) {
                return Err("warm report differs from its cold report".to_string());
            }
            Ok((done.timing, facts.refs))
        });
        match checked {
            Ok((timing, refs)) => {
                let ms = timing.total as f64 / 1e6;
                if cold {
                    self.cold_ms.push(ms);
                } else {
                    self.warm_ms.push(ms);
                }
                self.refs += refs;
                self.timings.push((cold, timing));
                self.tally.add(true);
            }
            Err(e) => {
                if self.first_error.is_none() {
                    self.first_error = Some(format!("job {i}: {e}"));
                }
                self.tally.add(false);
            }
        }
    }

    /// Runs one block of [`BLOCK`] jobs.
    fn block(&mut self, socket: &Path, tracer: Option<&Tracer>) {
        let t = Instant::now();
        for _ in 0..BLOCK {
            let i = self.tally.attempted as usize;
            self.job(socket, i, tracer);
        }
        let s = t.elapsed().as_secs_f64();
        self.block_s.push(s);
        if tracer.is_some() {
            self.traced_block_s.push(s);
        } else {
            self.untraced_block_s.push(s);
        }
    }

    /// Writes each job's kind and latency, in submission order.
    fn write_latencies(&self, path: &Path) {
        let rows: String = self
            .timings
            .iter()
            .map(|(cold, t)| {
                format!(
                    "{}\t{}\n",
                    if *cold { "cold" } else { "warm" },
                    t.total as f64 / 1e6
                )
            })
            .collect();
        if let Err(e) = std::fs::write(path, rows) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    /// Closing checks from the server's own counters: nothing shed or
    /// quarantined, every cold cell executed, every warm cell cached.
    fn check_stats(&mut self, stats: &Json) -> Result<(), String> {
        let n = |k: &str| {
            stats
                .get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("stats: no {k}"))
        };
        let (cold, warm) = (self.cold_ms.len() as u64, self.warm_ms.len() as u64);
        if n("jobs_shed")? != 0 || n("cells_quarantined")? != 0 {
            return Err(format!("jobs shed or cells quarantined: {stats:?}"));
        }
        if n("cells_executed")? != 2 * cold || n("cells_from_cache")? != 2 * warm {
            return Err(format!(
                "{cold} cold / {warm} warm jobs, but stats say {stats:?}"
            ));
        }
        Ok(())
    }
}

fn stats(socket: &Path) -> Result<Json, String> {
    Conn::open(socket)
        .map_err(|e| e.to_string())?
        .call("{\"op\":\"stats\"}")
}

/// Starts `n` servers in fresh directories `svc-<tag><i>` and records
/// each start time; drains all but the last, which is returned when
/// `keep_last`.
fn starts(
    exe: &Path,
    work: &Path,
    tag: &str,
    n: usize,
    keep_last: bool,
    setups: &mut Vec<f64>,
    errors: &mut Vec<String>,
) -> Option<Server> {
    for i in 0..n {
        let s = match start_server(exe, &work.join(format!("svc-{tag}{i}"))) {
            Ok(s) => s,
            Err(e) => {
                errors.push(e);
                return None;
            }
        };
        setups.push(s.setup_s);
        if keep_last && i + 1 == n {
            return Some(s);
        }
        if let Err(e) = s.drain() {
            errors.push(e);
        }
    }
    None
}

/// Applies the closing checks and drains the server; returns its peak
/// resident set and its final `stats` answer.
fn finish(server: Server, session: &mut Session, errors: &mut Vec<String>) -> (f64, Option<Json>) {
    let rss = server.peak_rss_mb();
    let stats = stats(&server.socket).and_then(|s| session.check_stats(&s).map(|()| s));
    if let Err(e) = &stats {
        errors.push(e.clone());
    }
    if let Err(e) = server.drain() {
        errors.push(e);
    }
    errors.extend(session.first_error.take());
    (rss, stats.ok())
}

/// The untraced workload.
pub fn run_workload(
    exe: &Path,
    work: &Path,
    seed: u64,
    seconds: u64,
    m: &mut Metrics,
) -> (Tally, Vec<String>) {
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    let Some(server) = starts(exe, work, "a", SETUP_STARTS, true, &mut setups, &mut errors) else {
        return (
            Tally {
                attempted: 1,
                failed: 1,
            },
            errors,
        );
    };
    let mut session = Session::new(seed);
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(seconds) {
        session.block(&server.socket, None);
    }
    let measured = t0.elapsed().as_secs_f64();
    let (rss, _) = finish(server, &mut session, &mut errors);
    starts(
        exe,
        work,
        "b",
        SETUP_STARTS,
        false,
        &mut setups,
        &mut errors,
    );
    session.write_latencies(&work.join("jobs.tsv"));
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", median(&session.block_s), "s");
    m.put("sim_refs_per_s", session.refs as f64 / measured, "1/s");
    m.put("peak_rss_mb", rss, "MiB");
    m.put(
        "jobs_per_s",
        session.tally.attempted as f64 / measured,
        "1/s",
    );
    m.put("job_p50_ms", session.job_p50_ms(), "ms");
    eprintln!(
        "service: {} cold, {} warm jobs in {measured:.1} s, set-up {setups:?} s",
        session.cold_ms.len(),
        session.warm_ms.len()
    );
    (session.tally, errors)
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// Jobs of each kind the traced profile runs, so the 90th percentiles
/// have ten samples beyond them.
const PROFILE_JOBS_PER_KIND: usize = 110;

/// Traced profile: blocks alternate untraced and traced until each kind
/// has [`PROFILE_JOBS_PER_KIND`] jobs. Emits the served and farm layer
/// metrics of the service path.
pub fn profile(
    exe: &Path,
    work: &Path,
    seed: u64,
    tracer: &Tracer,
    m: &mut Metrics,
) -> (Tally, Vec<String>) {
    let mut errors = Vec::new();
    let Some(server) = starts(exe, work, "p", 1, true, &mut Vec::new(), &mut errors) else {
        return (
            Tally {
                attempted: 1,
                failed: 1,
            },
            errors,
        );
    };
    let mut session = Session::new(seed);
    let mut k = 0;
    while session.cold_ms.len().min(session.warm_ms.len()) < PROFILE_JOBS_PER_KIND {
        session.block(&server.socket, (k % 2 == 1).then_some(tracer));
        k += 1;
        if session.tally.failed > 0 {
            break;
        }
    }
    let (_, final_stats) = finish(server, &mut session, &mut errors);

    let ms = |ns: u64| ns as f64 / 1e6;
    let t = &session.timings;
    let pick = |f: &dyn Fn(&JobTiming) -> Vec<f64>| -> Vec<f64> {
        t.iter().flat_map(|(_, j)| f(j)).collect()
    };
    m.put(
        "served.submit_ms",
        median_or_nan(&pick(&|j| vec![ms(j.submit)])),
        "ms",
    );
    m.put(
        "served.status_ms",
        median_or_nan(&pick(&|j| j.status.iter().map(|&n| ms(n)).collect())),
        "ms",
    );
    m.put(
        "served.report_ms",
        median_or_nan(&pick(&|j| vec![ms(j.report)])),
        "ms",
    );
    m.put(
        "served.status_polls_per_job",
        mean(&pick(&|j| vec![j.status.len() as f64])),
        "count",
    );
    let warm_run: Vec<f64> = t
        .iter()
        .filter(|(c, _)| !c)
        .map(|(_, j)| ms(j.run))
        .collect();
    m.put("served.warm_run_ms", median_or_nan(&warm_run), "ms");
    m.put(
        "served.cold_cell_ms",
        median_or_nan(&session.cold_cell_ms),
        "ms",
    );
    m.put("served.cold_jobs", session.cold_ms.len() as f64, "count");
    m.put("served.warm_jobs", session.warm_ms.len() as f64, "count");
    m.put(
        "served.cold_job_p50_ms",
        median_or_nan(&session.cold_ms),
        "ms",
    );
    m.put(
        "served.warm_job_p50_ms",
        median_or_nan(&session.warm_ms),
        "ms",
    );
    m.put(
        "served.cold_job_p90_ms",
        p90(&session.cold_ms).unwrap_or(f64::NAN),
        "ms",
    );
    m.put(
        "served.warm_job_p90_ms",
        p90(&session.warm_ms).unwrap_or(f64::NAN),
        "ms",
    );
    let stat = |k: &str| -> f64 {
        final_stats
            .as_ref()
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .map_or(f64::NAN, |n| n as f64)
    };
    let lookups = stat("cache_hot_hits") + stat("cache_hot_misses");
    m.put("served.cache_lookups", lookups, "count");
    m.put(
        "served.cache_hot_hit_ratio",
        stat("cache_hot_hits") / lookups,
        "ratio",
    );
    m.put("served.cells_executed", stat("cells_executed"), "count");
    m.put("served.cells_from_cache", stat("cells_from_cache"), "count");
    m.put("served.jobs_shed", stat("jobs_shed"), "count");
    m.put(
        "service.trace_overhead_s",
        median_or_nan(&session.traced_block_s) - median_or_nan(&session.untraced_block_s),
        "s",
    );
    (session.tally, errors)
}
