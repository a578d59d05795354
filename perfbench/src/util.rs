//! Statistics, host context, the span recorder and the metric list.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The splitmix64 step: every input the benchmark generates derives from
/// the `--seed` through this function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic generator seeded from the benchmark seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The application seed for input `stream` of benchmark seed `seed`, kept
/// small so it reads well in reports.
pub fn app_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed.wrapping_mul(0x1_0000).wrapping_add(stream)) % 1_000_000
}

/// FNV-1a 64-bit digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank 90th percentile, or `None` when fewer than ten samples
/// lie beyond it.
pub fn p90(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (s.len() * 9).div_ceil(10);
    if rank == 0 || s.len() - rank < 10 {
        return None;
    }
    Some(s[rank - 1])
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// The host a run measured on: parallelism, CPU model and load average,
/// so a noisy set of runs can be told apart from a slow change.
pub struct HostContext {
    nproc: usize,
    cpu: String,
    load_before: String,
}

impl HostContext {
    pub fn capture() -> HostContext {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostContext {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            load_before: loadavg(),
        }
    }

    /// One JSON object: the context captured at start plus the load
    /// average now.
    pub fn to_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"nproc\":{},\"cpu\":\"{}\",\"loadavg_before\":\"{}\",\"loadavg_after\":\"{}\"}}",
            self.nproc,
            self.cpu.replace('"', "'"),
            self.load_before,
            loadavg()
        )
    }
}

/// One timed region: `parent` 0 is the root. Spans of one cell or job
/// share its `key`.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    key: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out once when the run ends.
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    /// Returns `f`'s result and the span's duration in nanoseconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        key: &str,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_nanos() as u64;
        let r = f(id);
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            name,
            key: key.to_string(),
            start_ns: start,
            end_ns: end,
        });
        (r, end - start)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut spans = self.spans.lock().expect("span list lock");
        spans.sort_by_key(|s| s.start_ns);
        let mut out = String::new();
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// The named metrics of one run, in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let body = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }
}

/// A finite number as JSON; non-finite values print as -1 (and the run
/// is marked incorrect by the caller).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

/// Operations a workload attempted and how many failed a check.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
