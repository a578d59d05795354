//! `memfwd-perfbench`: the repository benchmark.
//!
//! ```text
//! memfwd-perfbench --workload grid|single-run|service --seed N --seconds S
//!                  --trace 0|1 --served PATH --work DIR
//! ```
//!
//! With `--trace 0` it runs the named workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics of
//! a traced profile (see `README.md`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. Normally
//! started through `run.py`, which builds this binary and `memfwd_served`.

mod kernels;
mod service;
mod sim;
mod util;

use sim::SimKind;
use std::path::PathBuf;
use util::{HostContext, Metrics, Tally, Tracer};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    served: PathBuf,
    work: PathBuf,
    run_pass: Option<String>,
    smoke: bool,
    print_digests: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: sim::DEFAULT_SEED,
        seconds: 30,
        trace: false,
        served: PathBuf::from(".bench_build/release/memfwd_served"),
        work: PathBuf::from(".bench_build/perfbench-work"),
        run_pass: None,
        smoke: false,
        print_digests: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = num(val()?)?,
            "--seconds" => a.seconds = num(val()?)?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            "--served" => a.served = val()?.into(),
            "--work" => a.work = val()?.into(),
            "--run-pass" => a.run_pass = Some(val()?),
            "--smoke" => a.smoke = true,
            "--print-digests" => a.print_digests = Some(val()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memfwd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(kind) = &args.run_pass {
        let kind = SimKind::from_name(kind).expect("--run-pass takes grid or single-run");
        sim::run_pass_child(kind, args.seed, args.smoke);
        return;
    }
    if let Some(out) = &args.print_digests {
        sim::print_digests(out).expect("writing the digest file");
        return;
    }
    if SimKind::from_name(&args.workload).is_none() && args.workload != "service" {
        eprintln!("memfwd-perfbench: --workload must be grid, single-run or service");
        std::process::exit(2);
    }
    if !args.served.is_file() {
        eprintln!(
            "memfwd-perfbench: no server binary at {}",
            args.served.display()
        );
        std::process::exit(2);
    }
    // A fresh work directory: server state, sockets and the span file.
    let _ = std::fs::remove_dir_all(&args.work);
    std::fs::create_dir_all(&args.work).expect("creating the work directory");

    let host = HostContext::capture();
    // The run must never write the sweep CLI's default report file.
    let tracked = std::fs::read("BENCH_sweep.json").ok();

    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut errors: Vec<String> = Vec::new();
    let mut record = |(t, e): (Tally, Vec<String>)| {
        tally.merge(t);
        errors.extend(e);
    };
    if !args.trace {
        record(match SimKind::from_name(&args.workload) {
            Some(kind) => sim::run_workload(kind, args.seed, args.seconds, &args.work, &mut m),
            None => {
                service::run_workload(&args.served, &args.work, args.seed, args.seconds, &mut m)
            }
        });
    } else {
        let tracer = Tracer::new();
        kernels::run(&mut m);
        record(sim::profile_grid(args.seed, &tracer, &mut m));
        record(sim::profile_single_run(args.seed, &tracer, &mut m));
        record(service::profile(
            &args.served,
            &args.work,
            args.seed,
            &tracer,
            &mut m,
        ));
        let spans = args
            .work
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&spans) {
            Ok(n) => eprintln!("perfbench: {n} spans written to {}", spans.display()),
            Err(e) => errors.push(format!("writing spans: {e}")),
        }
    }
    if std::fs::read("BENCH_sweep.json").ok() != tracked {
        errors.push("BENCH_sweep.json was written".into());
    }
    for name in m.non_finite() {
        errors.push(format!("metric {name} is not a finite number"));
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let host = host.to_json(&args.workload, args.seed, args.seconds, args.trace);
    let _ = std::fs::write(args.work.join("host.json"), &host);
    println!("host {host}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty() && tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        m.to_json()
    );
}
