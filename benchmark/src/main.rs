//! The repo benchmark (see README.md beside this package).
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--out FILE]
//! benchmark check BASE.json[,BASE2.json…] NEW.json[,NEW2.json…] [--identical]
//! ```
//!
//! `run` pins the process to one CPU, generates every input from the
//! seed before timing, drives the program only through `adapter.rs`,
//! checks outputs, prints every metric by name with unit, direction and
//! bound, writes a result set under `out/`, and ends standard output
//! with the one-line JSON object the repo driver reads.

#![warn(missing_docs)]

mod adapter;
mod check;
mod gen;
mod hist;
mod json;
mod metrics;
mod pin;
mod report;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;

use report::RunInfo;
use workloads::Ctx;

/// `--smoke` sizes every workload for about this many timed seconds, so
/// the whole set stays under ten.
const SMOKE_SECONDS: f64 = 0.4;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--out FILE]\n       {}\nworkloads: {}",
        check::USAGE,
        workload_names().join(" ")
    );
    std::process::exit(2);
}

fn workload_names() -> Vec<&'static str> {
    let workloads = &metrics::registry().workloads;
    workloads.iter().map(|w| w.name.as_str()).collect()
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut a = RunArgs {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| -> String {
        it.next().cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            usage()
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let w = value(&mut it, "--workload");
                if !metrics::registry().is_workload(&w) {
                    eprintln!("error: unknown workload {w}");
                    usage();
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value(&mut it, "--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value(&mut it, "--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 60.0) {
                    eprintln!("error: --seconds must be in (0, 60]");
                    usage();
                }
                a.seconds = Some(s);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value(&mut it, "--out"))),
            other => {
                eprintln!("error: unknown argument {other}");
                usage();
            }
        }
    }
    a
}

/// The package directory: where `out/` lives. `cargo run` exports it;
/// a binary started by hand falls back to where it was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn run(args: &[String]) -> i32 {
    let a = parse_run(args);
    let nproc = adapter::host_parallelism(); // before the mask shrinks it
    let pinned_cpu = pin::pin_or_reexec();
    let out_dir = package_dir().join("out");
    let seconds = a.seconds.unwrap_or(if a.smoke {
        SMOKE_SECONDS
    } else {
        metrics::registry().run_seconds
    });
    let ctx = Ctx {
        seed: a.seed,
        seconds,
        smoke: a.smoke,
        trace: a.trace,
        out_dir: out_dir.clone(),
    };
    let info = RunInfo {
        seed: ctx.seed,
        seconds,
        trace: ctx.trace,
        nproc,
        pinned_cpu,
    };
    println!(
        "nvcache benchmark: seed {} seconds {} trace {} | nproc {} pinned_cpu {} | {}",
        info.seed,
        info.seconds,
        info.trace as u8,
        info.nproc,
        pinned_cpu.map_or("none (UNPINNED)".to_string(), |c| c.to_string()),
        report::RUSTC
    );

    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workload_names(),
    };
    let outcomes: Vec<_> = names
        .iter()
        .map(|name| {
            let o = workloads::run(name, &ctx);
            report::print_outcome(&o);
            o
        })
        .collect();

    let path = a.out.unwrap_or_else(|| {
        out_dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            a.workload.as_deref().unwrap_or("all"),
            ctx.seed,
            ctx.trace as u8
        ))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, report::result_set(&info, &outcomes).pretty()));
    match written {
        Ok(()) => println!("result set: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    // the driver reads the last line; with several workloads there is
    // one line each, in run order
    for o in &outcomes {
        println!("{}", report::driver_line(o, ctx.trace).line());
    }
    if outcomes.iter().all(|o| o.correct) {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("check") => check::main(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}
