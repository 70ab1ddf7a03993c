//! BMX benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path bmxbench/Cargo.toml -- \
//!     --workload <owned-writes|shared-writes|read-mostly|gc-churn|gc-churn-noreuse> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path bmxbench/Cargo.toml -- --self-check
//! ```
//!
//! Each run builds its inputs from the seed, measures for the given
//! seconds, checks the program's outputs, prints a human-readable report
//! (host fingerprint, sample counts, every metric with its unit), and ends
//! with one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod dsm;
mod gc;
mod hist;
mod report;
mod spans;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &[
    "owned-writes",
    "shared-writes",
    "read-mostly",
    "gc-churn",
    "gc-churn-noreuse",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_check: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        self_check: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            a.self_check = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.clamp(1, 600),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_check && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Core count, CPU model and the compiler that built this binary.
fn fingerprint() -> (usize, String, &'static str) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (cores, model, env!("BENCH_RUSTC_VERSION"))
}

/// Peak resident set size of this process, MiB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bmxbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return match gc::self_check(args.seed) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bmxbench self-check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (cores, model, rustc) = fingerprint();
    let shape = match args.workload.as_str() {
        "owned-writes" => Some(dsm::Shape::OwnedWrites),
        "shared-writes" => Some(dsm::Shape::SharedWrites),
        "read-mostly" => Some(dsm::Shape::ReadMostly),
        _ => None,
    };
    // Threads that want a core: on the parallel runtime one driver and one
    // mutator per node plus the supervisor; the tick cluster is one thread.
    let threads = if shape.is_some() { 2 + 2 + 1 } else { 1 };
    let mut report = Report::default();
    match shape {
        Some(s) => dsm::run(s, args.seed, args.seconds, args.trace, &mut report),
        None => gc::run(
            args.workload == "gc-churn",
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
    }
    report.value("peak_rss_mb", peak_rss_mb());

    println!(
        "host: cores={cores} cpu=\"{model}\" rustc=\"{rustc}\" threads={threads} oversubscribed={}",
        threads > cores
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in report.notes() {
        println!("{n}");
    }
    println!(
        "failed_frac: {:.9} ({} failed of {} attempted)",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit, _) in table {
        match report.get(name) {
            Some(v) => println!("metric {name} = {v} {unit}"),
            None => println!("metric {name} = (not exercised) {unit}"),
        }
    }
    for (name, v) in report.extra(table) {
        println!("metric {name} = {v} (not in the result line)");
    }
    println!("{}", report.json(table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "shared-writes",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("shared-writes", 7, 3, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "x", "--workload", "gc-churn"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn benchmark_json_workloads_are_known() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = doc
            .split("{\"name\": \"")
            .skip(1)
            .filter(|rest| {
                rest.contains("\", \"why\"") && rest.find("\", \"why\"") < rest.find('}')
            })
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        for n in names {
            assert!(WORKLOADS.contains(&n), "unknown workload {n}");
        }
    }
}
