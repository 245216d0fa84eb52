//! EE-FEI benchmark: time and energy to the paper's 92 % target on an
//! evaluation-bound and a training-bound FedAvg workload, and committed
//! rounds per second of the real-socket coordinator across a restart.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <baseline_k1e1|dense_k10e10|socket_restart> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root; it reads `BENCHMARK.json` there and
//! writes scratch files only under `.perfbench_work/`. With `--trace 0` it
//! reports the end-to-end metrics, with `--trace 1` the per-layer metrics.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines above it
//! record the host and build and every metric with its sample count. Any
//! failed correctness gate makes the run exit with status 1.

mod fl;
mod json;
mod report;
mod socket;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The seed of the paper-like campaign (`FlExperimentConfig::paper_like`);
/// panel member 0 of `--seed 0` runs it, and its results are pinned.
pub const DEFAULT_SEED: u64 = 0xF1;

/// Hard stop for starting new campaigns, well inside a run's time limit.
const START_DEADLINE_S: f64 = 100.0;

pub const WORKLOADS: [&str; 3] = [fl::BASELINE.name, fl::DENSE.name, "socket_restart"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics; no spans.
    Plain,
    /// Per-layer metrics from spans around every layer call.
    Traced,
}

/// The seed of panel member `member` of the run seeded `seed`: runs with
/// different seeds get disjoint panels, and seed 0 starts at the default.
pub fn panel_seed(seed: u64, member: usize, panel: usize) -> u64 {
    DEFAULT_SEED
        .wrapping_add(seed.wrapping_mul(panel as u64))
        .wrapping_add(member as u64)
}

/// Runs panel members `0, 1, ..., panel - 1`, then repeats them in order
/// until `seconds` have passed. A member is never cut short.
///
/// Returns the peak resident set size once the first campaign is done:
/// what one campaign needs, which is what a user running one sees. Later
/// campaigns reuse freed memory unevenly, and how many run depends on
/// timing, so the whole run's peak would not repeat.
pub fn schedule(panel: usize, seconds: f64, mut campaign: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    let mut first_peak_mb = 0.0;
    let mut n = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if (n >= panel && elapsed >= seconds) || (n > 0 && elapsed >= START_DEADLINE_S) {
            break;
        }
        campaign(n % panel);
        if n == 0 {
            first_peak_mb = report::peak_rss_mb();
        }
        n += 1;
    }
    first_peak_mb
}

/// Prints per-span-name totals and self times to standard error.
pub fn print_span_summary(tracer: &Tracer) {
    for (name, (count, total, self_ns)) in tracer.summary() {
        eprintln!(
            "span {name:<18} count={count:<7} total_ms={:<12.3} self_ms={:.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = if args.traced {
        Mode::Traced
    } else {
        Mode::Plain
    };
    println!("host {}", report::host_json());
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );

    let declared = report::declared_metrics(Path::new("BENCHMARK.json"), args.traced);
    let mut report = match args.workload.as_str() {
        "baseline_k1e1" => fl::run(&fl::BASELINE, args.seed, args.seconds, mode),
        "dense_k10e10" => fl::run(&fl::DENSE, args.seed, args.seconds, mode),
        _ => socket::run(args.seed, args.seconds, mode),
    };
    if let Err(e) = trace::self_test() {
        report.fail(e);
    }
    match declared {
        Ok(declared) => {
            if let Err(e) = report::check_declared(&report.metrics, &declared) {
                report.fail(e);
            }
        }
        Err(e) => report.fail(e),
    }
    // A non-finite value is a failed run, and is left out of the result
    // line so the line stays valid JSON.
    let non_finite: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is not finite", m.name))
        .collect();
    for e in non_finite {
        report.fail(e);
    }
    report.metrics.retain(|m| m.value.is_finite());

    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!(
            "metric {:<30} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &report.errors {
        println!("FAILED {e}");
    }
    println!("{}", report::result_line(&report));
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
