//! Metrics, summary statistics, the host record, and the result line.

use std::fmt::Write as _;
use std::path::Path;

use crate::json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (campaigns, rounds, events, ...).
    pub samples: usize,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (rounds, over every campaign of the run).
    pub attempted: u64,
    /// Operations that failed (aborted rounds, failed correctness gates).
    pub failed: u64,
    /// Human-readable correctness-gate failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Free-form lines printed above the result (campaign table, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a failed correctness gate.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    /// Fails the run unless `ok`.
    pub fn gate(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median over `items` of `f(item)`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The least-disturbed stretch of a run: of the back-to-back windows of
/// `window` consecutive rounds, in the order they ran, the one with the
/// lowest mean round time (the whole run when it holds fewer than two
/// windows). The mean, not the median, picks it: socket round times
/// cluster at whole numbers of 1 ms node cycles, so a window's median
/// jumps between clusters while its mean moves smoothly.
pub fn quietest_window(round_ms: &[f64], window: usize) -> &[f64] {
    if window == 0 || round_ms.len() < 2 * window {
        return round_ms;
    }
    round_ms
        .chunks_exact(window)
        .min_by(|a, b| mean(a).total_cmp(&mean(b)))
        .unwrap_or(round_ms)
}

/// The end-to-end round-time metrics of a run, from its quietest window.
///
/// Every round of a workload repeats the same work, but on a shared
/// virtual machine other tenants slow whole stretches of a run (by up to a
/// third, for tens of seconds at a time, on a 2-vCPU Xeon guest). The
/// least-disturbed window measures the program rather than its
/// neighbours: `round_ms_p50` and `round_ms_p90` are that window's
/// percentiles, `rounds_per_s` its round rate, and `tta_s` the time
/// `rounds_to_target` rounds take at that rate.
pub fn round_time_metrics(
    report: &mut Report,
    round_ms: &[f64],
    window: usize,
    rounds_to_target: f64,
    campaigns: usize,
) {
    let quiet = quietest_window(round_ms, window);
    let mean_ms = mean(quiet);
    report.metric("tta_s", rounds_to_target * mean_ms / 1e3, "s", campaigns);
    report.metric("round_ms_p50", percentile(quiet, 50.0), "ms", quiet.len());
    report.metric("round_ms_p90", percentile(quiet, 90.0), "ms", quiet.len());
    report.metric("rounds_per_s", 1e3 / mean_ms, "1/s", quiet.len());
}

/// Arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build the numbers were measured on, as one JSON object.
pub fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}, \
         \"target_cpu\": {}, \"target_features\": {}}}",
        quote(&cpu),
        quote(env!("PERFBENCH_RUSTC")),
        quote(&git_commit()),
        quote(env!("PERFBENCH_TARGET_CPU")),
        quote(env!("PERFBENCH_TARGET_FEATURES")),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metric names and units declared in `BENCHMARK.json` for one mode
/// (`end_to_end` untraced, `per_layer` traced).
pub fn declared_metrics(path: &Path, traced: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let section = if traced { "per_layer" } else { "end_to_end" };
    doc.get(section)
        .ok_or_else(|| format!("{} has no {section}", path.display()))?
        .items()
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{section} entry without a {key}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Checks that the emitted metrics are exactly the declared ones, in name
/// and unit, each once.
pub fn check_declared(metrics: &[Metric], declared: &[(String, String)]) -> Result<(), String> {
    let mut emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let mut declared = declared.to_vec();
    emitted.sort();
    declared.sort();
    if emitted == declared {
        return Ok(());
    }
    let missing: Vec<_> = declared.iter().filter(|d| !emitted.contains(d)).collect();
    let extra: Vec<_> = emitted.iter().filter(|e| !declared.contains(e)).collect();
    Err(format!(
        "emitted metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
    ))
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(m.name),
            m.value,
            quote(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn quietest_window_picks_the_lowest_mean_stretch() {
        let rounds = [5.0, 6.0, 9.0, 1.0, 2.0, 8.0, 4.0];
        assert_eq!(quietest_window(&rounds, 2), &[9.0, 1.0]);
        assert_eq!(quietest_window(&rounds, 3), &[1.0, 2.0, 8.0]);
        assert_eq!(quietest_window(&rounds, 4), &rounds[..]);
        // A low median with a stall in it loses to a steady window.
        let stalled = [1.0, 2.0, 2.0, 30.0, 4.0, 4.0, 4.0, 4.0];
        assert_eq!(quietest_window(&stalled, 4), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn declared_names_must_match_exactly() {
        let m = |name| Metric {
            name,
            value: 1.0,
            unit: "s",
            samples: 1,
        };
        let declared = vec![("a".to_string(), "s".to_string())];
        assert!(check_declared(&[m("a")], &declared).is_ok());
        assert!(check_declared(&[m("a"), m("b")], &declared).is_err());
        assert!(check_declared(&[], &declared).is_err());
    }

    #[test]
    fn benchmark_json_declares_unique_names_for_both_modes() {
        // The committed BENCHMARK.json sits one directory above the package.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        for traced in [false, true] {
            let mut names: Vec<String> = declared_metrics(&path, traced)
                .unwrap()
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            let count = names.len();
            names.sort();
            names.dedup();
            assert!(count > 0 && names.len() == count, "duplicate or no names");
        }
    }
}
