//! The run's report: the metric lists `BENCHMARK.json` declares, the
//! human-readable listing, the results file and the final result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mwsj_core::mapreduce::{json_escape, validate_json};

use crate::stats::{json_num, Metric};

/// End-to-end metrics and their units, reported by untraced runs
/// (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-module metrics and their units, reported by traced runs
/// (`--trace 1`). A module a workload bypasses reports zero work and zero
/// time. Wall-clock times end in `_wall_ms`, times summed over parallel
/// tasks in `_task_ms`.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("optimizer.plan_wall_ms", "ms"),
    ("partition.replicated", "count"),
    ("partition.after_replication", "count"),
    ("partition.replication_factor", "ratio"),
    ("mapreduce.jobs", "count"),
    ("mapreduce.shuffle_pairs", "count"),
    ("mapreduce.shuffle_bytes", "bytes"),
    ("mapreduce.map_wall_ms", "ms"),
    ("mapreduce.shuffle_wall_ms", "ms"),
    ("mapreduce.reduce_wall_ms", "ms"),
    ("mapreduce.job_wall_ms", "ms"),
    ("mapreduce.sort_task_ms", "ms"),
    ("mapreduce.merge_task_ms", "ms"),
    ("mapreduce.queue_wait_task_ms", "ms"),
    ("mapreduce.spill_runs", "count"),
    ("mapreduce.retries", "count"),
    ("mapreduce.skew", "ratio"),
    ("local.join_wall_ms", "ms"),
    ("local.tuples", "count"),
    ("store.open_wall_ms", "ms"),
    ("store.ingest_wall_ms", "ms"),
    ("store.bytes_per_rect", "bytes"),
    ("server.hit_handle_wall_ms", "ms"),
    ("server.miss_handle_wall_ms", "ms"),
    ("server.cache_hit_rate", "ratio"),
    ("server.cache_evictions", "count"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("net.hit_gap_wall_ms", "ms"),
    ("net.miss_gap_wall_ms", "ms"),
    ("net.gen_late_wall_ms", "ms"),
    ("datagen.gen_wall_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Further metrics written to the results file and the listing only.
pub const EXTRA: [(&str, &str); 7] = [
    ("error_frac", "ratio"),
    ("shuffle_pairs", "count"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("net.gen_late_max_wall_ms", "ms"),
];

/// The unit of a declared metric.
///
/// # Panics
/// On a name no list declares.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&EXTRA)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// Fills in zero for every per-module metric a workload did not measure:
/// the modules it bypasses did no work and took no time.
pub fn fill_bypassed(layers: &mut Vec<Metric>) {
    for (name, _) in PER_LAYER {
        if !layers.iter().any(|m| m.name == name) {
            layers.push(Metric::value(name, 0.0));
        }
    }
}

/// A span the benchmark recorded around one public call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation (or request) the span belongs to.
    pub op: u64,
    /// The call, e.g. `core::Cluster::plan`.
    pub name: &'static str,
    /// Microseconds since the run's epoch.
    pub start_us: u64,
    /// Microseconds since the run's epoch.
    pub end_us: u64,
}

/// Spans kept in memory while the run lasts and written when it ends.
pub struct SpanLog {
    epoch: Instant,
    /// Whether [`SpanLog::record`] keeps what it is given.
    pub enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records only when `enabled`.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records `name` over `[start, end]` for operation `op`.
    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let us = |t: Instant| {
                u64::try_from(t.saturating_duration_since(self.epoch).as_micros())
                    .unwrap_or(u64::MAX)
            };
            self.spans.push(Span {
                op,
                name,
                start_us: us(start),
                end_us: us(end),
            });
        }
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.op,
                json_escape(s.name),
                s.start_us,
                s.end_us
            );
        }
        out
    }
}

/// Everything one workload run measured.
pub struct Report {
    /// End-to-end metrics (untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-module metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were shed or answered wrongly.
    pub failed: u64,
    /// Every correctness and validity check passed.
    pub correct: bool,
    /// Free-form facts recorded next to the metrics (plan choice, rates,
    /// thread counts, check outcomes).
    pub notes: Vec<(String, String)>,
    /// Extra metrics of interest that `BENCHMARK.json` does not list,
    /// written to the results file and the listing only.
    pub extra: Vec<Metric>,
    /// Spans to write when the run ends (traced runs), plus any engine
    /// trace in JSON lines.
    pub spans: Option<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            e2e: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
            extra: Vec::new(),
            spans: None,
        }
    }

    /// Records a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Marks the run incorrect, with the reason.
    pub fn fail_check(&mut self, what: impl ToString) {
        self.correct = false;
        self.note("check_failed", what);
    }
}

/// The run's identity, recorded with every result.
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Traced run or not.
    pub trace: bool,
}

/// Processors available to the run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resets this process's peak resident set size, so that [`peak_rss_mb`]
/// covers only what runs afterwards (the measured phase, not the repeated
/// set-ups before it). Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_json(m: &Metric) -> String {
    let mut out = format!(
        "{{\"value\":{},\"unit\":\"{}\",\"samples\":{}",
        json_num(m.value),
        json_escape(m.unit),
        m.samples
    );
    if let Some(p) = m.percentile {
        let _ = write!(out, ",\"percentile\":{}", json_num(p));
    }
    out.push('}');
    out
}

fn metrics_object(metrics: &[Metric], full: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if full {
                metric_json(m)
            } else {
                format!(
                    "{{\"value\":{},\"unit\":\"{}\"}}",
                    json_num(m.value),
                    json_escape(m.unit)
                )
            };
            format!("\"{}\":{value}", json_escape(m.name))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The metrics a run of this kind must report, in declared order.
/// Panics when the workload left one out or reported one twice: the
/// lists here and in `BENCHMARK.json` are the contract.
pub fn reported(report: &Report, trace: bool) -> Vec<&Metric> {
    let (names, metrics): (&[(&str, &str)], &[Metric]) = if trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.e2e)
    };
    assert_eq!(metrics.len(), names.len(), "metric count mismatch");
    names
        .iter()
        .map(|(name, _)| {
            let mut found = metrics.iter().filter(|m| m.name == *name);
            let m = found
                .next()
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            assert!(found.next().is_none(), "metric `{name}` reported twice");
            m
        })
        .collect()
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics of this kind of run.
pub fn result_line(report: &Report, trace: bool) -> String {
    let metrics: Vec<Metric> = reported(report, trace).into_iter().cloned().collect();
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics_object(&metrics, false)
    );
    validate_json(&line).expect("result line is valid JSON");
    line
}

/// The full results document written to the output directory.
pub fn results_json(info: &RunInfo<'_>, report: &Report) -> String {
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let error_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let doc = format!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"nproc\":{},\"git_revision\":\"{}\",",
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"error_frac\":{},",
            "\"end_to_end\":{},\"per_layer\":{},\"extra\":{},\"notes\":{{{}}}}}\n"
        ),
        json_escape(info.workload),
        info.seed,
        info.seconds,
        info.trace,
        nproc(),
        json_escape(&git_revision()),
        report.correct,
        report.attempted,
        report.failed,
        json_num(error_frac),
        metrics_object(&report.e2e, true),
        metrics_object(&report.layers, true),
        metrics_object(&report.extra, true),
        notes.join(",")
    );
    validate_json(&doc).expect("results document is valid JSON");
    doc
}

/// Prints every metric by name with its unit, sample count and
/// percentile, then the notes (to stdout, before the result line).
pub fn print_listing(info: &RunInfo<'_>, report: &Report) {
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} git {}",
        info.workload,
        info.seed,
        info.seconds,
        u8::from(info.trace),
        nproc(),
        git_revision()
    );
    let print = |kind: &str, m: &Metric| {
        let pct = m.percentile.map_or(String::new(), |p| format!(" p{p}"));
        println!(
            "  {kind:<6} {:<30} {:>14} {:<6} n={}{pct}",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.samples
        );
    };
    for m in &report.e2e {
        print("e2e", m);
    }
    for m in &report.layers {
        print("layer", m);
    }
    for m in &report.extra {
        print("extra", m);
    }
    #[allow(clippy::cast_precision_loss)]
    let error_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  attempted {} failed {} error_frac {error_frac} correct {}",
        report.attempted, report.failed, report.correct
    );
    for (k, v) in &report.notes {
        println!("  note   {k}: {v}");
    }
}

/// Writes the results document (and the spans of a traced run) under
/// `out`, returning the results path.
pub fn write_outputs(out: &Path, info: &RunInfo<'_>, report: &Report) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        info.workload,
        info.seed,
        u8::from(info.trace)
    );
    let path = out.join(format!("{stem}.json"));
    std::fs::write(&path, results_json(info, report))?;
    if let Some(spans) = &report.spans {
        std::fs::write(out.join(format!("{stem}-spans.jsonl")), spans)?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn full_report() -> Report {
        let mut r = Report::new();
        let s = Summary::of(&[1.5, 2.5, 3.5]);
        for (name, _) in END_TO_END {
            r.e2e.push(Metric::tail(name, &s));
        }
        r.layers.push(Metric::value("mapreduce.skew", 1.25));
        fill_bypassed(&mut r.layers);
        r.attempted = 3;
        r.note("choice", "crep-l \"quoted\"");
        r
    }

    #[test]
    fn emitted_json_validates() {
        let report = full_report();
        let info = RunInfo {
            workload: "join-inmem",
            seed: 7,
            seconds: 1,
            trace: false,
        };
        for trace in [false, true] {
            let line = result_line(&report, trace);
            validate_json(&line).expect("result line");
            assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
            let listed = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(line.matches("\"unit\"").count(), listed);
        }
        validate_json(&results_json(&info, &report)).expect("results document");
        let mut spans = SpanLog::new(true);
        let t = Instant::now();
        spans.record(1, "core::Cluster::plan", t, t);
        for line in spans.to_jsonl().lines() {
            validate_json(line).expect("span line");
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_refused() {
        let mut report = full_report();
        report.e2e[0].name = "not_declared";
        let _ = result_line(&report, false);
    }

    /// The metric lists here must be exactly the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        validate_json(&text).expect("BENCHMARK.json is JSON");
        let names_in = |section: &str, next: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let end = text[start..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| start + e);
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| (*n).to_string()).collect()
        };
        assert_eq!(names_in("end_to_end", "per_layer"), names(&END_TO_END));
        assert_eq!(names_in("per_layer", "end of file"), names(&PER_LAYER));
    }
}
