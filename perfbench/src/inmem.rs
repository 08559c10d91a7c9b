//! `join-inmem`: Table 2's Q2 (`R1 ov R2 and R2 ov R3`) at nI = 20,000,
//! one caller in a closed loop, each operation `Query::parse` →
//! `Cluster::plan` → `Cluster::submit` pinned to the planned algorithm
//! with tuples materialized.
//!
//! A run cycles through a panel of [`PANEL`] seeded relation triples. The
//! optimizer's choice between C-Rep-L and the (slower) 2-way cascade
//! flips with the sampled selectivity of each triple, so the panel makes
//! a run measure the planner's choices over many inputs rather than the
//! luck of one draw.

use std::time::Instant;

use mwsj_core::geom::Rect;
use mwsj_core::mapreduce::{EngineConfig, Fnv64, JobMetrics, TraceSink};
use mwsj_core::query::Query;
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinOutput, JoinRun};
use mwsj_datagen::SyntheticConfig;

use crate::report::{fill_bypassed, Report, RunInfo, SpanLog};
use crate::stats::{median, ms, Metric, Summary};
use crate::SETUP_REPS;

/// The paper's Q2.
pub const QUERY: &str = "R1 ov R2 and R2 ov R3";
/// Rectangles per relation: the nI = 20,000 row of Table 2 at scale 0.01.
const N: usize = 20_000;
/// The space side at scale 0.01 (`100,000 × sqrt(0.01)`), which keeps the
/// paper's density.
const EXTENT: f64 = 10_000.0;

/// Relation triples per run.
pub const PANEL: usize = 64;

/// Generates the three uniform relations of panel triple `t` for `seed`.
fn generate(seed: u64, t: usize) -> Vec<Vec<Rect>> {
    (1..=3)
        .map(|i| {
            let s = seed.wrapping_mul(1_000).wrapping_add(t as u64 * 10 + i);
            let mut cfg = SyntheticConfig::paper_default(N, s);
            cfg.x_range = (0.0, EXTENT);
            cfg.y_range = (0.0, EXTENT);
            cfg.generate()
        })
        .collect()
}

/// Order-sensitive hash of a tuple list.
pub fn tuples_hash(tuples: &[Vec<u32>]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(tuples.len() as u64);
    for t in tuples {
        for &id in t {
            h.write_u64(u64::from(id));
        }
    }
    h.finish()
}

/// Hash of the tuple list in sorted order (sorts a copy only when the
/// list is not sorted already).
pub fn sorted_hash(tuples: &[Vec<u32>]) -> u64 {
    if tuples.is_sorted() {
        tuples_hash(tuples)
    } else {
        let mut sorted = tuples.to_vec();
        sorted.sort_unstable();
        tuples_hash(&sorted)
    }
}

/// Jobs that ran through the map-reduce engine (the map-side join reports
/// one synthetic job that did not).
pub fn engine_jobs(jobs: &[JobMetrics]) -> impl Iterator<Item = &JobMetrics> {
    jobs.iter().filter(|j| j.job_name != "map-side")
}

struct Op {
    total_ms: f64,
    plan_ms: f64,
    algorithm: Algorithm,
    output: JoinOutput,
}

fn op(
    cluster: &Cluster,
    rels: &[&[Rect]],
    trace: Option<&TraceSink>,
    spans: &mut SpanLog,
    id: u64,
) -> Op {
    let t0 = Instant::now();
    let query = Query::parse(QUERY).expect("Q2 parses");
    let t1 = Instant::now();
    let plan = cluster.plan(&query, rels);
    let t2 = Instant::now();
    let mut run = JoinRun::new(&query, rels).algorithm(plan.algorithm);
    if let Some(sink) = trace {
        run = run.trace(sink.clone());
    }
    let output = cluster.submit(&run).expect("join runs fault-free");
    let t3 = Instant::now();
    spans.record(id, "query::Query::parse", t0, t1);
    spans.record(id, "core::Cluster::plan", t1, t2);
    spans.record(id, "core::Cluster::submit", t2, t3);
    Op {
        total_ms: ms(t3 - t0),
        plan_ms: ms(t2 - t1),
        algorithm: plan.algorithm,
        output,
    }
}

/// Per-operation layer quantities from the engine's counters.
#[derive(Default)]
struct Layers {
    plan: Vec<f64>,
    jobs: Vec<f64>,
    pairs: Vec<f64>,
    bytes: Vec<f64>,
    map: Vec<f64>,
    shuffle: Vec<f64>,
    reduce: Vec<f64>,
    job: Vec<f64>,
    sort: Vec<f64>,
    merge: Vec<f64>,
    queue: Vec<f64>,
    spills: Vec<f64>,
    retries: Vec<f64>,
    skew: Vec<f64>,
}

#[allow(clippy::cast_precision_loss)]
fn skew(jobs: &[&JobMetrics], partitions: u32) -> f64 {
    jobs.iter()
        .max_by_key(|j| j.reduce_input_records)
        .filter(|j| j.reduce_input_records > 0)
        .map_or(0.0, |j| {
            j.max_partition_records as f64 * f64::from(partitions) / j.reduce_input_records as f64
        })
}

impl Layers {
    #[allow(clippy::cast_precision_loss)]
    fn push(&mut self, o: &Op, partitions: u32) {
        let jobs: Vec<&JobMetrics> = engine_jobs(&o.output.report.jobs).collect();
        let sum = |f: &dyn Fn(&JobMetrics) -> f64| jobs.iter().map(|j| f(j)).sum::<f64>();
        self.plan.push(o.plan_ms);
        self.jobs.push(jobs.len() as f64);
        self.pairs.push(sum(&|j| j.map_output_records as f64));
        self.bytes.push(sum(&|j| j.shuffle_bytes as f64));
        self.map.push(sum(&|j| ms(j.map_wall)));
        self.shuffle.push(sum(&|j| ms(j.shuffle_wall)));
        self.reduce.push(sum(&|j| ms(j.reduce_wall)));
        self.job.push(sum(&|j| ms(j.total_wall)));
        self.sort.push(sum(&|j| ms(j.sort_wall)));
        self.merge.push(sum(&|j| ms(j.merge_wall)));
        self.queue.push(sum(&|j| ms(j.queue_wait)));
        self.spills.push(sum(&|j| j.spill_runs as f64));
        self.retries.push(sum(&|j| j.retries as f64));
        self.skew.push(skew(&jobs, partitions));
    }
}

/// Phase walls that add up to more than their job's wall, beyond a 1 ms
/// allowance for the clock reads between phases.
fn phase_wall_violations(output: &JoinOutput) -> Vec<String> {
    engine_jobs(&output.report.jobs)
        .filter(|j| {
            let phases = j.map_wall + j.shuffle_wall + j.reduce_wall;
            ms(phases) > ms(j.total_wall) + 1.0
        })
        .map(|j| {
            format!(
                "job {}: map {:.3} + shuffle {:.3} + reduce {:.3} ms exceed the job wall {:.3} ms",
                j.job_name,
                ms(j.map_wall),
                ms(j.shuffle_wall),
                ms(j.reduce_wall),
                ms(j.total_wall)
            )
        })
        .collect()
}

/// Runs the workload.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(info: &RunInfo<'_>) -> Report {
    let mut report = Report::new();
    let mut spans = SpanLog::new(info.trace);

    // Set-up, repeated: data generation, the cluster, one warm-up
    // operation. `setup_s` is the median; the last set-up is kept.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let panel: Vec<Vec<Vec<Rect>>> = (0..PANEL).map(|t| generate(info.seed, t)).collect();
        gen_ms.push(ms(t0.elapsed()));
        let cluster = Cluster::new(ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 8));
        let rels: Vec<&[Rect]> = panel[0].iter().map(Vec::as_slice).collect();
        drop(op(&cluster, &rels, None, &mut SpanLog::new(false), 0));
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((panel, cluster));
    }
    let (panel, cluster) = state.expect("at least one set-up");
    let panel: Vec<Vec<&[Rect]>> = panel
        .iter()
        .map(|rels| rels.iter().map(Vec::as_slice).collect())
        .collect();

    // Per triple: the planned algorithm and a reference answer from a
    // different algorithm.
    let query = Query::parse(QUERY).expect("Q2 parses");
    let mut expected = Vec::with_capacity(PANEL);
    for rels in &panel {
        let choice = cluster.plan(&query, rels).algorithm;
        let reference_algorithm = if choice == Algorithm::TwoWayCascade {
            Algorithm::ControlledReplicate
        } else {
            Algorithm::TwoWayCascade
        };
        let reference = cluster
            .submit(&JoinRun::new(&query, rels).algorithm(reference_algorithm))
            .expect("reference join");
        expected.push((
            choice,
            reference.tuple_count,
            sorted_hash(&reference.tuples),
        ));
    }

    // Measured closed loop. A traced run alternates operations with and
    // without spans and an engine trace sink; the gap between the two
    // halves is the tracing overhead.
    let sink = TraceSink::recording();
    let partitions = cluster.num_reducers();
    let mut totals = Vec::new();
    let mut untraced = Vec::new();
    let mut layers = Layers::default();
    let (mut repl, mut after, mut tuples) = (Vec::new(), Vec::new(), Vec::new());
    let mut wrong = 0u64;
    let mut violations = Vec::new();
    let rss_reset = crate::report::reset_peak_rss();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs(info.seconds);
    let mut id = 0u64;
    while Instant::now() < deadline {
        id += 1;
        let traced = info.trace && id % 2 == 1;
        spans.enabled = traced;
        let t = usize::try_from(id).expect("op count fits") % PANEL;
        let o = op(&cluster, &panel[t], traced.then_some(&sink), &mut spans, id);
        if (
            o.algorithm,
            o.output.tuple_count,
            sorted_hash(&o.output.tuples),
        ) != expected[t]
        {
            wrong += 1;
        }
        if traced || !info.trace {
            totals.push(o.total_ms);
            layers.push(&o, partitions);
            repl.push(o.output.stats.rectangles_replicated as f64);
            after.push(o.output.stats.rectangles_after_replication as f64);
            tuples.push(o.output.tuple_count as f64);
        } else {
            untraced.push(o.total_ms);
        }
        if info.trace {
            violations.extend(phase_wall_violations(&o.output));
        }
    }
    let peak_rss = crate::report::peak_rss_mb();
    report.note(
        "peak_rss_scope",
        if rss_reset {
            "measured phase"
        } else {
            "whole run"
        },
    );

    report.attempted = id;
    report.failed = wrong;
    if wrong > 0 {
        report.fail_check(format!("{wrong} operations returned a wrong answer"));
    }
    if let Some(v) = violations.first() {
        report.fail_check(format!(
            "{} phase-wall violations, first: {v}",
            violations.len()
        ));
    }
    report.note("query", QUERY);
    report.note(
        "relations",
        format!("{PANEL} triples of 3 x {N} uniform rectangles in [0, {EXTENT}]^2"),
    );
    let count = |a: Algorithm| expected.iter().filter(|e| e.0 == a).count();
    report.note(
        "plan_choices",
        format!(
            "{} of {PANEL} triples crep-l, {} cascade, {} other",
            count(Algorithm::ControlledReplicateLimit),
            count(Algorithm::TwoWayCascade),
            PANEL - count(Algorithm::ControlledReplicateLimit) - count(Algorithm::TwoWayCascade)
        ),
    );
    report.note(
        "expected_tuples_median",
        median(&expected.iter().map(|e| e.1 as f64).collect::<Vec<_>>()),
    );
    report.note("engine_threads", EngineConfig::default().map_tasks);
    report.note("callers", 1);

    let ops = Summary::of(&totals);
    report.e2e = vec![
        Metric::median_of("setup_s", &setup_s),
        Metric::p50("op_p50_ms", &ops),
        Metric::tail("op_tail_ms", &ops),
        // Operations per second of operation time: what one caller doing
        // nothing else completes, leaving out the benchmark's own checks.
        Metric::value(
            "capacity_qps",
            totals.len() as f64 * 1e3 / totals.iter().sum::<f64>(),
        ),
        Metric::value("peak_rss_mb", peak_rss),
    ];
    report.extra = vec![
        Metric::value("error_frac", wrong as f64 / id.max(1) as f64),
        Metric::median_of("shuffle_pairs", &layers.pairs),
    ];
    if info.trace {
        let input = (3 * N) as f64;
        let factor: Vec<f64> = after.iter().map(|a| a / input).collect();
        report.layers = vec![
            Metric::median_of("optimizer.plan_wall_ms", &layers.plan),
            Metric::median_of("partition.replicated", &repl),
            Metric::median_of("partition.after_replication", &after),
            Metric::median_of("partition.replication_factor", &factor),
            Metric::median_of("mapreduce.jobs", &layers.jobs),
            Metric::median_of("mapreduce.shuffle_pairs", &layers.pairs),
            Metric::median_of("mapreduce.shuffle_bytes", &layers.bytes),
            Metric::median_of("mapreduce.map_wall_ms", &layers.map),
            Metric::median_of("mapreduce.shuffle_wall_ms", &layers.shuffle),
            Metric::median_of("mapreduce.reduce_wall_ms", &layers.reduce),
            Metric::median_of("mapreduce.job_wall_ms", &layers.job),
            Metric::median_of("mapreduce.sort_task_ms", &layers.sort),
            Metric::median_of("mapreduce.merge_task_ms", &layers.merge),
            Metric::median_of("mapreduce.queue_wait_task_ms", &layers.queue),
            Metric::median_of("mapreduce.spill_runs", &layers.spills),
            Metric::median_of("mapreduce.retries", &layers.retries),
            Metric::median_of("mapreduce.skew", &layers.skew),
            // The reducers run the local join kernel.
            Metric::median_of("local.join_wall_ms", &layers.reduce),
            Metric::median_of("local.tuples", &tuples),
            Metric::median_of("datagen.gen_wall_ms", &gen_ms),
            Metric::value(
                "trace.overhead_pct",
                (median(&totals) / median(&untraced) - 1.0) * 100.0,
            ),
        ];
        fill_bypassed(&mut report.layers);
        let mut out = spans.to_jsonl();
        out.push_str(&sink.to_jsonl());
        report.spans = Some(out);
    }
    report
}
