//! `join-stored`: `A ov B` over two road-like relations ingested into
//! stores during set-up. Each operation opens both stores cold (as
//! `mwsj run --data store:` does), then `plan_stored` → `submit_stored`
//! pinned to the planned algorithm, tuples materialized.
//!
//! The roads are a map of [`TOWNS`] seeded California-calibrated town
//! networks laid out on a square of tiles; `A` and `B` take alternate
//! segments of every road. A single seeded network has only a dozen urban
//! clusters of random radius, and its join output swings by a factor of
//! two between seeds; many towns average that out while each keeps the
//! clustered, skewed density of the full dataset.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mwsj_core::geom::Rect;
use mwsj_core::mapreduce::EngineConfig;
use mwsj_core::query::Query;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun, StoredRun};
use mwsj_datagen::CaliforniaConfig;

use crate::inmem::{engine_jobs, sorted_hash};
use crate::report::{fill_bypassed, Report, RunInfo, SpanLog};
use crate::stats::{median, ms, Metric, Summary};
use crate::SETUP_REPS;

/// The 2-way overlap join.
const QUERY: &str = "A ov B";
/// Road MBBs per relation.
const ROADS: usize = 20_000;
/// Town networks in the map (a square number).
const TOWNS: usize = 64;

struct Setup {
    cluster: Cluster,
    data: Vec<Vec<Rect>>,
    paths: Vec<PathBuf>,
    gen_ms: f64,
    ingest_ms: f64,
    bytes_per_rect: f64,
    choice: Algorithm,
}

struct Op {
    total_ms: f64,
    open_ms: f64,
    plan_ms: f64,
    join_ms: f64,
    choice: Algorithm,
    engine_jobs: usize,
    tuple_count: u64,
    hash: u64,
}

fn op(cluster: &Cluster, paths: &[PathBuf], spans: &mut SpanLog, id: u64) -> Op {
    let t0 = Instant::now();
    let stores: Vec<StoredDataset> = paths
        .iter()
        .map(|p| StoredDataset::open(p).expect("store opens"))
        .collect();
    let t1 = Instant::now();
    let query = Query::parse(QUERY).expect("query parses");
    let refs: Vec<&StoredDataset> = stores.iter().collect();
    let t2 = Instant::now();
    let plan = cluster.plan_stored(&query, &refs);
    let t3 = Instant::now();
    let run = StoredRun::new(&query, &refs)
        .algorithm(plan.algorithm)
        .open_wall(t1 - t0);
    let output = cluster.submit_stored(&run).expect("stored join runs");
    let t4 = Instant::now();
    spans.record(id, "store::StoredDataset::open", t0, t1);
    spans.record(id, "query::Query::parse", t1, t2);
    spans.record(id, "core::Cluster::plan_stored", t2, t3);
    spans.record(id, "core::Cluster::submit_stored", t3, t4);
    Op {
        total_ms: ms(t4 - t0),
        open_ms: ms(t1 - t0),
        plan_ms: ms(t3 - t2),
        join_ms: ms(t4 - t3),
        choice: plan.algorithm,
        engine_jobs: engine_jobs(&output.report.jobs).count(),
        tuple_count: output.tuple_count,
        hash: sorted_hash(&output.tuples),
    }
}

#[allow(clippy::cast_precision_loss)]
fn setup(seed: u64, dir: &Path) -> Setup {
    let t0 = Instant::now();
    let per_town = 2 * ROADS / TOWNS;
    let side = TOWNS.isqrt();
    let tile = CaliforniaConfig::scaled_to(per_town, 0);
    let (w, h) = (tile.x_extent(), tile.y_extent());
    let mut network = Vec::with_capacity(2 * ROADS);
    for t in 0..TOWNS {
        let town =
            CaliforniaConfig::scaled_to(per_town, seed.wrapping_mul(1_000).wrapping_add(t as u64));
        #[allow(clippy::cast_precision_loss)]
        let (ox, oy) = ((t % side) as f64 * w, (t / side) as f64 * h);
        network.extend(
            town.generate()
                .iter()
                .map(|r| Rect::new(r.x() + ox, r.y() + oy, r.l(), r.b())),
        );
    }
    let data: Vec<Vec<Rect>> = (0..2)
        .map(|r| network.iter().skip(r).step_by(2).copied().collect())
        .collect();
    let gen_ms = ms(t0.elapsed());
    // One unit of slack keeps edge roads inside despite offset rounding.
    #[allow(clippy::cast_precision_loss)]
    let cluster = Cluster::new(ClusterConfig {
        x_range: (0.0, w * side as f64 + 1.0),
        y_range: (0.0, h * side as f64 + 1.0),
        grid_cols: 8,
        grid_rows: 8,
        num_reducers: None,
        engine: EngineConfig::default(),
    });
    std::fs::create_dir_all(dir).expect("scratch directory");
    let t1 = Instant::now();
    let builder = StoreBuilder::new(cluster.grid());
    let paths: Vec<PathBuf> = data
        .iter()
        .enumerate()
        .map(|(i, rects)| {
            let path = dir.join(format!("rel{i}.store"));
            builder.write(rects, &path).expect("ingest");
            path
        })
        .collect();
    let ingest_ms = ms(t1.elapsed());
    let bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("store file").len())
        .sum();
    let warm = op(&cluster, &paths, &mut SpanLog::new(false), 0);
    Setup {
        bytes_per_rect: bytes as f64 / (2 * ROADS) as f64,
        cluster,
        data,
        paths,
        gen_ms,
        ingest_ms,
        choice: warm.choice,
    }
}

/// Runs the workload; stores live under `scratch`.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(info: &RunInfo<'_>, scratch: &Path) -> Report {
    let mut report = Report::new();
    let mut spans = SpanLog::new(info.trace);

    // Set-up, repeated: generation, ingest of both stores, one warm-up
    // operation. `setup_s` is the median; the last set-up is kept.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let _ = std::fs::remove_dir_all(scratch);
        let t0 = Instant::now();
        let s = setup(info.seed, &scratch.join(format!("setup{rep}")));
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_ms.push(s.gen_ms);
        ingest_ms.push(s.ingest_ms);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");

    // Reference: the in-memory submit of the same relations.
    let query = Query::parse(QUERY).expect("query parses");
    let rels: Vec<&[Rect]> = s.data.iter().map(Vec::as_slice).collect();
    let reference = s
        .cluster
        .submit(&JoinRun::new(&query, &rels))
        .expect("in-memory reference join");
    let expected = (reference.tuple_count, sorted_hash(&reference.tuples));
    report.note("reference_algorithm", reference.algorithm);
    drop(reference);

    let mut totals = Vec::new();
    let mut untraced = Vec::new();
    let (mut open, mut plan, mut join, mut jobs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut wrong = 0u64;
    let rss_reset = crate::report::reset_peak_rss();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs(info.seconds);
    let mut id = 0u64;
    while Instant::now() < deadline {
        id += 1;
        // A traced run records spans on every other operation only; the
        // gap between the two halves is the tracing overhead.
        let traced = info.trace && id % 2 == 1;
        spans.enabled = traced;
        let o = op(&s.cluster, &s.paths, &mut spans, id);
        if (o.tuple_count, o.hash) != expected || o.choice != s.choice {
            wrong += 1;
        }
        if traced || !info.trace {
            totals.push(o.total_ms);
            open.push(o.open_ms);
            plan.push(o.plan_ms);
            join.push(o.join_ms);
            jobs.push(o.engine_jobs as f64);
        } else {
            untraced.push(o.total_ms);
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
    report.note("query", QUERY);
    report.note(
        "relations",
        format!("2 x {ROADS} road MBBs: alternate segments of {TOWNS} California-calibrated towns"),
    );
    report.note("plan_choice", s.choice);
    report.note("expected_tuples", expected.0);
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
    report.extra = vec![Metric::value("error_frac", wrong as f64 / id.max(1) as f64)];
    if info.trace {
        report.layers = vec![
            Metric::median_of("optimizer.plan_wall_ms", &plan),
            Metric::median_of("mapreduce.jobs", &jobs),
            // The map-side join runs the local kernel over the stored
            // trees; the pinned submit is that join and nothing else.
            Metric::median_of("local.join_wall_ms", &join),
            Metric::value("local.tuples", expected.0 as f64),
            Metric::median_of("store.open_wall_ms", &open),
            Metric::median_of("store.ingest_wall_ms", &ingest_ms),
            Metric::value("store.bytes_per_rect", s.bytes_per_rect),
            Metric::median_of("datagen.gen_wall_ms", &gen_ms),
            Metric::value(
                "trace.overhead_pct",
                (median(&totals) / median(&untraced) - 1.0) * 100.0,
            ),
        ];
        fill_bypassed(&mut report.layers);
        report.spans = Some(spans.to_jsonl());
    }
    report
}
