//! `serve-mixed`: an in-process `Server` with `ServerConfig::default()`
//! on loopback, driven by an open-loop generator (one sender thread, one
//! receiver thread) over two pipelined line-protocol connections.
//!
//! * The **hot** connection cycles through a small pool of 2- and 3-way
//!   overlap queries over `synthetic:` relations with the protocol's
//!   default `auto` algorithm. After warm-up every one is a cache hit —
//!   one that still re-plans before the cache lookup.
//! * The **cold** connection sends `A ra(d) B` over two mounted `store:`
//!   datasets with a fresh `d` each time: every request is a map-side
//!   miss whose result is inserted into the cache. Each result is about
//!   a thirtieth of the cache, so the cold stream overflows it several
//!   times per run while the hot set stays resident.
//!
//! Requests are timed from their scheduled send, so a stall is charged to
//! every request queued behind it. The run first holds the nominal rates,
//! then searches a geometric ladder for the highest total rate (same mix,
//! both connections scaled together) that keeps the tail within
//! [`TAIL_LIMIT_MS`].

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mwsj_core::geom::Rect;
use mwsj_core::mapreduce::{json_escape, EngineConfig, Fnv64};
use mwsj_core::partition::Grid;
use mwsj_core::query::Query;
use mwsj_core::store::{dataset_fingerprint, StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun, StoredRun};
use mwsj_datagen::SyntheticConfig;
use mwsj_net::{Event, Interest, Poller};
use mwsj_server::json::{self, Json};
use mwsj_server::{source, Client, Server, ServerConfig};

use crate::inmem::tuples_hash;
use crate::report::{fill_bypassed, Report, RunInfo, SpanLog};
use crate::stats::{ladder_rate, ladder_search, median, ms, Metric, Summary};
use crate::SETUP_REPS;

/// Nominal hot (cache-hit) request rate, per second.
const HOT_RATE: f64 = 80.0;
/// Nominal cold (cache-miss) request rate, per second.
const COLD_RATE: f64 = 16.0;
/// Relations of the hot pool: `synthetic:` rectangles per relation and
/// the side of their square space (dense enough for ~1,500 tuples).
const HOT_N: usize = 2_000;
const HOT_EXTENT: f64 = 5_000.0;
/// Hot pool queries over relations `R0..R3`: `(query, relation indices)`.
const HOT_POOL: [(&str, &[usize]); 4] = [
    ("A ov B", &[0, 1]),
    ("A ov B", &[2, 3]),
    ("A ov B and B ov C", &[0, 1, 2]),
    ("A ov B and B ov C", &[1, 2, 3]),
];
/// Rectangles per cold store (uniform over the whole service space).
const COLD_N: usize = 20_000;
/// Cold query distances are `COLD_D + k / 1024` for request `k`: distinct
/// on the wire, nearly identical in work.
const COLD_D: f64 = 300.0;
/// Every this-many-th cold response of the nominal phase is kept and
/// checked against a direct map-side submit after the phase.
const COLD_SAMPLE_EVERY: u64 = 16;
/// Latency limit on the tail for the capacity search.
pub const TAIL_LIMIT_MS: f64 = 50.0;
/// The capacity ladder: `LADDER_BASE × LADDER_RATIO^k` total requests
/// per second, `k < LADDER_STEPS` (50 to about 500 per second).
const LADDER_BASE: f64 = 50.0;
pub const LADDER_RATIO: f64 = 1.05;
const LADDER_STEPS: usize = 48;
/// Seconds of traffic per capacity probe.
const PROBE_SECS: f64 = 1.5;
/// A run is flagged invalid when more than 1% of its requests went out
/// later than this after their scheduled time: the generator could not
/// keep its own schedule.
const GEN_LATE_LIMIT_MS: f64 = 10.0;

/// One planned request.
struct Planned {
    conn: usize,
    due: Duration,
    line: String,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    Hot(usize),
    Cold(u64),
}

/// One answered (or lost) request.
struct Done {
    kind: Kind,
    scheduled: Instant,
    sent: Instant,
    received: Option<Instant>,
    ok: bool,
    overloaded: bool,
    cached: bool,
    wall_ms: f64,
    tuple_count: u64,
    fingerprint: String,
    /// Jobs in the response's counters that ran through the map-reduce
    /// engine (the map-side join's synthetic job did not).
    engine_jobs: usize,
    body: Option<String>,
}

impl Done {
    fn latency_ms(&self) -> Option<f64> {
        self.received.map(|r| ms(r - self.scheduled))
    }
    fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.scheduled))
    }
}

fn field_after<'a>(body: &'a str, key: &str, from_end: bool) -> Option<&'a str> {
    let at = if from_end {
        body.rfind(key)
    } else {
        body.find(key)
    }?;
    let rest = &body[at + key.len()..];
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Reads the fields the benchmark checks without parsing the tuples.
fn fill_from_response(d: &mut Done, body: &str) {
    d.ok = body.starts_with("{\"ok\":true");
    d.overloaded = !d.ok && body.contains("\"overloaded\"");
    d.cached = body.starts_with("{\"ok\":true,\"cached\":true");
    d.tuple_count = field_after(body, "\"tuple_count\":", false)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    d.wall_ms = field_after(body, "\"wall_ms\":", true)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    d.fingerprint = field_after(body, "\"fingerprint\":\"", true)
        .unwrap_or("")
        .to_string();
    let counters = body.rfind("\"counters\":").map_or("", |at| &body[at..]);
    d.engine_jobs =
        counters.matches("{\"job\":\"").count() - counters.matches("{\"job\":\"map-side\"").count();
}

/// A request record before its response: due time and actual send.
fn unanswered(kind: Kind, scheduled: Instant) -> Done {
    Done {
        kind,
        scheduled,
        sent: Instant::now(),
        received: None,
        ok: false,
        overloaded: false,
        cached: false,
        wall_ms: 0.0,
        tuple_count: 0,
        fingerprint: String::new(),
        engine_jobs: 0,
        body: None,
    }
}

/// Drives `plan` (sorted by due time) over `streams` with two threads: a
/// sender that sleeps until each request's due time and writes it, and
/// the calling thread, which waits on the sockets and timestamps each
/// pipelined response the moment it is read. Waits up to `drain` after
/// the last due time for stragglers; unanswered requests come back with
/// `received: None`.
fn drive(
    streams: &[TcpStream],
    plan: &[Planned],
    epoch: Instant,
    keep_body: &dyn Fn(Kind) -> bool,
    drain: Duration,
) -> Vec<Done> {
    let poller = Poller::new().expect("epoll instance");
    for (i, s) in streams.iter().enumerate() {
        s.set_nonblocking(true).expect("nonblocking socket");
        poller
            .register(s, i as u64, Interest::READ)
            .expect("register socket");
    }
    let last_due = plan.last().map_or(epoch, |p| epoch + p.due);
    // Per connection, records flow sender → receiver in send order; a
    // record is queued before its request is written, so it is always
    // there when the response arrives.
    let (txs, rxs): (Vec<_>, Vec<_>) = streams.iter().map(|_| mpsc::channel::<Done>()).unzip();
    let queued = AtomicUsize::new(0);
    let sending = AtomicBool::new(true);
    let mut done = Vec::with_capacity(plan.len());
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writers: Vec<TcpStream> = streams
                .iter()
                .map(|s| s.try_clone().expect("clone socket"))
                .collect();
            let mut broken = vec![false; writers.len()];
            let mut unsent = Vec::new();
            for p in plan {
                let scheduled = epoch + p.due;
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let record = unanswered(p.kind, scheduled);
                if broken[p.conn] {
                    unsent.push(record);
                    continue;
                }
                queued.fetch_add(1, Ordering::SeqCst);
                txs[p.conn].send(record).expect("receiver alive");
                broken[p.conn] = !write_line(&mut writers[p.conn], &p.line);
            }
            sending.store(false, Ordering::SeqCst);
            unsent
        });

        let mut bufs: Vec<Vec<u8>> = streams.iter().map(|_| Vec::new()).collect();
        let mut closed = vec![false; streams.len()];
        let mut events: Vec<Event> = Vec::new();
        let mut chunk = vec![0u8; 1 << 16];
        let mut matched = 0usize;
        loop {
            if !sending.load(Ordering::SeqCst)
                && (matched == queued.load(Ordering::SeqCst) || Instant::now() > last_due + drain)
            {
                break;
            }
            poller
                .wait(&mut events, Duration::from_millis(10))
                .expect("epoll wait");
            for ev in &events {
                let c = usize::try_from(ev.token).expect("token is a connection index");
                let mut s = &streams[c];
                loop {
                    match s.read(&mut chunk) {
                        Ok(0) => {
                            closed[c] = true;
                            break;
                        }
                        Ok(n) => {
                            let received = Instant::now();
                            let buf = &mut bufs[c];
                            let mut search = buf.len();
                            buf.extend_from_slice(&chunk[..n]);
                            let mut start = 0;
                            while let Some(pos) = buf[search..].iter().position(|&b| b == b'\n') {
                                let end = search + pos;
                                let body = std::str::from_utf8(&buf[start..end]).unwrap_or("");
                                let mut d = rxs[c]
                                    .recv_timeout(Duration::from_secs(1))
                                    .expect("a response matches a queued request");
                                matched += 1;
                                d.received = Some(received);
                                fill_from_response(&mut d, body);
                                if keep_body(d.kind) {
                                    d.body = Some(body.to_string());
                                }
                                done.push(d);
                                start = end + 1;
                                search = start;
                            }
                            buf.drain(..start);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            closed[c] = true;
                            break;
                        }
                    }
                }
                if closed[c] {
                    let _ = poller.deregister(&streams[c]);
                }
            }
        }
        done.extend(sender.join().expect("sender thread"));
    });
    // Whatever is still queued was never answered.
    for rx in &rxs {
        done.extend(rx.try_iter());
    }
    done
}

/// Writes one request line on a nonblocking socket.
fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut off = 0;
    let give_up = Instant::now() + Duration::from_secs(5);
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < give_up => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// The request pool and everything needed to check answers.
struct Traffic {
    hot_lines: Vec<String>,
    /// `(tuple_count, fingerprint)` of each hot query by direct submit.
    hot_expected: Vec<(u64, String)>,
    store_paths: Vec<PathBuf>,
    store_fingerprint: String,
}

/// A cold request: `A ra(d) B` over the two stores.
fn cold_line(store_paths: &[PathBuf], d: f64) -> String {
    let data: Vec<String> = ["A", "B"]
        .iter()
        .zip(store_paths)
        .map(|(name, p)| {
            format!(
                "\"{name}\":\"store:{}\"",
                json_escape(&p.display().to_string())
            )
        })
        .collect();
    format!(
        "{{\"op\":\"query\",\"query\":\"A ra({d}) B\",\"data\":{{{}}}}}\n",
        data.join(",")
    )
}

#[allow(clippy::cast_precision_loss)]
fn cold_distance(k: u64) -> f64 {
    COLD_D + k as f64 / 1024.0
}

fn hot_spec(seed: u64, rel: usize) -> String {
    format!(
        "synthetic:n={HOT_N},seed={},extent={HOT_EXTENT}",
        seed.wrapping_mul(10).wrapping_add(rel as u64 + 1)
    )
}

fn hot_line(query: &str, specs: &[String]) -> String {
    let names = ["A", "B", "C"];
    let data: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| format!("\"{}\":\"{s}\"", names[i]))
        .collect();
    format!(
        "{{\"op\":\"query\",\"query\":\"{query}\",\"data\":{{{}}}}}\n",
        data.join(",")
    )
}

/// The combined input fingerprint the server reports: the dataset count,
/// then each dataset fingerprint in canonical relation order.
fn combined_fingerprint(query: &Query, by_name: &dyn Fn(&str) -> u64) -> String {
    let canonical = query.canonical();
    let mut h = Fnv64::new();
    h.write_u64(canonical.num_relations() as u64);
    for r in canonical.relations() {
        h.write_u64(by_name(canonical.name(r)));
    }
    format!("{:016x}", h.finish())
}

/// The service's space and grid, as `ServerConfig::default()` sets them.
fn service_cluster() -> Cluster {
    let c = ServerConfig::default();
    Cluster::new(ClusterConfig::for_space(
        (0.0, c.extent),
        (0.0, c.extent),
        c.grid,
    ))
}

/// Generates and ingests the two cold stores under `dir`, partitioned by
/// the service's `grid`.
fn ingest_cold(seed: u64, grid: &Grid, dir: &Path) -> (Vec<PathBuf>, f64, f64, f64) {
    let t0 = Instant::now();
    let extent = ServerConfig::default().extent;
    let data: Vec<Vec<Rect>> = (0..2)
        .map(|i| {
            let mut cfg =
                SyntheticConfig::paper_default(COLD_N, seed.wrapping_mul(10).wrapping_add(5 + i));
            cfg.x_range = (0.0, extent);
            cfg.y_range = (0.0, extent);
            cfg.generate()
        })
        .collect();
    let gen_ms = ms(t0.elapsed());
    std::fs::create_dir_all(dir).expect("scratch directory");
    let t1 = Instant::now();
    let builder = StoreBuilder::new(grid);
    let paths: Vec<PathBuf> = data
        .iter()
        .enumerate()
        .map(|(i, rects)| {
            let p = dir.join(format!("cold{i}.store"));
            builder.write(rects, &p).expect("ingest");
            p
        })
        .collect();
    let ingest_ms = ms(t1.elapsed());
    let bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("store file").len())
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let per_rect = bytes as f64 / (2 * COLD_N) as f64;
    (paths, gen_ms, ingest_ms, per_rect)
}

/// A booted server with its run thread.
struct Running {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn boot() -> Running {
        let server = Server::bind(ServerConfig::default()).expect("server binds");
        let addr = server.local_addr().expect("local addr").to_string();
        let thread = std::thread::spawn(move || server.run());
        Running { addr, thread }
    }

    fn request(&self, line: &str) -> String {
        let mut c = Client::connect(&self.addr).expect("client connects");
        c.request(line.trim_end()).expect("request answered")
    }

    fn stats(&self) -> Json {
        json::parse(&self.request("{\"op\":\"stats\"}")).expect("stats is JSON")
    }

    fn shutdown(self) {
        let _ = self.request("{\"op\":\"shutdown\"}");
        self.thread
            .join()
            .expect("server thread")
            .expect("server ran cleanly");
    }
}

fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut v = doc;
    for k in path {
        v = v.get(k).unwrap_or(&Json::Null);
    }
    v.as_f64().unwrap_or(0.0)
}

/// One open-loop phase: `requests` requests at the given total rate, hot
/// and cold interleaved at the nominal mix.
struct PhaseSpec {
    total_rate: f64,
    requests: usize,
}

#[allow(clippy::cast_precision_loss)]
fn build_plan(
    traffic: &Traffic,
    spec: &PhaseSpec,
    next_cold: &mut u64,
    hot_i: &mut usize,
) -> Vec<Planned> {
    let hot_share = HOT_RATE / (HOT_RATE + COLD_RATE);
    let hot_rate = spec.total_rate * hot_share;
    let cold_rate = spec.total_rate - hot_rate;
    let hot_n = (spec.requests as f64 * hot_share).round() as usize;
    let cold_n = spec.requests - hot_n;
    let mut plan = Vec::with_capacity(spec.requests);
    for i in 0..hot_n {
        let q = *hot_i % HOT_POOL.len();
        *hot_i += 1;
        plan.push(Planned {
            conn: 0,
            due: Duration::from_secs_f64(i as f64 / hot_rate),
            line: traffic.hot_lines[q].clone(),
            kind: Kind::Hot(q),
        });
    }
    for i in 0..cold_n {
        let k = *next_cold;
        *next_cold += 1;
        plan.push(Planned {
            conn: 1,
            // Offset by half an interval from the hot stream's start.
            due: Duration::from_secs_f64((i as f64 + 0.5) / cold_rate),
            line: cold_line(&traffic.store_paths, cold_distance(k)),
            kind: Kind::Cold(k),
        });
    }
    plan.sort_by_key(|p| p.due);
    plan
}

fn run_phase(addr: &str, plan: &[Planned], keep_body: &dyn Fn(Kind) -> bool) -> Vec<Done> {
    let streams: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("generator connects");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    let epoch = Instant::now() + Duration::from_millis(20);
    let done = drive(&streams, plan, epoch, keep_body, Duration::from_secs(5));
    for s in &streams {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
    done
}

/// Counts answers whose checked fields are wrong: a hit's tuple count and
/// fingerprint against its direct submit, a miss's fingerprint against
/// the stores' (sampled misses' tuples are checked separately).
fn wrong_answers(traffic: &Traffic, done: &[Done]) -> u64 {
    done.iter()
        .filter(|d| match d.kind {
            Kind::Hot(q) => {
                d.ok && (d.tuple_count, d.fingerprint.as_str())
                    != (
                        traffic.hot_expected[q].0,
                        traffic.hot_expected[q].1.as_str(),
                    )
            }
            Kind::Cold(_) => d.ok && d.fingerprint != traffic.store_fingerprint,
        })
        .count() as u64
}

/// Whether a capacity probe met the latency limit without a growing
/// backlog: every request answered `ok`, the tail within the limit, and
/// the last quarter's median no worse than twice the first quarter's
/// (plus 5 ms) — a queue that keeps growing fails this long before the
/// probe ends.
fn probe_passes(done: &[Done]) -> bool {
    if done.iter().any(|d| !d.ok) {
        return false;
    }
    let mut by_time: Vec<(Instant, f64)> = done
        .iter()
        .filter_map(|d| d.latency_ms().map(|l| (d.scheduled, l)))
        .collect();
    if by_time.len() < done.len() {
        return false;
    }
    by_time.sort_by_key(|x| x.0);
    let lat: Vec<f64> = by_time.iter().map(|x| x.1).collect();
    let q = lat.len() / 4;
    Summary::of(&lat).tail <= TAIL_LIMIT_MS
        && median(&lat[lat.len() - q..]) <= 2.0 * median(&lat[..q]) + 5.0
}

/// Runs the workload; stores live under `scratch`.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(info: &RunInfo<'_>, scratch: &Path) -> Report {
    let mut report = Report::new();
    let mut spans = SpanLog::new(info.trace);
    let seed = info.seed;
    let hot_specs: Vec<Vec<String>> = HOT_POOL
        .iter()
        .map(|(_, rels)| rels.iter().map(|&r| hot_spec(seed, r)).collect())
        .collect();
    let hot_lines: Vec<String> = HOT_POOL
        .iter()
        .zip(&hot_specs)
        .map(|((q, _), specs)| hot_line(q, specs))
        .collect();

    // Set-up, repeated: cold data generation and ingest, server boot, and
    // warm-up (hot pool loaded and cached, stores mounted). `setup_s` is
    // the median; the last server is kept.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut kept: Option<(Running, Vec<PathBuf>, f64)> = None;
    let cluster = service_cluster();
    for rep in 0..SETUP_REPS {
        if let Some((server, ..)) = kept.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(scratch);
        let t0 = Instant::now();
        let (paths, g, ing, per_rect) =
            ingest_cold(seed, cluster.grid(), &scratch.join(format!("setup{rep}")));
        let server = Running::boot();
        for line in hot_lines.iter().chain(&hot_lines) {
            let resp = server.request(line);
            assert!(resp.starts_with("{\"ok\":true"), "warm-up failed: {resp}");
        }
        // Distances just below the measured ones: mounts the stores and
        // exercises the miss path without pre-filling measured keys.
        for i in 1..=2u32 {
            let resp = server.request(&cold_line(&paths, COLD_D - f64::from(i) / 1024.0));
            assert!(resp.starts_with("{\"ok\":true"), "warm-up failed: {resp}");
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        eprintln!(
            "serve-mixed: set-up {} took {:.3} s",
            rep + 1,
            t0.elapsed().as_secs_f64()
        );
        gen_ms.push(g);
        ingest_ms.push(ing);
        kept = Some((server, paths, per_rect));
    }
    let (server, store_paths, bytes_per_rect) = kept.expect("at least one set-up");

    // Expected answers: each hot query by direct submit over the same
    // generated relations; fingerprints by the DFS recipe.
    let mut hot_expected = Vec::new();
    let mut hot_data: Vec<Vec<Vec<Rect>>> = Vec::new();
    for ((q, _), specs) in HOT_POOL.iter().zip(&hot_specs) {
        let rels: Vec<Vec<Rect>> = specs
            .iter()
            .map(|s| source::load_source(s).expect("hot relation"))
            .collect();
        let refs: Vec<&[Rect]> = rels.iter().map(Vec::as_slice).collect();
        let query = Query::parse(q).expect("hot query parses");
        let out = cluster
            .submit(&JoinRun::new(&query, &refs).counting())
            .expect("direct submit");
        let names = ["A", "B", "C"];
        let fps: Vec<u64> = rels.iter().map(|r| dataset_fingerprint(r)).collect();
        let fp = combined_fingerprint(&query, &|n| {
            fps[names.iter().position(|x| *x == n).expect("bound name")]
        });
        hot_expected.push((out.tuple_count, fp));
        hot_data.push(rels);
    }
    let stores: Vec<StoredDataset> = store_paths
        .iter()
        .map(|p| StoredDataset::open(p).expect("store opens"))
        .collect();
    let cold_query = Query::parse(&format!("A ra({COLD_D}) B")).expect("cold query parses");
    let store_fingerprint = combined_fingerprint(&cold_query, &|n| {
        stores[usize::from(n == "B")].fingerprint()
    });
    let traffic = Traffic {
        hot_lines,
        hot_expected,
        store_paths,
        store_fingerprint,
    };

    // Nominal phase(s), a third of the measured time each. A traced run
    // holds the nominal rate twice, without and then with recording spans,
    // and reports the per-module numbers from the second; an untraced run
    // spends the rest searching the capacity ladder.
    let nominal_total = HOT_RATE + COLD_RATE;
    let nominal_secs = info.seconds as f64 / 3.0;
    let nominal = PhaseSpec {
        total_rate: nominal_total,
        requests: (nominal_total * nominal_secs).round() as usize,
    };
    let mut next_cold = 0u64;
    let mut hot_i = 0usize;
    let sample = |k: Kind| matches!(k, Kind::Cold(c) if c % COLD_SAMPLE_EVERY == 0);
    // Wrong answers outside the measured nominal phase.
    let mut other_wrong = 0u64;
    let mut untraced_p50 = None;
    if info.trace {
        let plan = build_plan(&traffic, &nominal, &mut next_cold, &mut hot_i);
        let done = run_phase(&server.addr, &plan, &|_| false);
        other_wrong += wrong_answers(&traffic, &done);
        let hits: Vec<f64> = done
            .iter()
            .filter(|d| matches!(d.kind, Kind::Hot(_)))
            .filter_map(Done::latency_ms)
            .collect();
        untraced_p50 = Some(median(&hits));
    }
    let rss_reset = crate::report::reset_peak_rss();
    let before = server.stats();
    let plan = build_plan(&traffic, &nominal, &mut next_cold, &mut hot_i);
    let done = run_phase(&server.addr, &plan, &sample);
    let after = server.stats();
    let peak_rss = crate::report::peak_rss_mb();
    report.note(
        "peak_rss_scope",
        if rss_reset {
            "measured nominal phase"
        } else {
            "whole run"
        },
    );
    eprintln!("serve-mixed: nominal phase done, {} requests", done.len());
    for (i, d) in done.iter().enumerate() {
        spans.record(
            i as u64,
            "generator::scheduled_to_sent",
            d.scheduled,
            d.sent,
        );
        if let Some(r) = d.received {
            spans.record(i as u64, "net::pipelined_request", d.sent, r);
        }
    }

    // Capacity search (untraced runs only).
    let mut probes = Vec::new();
    let capacity = if info.trace {
        None
    } else {
        let mut probe = |k: usize| {
            let rate = ladder_rate(LADDER_BASE, LADDER_RATIO, k);
            let spec = PhaseSpec {
                total_rate: rate,
                requests: (rate * PROBE_SECS).round() as usize,
            };
            let plan = build_plan(&traffic, &spec, &mut next_cold, &mut hot_i);
            let done = run_phase(&server.addr, &plan, &|_| false);
            other_wrong += wrong_answers(&traffic, &done);
            if done.iter().any(|d| d.overloaded) {
                // Let the brownout lease a shed opened run out, so the next
                // probe starts from a healthy service.
                std::thread::sleep(
                    ServerConfig::default().brownout_window + Duration::from_millis(100),
                );
            }
            let pass = probe_passes(&done);
            eprintln!(
                "serve-mixed: probe {:.1}/s {}",
                spec.total_rate,
                if pass { "passes" } else { "fails" }
            );
            pass
        };
        // Each step is decided by the majority of up to three probes, so
        // neither one transient stall nor one lucky quiet spell moves the
        // search.
        let found = ladder_search(LADDER_STEPS, &mut probes, |k| {
            let first = probe(k);
            if probe(k) == first {
                first
            } else {
                probe(k)
            }
        });
        Some(found.map_or(0.0, |k| ladder_rate(LADDER_BASE, LADDER_RATIO, k)))
    };

    // Cold answers: the sampled responses against a direct map-side submit.
    let store_refs: Vec<&StoredDataset> = stores.iter().collect();
    let mut cold_checked = 0u64;
    // The kernel's own time on a miss: the same map-side join submitted
    // directly, outside the server.
    let mut direct_join_ms = Vec::new();
    let mut cold_wrong = 0u64;
    for d in &done {
        let (Kind::Cold(k), Some(body)) = (d.kind, &d.body) else {
            continue;
        };
        if !d.ok {
            continue;
        }
        cold_checked += 1;
        let query = Query::parse(&format!("A ra({}) B", cold_distance(k))).expect("cold query");
        let t0 = Instant::now();
        let direct = cluster
            .submit_stored(&StoredRun::new(&query, &store_refs).algorithm(Algorithm::MapSide))
            .expect("direct map-side submit");
        direct_join_ms.push(ms(t0.elapsed()));
        let served: Option<Vec<Vec<u32>>> = json::parse(body).ok().and_then(|doc| {
            doc.get("tuples")?
                .as_arr()?
                .iter()
                .map(|t| {
                    t.as_arr()?
                        .iter()
                        .map(|v| v.as_f64().map(|x| x as u32))
                        .collect::<Option<Vec<u32>>>()
                })
                .collect()
        });
        if served.map(|t| tuples_hash(&t)) != Some(tuples_hash(&direct.tuples))
            || d.tuple_count != direct.tuple_count
        {
            cold_wrong += 1;
        }
    }

    // Per-module numbers of the measured nominal phase.
    let wrong = wrong_answers(&traffic, &done) + cold_wrong;
    let failed = done.iter().filter(|d| !d.ok).count() as u64 + wrong;
    report.attempted = done.len() as u64;
    report.failed = failed;
    if wrong + other_wrong > 0 {
        report.fail_check(format!(
            "{} wrong answers ({wrong} in the measured phase, {other_wrong} elsewhere)",
            wrong + other_wrong
        ));
    }
    if cold_checked == 0 {
        report.fail_check("no cold response was sampled for checking");
    }
    let late: Vec<f64> = done.iter().map(Done::late_ms).collect();
    let late_max = late.iter().copied().fold(0.0, f64::max);
    let late_count = late.iter().filter(|&&l| l > GEN_LATE_LIMIT_MS).count();
    if late_count * 100 > late.len() {
        report.fail_check(format!(
            "generator fell behind its schedule: {late_count} of {} requests went out \
             more than {GEN_LATE_LIMIT_MS} ms late",
            late.len()
        ));
    }
    let lat = |hot: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| matches!(d.kind, Kind::Hot(_)) == hot)
            .filter_map(Done::latency_ms)
            .collect()
    };
    let handle = |hot: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| d.ok && matches!(d.kind, Kind::Hot(_)) == hot)
            .map(|d| d.wall_ms)
            .collect()
    };
    let gap = |hot: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| d.ok && matches!(d.kind, Kind::Hot(_)) == hot)
            .filter_map(|d| d.received.map(|r| ms(r - d.sent) - d.wall_ms))
            .collect()
    };
    let (hot_lat, cold_lat) = (Summary::of(&lat(true)), Summary::of(&lat(false)));
    let hot_total = done
        .iter()
        .filter(|d| matches!(d.kind, Kind::Hot(_)))
        .count();
    let hot_hits = done
        .iter()
        .filter(|d| matches!(d.kind, Kind::Hot(_)) && d.cached)
        .count();
    let delta = |path: &[&str]| stat(&after, path) - stat(&before, path);
    let cached_responses = done.iter().filter(|d| d.cached).count() as f64;
    if (delta(&["served_from_cache"]) - cached_responses).abs() > 0.5 {
        report.fail_check(format!(
            "stats counted {} cache hits, the responses {cached_responses}",
            delta(&["served_from_cache"])
        ));
    }

    // The workload's operations come in two classes: `op_p50_ms` is the
    // median of the common one (hits, five in six requests) and
    // `op_tail_ms` the tail of the slow one (misses). The median of the
    // mixture would sit among hits delayed behind a miss, and its tail at
    // the fast edge of the misses, both swinging with the machine's load.
    report.e2e = vec![
        Metric::median_of("setup_s", &setup_s),
        Metric::p50("op_p50_ms", &hot_lat),
        Metric::tail("op_tail_ms", &cold_lat),
        Metric::value("capacity_qps", capacity.unwrap_or(0.0)),
        Metric::value("peak_rss_mb", peak_rss),
    ];
    report.extra = vec![
        Metric::value("error_frac", failed as f64 / done.len().max(1) as f64),
        Metric::p50("hit_p50_ms", &hot_lat),
        Metric::tail("hit_tail_ms", &hot_lat),
        Metric::p50("miss_p50_ms", &cold_lat),
        Metric::tail("miss_tail_ms", &cold_lat),
        Metric::value("net.gen_late_max_wall_ms", late_max),
    ];
    if info.trace {
        // The optimizer's cost on each hit, timed from outside on the
        // same relations: the server re-plans every auto query before
        // its cache lookup.
        let mut plan_ms = Vec::new();
        for _ in 0..25 {
            for ((q, _), rels) in HOT_POOL.iter().zip(&hot_data) {
                let refs: Vec<&[Rect]> = rels.iter().map(Vec::as_slice).collect();
                let canonical = Query::parse(q).expect("hot query parses").canonical();
                let t0 = Instant::now();
                let plan = cluster.plan(&canonical, &refs);
                plan_ms.push(ms(t0.elapsed()));
                std::hint::black_box(plan);
            }
        }
        let misses = || {
            done.iter()
                .filter(|d| d.ok && matches!(d.kind, Kind::Cold(_)))
        };
        let miss_jobs: Vec<f64> = misses().map(|d| d.engine_jobs as f64).collect();
        let miss_tuples: Vec<f64> = misses().map(|d| d.tuple_count as f64).collect();
        report.layers = vec![
            Metric::median_of("optimizer.plan_wall_ms", &plan_ms),
            Metric::median_of("mapreduce.jobs", &miss_jobs),
            Metric::median_of("local.join_wall_ms", &direct_join_ms),
            Metric::median_of("local.tuples", &miss_tuples),
            Metric::median_of("store.ingest_wall_ms", &ingest_ms),
            Metric::value("store.bytes_per_rect", bytes_per_rect),
            Metric::median_of("server.hit_handle_wall_ms", &handle(true)),
            Metric::median_of("server.miss_handle_wall_ms", &handle(false)),
            Metric::value(
                "server.cache_hit_rate",
                hot_hits as f64 / hot_total.max(1) as f64,
            ),
            Metric::value("server.cache_evictions", delta(&["cache", "evictions"])),
            Metric::value("server.shed", delta(&["shed"])),
            Metric::value("server.errors", delta(&["errors"])),
            Metric::median_of("net.hit_gap_wall_ms", &gap(true)),
            Metric::median_of("net.miss_gap_wall_ms", &gap(false)),
            Metric::median_of("net.gen_late_wall_ms", &late),
            Metric::median_of("datagen.gen_wall_ms", &gen_ms),
            Metric::value(
                "trace.overhead_pct",
                (hot_lat.p50 / untraced_p50.unwrap_or(hot_lat.p50) - 1.0) * 100.0,
            ),
        ];
        fill_bypassed(&mut report.layers);
        report.spans = Some(spans.to_jsonl());
    }
    report.note("hot_rate_per_s", HOT_RATE);
    report.note("cold_rate_per_s", COLD_RATE);
    report.note("hot_pool", HOT_POOL.len());
    report.note("cold_checked", cold_checked);
    report.note("generator_threads", 2);
    report.note("connections", 2);
    report.note("engine_threads", EngineConfig::default().map_tasks);
    report.note("cache_bytes", ServerConfig::default().cache_bytes);
    report.note(
        "capacity_probes",
        probes
            .iter()
            .map(|(k, ok)| {
                format!(
                    "{:.1}/s:{}",
                    ladder_rate(LADDER_BASE, LADDER_RATIO, *k),
                    if *ok { "pass" } else { "fail" }
                )
            })
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.note(
        "stats_delta",
        format!(
            "queries {} served_from_cache {} evictions {} shed {} errors {}",
            delta(&["queries"]),
            delta(&["served_from_cache"]),
            delta(&["cache", "evictions"]),
            delta(&["shed"]),
            delta(&["errors"])
        ),
    );
    server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(kind: Kind, scheduled: Instant, latency_ms: f64) -> Done {
        Done {
            kind,
            scheduled,
            sent: scheduled,
            received: Some(scheduled + Duration::from_secs_f64(latency_ms / 1e3)),
            ok: true,
            overloaded: false,
            cached: false,
            wall_ms: 0.0,
            tuple_count: 0,
            fingerprint: String::new(),
            engine_jobs: 0,
            body: None,
        }
    }

    #[test]
    fn response_fields_are_read_without_parsing_tuples() {
        let t = Instant::now();
        let mut d = done(Kind::Cold(0), t, 0.0);
        let body = concat!(
            "{\"ok\":true,\"cached\":false,\"algorithm\":\"map-side\",\"tuple_count\":2,",
            "\"tuples\":[[1,2],[3,4]],\"counters\":[{\"job\":\"map-side\",\"map_input_records\":4}],",
            "\"wall_ms\":1.250,\"fingerprint\":\"00000000000000ab\"}"
        );
        fill_from_response(&mut d, body);
        assert!(d.ok && !d.cached && !d.overloaded);
        assert_eq!(d.tuple_count, 2);
        assert!((d.wall_ms - 1.25).abs() < 1e-12);
        assert_eq!(d.fingerprint, "00000000000000ab");
        assert_eq!(d.engine_jobs, 0);

        let hit = body.replace("\"cached\":false", "\"cached\":true").replace(
            "{\"job\":\"map-side\"",
            "{\"job\":\"c-rep-round1\"},{\"job\":\"c-rep-round2\"",
        );
        fill_from_response(&mut d, &hit);
        assert!(d.cached);
        assert_eq!(d.engine_jobs, 2);

        fill_from_response(
            &mut d,
            "{\"ok\":false,\"error\":\"overloaded\",\"message\":\"full\"}",
        );
        assert!(!d.ok && d.overloaded);
    }

    #[test]
    fn probes_fail_on_tail_backlog_or_errors() {
        let t = Instant::now();
        let at = |i: u32| t + Duration::from_millis(u64::from(i) * 10);
        let steady: Vec<Done> = (0..200).map(|i| done(Kind::Hot(0), at(i), 5.0)).collect();
        assert!(probe_passes(&steady));

        let slow_tail: Vec<Done> = (0..200)
            .map(|i| done(Kind::Hot(0), at(i), if i % 5 == 0 { 80.0 } else { 5.0 }))
            .collect();
        assert!(
            !probe_passes(&slow_tail),
            "a fifth of requests over the limit"
        );

        let growing: Vec<Done> = (0..200)
            .map(|i| done(Kind::Hot(0), at(i), 2.0 + f64::from(i) * 0.1))
            .collect();
        assert!(
            !probe_passes(&growing),
            "latency climbing all probe long is a backlog"
        );

        let mut shed = steady;
        shed[7].ok = false;
        assert!(!probe_passes(&shed));
    }
}
