//! `warm-read`: one 400-person document, five views warmed in set-up
//! with no byte budget, and `nproc` closed-loop connections round-robin
//! over six queries (four TP plans over `v2BON`, `qRBON` over `v1BON`,
//! and one TP∩ plan). No misses and no writes: the time goes into
//! answering from view extensions (`rewrite`), the engine around it and
//! the wire.

use crate::fixtures::{self, doc_seed, personnel, same_answer, serve_loopback, views};
use crate::probe::Probe;
use crate::replay::{self, Op, Replayer};
use crate::report::Report;
use crate::Args;
use pxv_engine::Engine;
use pxv_pxml::NodeId;
use pxv_server::client::Client;
use pxv_tpq::parse::parse_pattern;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const PERSONS: usize = 400;
const DOC: &str = "p";

const VIEWS: [(&str, &str); 5] = [
    ("v1BON", "IT-personnel//person[name/Rick]/bonus"),
    ("v2BON", "IT-personnel//person/bonus"),
    ("vML", "IT-personnel//person[name/Mary]/bonus/laptop"),
    ("vPL", "IT-personnel//person/bonus[pda]/laptop"),
    ("vL", "IT-personnel//person/bonus/laptop"),
];

const QUERIES: [&str; 6] = [
    "IT-personnel//person/bonus[laptop]",
    "IT-personnel//person/bonus[pda]",
    "IT-personnel//person/bonus[tablet]",
    "IT-personnel//person/bonus",
    "IT-personnel//person[name/Rick]/bonus[laptop]",
    "IT-personnel//person[name/Mary]/bonus[pda]/laptop",
];

/// The timed phase runs at least this many queries (so thirty lie beyond
/// p99), for at most three times `--seconds`.
const MIN_QUERIES: usize = 3000;

/// Rounds of the six queries in each replay.
const REPLAY_ROUNDS: usize = 20;

fn build(seed: u64) -> Engine {
    let mut engine = Engine::new();
    let doc = engine
        .add_document(DOC, personnel(PERSONS, doc_seed(seed, 0)))
        .expect("fresh engine");
    engine
        .register_views(views(&VIEWS))
        .expect("views register");
    engine.warm(doc).expect("views materialize");
    engine
}

fn query_ops() -> Vec<Op> {
    QUERIES
        .iter()
        .map(|q| Op::Query {
            doc: DOC.into(),
            pattern: q.to_string(),
            options: "",
        })
        .collect()
}

/// What the closed-loop clients saw.
struct Wire {
    /// `(completion time in s from the start, latency in ms)` per query.
    latencies_ms: Vec<(f64, f64)>,
    secs: f64,
    failures: Vec<String>,
}

/// `conns` clients, each sending its next query as soon as the previous
/// answer is in, round-robin over [`QUERIES`]; every answer is compared
/// bit for bit with `refs`.
fn closed_loop(
    addr: std::net::SocketAddr,
    refs: &[Vec<(NodeId, f64)>],
    conns: usize,
    seconds: f64,
) -> Wire {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let wire = Mutex::new(Wire {
        latencies_ms: Vec::new(),
        secs: 0.0,
        failures: Vec::new(),
    });
    let start = Instant::now();
    let soft = Duration::from_secs_f64(seconds);
    let hard = soft * 3;
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut latencies = Vec::new();
                let mut failures = Vec::new();
                match Client::connect(addr) {
                    Err(e) => failures.push(format!("connect: {e}")),
                    Ok(mut client) => loop {
                        let elapsed = start.elapsed();
                        if elapsed >= hard
                            || (elapsed >= soft && done.load(Ordering::Relaxed) >= MIN_QUERIES)
                        {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed) % QUERIES.len();
                        let t0 = Instant::now();
                        let answer = client.query_text(DOC, QUERIES[i]);
                        latencies.push((
                            start.elapsed().as_secs_f64(),
                            t0.elapsed().as_secs_f64() * 1e3,
                        ));
                        done.fetch_add(1, Ordering::Relaxed);
                        match answer {
                            Ok(a) if same_answer(&a.nodes, &refs[i]) => {}
                            Ok(_) => failures.push(format!("answer differs: {}", QUERIES[i])),
                            Err(e) => {
                                failures.push(format!("{}: {e}", QUERIES[i]));
                                break;
                            }
                        }
                    },
                }
                let secs = start.elapsed().as_secs_f64();
                let mut wire = wire.lock().unwrap();
                wire.latencies_ms.extend(latencies);
                wire.failures.extend(failures);
                wire.secs = wire.secs.max(secs);
            });
        }
    });
    wire.into_inner().unwrap()
}

/// `STATS queries=` as the server reports it.
fn stats_queries(addr: std::net::SocketAddr) -> u64 {
    Client::connect(addr)
        .ok()
        .and_then(|mut c| c.stats().ok())
        .and_then(|s| s.get("queries").copied())
        .unwrap_or(0)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let engine = fixtures::timed_setup(&mut report, || build(args.seed));

    // The oracle: in-process answers of an identically built engine.
    let reference = build(args.seed);
    let doc = reference.find_document(DOC).expect("built above");
    let refs: Vec<Vec<(NodeId, f64)>> = QUERIES
        .iter()
        .map(|q| {
            let a = reference
                .answer(doc, &parse_pattern(q).expect("fixture query parses"))
                .expect("every warm-read query has a plan");
            a.nodes
        })
        .collect();
    drop(reference);

    let mats_before = engine.stats().materializations;
    let handle = serve_loopback(engine);
    let addr = handle.addr();
    let stats_before = args.trace.then(|| stats_queries(addr));
    // Peak RSS covers serving only, not the set-up before it.
    if let Err(e) = fixtures::reset_peak_rss() {
        report.fail(e);
    }
    let probe = Probe::start();
    let wire = closed_loop(addr, &refs, fixtures::nproc(), args.seconds);
    report.put("bench.host_probe_ms", probe.finish(), "ms");
    report.put("peak_rss_mb", fixtures::peak_rss_mb(), "MB");
    report.attempted += wire.latencies_ms.len() as u64;
    for f in wire.failures {
        report.fail(f);
    }
    let queries = wire.latencies_ms.len();
    let (quiet, quiet_secs) = report.put_closed_loop("query", &wire.latencies_ms, wire.secs);
    report.put("throughput_qps", quiet as f64 / quiet_secs, "1/s");
    report.put("throughput_all_qps", queries as f64 / wire.secs, "1/s");
    report.put("run_s", wire.secs, "s");
    let mats = handle.with_engine(|e| e.stats().materializations) - mats_before;
    if mats != 0 {
        report.fail(format!(
            "warm-read materialized {mats} extension(s) while serving"
        ));
    }

    if args.trace {
        let server = handle.stats();
        report.put("server.p50_us", server.p50_us as f64, "us");
        report.put("server.p99_us", server.p99_us as f64, "us");
        let counted = stats_queries(addr) - stats_before.unwrap_or(0);
        report.put(
            "server.stats_query_ratio",
            counted as f64 / queries.max(1) as f64,
            "ratio",
        );
        report.put("bench.generator_lag_ms", 0.0, "ms");
        report.note("closed loop: no schedule, so no generator lag".into());
        handle.shutdown();
        let client_p50 = report.value("query_p50_ms");
        trace(args, &mut report, &refs, client_p50);
    } else {
        handle.shutdown();
    }
    report
}

/// The traced replay: [`REPLAY_ROUNDS`] rounds of the six queries.
fn trace(args: &Args, report: &mut Report, refs: &[Vec<(NodeId, f64)>], client_p50_ms: f64) {
    let round = query_ops();
    let ops: Vec<Op> = (0..REPLAY_ROUNDS).flat_map(|_| round.clone()).collect();
    let traced: Replayer = replay::replay_traced(
        report,
        |_| (build(args.seed), None),
        &ops,
        |report, i, result| match result {
            Ok(nodes) if same_answer(&nodes, &refs[i % QUERIES.len()]) => {}
            Ok(_) => report.fail(format!("replayed answer differs: {}", QUERIES[i % 6])),
            Err(e) => report.fail(format!("replay: {e}")),
        },
    );
    replay::put_layer_metrics(report, &traced);
    match traced.breakdown.self_ranking().first() {
        Some(&("rewrite.answer_tp", _)) => {}
        other => report.fail(format!(
            "warm-read's largest self time is {:?}, not rewrite.answer_tp",
            other.map(|&(name, _)| name)
        )),
    }
    let engine_p50 = report.value("engine.answer_ms");
    report.put("server.wire_ms", client_p50_ms - engine_p50, "ms");
    report.put("store.snapshot_bytes", 0.0, "bytes");
    let mats = traced.counters().materializations;
    if mats != 0 {
        report.fail(format!("warm-read replay materialized {mats} extension(s)"));
    }
    replay::write_chrome_trace(
        report,
        &traced,
        &format!("trace-warm-read-seed{}.json", args.seed),
    );
}
