//! `restart`: one 100-person document with an eight-view catalog, warmed
//! and saved as a v3 snapshot in set-up. One closed-loop connection then
//! repeats cycles of `RESTORE` (lazy) followed by a three-query mix led
//! by `qRBON`: time to first answer after a restart, paid in `store`
//! decoding and lazy section faults.

use crate::fixtures::{self, doc_seed, personnel, same_answer, serve_loopback, views};
use crate::probe::Probe;
use crate::replay::{self, Op};
use crate::report::Report;
use crate::stats::quiet_median;
use crate::Args;
use pxv_engine::Engine;
use pxv_pxml::NodeId;
use pxv_server::client::Client;
use pxv_tpq::parse::parse_pattern;
use std::time::{Duration, Instant};

const PERSONS: usize = 100;
const DOC: &str = "p";

const VIEWS: [(&str, &str); 8] = [
    ("v1BON", "IT-personnel//person[name/Rick]/bonus"),
    ("v2BON", "IT-personnel//person/bonus"),
    ("vLAP", "IT-personnel//person/bonus[laptop]"),
    ("vPDA", "IT-personnel//person/bonus[pda]"),
    ("vTAB", "IT-personnel//person/bonus[tablet]"),
    ("vNAME", "IT-personnel//person/name"),
    ("vPER", "IT-personnel//person"),
    ("vRICK", "IT-personnel//person[name/Rick]"),
];

/// Each cycle's queries, in order, after its `RESTORE`.
const MIX: [&str; 3] = [
    "IT-personnel//person[name/Rick]/bonus[laptop]",
    "IT-personnel//person/bonus[pda]",
    "IT-personnel//person[name/John]",
];

/// The timed phase runs at least this many queries (so thirty lie beyond
/// p99), for at most three times `--seconds`.
const MIN_QUERIES: usize = 3000;

/// Cycles in each replay.
const REPLAY_CYCLES: usize = 40;

/// Builds the warm engine and saves it to `path`; returns the engine and
/// the snapshot's size in bytes.
fn build(seed: u64, path: &str) -> (Engine, u64) {
    let mut engine = Engine::new();
    let doc = engine
        .add_document(DOC, personnel(PERSONS, doc_seed(seed, 0)))
        .expect("fresh engine");
    engine
        .register_views(views(&VIEWS))
        .expect("views register");
    engine.warm(doc).expect("views materialize");
    let bytes = engine.snapshot_to(path).expect("snapshot saves");
    (engine, bytes)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let snapshot = fixtures::out_dir().join(format!("restart-{}.pxv", std::process::id()));
    let path = snapshot.to_str().expect("output path is UTF-8").to_string();
    let (engine, bytes) = fixtures::timed_setup(&mut report, || build(args.seed, &path));
    let doc = engine.find_document(DOC).expect("built above");
    let text_bytes = engine.document(doc).expect("document").to_string().len();
    report.put(
        "snapshot_amplification",
        bytes as f64 / text_bytes as f64,
        "ratio",
    );
    // The oracle: the saved engine's own in-process answers.
    let refs: Vec<Vec<(NodeId, f64)>> = MIX
        .iter()
        .map(|q| {
            let pattern = parse_pattern(q).expect("fixture query parses");
            engine
                .answer(doc, &pattern)
                .expect("every mix query has a plan")
                .nodes
        })
        .collect();

    // Every cycle restores from the file, so the server starts empty and
    // the warm engine that wrote the snapshot is dropped before serving.
    drop(engine);
    let handle = serve_loopback(Engine::new());
    let addr = handle.addr();
    let mut first_ms = Vec::new();
    let mut all_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut query_ms = Vec::new();
    let mut stats_queries = 0;
    // Peak RSS covers serving only, not the set-up before it.
    if let Err(e) = fixtures::reset_peak_rss() {
        report.fail(e);
    }
    let probe = Probe::start();
    let start = Instant::now();
    let soft = Duration::from_secs_f64(args.seconds);
    match Client::connect(addr) {
        Err(e) => report.fail(format!("connect: {e}")),
        Ok(mut client) => 'cycles: loop {
            let elapsed = start.elapsed();
            if elapsed >= soft * 3 || (elapsed >= soft && query_ms.len() >= MIN_QUERIES) {
                break;
            }
            report.attempted += 1;
            let t0 = Instant::now();
            if let Err(e) = client.restore(&path) {
                report.fail(format!("RESTORE: {e}"));
                break;
            }
            let at = (t0 - start).as_secs_f64();
            restore_ms.push((at, t0.elapsed().as_secs_f64() * 1e3));
            for (k, q) in MIX.iter().enumerate() {
                report.attempted += 1;
                let t = Instant::now();
                let answer = client.query_text(DOC, q);
                query_ms.push((at, t.elapsed().as_secs_f64() * 1e3));
                match answer {
                    Ok(a) if same_answer(&a.nodes, &refs[k]) => {}
                    Ok(_) => report.fail(format!("answer after restore differs: {q}")),
                    Err(e) => {
                        report.fail(format!("{q}: {e}"));
                        break 'cycles;
                    }
                }
                if k == 0 {
                    first_ms.push((at, t0.elapsed().as_secs_f64() * 1e3));
                }
            }
            all_ms.push((at, t0.elapsed().as_secs_f64() * 1e3));
            if args.trace {
                // Each restore starts a fresh engine, so its counters
                // cover exactly this cycle.
                match client.stats() {
                    Ok(s) => stats_queries += s.get("queries").copied().unwrap_or(0),
                    Err(e) => report.fail(format!("STATS: {e}")),
                }
            }
        },
    }
    let secs = start.elapsed().as_secs_f64();
    report.put("peak_rss_mb", fixtures::peak_rss_mb(), "MB");
    report.put("bench.host_probe_ms", probe.finish(), "ms");
    let queries = query_ms.len();
    let (quiet, quiet_secs) = report.put_closed_loop("query", &query_ms, secs);
    report.put("throughput_qps", quiet as f64 / quiet_secs, "1/s");
    report.put("throughput_all_qps", queries as f64 / secs, "1/s");
    for (name, cycles) in [
        ("restore_first_answer_ms", &first_ms),
        ("restore_all_answers_ms", &all_ms),
        ("restore_ms", &restore_ms),
    ] {
        report.put(name, quiet_median(cycles, secs), "ms");
    }
    report.put("cycles", (queries / MIX.len()) as f64, "count");
    let last = handle.with_engine(|e| e.stats());
    if last.sections_faulted == 0 || last.materializations != 0 {
        report.fail(format!(
            "a restored cycle faulted {} section(s) and materialized {}",
            last.sections_faulted, last.materializations
        ));
    }

    if args.trace {
        let server = handle.stats();
        report.put("server.p50_us", server.p50_us as f64, "us");
        report.put("server.p99_us", server.p99_us as f64, "us");
        report.put(
            "server.stats_query_ratio",
            stats_queries as f64 / queries.max(1) as f64,
            "ratio",
        );
        report.put("bench.generator_lag_ms", 0.0, "ms");
        report.note("closed loop: no schedule, so no generator lag".into());
    }
    handle.shutdown();
    if args.trace {
        let client_p50 = report.value("query_p50_ms");
        trace(args, &mut report, &path, &refs, client_p50);
        report.put("store.snapshot_bytes", bytes as f64, "bytes");
    }
    let _ = std::fs::remove_file(&snapshot);
    report
}

/// The traced replay: [`REPLAY_CYCLES`] cycles of `RESTORE` and the mix.
fn trace(
    args: &Args,
    report: &mut Report,
    path: &str,
    refs: &[Vec<(NodeId, f64)>],
    client_p50_ms: f64,
) {
    let cycle: Vec<Op> = std::iter::once(Op::Restore {
        path: path.to_string(),
    })
    .chain(MIX.iter().map(|q| Op::Query {
        doc: DOC.into(),
        pattern: q.to_string(),
        options: "",
    }))
    .collect();
    let ops: Vec<Op> = (0..REPLAY_CYCLES).flat_map(|_| cycle.clone()).collect();
    let traced = replay::replay_traced(
        report,
        |_| (Engine::new(), None),
        &ops,
        |report, i, result| match (result, i % cycle.len()) {
            (Ok(_), 0) => {}
            (Ok(nodes), k) if same_answer(&nodes, &refs[k - 1]) => {}
            (Ok(_), k) => report.fail(format!("replayed answer differs: {}", MIX[k - 1])),
            (Err(e), _) => report.fail(format!("replay: {e}")),
        },
    );
    replay::put_layer_metrics(report, &traced);
    let engine_p50 = report.value("engine.answer_ms");
    report.put("server.wire_ms", client_p50_ms - engine_p50, "ms");
    let c = traced.counters();
    if c.sections_faulted == 0 || c.materializations != 0 {
        report.fail(format!(
            "restart replay faulted {} section(s) and materialized {}",
            c.sections_faulted, c.materializations
        ));
    }
    replay::write_chrome_trace(
        report,
        &traced,
        &format!("trace-restart-seed{}.json", args.seed),
    );
}
