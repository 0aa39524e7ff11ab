//! `churn`: eight 100-person documents under a byte budget of half their
//! warm footprint, read and written at once, in open loop: reads (zipf
//! document choice; about one query in twenty has no plan and falls back
//! to direct evaluation) spread over two connections, and a writer
//! connection sending `UPDATE`s
//! (mostly `SetProb` on single-child `mux` edges, plus insert/delete
//! pairs of a bonus-less person). The time goes into materialization,
//! eviction, delta maintenance, epoch publication and direct evaluation,
//! which `warm-read` never touches.

use crate::fixtures::{
    self, close_answer, doc_seed, personnel, same_answer, serve_loopback, views, Rng, Zipf,
};
use crate::openloop::{self, Expect, StopAt, Timing};
use crate::probe::Probe;
use crate::replay::{self, Op, Shadow};
use crate::report::Report;
use crate::stats::Samples;
use crate::Args;
use pxv_engine::{DocId, Edit, Engine, Fallback, QueryOptions};
use pxv_pxml::text::parse_pdocument;
use pxv_pxml::{NodeId, PDocument, PKind};
use pxv_server::client::Client;
use pxv_tpq::parse::parse_pattern;
use std::time::{Duration, Instant};

const DOCS: usize = 8;
const PERSONS: usize = 100;
const ZIPF_S: f64 = 1.2;

/// Offered load, per second, of the reader and of the writer: about a
/// third to a half of what the server sustains on this set-up, as
/// `--capacity 1` measures it (see [`capacity`] and `README.md`).
const READ_RATE: f64 = 120.0;
const WRITE_RATE: f64 = 60.0;
/// Connections the reads are spread over (each its own in-order queue).
const READERS: usize = 2;
/// Share of reads that have no plan and fall back to direct evaluation.
const FALLBACK_SHARE: f64 = 0.05;
/// Share of writes that insert a bonus-less person (deleted right after).
const GHOST_SHARE: f64 = 0.1;

/// Warm-up runs in windows of this length until the evictions and
/// admission rejects per window level off (at least two, at most five).
const WARMUP_WINDOW_S: f64 = 1.0;
const WARMUP_MIN: usize = 2;
const WARMUP_MAX: usize = 5;

/// Reads answered in set-up before the budget is set, so the cache keeps
/// the extensions this popularity favours.
const HISTORY_READS: usize = 150;

/// Seconds of the schedule the traced replay executes.
const REPLAY_SECONDS: f64 = 8.0;

const VIEWS: [(&str, &str); 2] = [
    ("v1BON", "IT-personnel//person[name/Rick]/bonus"),
    ("v2BON", "IT-personnel//person/bonus"),
];

/// The reader's queries: five with TP plans, the last with none.
const QUERIES: [(&str, &str); 6] = [
    ("IT-personnel//person/bonus[laptop]", ""),
    ("IT-personnel//person/bonus[pda]", ""),
    ("IT-personnel//person/bonus[tablet]", ""),
    ("IT-personnel//person/bonus", ""),
    ("IT-personnel//person[name/Rick]/bonus[laptop]", ""),
    ("IT-personnel//person/name[Mary]", " fallback=direct"),
];
const FALLBACK: usize = 5;

fn doc_name(i: usize) -> String {
    format!("d{i}")
}

fn options(q: usize) -> QueryOptions {
    let fallback = if q == FALLBACK {
        Fallback::Direct
    } else {
        Fallback::Forbid
    };
    QueryOptions::new().fallback(fallback)
}

fn documents(seed: u64) -> Vec<(String, PDocument)> {
    (0..DOCS)
        .map(|i| (doc_name(i), personnel(PERSONS, doc_seed(seed, i))))
        .collect()
}

/// An engine over `docs` with both views warm. With `history`, those
/// reads are answered first, so the cache learns which extensions are
/// popular, and the engine is then capped at half its warm footprint.
/// Returns the engine and that footprint.
fn build(docs: &[(String, PDocument)], history: Option<&[(usize, usize)]>) -> (Engine, u64) {
    let mut engine = Engine::new();
    for (name, d) in docs {
        engine
            .add_document(name.clone(), d.clone())
            .expect("fresh engine");
    }
    engine
        .register_views(views(&VIEWS))
        .expect("views register");
    let ids: Vec<DocId> = (0..docs.len())
        .map(|i| engine.find_document(&doc_name(i)).expect("added above"))
        .collect();
    for &id in &ids {
        engine.warm(id).expect("views materialize");
    }
    let footprint = engine.cache_bytes();
    if let Some(history) = history {
        for &(d, q) in history {
            let pattern = parse_pattern(QUERIES[q].0).expect("fixture query parses");
            engine
                .answer_with(ids[d], &pattern, &options(q))
                .expect("every churn query is answered");
        }
        engine.set_cache_budget(footprint / 2);
    }
    (engine, footprint)
}

/// `n` seeded reads from stream `stream`: (document, query index).
fn reads(seed: u64, stream: u64, n: usize) -> Vec<(usize, usize)> {
    let zipf = Zipf::new(DOCS, ZIPF_S);
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            let d = zipf.sample(&mut rng);
            let q = if rng.unit() < FALLBACK_SHARE {
                FALLBACK
            } else {
                rng.below(FALLBACK)
            };
            (d, q)
        })
        .collect()
}

/// `n` seeded writes: (document, edit), valid in sequence from `docs`.
fn writes(seed: u64, docs: &[(String, PDocument)], n: usize) -> Vec<(usize, Edit)> {
    let zipf = Zipf::new(DOCS, ZIPF_S);
    // The edits are generated against a mirror of the documents so
    // inserted ids are known before the server assigns them.
    let mut mirror: Vec<PDocument> = docs.iter().map(|(_, d)| d.clone()).collect();
    let sites: Vec<Vec<NodeId>> = mirror
        .iter()
        .map(|d| {
            d.node_ids()
                .filter(|&n| {
                    d.parent(n).is_some_and(|p| {
                        matches!(d.kind(p), PKind::Mux) && d.children(p).len() == 1
                    })
                })
                .collect()
        })
        .collect();
    let ghost = parse_pdocument("person[name[Ghost]]").expect("fixture subtree parses");
    let mut rng = Rng::new(seed, 2);
    let mut pending_delete = None;
    let mut writes = Vec::new();
    for _ in 0..n {
        let (d, edit) = if let Some((d, node)) = pending_delete.take() {
            (d, Edit::DeleteSubtree { node })
        } else {
            let d = zipf.sample(&mut rng);
            if rng.unit() < GHOST_SHARE {
                let edit = Edit::InsertSubtree {
                    parent: mirror[d].root(),
                    prob: 1.0,
                    subtree: ghost.clone(),
                };
                (d, edit)
            } else {
                let node = sites[d][rng.below(sites[d].len())];
                let prob = rng.range(0.2, 0.95);
                (d, Edit::SetProb { node, prob })
            }
        };
        let effect = mirror[d].apply_edit(&edit).expect("generated edits apply");
        if let Some(root) = effect.inserted_root {
            pending_delete = Some((d, root));
        }
        writes.push((d, edit));
    }
    writes
}

fn read_op(d: usize, q: usize) -> Op {
    Op::Query {
        doc: doc_name(d),
        pattern: QUERIES[q].0.to_string(),
        options: QUERIES[q].1,
    }
}

fn write_op(d: usize, edit: &Edit) -> Op {
    Op::Update {
        doc: doc_name(d),
        edit: edit.clone(),
    }
}

/// The documents after the first `n` writes.
fn edited(
    docs: &[(String, PDocument)],
    writes: &[(usize, Edit)],
    n: usize,
) -> Vec<(String, PDocument)> {
    let mut out = docs.to_vec();
    for (d, edit) in &writes[..n] {
        out[*d].1.apply_edit(edit).expect("generated edits apply");
    }
    out
}

/// Answers of every (document, query) pair on an unbudgeted engine.
fn answers(engine: &Engine) -> Vec<Vec<Vec<(NodeId, f64)>>> {
    (0..DOCS)
        .map(|d| {
            let id = engine.find_document(&doc_name(d)).expect("document loaded");
            (0..QUERIES.len())
                .map(|q| {
                    let pattern = parse_pattern(QUERIES[q].0).expect("fixture query parses");
                    engine
                        .answer_with(id, &pattern, &options(q))
                        .expect("every churn query is answered")
                        .nodes
                })
                .collect()
        })
        .collect()
}

/// Checks a mid-run answer. Edits move probabilities but never the
/// answer's node set (reweighs stay positive; ghost persons match no
/// query), so the nodes must be the reference's and every probability
/// in (0, 1].
fn plausible(nodes: &[(NodeId, f64)], reference: &[(NodeId, f64)]) -> bool {
    nodes.len() == reference.len()
        && nodes
            .iter()
            .zip(reference)
            .all(|(a, b)| a.0 == b.0 && a.1 > 0.0 && a.1 <= 1.0)
}

/// What one open-loop connection saw.
#[derive(Default)]
struct Side {
    timings: Vec<Timing>,
    /// Index in the whole stream of each operation sent.
    sent: Vec<usize>,
    failures: Vec<String>,
}

/// One open-loop connection sending every `every`-th operation of `ops`
/// from `first` on, each when it is due in the whole stream at `rate`.
/// `check` sees each answer with the operation's index in `ops`.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: std::net::SocketAddr,
    start: Instant,
    ops: &[Op],
    first: usize,
    every: usize,
    rate: f64,
    stop: &StopAt,
    check: impl Fn(usize, &[(NodeId, f64)]) -> Option<String>,
) -> Side {
    let index: Vec<usize> = (first..ops.len()).step_by(every).collect();
    let lines: Vec<String> = index.iter().map(|&i| ops[i].line()).collect();
    let expect: Vec<Expect> = index.iter().map(|&i| ops[i].expect()).collect();
    let mut failures = Vec::new();
    let result = openloop::run(
        addr,
        start,
        &lines,
        &expect,
        rate / every as f64,
        openloop::due(first, rate),
        stop,
        |k, reply| match reply {
            Ok(nodes) => failures.extend(check(index[k], &nodes)),
            Err(line) => failures.push(format!("{}: {line}", lines[k])),
        },
    );
    match result {
        Ok(timings) => Side {
            sent: index[..timings.len()].to_vec(),
            timings,
            failures,
        },
        Err(e) => Side {
            failures: vec![format!("connect: {e}")],
            ..Side::default()
        },
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let history = reads(args.seed, 3, HISTORY_READS);
    let (docs, (engine, footprint)) = fixtures::timed_setup(&mut report, || {
        let docs = documents(args.seed);
        let built = build(&docs, Some(&history));
        (docs, built)
    });
    report.note(format!(
        "warm footprint {footprint} B, budget {} B",
        footprint / 2
    ));
    let horizon = WARMUP_MAX as f64 * WARMUP_WINDOW_S + args.seconds + 1.0;
    let reads = reads(args.seed, 1, (READ_RATE * horizon).ceil() as usize);
    let writes = writes(args.seed, &docs, (WRITE_RATE * horizon).ceil() as usize);
    let refs = answers(&build(&docs, None).0);
    let read_ops: Vec<Op> = reads.iter().map(|&(d, q)| read_op(d, q)).collect();
    let write_ops: Vec<Op> = writes.iter().map(|(d, e)| write_op(*d, e)).collect();

    let handle = serve_loopback(engine);
    let addr = handle.addr();
    let stats = |addr| {
        Client::connect(addr)
            .ok()
            .and_then(|mut c| c.stats().ok())
            .and_then(|s| s.get("queries").copied())
            .unwrap_or(0)
    };
    let stats_before = args.trace.then(|| stats(addr));
    let base = handle.with_engine(|e| e.stats());
    let churn_base = base.evictions + base.admission_rejects;

    // Every connection runs its share of one schedule from `start`; the
    // main thread watches evictions and admission rejects per warm-up
    // window and sets where timing ends once they level off.
    let start = Instant::now() + Duration::from_millis(20);
    let stop = StopAt::never();
    let mut windows = Vec::new();
    let mut warm_end = WARMUP_MAX as f64 * WARMUP_WINDOW_S;
    // Peak RSS covers serving only, not the set-up before it.
    if let Err(e) = fixtures::reset_peak_rss() {
        report.fail(e);
    }
    let probe = Probe::start();
    let (readers, writer) = std::thread::scope(|scope| {
        let (read_ops, reads, refs, stop) = (&read_ops, &reads, &refs, &stop);
        let readers: Vec<_> = (0..READERS)
            .map(|c| {
                scope.spawn(move || {
                    drive(
                        addr,
                        start,
                        read_ops,
                        c,
                        READERS,
                        READ_RATE,
                        stop,
                        |i, nodes| {
                            let (d, q) = reads[i];
                            (!plausible(nodes, &refs[d][q]))
                                .then(|| format!("implausible answer: {}", read_ops[i].line()))
                        },
                    )
                })
            })
            .collect();
        let writer =
            scope.spawn(|| drive(addr, start, &write_ops, 0, 1, WRITE_RATE, stop, |_, _| None));
        let mut last = churn_base;
        let mut prev: Option<u64> = None;
        for k in 1..=WARMUP_MAX {
            let at = start + Duration::from_secs_f64(k as f64 * WARMUP_WINDOW_S);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let now = handle.with_engine(|e| {
                let s = e.stats();
                s.evictions + s.admission_rejects
            });
            let delta = now.saturating_sub(last);
            last = now;
            windows.push(delta);
            let level = prev.is_some_and(|p| {
                (delta as f64 - p as f64).abs() <= 0.25 * p.max(delta) as f64 + 2.0
            });
            if k >= WARMUP_MIN && level {
                warm_end = k as f64 * WARMUP_WINDOW_S;
                break;
            }
            prev = Some(delta);
        }
        stop.set(warm_end + args.seconds);
        (
            readers
                .into_iter()
                .map(|r| r.join().expect("reader thread"))
                .collect::<Vec<Side>>(),
            writer.join().expect("writer thread"),
        )
    });
    report.put("peak_rss_mb", fixtures::peak_rss_mb(), "MB");
    report.put("bench.host_probe_ms", probe.finish(), "ms");
    report.note(format!(
        "warm-up {warm_end} s; evictions+rejects per {WARMUP_WINDOW_S} s window: {windows:?}"
    ));
    report.put("warmup_s", warm_end, "s");

    let timed = |t: &&Timing| t.due >= warm_end && t.due < warm_end + args.seconds;
    let q: Vec<&Timing> = readers
        .iter()
        .flat_map(|r| &r.timings)
        .filter(timed)
        .collect();
    let u: Vec<&Timing> = writer.timings.iter().filter(timed).collect();
    let latencies = |ts: &[&Timing]| -> Vec<f64> { ts.iter().map(|t| t.latency_ms()).collect() };
    // The mix of an open loop's window is random (zipf documents, misses,
    // fallbacks), so its latencies are summarised over every sample.
    report.put_latencies("query", &latencies(&q));
    // The gated tail is the p99: it lies in the body of the direct
    // evaluations' latencies (one read in twenty), while the p90 sits
    // where reads queue behind them and swings with the host's speed.
    report.put("query_tail_ms", report.value("query_p99_ms"), "ms");
    report.put_latencies("update", &latencies(&u));
    // Open loop: the offered rate is fixed, so throughput shows whether
    // the server kept up (answers completed over the time they took).
    let last_done = q.iter().map(|t| t.done).fold(warm_end, f64::max);
    report.put(
        "throughput_qps",
        q.len() as f64 / (last_done - warm_end),
        "1/s",
    );
    let lag = Samples::new(q.iter().chain(&u).map(|t| t.lag_ms()).collect());
    let (lag_p99, note) = lag.tail(0.99, "bench.generator_lag_ms");
    report.put("bench.generator_lag_ms", lag_p99, "ms");
    if let Some(note) = note {
        report.note(note);
    }
    let sent_reads = readers.iter().map(|r| r.sent.len()).sum::<usize>();
    let fallbacks = readers
        .iter()
        .flat_map(|r| &r.sent)
        .filter(|&&i| reads[i].1 == FALLBACK)
        .count();
    report.put("fallback_queries", fallbacks as f64, "count");
    report.attempted += (sent_reads + writer.sent.len()) as u64;
    for f in readers
        .into_iter()
        .flat_map(|r| r.failures)
        .chain(writer.failures)
    {
        report.fail(f);
    }
    // Served counters, less the set-up's (readers' increments made during
    // a writer's prepare window are dropped, so these run low). A cache
    // that has learned its popular extensions rarely evicts: the budget
    // shows as admission rejects of the unpopular ones instead.
    let served = handle.with_engine(|e| e.stats());
    let evictions = served.evictions - base.evictions;
    let rejects = served.admission_rejects - base.admission_rejects;
    let deltas = served.deltas_applied - base.deltas_applied;
    report.put("served.evictions", evictions as f64, "count");
    report.put("served.admission_rejects", rejects as f64, "count");
    report.put("served.deltas", deltas as f64, "count");
    if evictions + rejects == 0 || deltas == 0 || fallbacks == 0 {
        report.fail(format!(
            "churn did no churn: evictions {evictions} admission rejects {rejects} \
             deltas {deltas} fallback queries {fallbacks}"
        ));
    }

    if args.trace {
        let server = handle.stats();
        report.put("server.p50_us", server.p50_us as f64, "us");
        report.put("server.p99_us", server.p99_us as f64, "us");
        let counted = stats(addr) - stats_before.unwrap_or(0);
        report.put(
            "server.stats_query_ratio",
            counted as f64 / sent_reads.max(1) as f64,
            "ratio",
        );
    }

    // The oracle: every (document, query) answer over the wire against a
    // cold engine on the edited documents (bit for bit) and against
    // direct evaluation (within 1e-9).
    let final_docs = edited(&docs, &writes, writer.sent.len());
    let mut client = Client::connect(addr).map_err(|e| e.to_string());
    oracle(&mut report, &final_docs, |d, q| {
        let text = format!("{}{}", QUERIES[q].0, QUERIES[q].1);
        let client = client.as_mut().map_err(|e| e.clone())?;
        client
            .query_text(&doc_name(d), &text)
            .map(|a| a.nodes)
            .map_err(|e| e.to_string())
    });
    drop(client);
    handle.shutdown();

    if args.trace {
        let client_p50 = report.value("query_p50_ms");
        let inputs = Inputs {
            docs: &docs,
            history: &history,
            reads: &reads,
            writes: &writes,
            refs: &refs,
        };
        trace(args, &mut report, &inputs, client_p50);
    }
    report
}

/// Compares `get(d, q)` for every pair with a cold engine over `docs`
/// (bit for bit) and with direct evaluation (within 1e-9).
fn oracle(
    report: &mut Report,
    docs: &[(String, PDocument)],
    mut get: impl FnMut(usize, usize) -> Result<Vec<(NodeId, f64)>, String>,
) {
    let (cold, _) = build(docs, None);
    for (d, want) in answers(&cold).iter().enumerate() {
        let id = cold.find_document(&doc_name(d)).expect("document loaded");
        for (q, want) in want.iter().enumerate() {
            report.attempted += 1;
            let pattern = parse_pattern(QUERIES[q].0).expect("fixture query parses");
            let direct = cold.answer_direct(id, &pattern).expect("direct evaluation");
            match get(d, q) {
                Ok(got) if !same_answer(&got, want) => report.fail(format!(
                    "{}: {} differs from a cold engine",
                    doc_name(d),
                    QUERIES[q].0
                )),
                Ok(got) if !close_answer(&got, &direct.nodes, 1e-9) => report.fail(format!(
                    "{}: {} differs from direct evaluation",
                    doc_name(d),
                    QUERIES[q].0
                )),
                Ok(_) => {}
                Err(e) => report.fail(format!("{}: {}: {e}", doc_name(d), QUERIES[q].0)),
            }
        }
    }
}

/// The seeded inputs of a churn run, as its traced replay needs them.
struct Inputs<'a> {
    docs: &'a [(String, PDocument)],
    history: &'a [(usize, usize)],
    reads: &'a [(usize, usize)],
    writes: &'a [(usize, Edit)],
    refs: &'a [Vec<Vec<(NodeId, f64)>>],
}

/// The traced replay: the first [`REPLAY_SECONDS`] of the schedule, reads
/// and writes merged in due-time order.
fn trace(args: &Args, report: &mut Report, inputs: &Inputs, client_p50_ms: f64) {
    let Inputs {
        docs,
        history,
        reads,
        writes,
        refs,
    } = *inputs;
    let n_reads = (READ_RATE * REPLAY_SECONDS) as usize;
    let n_writes = (WRITE_RATE * REPLAY_SECONDS) as usize;
    // (due, Some(read index) or None for write index)
    let mut schedule: Vec<(f64, Option<usize>, usize)> = (0..n_reads)
        .map(|i| (openloop::due(i, READ_RATE), Some(i), 0))
        .chain((0..n_writes).map(|j| (openloop::due(j, WRITE_RATE), None, j)))
        .collect();
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ops: Vec<Op> = schedule
        .iter()
        .map(|&(_, read, j)| match read {
            Some(i) => read_op(reads[i].0, reads[i].1),
            None => write_op(writes[j].0, &writes[j].1),
        })
        .collect();
    let view_list = views(&VIEWS);
    let traced = replay::replay_traced(
        report,
        |traced| {
            let shadow = traced.then(|| Shadow::new(docs, &view_list));
            (build(docs, Some(history)).0, shadow)
        },
        &ops,
        |report, i, result| match (result, schedule[i].1.map(|r| reads[r])) {
            (Ok(nodes), Some((d, q))) if !plausible(&nodes, &refs[d][q]) => {
                report.fail(format!("implausible replayed answer: {}", ops[i].line()))
            }
            (Ok(_), _) => {}
            (Err(e), _) => report.fail(format!("replay: {}: {e}", ops[i].line())),
        },
    );
    replay::put_layer_metrics(report, &traced);
    let engine_p50 = report.value("engine.answer_ms");
    report.put("server.wire_ms", client_p50_ms - engine_p50, "ms");
    report.put("store.snapshot_bytes", 0.0, "bytes");
    // Replayed one request at a time, a fresh extension never outscores a
    // resident one, so the budget shows as admission rejects rather than
    // evictions here.
    let c = traced.counters();
    if c.evictions + c.admission_rejects == 0 || c.deltas == 0 || c.direct == 0 {
        report.fail(format!(
            "churn replay did no churn: evictions {} admission rejects {} deltas {} direct {}",
            c.evictions, c.admission_rejects, c.deltas, c.direct
        ));
    }
    // The replayed engine must end where a cold engine on the edited
    // documents starts.
    let engine = traced.engine();
    let final_docs = edited(docs, writes, n_writes);
    oracle(report, &final_docs, |d, q| {
        let id = engine
            .find_document(&doc_name(d))
            .ok_or("no such document")?;
        let pattern = parse_pattern(QUERIES[q].0).map_err(|e| e.to_string())?;
        engine
            .answer_with(id, &pattern, &options(q))
            .map(|a| a.nodes)
            .map_err(|e| e.to_string())
    });
    replay::write_chrome_trace(
        report,
        &traced,
        &format!("trace-churn-seed{}.json", args.seed),
    );
}

/// `--capacity 1`: what the server sustains on the churn set-up, to
/// ground [`READ_RATE`] and [`WRITE_RATE`]. The same served state is
/// driven closed loop to saturation for half of `--seconds` each: first
/// the seeded read mix alone on [`READERS`] connections, then the seeded
/// update stream alone on one. Reports both capacities and the share of
/// each that the open-loop rates offer.
pub fn capacity(args: &Args) -> Report {
    let mut report = Report::default();
    let history = reads(args.seed, 3, HISTORY_READS);
    let docs = documents(args.seed);
    let (engine, _) = build(&docs, Some(&history));
    let refs = answers(&build(&docs, None).0);
    let phase = Duration::from_secs_f64(args.seconds / 2.0);
    let reads = reads(args.seed, 1, 100_000);
    let writes = writes(args.seed, &docs, 100_000);
    let handle = serve_loopback(engine);
    let addr = handle.addr();

    let start = Instant::now();
    let sides: Vec<(usize, Vec<String>)> = std::thread::scope(|scope| {
        let (reads, refs) = (&reads, &refs);
        let clients: Vec<_> = (0..READERS)
            .map(|c| {
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    let mut done = 0;
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => return (0, vec![format!("connect: {e}")]),
                    };
                    for &(d, q) in reads.iter().skip(c).step_by(READERS) {
                        if start.elapsed() >= phase {
                            break;
                        }
                        let text = format!("{}{}", QUERIES[q].0, QUERIES[q].1);
                        match client.query_text(&doc_name(d), &text) {
                            Ok(a) if plausible(&a.nodes, &refs[d][q]) => done += 1,
                            Ok(_) => failures.push(format!("implausible answer: {text}")),
                            Err(e) => failures.push(format!("{text}: {e}")),
                        }
                    }
                    (done, failures)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("reader thread"))
            .collect()
    });
    let read_secs = start.elapsed().as_secs_f64();
    let read_done: usize = sides.iter().map(|s| s.0).sum();

    let start = Instant::now();
    let mut write_done = 0;
    match Client::connect(addr) {
        Err(e) => report.fail(format!("connect: {e}")),
        Ok(mut client) => {
            for (d, edit) in &writes {
                if start.elapsed() >= phase {
                    break;
                }
                match client.update(&doc_name(*d), edit) {
                    Ok(_) => write_done += 1,
                    Err(e) => {
                        report.fail(format!("UPDATE {} {edit}: {e}", doc_name(*d)));
                        break;
                    }
                }
            }
        }
    }
    let write_secs = start.elapsed().as_secs_f64();
    handle.shutdown();

    report.attempted += (read_done + write_done) as u64;
    for f in sides.into_iter().flat_map(|s| s.1) {
        report.fail(f);
    }
    let read_cap = read_done as f64 / read_secs;
    let write_cap = write_done as f64 / write_secs;
    report.put("read_capacity_qps", read_cap, "1/s");
    report.put("update_capacity_qps", write_cap, "1/s");
    report.put("offered_read_share", READ_RATE / read_cap, "ratio");
    report.put("offered_update_share", WRITE_RATE / write_cap, "ratio");
    report.put(
        "offered_utilization",
        READ_RATE / read_cap + WRITE_RATE / write_cap,
        "ratio",
    );
    report
}
