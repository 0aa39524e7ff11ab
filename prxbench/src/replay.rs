//! The traced replay: the seeded operations a workload sends over the
//! wire, executed in-process through the public functions the server
//! calls for them, each call wrapped in a span. With tracing off the
//! same code runs with inert spans, which is how the tracing overhead is
//! measured.

use crate::openloop::Expect;
use crate::report::Report;
use crate::spans::{
    self, Breakdown, Route, KIND_QUERY, KIND_RESTORE, KIND_UPDATE, REQUEST, SHADOW,
};
use crate::stats::Samples;
use pxv_engine::{Edit, Engine, EngineStats, EpochEngine, Plan, View};
use pxv_obs::span::SpanRecord;
use pxv_obs::{Span, TraceContext};
use pxv_pxml::{NodeId, PDocument};
use pxv_rewrite::view::ProbExtension;
use pxv_server::protocol::{parse_request, write_answer, Request};
use pxv_tpq::parse::parse_pattern;
use std::collections::HashMap;
use std::time::Instant;

/// Requests whose spans are kept for the Chrome trace file.
const EXPORT_REQUESTS: u64 = 200;

/// Untraced/traced replay pairs behind `bench.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

/// One operation of a workload, as a client sends it.
#[derive(Clone, Debug)]
pub enum Op {
    /// `QUERY <doc> <pattern>[ <option tokens>]`.
    Query {
        doc: String,
        pattern: String,
        options: &'static str,
    },
    /// `UPDATE <doc> <edit>`.
    Update { doc: String, edit: Edit },
    /// `RESTORE <path>`.
    Restore { path: String },
}

impl Op {
    /// The request line.
    pub fn line(&self) -> String {
        match self {
            Op::Query {
                doc,
                pattern,
                options,
            } => format!("QUERY {doc} {pattern}{options}"),
            Op::Update { doc, edit } => format!("UPDATE {doc} {edit}"),
            Op::Restore { path } => format!("RESTORE {path}"),
        }
    }

    /// The shape of its response.
    pub fn expect(&self) -> Expect {
        match self {
            Op::Query { .. } => Expect::Answer,
            _ => Expect::Ok,
        }
    }
}

/// Counters the replayed engines kept, summed over engines a `RESTORE`
/// replaced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub materializations: u64,
    pub cache_hits: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub evictions: u64,
    pub admission_rejects: u64,
    pub deltas: u64,
    pub delta_fallbacks: u64,
    pub sections_faulted: u64,
    pub direct: u64,
}

impl Counters {
    fn of(s: &EngineStats) -> Counters {
        let mut c = Counters::default();
        c.add(s);
        c
    }

    fn add(&mut self, s: &EngineStats) {
        self.materializations += s.materializations;
        self.cache_hits += s.cache_hits;
        self.plan_cache_hits += s.plan_cache_hits;
        self.plan_cache_misses += s.plan_cache_misses;
        self.evictions += s.evictions;
        self.admission_rejects += s.admission_rejects;
        self.deltas += s.deltas_applied;
        self.delta_fallbacks += s.delta_fallbacks;
        self.sections_faulted += s.sections_faulted;
        self.direct += s.direct;
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            materializations: self.materializations - o.materializations,
            cache_hits: self.cache_hits - o.cache_hits,
            plan_cache_hits: self.plan_cache_hits - o.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses - o.plan_cache_misses,
            evictions: self.evictions - o.evictions,
            admission_rejects: self.admission_rejects - o.admission_rejects,
            deltas: self.deltas - o.deltas,
            delta_fallbacks: self.delta_fallbacks - o.delta_fallbacks,
            sections_faulted: self.sections_faulted - o.sections_faulted,
            direct: self.direct - o.direct,
        }
    }
}

/// View extensions maintained beside the engine, only to time
/// `ProbExtension::apply_delta` — the engine runs it inside
/// `Engine::apply_edits`, where no span reaches.
pub struct Shadow {
    docs: HashMap<String, PDocument>,
    exts: HashMap<String, Vec<ProbExtension>>,
}

impl Shadow {
    pub fn new(docs: &[(String, PDocument)], views: &[View]) -> Shadow {
        Shadow {
            exts: docs
                .iter()
                .map(|(name, d)| {
                    let exts = views.iter().map(|v| ProbExtension::materialize(d, v));
                    (name.clone(), exts.collect())
                })
                .collect(),
            docs: docs.iter().cloned().collect(),
        }
    }
}

/// Executes operations against an in-process [`EpochEngine`], the way
/// the server does for the same request lines.
pub struct Replayer {
    epoch: EpochEngine,
    traced: bool,
    shadow: Option<Shadow>,
    /// Counters of the engine the replay started from (its set-up work).
    base: Counters,
    retired: Counters,
    pub breakdown: Breakdown,
    /// Spans of the first [`EXPORT_REQUESTS`] requests.
    pub records: Vec<SpanRecord>,
    /// Per answered query: candidates considered, bytes on the wire.
    pub candidates: Vec<usize>,
    pub answer_bytes: Vec<usize>,
    pub restores: u64,
    /// Wall time of the replay's own requests (shadow calls excluded).
    pub secs: f64,
}

impl Replayer {
    pub fn new(engine: Engine, traced: bool, shadow: Option<Shadow>) -> Replayer {
        Replayer {
            base: Counters::of(&engine.stats()),
            epoch: EpochEngine::new(engine),
            traced,
            shadow: shadow.filter(|_| traced),
            retired: Counters::default(),
            breakdown: Breakdown::default(),
            records: Vec::new(),
            candidates: Vec::new(),
            answer_bytes: Vec::new(),
            restores: 0,
            secs: 0.0,
        }
    }

    /// The engine as the next request would see it.
    pub fn engine(&self) -> std::sync::Arc<Engine> {
        self.epoch.read()
    }

    /// Engine counters over the whole replay (set-up work excluded).
    pub fn counters(&self) -> Counters {
        let mut c = self.retired;
        c.add(&self.epoch.read().stats());
        c.minus(self.base)
    }

    /// Executes one operation; returns the answer's nodes (empty for
    /// updates and restores) or the error the server would have sent.
    pub fn exec(&mut self, op: &Op) -> Result<Vec<(NodeId, f64)>, String> {
        // The server parses a query's pattern inside `parse_request`,
        // where no span reaches; the same parse is timed on its own, off
        // the request's clock.
        let parse_ns = match op {
            Op::Query { pattern, .. } if self.traced => self.shadow_parse(pattern)?,
            _ => 0,
        };
        let t0 = Instant::now();
        let ctx = self.traced.then(TraceContext::with_flight);
        let flight = ctx.as_ref().and_then(|c| c.flight().cloned());
        let guard = ctx.map(TraceContext::install);
        let mut root = Span::enter(REQUEST);
        let mut route = None;
        let line = op.line();
        let parse = || {
            let _span = Span::enter("server.parse_request");
            parse_request(&line).map_err(|e| e.to_string())
        };
        let result = match op {
            Op::Query { .. } => {
                root.record("kind", KIND_QUERY);
                let Request::Query {
                    doc,
                    query,
                    options,
                } = parse()?
                else {
                    return Err(format!("not a query: {line}"));
                };
                let engine = self.epoch.read();
                let id = engine
                    .find_document(&doc)
                    .ok_or_else(|| format!("unknown document {doc}"))?;
                let answer = {
                    let _span = Span::enter("engine.answer_with");
                    engine.answer_with(id, &query, &options)
                }
                .map_err(|e| e.to_string())?;
                route = Some(match &answer.plan {
                    Some(Plan::Tp(_)) => Route::Tp,
                    Some(Plan::Tpi(_)) => Route::Tpi,
                    None => Route::Direct,
                });
                let mut bytes = Vec::new();
                {
                    let _span = Span::enter("server.write_answer");
                    write_answer(&mut bytes, &answer)
                }
                .map_err(|e| e.to_string())?;
                self.candidates.push(answer.stats.candidates);
                self.answer_bytes.push(bytes.len());
                Ok(answer.nodes)
            }
            Op::Update { .. } => {
                root.record("kind", KIND_UPDATE);
                let Request::Update { doc, edit } = parse()? else {
                    return Err(format!("not an update: {line}"));
                };
                let _span = Span::enter("engine.epoch_update");
                self.epoch
                    .update(|engine| {
                        let id = engine
                            .find_document(&doc)
                            .ok_or_else(|| format!("unknown document {doc}"))?;
                        let _span = Span::enter("engine.apply_edits");
                        engine
                            .apply_edits(id, std::slice::from_ref(&edit))
                            .map_err(|e| e.to_string())
                    })
                    .map(|_| Vec::new())
            }
            Op::Restore { .. } => {
                root.record("kind", KIND_RESTORE);
                let Request::Restore { path } = parse()? else {
                    return Err(format!("not a restore: {line}"));
                };
                let snapshot = {
                    let _span = Span::enter("store.read_snapshot_lazy");
                    pxv_store::read_snapshot_lazy(&path)
                }
                .map_err(|e| e.to_string())?;
                let options = self.epoch.read().options().clone();
                let engine = {
                    let _span = Span::enter("store.boot");
                    Engine::from_snapshot_lazy_with(snapshot, options)
                }
                .map_err(|e| e.to_string())?;
                self.retired.add(&self.epoch.read().stats());
                self.epoch.replace(engine);
                self.restores += 1;
                Ok(Vec::new())
            }
        };
        drop(root);
        drop(guard);
        self.secs += t0.elapsed().as_secs_f64();
        if let Some(flight) = flight {
            self.keep(flight.records(), route, parse_ns);
        }
        if let (Op::Update { doc, edit }, true) = (op, result.is_ok()) {
            self.shadow_delta(doc, edit)?;
        }
        result
    }

    /// Folds the spans of one request or shadow call into the breakdown.
    /// `parse_ns` of the request's `server.parse_request` time was spent
    /// parsing its pattern, so it is billed to `tpq`, not `server`.
    fn keep(&mut self, mut records: Vec<SpanRecord>, route: Option<Route>, parse_ns: u64) {
        spans::rename_program_spans(&mut records, route);
        self.breakdown.add(&records);
        if let Some(parse) = records.iter().find(|r| r.name == "server.parse_request") {
            self.breakdown
                .rebill("server", "tpq", parse_ns.min(parse.nanos));
        }
        if self.breakdown.requests <= EXPORT_REQUESTS {
            self.records.extend(records);
        }
    }

    /// Replays the edit's delta maintenance on the shadow extensions,
    /// each `apply_delta` call in a span of a shadow trace.
    fn shadow_delta(&mut self, doc: &str, edit: &Edit) -> Result<(), String> {
        let Some(shadow) = &mut self.shadow else {
            return Ok(());
        };
        let (Some(pdoc), Some(exts)) = (shadow.docs.get_mut(doc), shadow.exts.get_mut(doc)) else {
            return Err(format!("shadow has no document {doc}"));
        };
        let ctx = TraceContext::with_flight();
        let flight = ctx.flight().expect("with_flight carries one").clone();
        {
            let _guard = ctx.install();
            let _root = Span::enter(SHADOW);
            let effect = pdoc.apply_edit(edit).map_err(|e| e.to_string())?;
            for ext in exts.iter_mut() {
                let _span = Span::enter("rewrite.apply_delta");
                *ext = ext.apply_delta(pdoc, edit, &effect).0;
            }
        }
        self.keep(flight.records(), None, 0);
        Ok(())
    }

    /// Parses `pattern` in a span of a shadow trace, the way
    /// `parse_request` does for a query; returns the parse's duration (ns).
    fn shadow_parse(&mut self, pattern: &str) -> Result<u64, String> {
        let ctx = TraceContext::with_flight();
        let flight = ctx.flight().expect("with_flight carries one").clone();
        {
            let _guard = ctx.install();
            let _root = Span::enter(SHADOW);
            let _span = Span::enter("tpq.parse_pattern");
            parse_pattern(pattern).map_err(|e| e.to_string())?;
        }
        let records = flight.records();
        let ns = records
            .iter()
            .find(|r| r.name == "tpq.parse_pattern")
            .map_or(0, |r| r.nanos);
        self.keep(records, None, 0);
        Ok(ns)
    }
}

/// Replays `ops` on fresh engines, untraced and traced in turn
/// [`OVERHEAD_PAIRS`] times, and puts `bench.trace_overhead_pct`: the
/// fastest traced replay's wall time over the fastest untraced one's (the
/// fastest replay is the one the host disturbed least). `check` sees
/// every result. Returns the last traced replay.
pub fn replay_traced(
    report: &mut Report,
    mut fresh: impl FnMut(bool) -> (Engine, Option<Shadow>),
    ops: &[Op],
    mut check: impl FnMut(&mut Report, usize, Result<Vec<(NodeId, f64)>, String>),
) -> Replayer {
    let mut replay = |traced: bool, report: &mut Report| {
        let (engine, shadow) = fresh(traced);
        let mut r = Replayer::new(engine, traced, shadow);
        for (i, op) in ops.iter().enumerate() {
            report.attempted += 1;
            let result = r.exec(op);
            check(report, i, result);
        }
        r
    };
    let (mut plain, mut traced) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        plain = plain.min(replay(false, report).secs);
        let r = replay(true, report);
        traced = traced.min(r.secs);
        last = Some(r);
    }
    report.put(
        "bench.trace_overhead_pct",
        (traced / plain - 1.0) * 100.0,
        "%",
    );
    last.expect("OVERHEAD_PAIRS > 0")
}

fn median_of(ns: Vec<u64>, scale: f64) -> f64 {
    Samples::new(ns.into_iter().map(|n| n as f64 / scale).collect()).median()
}

fn mean(v: &[usize]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<usize>() as f64 / v.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Puts every per-layer metric the traced replay measures. Timings are
/// medians per call (0 when the workload never makes that call); `self.*`
/// is a layer's self time per request, averaged over the replay.
pub fn put_layer_metrics(report: &mut Report, r: &Replayer) {
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let b = &r.breakdown;
    let c = r.counters();
    report.put(
        "tpq.parse_us",
        median_of(b.durations("tpq.parse_pattern"), US),
        "us",
    );
    report.put(
        "server.parse_request_us",
        median_of(b.durations_in("server.parse_request", KIND_QUERY), US),
        "us",
    );
    report.put(
        "server.write_answer_us",
        median_of(b.durations("server.write_answer"), US),
        "us",
    );
    report.put("server.answer_bytes", mean(&r.answer_bytes), "bytes");
    report.put(
        "engine.answer_ms",
        median_of(b.durations("engine.answer_with"), MS),
        "ms",
    );
    report.put(
        "engine.self_ms",
        median_of(b.engine_self_per_query.clone(), MS),
        "ms",
    );
    report.put(
        "engine.plan_cache_hit_ratio",
        ratio(c.plan_cache_hits, c.plan_cache_hits + c.plan_cache_misses),
        "ratio",
    );
    report.put(
        "engine.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.materializations),
        "ratio",
    );
    report.put(
        "engine.materializations",
        c.materializations as f64,
        "count",
    );
    report.put("engine.evictions", c.evictions as f64, "count");
    report.put(
        "engine.admission_rejects",
        c.admission_rejects as f64,
        "count",
    );
    report.put(
        "engine.cache_bytes",
        r.engine().cache_bytes() as f64,
        "bytes",
    );
    report.put(
        "engine.apply_edits_ms",
        median_of(b.durations("engine.apply_edits"), MS),
        "ms",
    );
    report.put(
        "engine.publish_ms",
        median_of(b.self_times("engine.epoch_update"), MS),
        "ms",
    );
    report.put("engine.deltas", c.deltas as f64, "count");
    report.put("engine.delta_fallbacks", c.delta_fallbacks as f64, "count");
    report.put(
        "rewrite.plan_us",
        median_of(b.durations("rewrite.plan"), US),
        "us",
    );
    report.put(
        "rewrite.answer_tp_ms",
        median_of(b.durations("rewrite.answer_tp"), MS),
        "ms",
    );
    report.put(
        "rewrite.execute_tpi_ms",
        median_of(b.durations("rewrite.execute_tpi"), MS),
        "ms",
    );
    report.put("rewrite.candidates", mean(&r.candidates), "count");
    report.put(
        "rewrite.materialize_ms",
        median_of(b.durations("rewrite.materialize"), MS),
        "ms",
    );
    report.put(
        "rewrite.apply_delta_ms",
        median_of(b.durations("rewrite.apply_delta"), MS),
        "ms",
    );
    report.put(
        "peval.eval_tp_ms",
        median_of(b.durations("peval.eval_tp"), MS),
        "ms",
    );
    report.put(
        "store.decode_lazy_ms",
        median_of(b.durations("store.read_snapshot_lazy"), MS),
        "ms",
    );
    report.put(
        "store.boot_ms",
        median_of(b.durations("store.boot"), MS),
        "ms",
    );
    report.put(
        "store.fault_ms",
        median_of(b.durations("store.fault"), MS),
        "ms",
    );
    report.put(
        "store.sections_faulted",
        ratio(c.sections_faulted, r.restores),
        "count",
    );
    for layer in ["tpq", "server", "engine", "rewrite", "peval", "store"] {
        let ns = b.layer_self_ns.get(layer).copied().unwrap_or(0);
        report.put(
            &format!("self.{layer}_ms"),
            ratio(ns, b.requests) / MS,
            "ms",
        );
    }
    if let Some((name, ns)) = b.self_ranking().first() {
        report.note(format!(
            "largest self time: {name} ({:.3} ms per request)",
            ratio(*ns, b.requests) / MS
        ));
    }
}

/// Writes the kept spans as Chrome trace JSON after checking the export
/// with the program's own validator; a failed check fails the run.
pub fn write_chrome_trace(report: &mut Report, r: &Replayer, name: &str) {
    let json = pxv_obs::export::chrome_trace_json(&r.records);
    match pxv_obs::export::check_chrome_trace(&json) {
        Ok(events) => {
            let path = crate::fixtures::out_dir().join(name);
            match std::fs::write(&path, json) {
                Ok(()) => report.note(format!("chrome trace: {} ({events} spans)", path.display())),
                Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
            }
        }
        Err(e) => report.fail(format!("chrome trace export fails its check: {e}")),
    }
}
