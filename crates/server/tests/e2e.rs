//! Loopback end-to-end tests: a real `serve` on an ephemeral port,
//! driven by real TCP clients.
//!
//! The load-bearing assertion is *bit identity*: a `QUERY` answered over
//! the wire — query shipped as display text, probabilities as
//! shortest-round-trip `f64` strings — equals the in-process
//! `Engine::answer` result exactly (`==` on `Vec<(NodeId, f64)>`, no
//! epsilon), including when 8 clients hammer the server concurrently.

use pxv_engine::{Engine, QueryOptions, View};
use pxv_pxml::generators::personnel;
use pxv_pxml::PDocument;
use pxv_server::client::{Client, ClientError};
use pxv_server::protocol::ProtocolError;
use pxv_server::serve::{serve, ServerConfig, ServerHandle};
use pxv_server::stats::stats_series;
use pxv_tpq::parse::parse_pattern;
use pxv_tpq::TreePattern;

const DOC: &str = "hr";

fn query_mix() -> Vec<TreePattern> {
    [
        "IT-personnel//person/bonus[laptop]",
        "IT-personnel//person/bonus[pda]",
        "IT-personnel//person/bonus[tablet]",
        "IT-personnel//person/bonus",
        "IT-personnel//person[name/Rick]/bonus[laptop]",
    ]
    .iter()
    .map(|s| parse_pattern(s).unwrap())
    .collect()
}

fn views() -> Vec<View> {
    vec![
        View::new(
            "v1BON",
            parse_pattern("IT-personnel//person[name/Rick]/bonus").unwrap(),
        ),
        View::new(
            "v2BON",
            parse_pattern("IT-personnel//person/bonus").unwrap(),
        ),
    ]
}

fn fixture_pdoc() -> PDocument {
    personnel(40, 3, 11).0
}

/// The in-process reference: same document, same views, warm catalog.
fn reference_engine() -> (Engine, pxv_engine::DocId) {
    let mut engine = Engine::new();
    let doc = engine.add_document(DOC, fixture_pdoc()).unwrap();
    engine.register_views(views()).unwrap();
    engine.warm(doc).unwrap();
    (engine, doc)
}

/// Starts an empty server and provisions it entirely over the wire
/// (LOAD + VIEW + WARM), so the display-form round trips are on the
/// tested path.
fn provisioned_server(workers: usize, max_connections: usize) -> ServerHandle {
    let handle = serve(
        Engine::new(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            max_connections,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr()).unwrap();
    c.load(DOC, &fixture_pdoc()).unwrap();
    for v in views() {
        c.view(&v.name, &v.pattern).unwrap();
    }
    let warmed = c.warm(DOC).unwrap();
    assert_eq!(warmed, 2, "both views materialized");
    c.quit().unwrap();
    handle
}

/// The acceptance-criterion test: 8 concurrent clients, every response
/// bit-identical to `Engine::answer`, then a clean shutdown.
#[test]
fn eight_concurrent_clients_bit_identical_to_in_process_answers() {
    let (reference, doc) = reference_engine();
    let mix = query_mix();
    let expected: Vec<_> = mix
        .iter()
        .map(|q| reference.answer(doc, q).unwrap().nodes)
        .collect();
    assert!(expected.iter().any(|nodes| !nodes.is_empty()));

    let handle = provisioned_server(8, 64);
    let addr = handle.addr();
    const ROUNDS: usize = 40;
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let mix = &mix;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for r in 0..ROUNDS {
                    let i = (t + r) % mix.len();
                    let got = client.query(DOC, &mix[i]).unwrap();
                    // Exact equality — NodeIds and f64 bits.
                    assert_eq!(
                        got.nodes, expected[i],
                        "client {t} round {r}: wire answer diverged for {}",
                        mix[i]
                    );
                    assert!(got.plan.contains("plan"), "served from views: {}", got.plan);
                    assert_eq!(got.stats.materializations, 0, "warm server");
                }
                client.quit().unwrap();
            });
        }
    });

    let stats = handle.stats();
    assert_eq!(stats.errors, 0, "no protocol errors");
    assert!(stats.requests >= 8 * ROUNDS as u64);
    assert!(stats.connections >= 9, "setup + 8 query clients");
    // Single-flight across the wire: WARM materialized each view once and
    // 320 concurrent queries never re-materialized.
    handle.with_engine(|engine| {
        assert_eq!(engine.stats().materializations, 2);
    });
    // Clean shutdown: every server thread joins.
    handle.shutdown();
}

#[test]
fn batch_matches_sequential_queries() {
    let handle = provisioned_server(4, 16);
    let mut client = Client::connect(handle.addr()).unwrap();
    let mix = query_mix();
    let sequential: Vec<_> = mix.iter().map(|q| client.query(DOC, q).unwrap()).collect();
    let batch: Vec<(String, TreePattern)> =
        mix.iter().map(|q| (DOC.to_string(), q.clone())).collect();
    let results = client.batch(&batch).unwrap();
    assert_eq!(results.len(), mix.len());
    for (got, want) in results.iter().zip(&sequential) {
        let got = got.as_ref().expect("batch answer");
        assert_eq!(got.nodes, want.nodes, "batch ≡ sequential, bit-identical");
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn protocol_and_engine_errors_are_typed_lines() {
    let handle = provisioned_server(2, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Unknown document.
    match client.query_text("nosuch", "a/b") {
        Err(ClientError::Server(ProtocolError::UnknownDoc(_))) => {}
        other => panic!("want unknown-doc, got {other:?}"),
    }
    // Malformed pattern.
    match client.query_text(DOC, "a//") {
        Err(ClientError::Server(ProtocolError::BadPattern(_))) => {}
        other => panic!("want bad-pattern, got {other:?}"),
    }
    // Profiling is the PROFILE verb, not a query option.
    match client.query_text(DOC, "IT-personnel//person/bonus profile=true") {
        Err(ClientError::Server(ProtocolError::BadOption(_))) => {}
        other => panic!("want bad-option, got {other:?}"),
    }
    // Unanswerable query under the default Forbid fallback.
    match client.query_text(DOC, "unrelated//thing") {
        Err(ClientError::Server(ProtocolError::Plan(_))) => {}
        other => panic!("want plan error, got {other:?}"),
    }
    // …but answerable with fallback=direct.
    let opts = QueryOptions::new().fallback(pxv_engine::Fallback::Direct);
    let direct = client
        .query_with(DOC, &parse_pattern("unrelated//thing").unwrap(), &opts)
        .unwrap();
    assert!(direct.nodes.is_empty());
    assert!(direct.plan.contains("direct"));
    // Duplicate view.
    match client.view_text("v1BON", "a/b") {
        Err(ClientError::Server(ProtocolError::Engine(_))) => {}
        other => panic!("want engine error, got {other:?}"),
    }
    // A batch with a bad line still answers the good ones, positionally.
    let batch = vec![
        (DOC.to_string(), query_mix()[0].clone()),
        ("ghost".to_string(), query_mix()[1].clone()),
        (DOC.to_string(), query_mix()[2].clone()),
    ];
    let results = client.batch(&batch).unwrap();
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(ProtocolError::UnknownDoc(_))));
    assert!(results[2].is_ok());
    // Client-side framing guards: a newline-bearing label and an
    // oversized batch are refused before anything hits the wire, so the
    // session cannot desynchronize.
    let mut evil = parse_pattern("a").unwrap();
    evil.add_child(
        evil.root(),
        pxv_tpq::Axis::Child,
        pxv_tpq::Label::new("two\nlines"),
    );
    match client.query(DOC, &evil) {
        Err(ClientError::Unexpected(msg)) => assert!(msg.contains("newline"), "{msg}"),
        other => panic!("want newline refusal, got {other:?}"),
    }
    let huge = vec![(DOC.to_string(), query_mix()[0].clone()); 5000];
    match client.batch(&huge) {
        Err(ClientError::Server(ProtocolError::BadCount(_))) => {}
        other => panic!("want client-side bad-count, got {other:?}"),
    }
    assert!(client.batch(&[]).unwrap().is_empty());
    // The session survives all of the above.
    client.ping().unwrap();
    let errors_seen = handle.stats().errors;
    assert!(errors_seen >= 5, "errors counted: {errors_seen}");
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn invalidate_forces_rematerialization_over_the_wire() {
    let handle = provisioned_server(2, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let q = &query_mix()[0];
    let warm = client.query(DOC, q).unwrap();
    assert_eq!(warm.stats.materializations, 0);
    assert_eq!(client.invalidate(DOC).unwrap(), 2);
    let cold = client.query(DOC, q).unwrap();
    assert_eq!(
        cold.stats.materializations, 1,
        "re-materialized after invalidate"
    );
    assert_eq!(cold.nodes, warm.nodes);
    let stats = client.stats().unwrap();
    assert_eq!(stats["inval"], 1);
    assert!(stats.contains_key("p99us"));
    assert!(stats.contains_key("planmiss"));
    client.quit().unwrap();
    handle.shutdown();
}

/// The update tentpole over the wire: a running server takes edits
/// between queries, maintains the warm cache incrementally, and every
/// post-edit wire answer is **bit-identical** to a cold engine built
/// from the post-edit document.
#[test]
fn update_between_queries_bit_identical_to_cold_post_edit_engine() {
    use pxv_pxml::edit::Edit;
    use pxv_pxml::text::parse_pdocument;
    use pxv_pxml::NodeId;

    let handle = provisioned_server(2, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let mix = query_mix();
    for q in &mix {
        client.query(DOC, q).unwrap();
    }

    // Mirror of the server-side document: the client applies the same
    // edits locally, which only works because fresh-id assignment is
    // deterministic.
    let mut mirror = fixture_pdoc();
    let person = {
        // First person child of the root, to edit inside one subtree.
        let root = mirror.root();
        *mirror.children(root).first().expect("nonempty personnel")
    };
    let edits = vec![
        Edit::Relabel {
            node: person,
            label: pxv_pxml::Label::new("person"), // no-op rename, still an edit
        },
        Edit::InsertSubtree {
            parent: mirror.root(),
            prob: 1.0,
            subtree: parse_pdocument("person[name[Zoe], bonus[laptop]]").unwrap(),
        },
        Edit::DeleteSubtree { node: person },
    ];
    let mut inserted: Option<NodeId> = None;
    for edit in &edits {
        let effect = mirror.apply_edit(edit).expect("mirror edit applies");
        let outcome = client.update(DOC, edit).unwrap();
        assert_eq!(outcome.edits, 1);
        assert_eq!(outcome.extensions, 2, "both views maintained, not evicted");
        assert_eq!(outcome.fallbacks, 0, "localized edits stay incremental");
        assert_eq!(outcome.inserted, effect.inserted_root, "same fresh ids");
        inserted = inserted.or(outcome.inserted);
    }
    assert!(inserted.is_some(), "the insert reported its grafted root");

    // Cold reference engine over the post-edit mirror.
    let mut cold = Engine::new();
    let cd = cold.add_document(DOC, mirror).unwrap();
    cold.register_views(views()).unwrap();

    for q in &mix {
        let wire = client.query(DOC, q).unwrap();
        let want = cold.answer(cd, q).unwrap();
        assert_eq!(
            wire.nodes, want.nodes,
            "{q}: post-edit wire answers must be bit-identical to a cold engine"
        );
        assert_eq!(
            wire.stats.materializations, 0,
            "{q}: the maintained cache is still warm"
        );
    }

    // A bad edit is a typed error and mutates nothing.
    let err = client
        .update(
            DOC,
            &Edit::SetProb {
                node: NodeId(0),
                prob: 0.5,
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Server(ProtocolError::BadEdit(_))),
        "{err}"
    );

    let stats = client.stats().unwrap();
    assert_eq!(stats["edits"], edits.len() as u64);
    assert!(stats["deltas"] > 0, "incremental path exercised");
    assert_eq!(stats["fallbacks"], 0);
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn connection_limit_rejects_with_busy() {
    // Fresh empty server: no setup session whose slot could still be
    // draining when the test connects.
    let handle = serve(
        Engine::new(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut admitted = Client::connect(handle.addr()).unwrap();
    admitted.ping().unwrap(); // ensure it is the one holding the slot
    let mut turned_away = Client::connect(handle.addr()).unwrap();
    match turned_away.ping() {
        Err(ClientError::Server(ProtocolError::Busy)) | Err(ClientError::Io(_)) => {}
        other => panic!("want busy/closed, got {other:?}"),
    }
    assert_eq!(handle.stats().rejected, 1);
    admitted.quit().unwrap();
    handle.shutdown();
}

/// Shutdown must not hang on a session that is idle mid-connection.
#[test]
fn shutdown_drains_idle_sessions() {
    let handle = provisioned_server(2, 8);
    let mut idle = Client::connect(handle.addr()).unwrap();
    idle.ping().unwrap();
    // No QUIT: the session blocks in its read loop until the shutdown
    // flag is observed on a poll tick. shutdown() joining is the assert.
    handle.shutdown();
}

/// The store acceptance criterion, over the wire: a warmed server is
/// snapshotted with `SAVE`, torn down, and its state `RESTORE`d into a
/// brand-new server. The new server must answer the same mix
/// **bit-identically** with `materializations == 0` — the whole point of
/// the persistent store is that a restart does not re-pay
/// materialization.
#[test]
fn save_restore_across_servers_bit_identical_and_warm() {
    let dir = std::env::temp_dir().join(format!("pxv-e2e-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("engine.pxv");
    let snap_str = snap.to_str().unwrap();
    let mix = query_mix();

    let expected: Vec<_> = {
        let handle = provisioned_server(4, 32);
        let mut client = Client::connect(handle.addr()).unwrap();
        let expected: Vec<_> = mix
            .iter()
            .map(|q| client.query(DOC, q).unwrap().nodes)
            .collect();
        let tail = client.save(snap_str).unwrap();
        assert!(tail.contains("docs=1"), "{tail}");
        assert!(tail.contains("exts=2"), "warm cache persisted: {tail}");
        client.quit().unwrap();
        handle.shutdown();
        expected
    };
    assert!(expected.iter().any(|nodes| !nodes.is_empty()));

    // A fresh, empty server — the restart. RESTORE replays the snapshot.
    let handle = serve(
        Engine::new(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_connections: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tail = client.restore(snap_str).unwrap();
    assert!(tail.contains("docs=1 views=2 exts=2"), "{tail}");
    for (q, want) in mix.iter().zip(&expected) {
        let got = client.query(DOC, q).unwrap();
        assert_eq!(&got.nodes, want, "bit-identical across save/restore: {q}");
        assert_eq!(got.stats.materializations, 0, "warm path after restore");
        assert!(got.plan.contains("plan"), "served from views: {}", got.plan);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats["mats"], 0, "zero re-materializations after restore");

    // A corrupted snapshot is rejected with a typed `store` error and
    // leaves the running engine untouched.
    let garbage = dir.join("garbage.pxv");
    std::fs::write(&garbage, b"PXVSNAP\0but then garbage").unwrap();
    match client.restore(garbage.to_str().unwrap()) {
        Err(ClientError::Server(e)) => assert_eq!(e.code(), "store", "{e}"),
        other => panic!("corrupt restore accepted: {other:?}"),
    }
    let after = client.query(DOC, &mix[0]).unwrap();
    assert_eq!(after.nodes, expected[0], "failed restore left state intact");
    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The budgeted-cache and advisor verbs over the wire: STATS exposes
/// the byte gauge, `BUDGET` evicts synchronously (with bit-identical
/// rematerialization afterwards), `ADVISE` proposes a view for the
/// workload the catalog cannot serve, and `ADVISE AUTO` registers it.
#[test]
fn budget_and_advise_over_the_wire() {
    let handle = provisioned_server(4, 64);
    let mut c = Client::connect(handle.addr()).unwrap();

    let stats = c.stats().unwrap();
    assert!(stats["cache_bytes"] > 0, "warm cache is byte-accounted");
    assert_eq!(stats["evictions"], 0);
    assert_eq!(stats["admission_rejects"], 0);

    // A query the registered views cannot serve, answered by direct
    // evaluation — exactly what the advisor should propose a view for.
    let uncovered = parse_pattern("IT-personnel//person/name").unwrap();
    let direct_opts = QueryOptions::default().fallback(pxv_engine::Fallback::Direct);
    let direct = c.query_with(DOC, &uncovered, &direct_opts).unwrap();
    assert!(!direct.nodes.is_empty());

    let advice = c.advise(false).unwrap();
    assert!(advice.logged >= 1, "query log feeds the advisor");
    assert!(advice.admitted >= 1, "uncovered query yields a proposal");
    assert!(advice.coverage >= 1, "the proposal covers logged queries");
    assert_eq!(advice.registered, 0, "plain ADVISE only reports");
    assert!(advice.candidates.len() as u64 >= advice.admitted);
    let winner = advice.candidates.iter().find(|c| c.admitted).unwrap();
    assert!(winner.marginal > 0, "covers weight no registered view does");
    assert!(winner.bytes > 0, "projected from a real materialization");
    assert!(
        parse_pattern(&winner.pattern).is_ok(),
        "proposed pattern is parseable: {}",
        winner.pattern
    );

    // AUTO registers the winners and the catalog grows by that many.
    let before = handle.with_engine(|e| e.catalog().len());
    let auto = c.advise(true).unwrap();
    assert!(auto.registered >= 1);
    let after = handle.with_engine(|e| e.catalog().len());
    assert_eq!(after, before + auto.registered as usize);

    // The formerly uncovered query is now servable from a view under
    // fallback=forbid, bit-identically to its direct answer.
    let via_view = c.query(DOC, &uncovered).unwrap();
    assert_eq!(via_view.nodes, direct.nodes);

    // Squeeze the budget to one byte: everything evicts, the gauge
    // obeys, and re-querying rematerializes bit-identically.
    let q = &query_mix()[0];
    let warm = c.query(DOC, q).unwrap();
    let resident = c.budget(1).unwrap();
    assert!(resident <= 1, "synchronous eviction honored the budget");
    let stats = c.stats().unwrap();
    assert!(stats["cache_bytes"] <= 1);
    assert!(stats["evictions"] > 0);
    let cold = c.query(DOC, q).unwrap();
    assert_eq!(cold.nodes, warm.nodes, "rematerialized answer identical");

    // Back to unbounded: the cache refills and the gauge follows.
    c.budget(u64::MAX).unwrap();
    c.warm(DOC).unwrap();
    assert!(c.stats().unwrap()["cache_bytes"] > 0);
    c.quit().unwrap();
    handle.shutdown();
}

/// The observability tentpole over the wire: `METRICS` parses as
/// Prometheus text (every sample line `name value`, counters monotone
/// across scrapes; the `STATS` key set is checked with the row table
/// below), `PROFILE`
/// returns a complete stage breakdown consistent with the plain answer,
/// and `STATS SLOW` dumps the slow-query ring.
#[test]
fn observability_verbs_over_the_wire() {
    // Threshold 0: every request qualifies as "slow", so the slow log is
    // deterministically nonempty.
    let handle = serve(
        Engine::new(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_connections: 8,
            slow_threshold_us: 0,
        },
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.load(DOC, &fixture_pdoc()).unwrap();
    for v in views() {
        c.view(&v.name, &v.pattern).unwrap();
    }
    c.warm(DOC).unwrap();

    // METRICS: well-formed Prometheus text with every layer represented.
    let scrape = |c: &mut Client| {
        let text = c.metrics().unwrap();
        let mut samples = std::collections::HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                let name = line.split_whitespace().nth(2).expect("# HELP/TYPE name");
                assert!(
                    pxv_obs::metrics::valid_metric_name(name),
                    "bad metric name in comment: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample: name value");
            let value: u64 = value.parse().unwrap_or_else(|_| panic!("numeric: {line}"));
            let family = name
                .split('{')
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                pxv_obs::metrics::valid_metric_name(family),
                "bad sample name: {line}"
            );
            samples.insert(name.to_string(), value);
        }
        samples
    };
    let first = scrape(&mut c);
    for family in [
        "pxv_server_request_us_count",
        "pxv_server_requests_total",
        "pxv_server_queue_depth",
        "pxv_engine_queries_total",
        "pxv_engine_cache_hits_total",
        "pxv_engine_docs",
        "pxv_cache_bytes",
        "pxv_store_saves_total",
        "pxv_server_slow_queries_total",
        "pxv_obs_spans_dropped",
    ] {
        assert!(first.contains_key(family), "METRICS missing `{family}`");
    }
    assert!(first["pxv_cache_bytes"] > 0, "warm cache is byte-accounted");
    assert!(
        first["pxv_server_request_us_count"] > 0,
        "request latency histogram has samples"
    );

    // A burst of queries, then a second scrape: counters are monotone
    // and the engine counters moved by exactly the burst.
    let mix = query_mix();
    for q in &mix {
        c.query(DOC, q).unwrap();
    }
    let second = scrape(&mut c);
    for (name, &was) in &first {
        if name.contains("_total") || name.contains("_count") || name.contains("_bucket") {
            assert!(
                second.get(name).is_some_and(|&now| now >= was),
                "counter `{name}` went backwards"
            );
        }
    }
    assert_eq!(
        second["pxv_engine_queries_total"],
        first["pxv_engine_queries_total"] + mix.len() as u64
    );

    // PROFILE, folded from the request's span tree: a cold run bills its
    // probe to materialization, warm runs bill the cache probe, and the
    // stages stay within the root spans' total.
    let opts = QueryOptions::default();
    assert_eq!(c.invalidate(DOC).unwrap(), 2);
    let cold = c.profile(DOC, &mix[0], &opts).unwrap().profile;
    assert!(cold.materialize_nanos > 0, "cold PROFILE: {cold:?}");
    let plain = c.query(DOC, &mix[0]).unwrap();
    let mut warm_probe_nanos = 0;
    for _ in 0..5 {
        let profile = c.profile(DOC, &mix[0], &opts).unwrap();
        assert_eq!(profile.nodes as usize, plain.nodes.len());
        assert_eq!(profile.plan, plain.plan);
        let p = profile.profile;
        assert_eq!(p.materialize_nanos, 0, "warm PROFILE: {p:?}");
        assert!(p.total_nanos > 0 && p.stage_nanos_sum() <= p.total_nanos);
        assert!(
            p.cache_bytes > 0 && p.epoch > 0,
            "warm cache and epoch: {p:?}"
        );
        warm_probe_nanos += p.probe_nanos;
    }
    // The wire carries whole µs: one warm probe may round down to 0.
    assert!(warm_probe_nanos > 0, "warm PROFILE bills the cache probe");
    // …and a plain QUERY is unaffected by someone else profiling.
    let again = c.query(DOC, &mix[0]).unwrap();
    assert_eq!(again.nodes, plain.nodes);

    // STATS SLOW: threshold 0 logs everything; the dump is bounded and
    // carries real request lines.
    let (threshold, records) = c.slow().unwrap();
    assert_eq!(threshold, 0);
    assert!(!records.is_empty(), "threshold 0 logs every request");
    assert!(records.len() <= pxv_obs::slow::SLOW_LOG_CAPACITY);
    assert!(
        records.iter().any(|r| r.request.starts_with("QUERY ")),
        "slow log carries the request lines"
    );

    c.quit().unwrap();
    handle.shutdown();
}

/// `STATS` and `METRICS` render one row table, so every `STATS` key has
/// a `METRICS` series carrying the same value — the lazy-restore counters
/// included, made nonzero by a `RESTORE` and the faults it leaves. Only
/// the STATS request itself lands between the two reads: it is counted
/// in `requests` and sampled into the histogram the quantile rows read.
#[test]
fn every_stats_key_is_a_metrics_series_with_the_same_value() {
    let snap = std::env::temp_dir().join(format!("pxv-e2e-rows-{}.pxv", std::process::id()));
    let snap = snap.to_str().unwrap();
    let handle = provisioned_server(2, 8);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.save(snap).unwrap();
    c.restore(snap).unwrap();
    for q in &query_mix() {
        c.query(DOC, q).unwrap();
    }
    let stats = c.stats().unwrap();
    let text = c.metrics().unwrap();
    let series: std::collections::HashMap<&str, u64> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .map(|(name, value)| (name, value.parse().unwrap()))
        .collect();
    let quantile = |q: f64| {
        let rank = (series["pxv_server_request_us_count"] as f64 * q).ceil() as u64;
        let bucket = |le: u64| series[&*format!("pxv_server_request_us_bucket{{le=\"{le}\"}}")];
        (1..64)
            .map(|i| 1u64 << i)
            .find(|&le| bucket(le) >= rank)
            .unwrap()
    };
    assert!(stats["sections_faulted"] > 0 && stats["lazy_decode_ns"] > 0);
    assert_eq!(
        stats.len(),
        stats_series().count(),
        "exactly the table's keys"
    );
    for (key, metric) in stats_series() {
        let want = match key {
            "requests" => stats[key] + 1,
            "p50us" => quantile(0.50),
            "p99us" => quantile(0.99),
            _ => stats[key],
        };
        assert_eq!(
            series.get(metric),
            Some(&want),
            "STATS `{key}` vs `{metric}`"
        );
    }
    c.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(snap).unwrap();
}

/// Causal tracing end to end: a `trace=true` query returns its own span
/// tree inline with a bit-identical answer; `TRACE ON` records every
/// request, `TRACE DUMP` drains them as Chrome trace JSON whose causal
/// links check out; and the slow log captures the span tree of each
/// offending query while the recorder is on.
#[test]
fn causal_tracing_over_the_wire() {
    let handle = serve(
        Engine::new(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_connections: 8,
            // Threshold 0: every request is "slow", so the flight
            // recorder's tree deterministically lands in the log.
            slow_threshold_us: 0,
        },
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.load(DOC, &fixture_pdoc()).unwrap();
    for v in views() {
        c.view(&v.name, &v.pattern).unwrap();
    }

    // `trace=true` with the recorder OFF: the tree comes back inline and
    // the answer is bit-identical to the untraced run. One warm-up run
    // first, so plain and traced both execute against a warm cache and
    // even their stats match.
    let q = &query_mix()[0];
    c.query(DOC, q).unwrap();
    let plain = c.query(DOC, q).unwrap();
    let (traced, tree) = c.trace(DOC, q).unwrap();
    assert_eq!(traced.nodes, plain.nodes, "tracing must not change answers");
    assert_eq!(traced.stats, plain.stats);
    let lines: Vec<&str> = tree.lines().collect();
    let indent = |line: &str| line.len() - line.trim_start().len();
    assert!(lines[0].starts_with("trace "), "heading first: {tree}");
    assert!(
        lines[1].trim_start().starts_with("request "),
        "the request span is the root: {tree}"
    );
    assert_eq!(indent(lines[1]), 2, "root sits under the heading: {tree}");
    let answer_line = lines
        .iter()
        .find(|l| l.trim_start().starts_with("answer "))
        .expect("answer span under the root");
    assert_eq!(indent(answer_line), 4, "answer is the request's child");
    for stage in ["plan ", "eval "] {
        let line = lines
            .iter()
            .find(|l| l.trim_start().starts_with(stage))
            .unwrap_or_else(|| panic!("missing `{stage}` span in {tree}"));
        assert_eq!(indent(line), 6, "`{stage}` is the answer's child");
    }

    // TRACE ON → a burst → TRACE DUMP: valid Chrome trace JSON whose
    // events include the per-request roots, with an `answer` span
    // causally parented under a `request` span.
    c.trace_on().unwrap();
    for q in &query_mix() {
        c.query(DOC, q).unwrap();
    }
    let json = c.trace_dump().unwrap();
    c.trace_off().unwrap();
    let events = pxv_obs::export::check_chrome_trace(&json).expect("dump validates");
    assert!(events > 0, "the burst recorded spans");
    let parsed = pxv_obs::export::parse_json(&json).unwrap();
    let Some(pxv_obs::export::JsonValue::Array(event_list)) = parsed.get("traceEvents") else {
        panic!("traceEvents array");
    };
    let field = |e: &pxv_obs::export::JsonValue, key: &str| {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(|v| v.as_num())
            .unwrap() as u64
    };
    let name_of: std::collections::HashMap<u64, String> = event_list
        .iter()
        .map(|e| {
            let name = match e.get("name") {
                Some(pxv_obs::export::JsonValue::Str(s)) => s.clone(),
                other => panic!("string name, got {other:?}"),
            };
            (field(e, "span_id"), name)
        })
        .collect();
    let answer_event = event_list
        .iter()
        .find(|e| name_of[&field(e, "span_id")] == "answer")
        .expect("an answer span in the dump");
    assert_eq!(
        name_of
            .get(&field(answer_event, "parent_id"))
            .map(String::as_str),
        Some("request"),
        "the answer span is parented under its request span"
    );
    // Draining consumes: a second dump never repeats a span (the
    // recorder is shared process-wide, so concurrent tests may add new
    // spans — but dumped ids can never reappear).
    let again = c.trace_dump().unwrap();
    pxv_obs::export::check_chrome_trace(&again).expect("second dump validates");
    let reparsed = pxv_obs::export::parse_json(&again).unwrap();
    if let Some(pxv_obs::export::JsonValue::Array(later)) = reparsed.get("traceEvents") {
        for e in later {
            assert!(
                !name_of.contains_key(&field(e, "span_id")),
                "span dumped twice"
            );
        }
    }

    // The slow log captured the burst's trees: records that ran under
    // the recorder carry a rendered tree rooted at their request span.
    let (_, records) = c.slow().unwrap();
    let with_trace: Vec<_> = records.iter().filter_map(|r| r.trace.as_ref()).collect();
    assert!(
        !with_trace.is_empty(),
        "threshold 0 + TRACE ON attaches trees"
    );
    for tree in with_trace {
        assert!(tree.lines().next().unwrap().starts_with("trace "), "{tree}");
        assert!(
            tree.lines()
                .nth(1)
                .unwrap()
                .trim_start()
                .starts_with("request"),
            "{tree}"
        );
    }

    c.quit().unwrap();
    handle.shutdown();
}

/// The `SHUTDOWN` admin verb: the server acknowledges, then drains and
/// joins — `wait()` returning (rather than hanging) is the assert. This
/// is the graceful path `prxview serve --store` uses to snapshot on the
/// way out.
#[test]
fn shutdown_verb_stops_the_server_gracefully() {
    let handle = provisioned_server(2, 8);
    let addr = handle.addr();
    let client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    // Joins every thread; completing is the assertion.
    handle.wait();
    // The listener is gone: new connections are refused or turned away.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server still answering after SHUTDOWN"),
    }
}
