//! Differential tests: every engine execution path — single-view TP
//! plans, TP∩ plans, direct fallback, and the concurrent batch path — is
//! checked against brute-force possible-worlds enumeration
//! (`pxml::worlds`) on randomized small documents, views and queries.
//! Parallel caching bugs are exactly the kind that slip past
//! example-based tests, so the batch path is additionally required to be
//! *bit-identical* to sequential answering at every thread count.

use prxview::engine::{DocId, Engine, Fallback, PlanPreference, QueryOptions};
use prxview::pxml::generators::{random_pdocument, RandomPDocConfig};
use prxview::pxml::{NodeId, PDocument};
use prxview::rewrite::View;
use prxview::tpq::generators::{random_pattern, RandomPatternConfig};
use prxview::tpq::TreePattern;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `q(P̂)` by brute force: enumerate `⟦P̂⟧` and, for every ordinary node,
/// sum the probability of the worlds where the query selects it. Ground
/// truth for everything the engine computes; exponential, so documents
/// stay tiny. Returns `None` when the world space exceeds the limit.
fn brute_force(pdoc: &PDocument, q: &TreePattern) -> Option<Vec<(NodeId, f64)>> {
    let space = pdoc.px_space_limited(1 << 14)?;
    let mut out: Vec<(NodeId, f64)> = pdoc
        .ordinary_ids()
        .map(|n| {
            let p =
                space.probability_where(|w| w.contains(n) && prxview::tpq::embed::selects(q, w, n));
            (n, p)
        })
        .filter(|&(_, p)| p > 1e-12)
        .collect();
    out.sort_by_key(|&(n, _)| n);
    Some(out)
}

fn assert_close(got: &[(NodeId, f64)], want: &[(NodeId, f64)], ctx: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{ctx}: answer sets differ\n got {got:?}\nwant {want:?}"
    );
    for ((n1, p1), (n2, p2)) in got.iter().zip(want) {
        assert_eq!(n1, n2, "{ctx}");
        assert!((p1 - p2).abs() < 1e-9, "{ctx}: node {n1}: {p1} vs {p2}");
    }
}

fn small_doc_cfg() -> RandomPDocConfig {
    RandomPDocConfig {
        max_depth: 4,
        max_children: 3,
        dist_density: 0.5,
        target_size: 12,
        ..RandomPDocConfig::default()
    }
}

/// TP path (and direct fallback) vs possible-worlds enumeration: the
/// catalog holds prefix views of the query, so most trials answer through
/// a TP plan; whatever route is taken must match the enumeration.
#[test]
fn tp_and_fallback_answers_match_possible_worlds() {
    let mut rng = StdRng::seed_from_u64(20260726);
    let doc_cfg = small_doc_cfg();
    let pat_cfg = RandomPatternConfig {
        mb_len: 3,
        preds_per_node: 0.5,
        pred_depth: 1,
        ..RandomPatternConfig::default()
    };
    let mut checked = 0usize;
    let mut planned = 0usize;
    for trial in 0..80 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        let q = random_pattern(&pat_cfg, &mut rng);
        let Some(want) = brute_force(&pdoc, &q) else {
            continue;
        };
        let mut engine = Engine::new();
        let doc = engine.add_document("rand", pdoc).unwrap();
        let views: Vec<View> = (1..=q.mb_len())
            .map(|k| View::new(format!("prefix{k}"), q.prefix(k)))
            .collect();
        engine.register_views(views).unwrap();
        let opts = QueryOptions::new().fallback(Fallback::Direct);
        let answer = engine.answer_with(doc, &q, &opts).expect("fallback on");
        if answer.from_views() {
            planned += 1;
        }
        assert_close(&answer.nodes, &want, &format!("trial {trial}: {q}"));
        checked += 1;
    }
    assert!(checked >= 40, "too few enumerable trials: {checked}");
    assert!(planned >= 20, "too few planned trials: {planned}/{checked}");
}

/// TP∩ path vs possible-worlds enumeration: per-main-branch-node
/// predicate restrictions of the query form the catalog, which TPIrewrite
/// can often recombine into an equivalent intersection.
#[test]
fn tpi_answers_match_possible_worlds() {
    let mut rng = StdRng::seed_from_u64(77);
    let doc_cfg = small_doc_cfg();
    let pat_cfg = RandomPatternConfig {
        mb_len: 2,
        preds_per_node: 1.2,
        pred_depth: 1,
        ..RandomPatternConfig::default()
    };
    let mut planned_tpi = 0usize;
    for trial in 0..80 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        let q = random_pattern(&pat_cfg, &mut rng);
        let Some(want) = brute_force(&pdoc, &q) else {
            continue;
        };
        let mut engine = Engine::new();
        let doc = engine.add_document("rand", pdoc).unwrap();
        // One view per main-branch node keeping only that node's
        // predicates, plus the bare main branch.
        let mut views: Vec<View> = q
            .main_branch()
            .iter()
            .enumerate()
            .filter(|&(_, &n)| q.has_predicates(n))
            .map(|(i, &n)| View::new(format!("v{i}"), q.filter_predicates(|m, _| m == n)))
            .collect();
        views.push(View::new("mb", q.main_branch_only()));
        engine.register_views(views).unwrap();
        let opts = QueryOptions::new()
            .plan_preference(PlanPreference::TpiOnly)
            .fallback(Fallback::Direct);
        let answer = engine.answer_with(doc, &q, &opts).expect("fallback on");
        if answer.from_views() {
            planned_tpi += 1;
        }
        assert_close(&answer.nodes, &want, &format!("trial {trial}: {q}"));
    }
    assert!(
        planned_tpi >= 10,
        "too few TP∩-planned trials: {planned_tpi}"
    );
}

/// The batch path vs possible-worlds enumeration *and* sequential
/// answering: one shared engine, several documents, a mixed query load.
/// Batch answers must be bit-identical (`==` on the f64s) to sequential
/// ones at every thread count — same plans, same extensions, same DP —
/// and correct against the enumeration whenever it is feasible.
#[test]
fn batch_answers_match_sequential_and_possible_worlds() {
    let mut rng = StdRng::seed_from_u64(4242);
    let doc_cfg = small_doc_cfg();
    let pat_cfg = RandomPatternConfig {
        mb_len: 2,
        preds_per_node: 0.6,
        pred_depth: 1,
        ..RandomPatternConfig::default()
    };
    let mut engine = Engine::new();
    let mut docs: Vec<DocId> = Vec::new();
    for i in 0..4 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        docs.push(engine.add_document(format!("d{i}"), pdoc).unwrap());
    }
    // A catalog of random views shared by every document.
    let views: Vec<View> = (0..6)
        .map(|i| View::new(format!("v{i}"), random_pattern(&pat_cfg, &mut rng)))
        .collect();
    engine.register_views(views).unwrap();
    let batch: Vec<(DocId, TreePattern)> = (0..48)
        .map(|i| (docs[i % docs.len()], random_pattern(&pat_cfg, &mut rng)))
        .collect();
    let opts = QueryOptions::new().fallback(Fallback::Direct);

    // Sequential ground truth on a fresh clone (cold catalog, like each
    // batch run below starts from). Clones share the lifetime counters,
    // so each run's work is the counter's delta across it.
    let mats = || engine.stats().materializations;
    let (sequential, seq_mats) = {
        let fresh = engine.clone();
        let before = mats();
        let answers: Vec<_> = batch
            .iter()
            .map(|(d, q)| fresh.answer_with(*d, q, &opts).expect("fallback on"))
            .collect();
        (answers, mats() - before)
    };
    // Spot-check the sequential answers against the enumeration.
    let mut enumerated = 0usize;
    for ((doc, q), answer) in batch.iter().zip(&sequential) {
        let pdoc = engine.document(*doc).unwrap();
        if let Some(want) = brute_force(&pdoc, q) {
            assert_close(&answer.nodes, &want, &format!("{q}"));
            enumerated += 1;
        }
    }
    assert!(enumerated >= 24, "too few enumerable queries: {enumerated}");

    for threads in [1usize, 2, 4, 8] {
        let fresh = engine.clone();
        let before = mats();
        let results = fresh.answer_batch_with(&batch, &opts, threads);
        for (i, (got, want)) in results.iter().zip(&sequential).enumerate() {
            let got = got.as_ref().expect("batch answer");
            assert_eq!(
                got.nodes, want.nodes,
                "threads={threads}, query {i}: batch must be bit-identical to sequential"
            );
            assert_eq!(got.description, want.description, "threads={threads}");
        }
        // Single-flight: concurrency must not duplicate any
        // materialization a sequential run performs exactly once.
        assert_eq!(
            mats() - before,
            seq_mats,
            "threads={threads}: batch materializes exactly what sequential does"
        );
    }
}
