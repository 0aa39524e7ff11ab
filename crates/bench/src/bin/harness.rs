//! The experiment harness: regenerates every figure/example of the paper
//! (E1–E12) and prints paper-value vs. measured-value tables, plus compact
//! versions of the scaling experiments (B1–B13; full statistics via
//! `cargo bench`). Output is recorded in EXPERIMENTS.md; sections B8–B13
//! also drop machine-readable `BENCH_<section>.json` files in the
//! working directory.
//!
//! ```sh
//! cargo run --release -p pxv-bench --bin harness            # all
//! cargo run --release -p pxv-bench --bin harness e6 e7 b4   # a subset
//! ```

use pxv_bench::*;
use pxv_pxml::examples_paper::*;
use pxv_pxml::generators::personnel;
use pxv_pxml::NodeId;
use pxv_rewrite::view::ProbExtension;
use pxv_rewrite::View;
use std::time::Instant;

struct Table {
    title: String,
    rows: Vec<(String, String, String, bool)>,
}

impl Table {
    fn new(title: impl Into<String>) -> Table {
        Table {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    fn row_num(&mut self, what: &str, paper: f64, measured: f64) {
        let ok = (paper - measured).abs() < 1e-9;
        self.rows.push((
            what.to_string(),
            format!("{paper:.6}"),
            format!("{measured:.6}"),
            ok,
        ));
    }

    fn row_str(&mut self, what: &str, paper: &str, measured: &str) {
        let ok = paper == measured;
        self.rows.push((
            what.to_string(),
            paper.to_string(),
            measured.to_string(),
            ok,
        ));
    }

    fn print(&self) -> bool {
        println!("\n== {} ==", self.title);
        println!("{:<52} {:>14} {:>14}  ok", "quantity", "paper", "measured");
        let mut all_ok = true;
        for (what, paper, measured, ok) in &self.rows {
            println!(
                "{:<52} {:>14} {:>14}  {}",
                what,
                paper,
                measured,
                if *ok { "✓" } else { "✗" }
            );
            all_ok &= ok;
        }
        all_ok
    }
}

fn e1() -> bool {
    let mut t = Table::new("E1 — Figures 1–2, Example 3: P̂PER semantics");
    let d = fig1_dper();
    let pper = fig2_pper();
    let space = pper.px_space();
    t.row_num(
        "Pr(dPER) (Example 3)",
        0.4725,
        space.probability_where(|w| w.id_set_key() == d.id_set_key()),
    );
    t.row_num("Σ Pr over ⟦P̂PER⟧", 1.0, space.total_probability());
    t.row_str("distinct worlds", "8", &space.len().to_string());
    t.print()
}

fn e2() -> bool {
    let mut t = Table::new("E2 — Figure 3, Examples 4–5: answers over dPER");
    let d = fig1_dper();
    let show = |q: &pxv_tpq::TreePattern| -> String {
        let v = pxv_tpq::embed::eval(q, &d);
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    t.row_str("qRBON(dPER)", "n5", &show(&qrbon()));
    t.row_str("qBON(dPER)", "n5", &show(&qbon()));
    t.row_str("v1BON(dPER)", "n5", &show(&v1bon().pattern));
    t.row_str("v2BON(dPER)", "n5,n7", &show(&v2bon().pattern));
    t.print()
}

fn e3() -> bool {
    let mut t = Table::new("E3 — Example 6: probabilistic answers over P̂PER");
    let pper = fig2_pper();
    let n5 = NodeId(5);
    t.row_num(
        "Pr(n5 ∈ qBON)",
        0.9,
        pxv_peval::eval_tp_at(&pper, &qbon(), n5),
    );
    t.row_num(
        "Pr(n5 ∈ v1BON)",
        0.75,
        pxv_peval::eval_tp_at(&pper, &v1bon().pattern, n5),
    );
    t.row_num(
        "Pr(n5 ∈ qRBON)",
        0.675,
        pxv_peval::eval_tp_at(&pper, &qrbon(), n5),
    );
    let v2 = pxv_peval::eval_tp(&pper, &v2bon().pattern);
    t.row_str(
        "v2BON(P̂PER)",
        "(n5,1) (n7,1)",
        &v2.iter()
            .map(|(n, p)| format!("({n},{p:.0})"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    t.print()
}

fn e4() -> bool {
    let mut t = Table::new("E4 — Figure 4, Examples 7–8: view extensions");
    let pper = fig2_pper();
    let ext1 = ProbExtension::materialize(&pper, &v1bon());
    t.row_str(
        "|results of (P̂PER)_v1BON|",
        "1",
        &ext1.results.len().to_string(),
    );
    t.row_num("β of n5 in (P̂PER)_v1BON", 0.75, ext1.results[0].prob);
    let ext2 = ProbExtension::materialize(&pper, &v2bon());
    t.row_str(
        "|results of (P̂PER)_v2BON|",
        "2",
        &ext2.results.len().to_string(),
    );
    t.row_num("β of n5 in (P̂PER)_v2BON", 1.0, ext2.results[0].prob);
    t.row_num("β of n7 in (P̂PER)_v2BON", 1.0, ext2.results[1].prob);
    t.print()
}

fn e5() -> bool {
    let mut t = Table::new("E5 — Examples 9–10: prefixes, suffixes, tokens");
    let q = qrbon();
    t.row_str(
        "tokens of qRBON",
        "t1=[1,1] t2=[2,3]",
        &q.token_ranges()
            .iter()
            .enumerate()
            .map(|(i, (a, b))| format!("t{}=[{a},{b}]", i + 1))
            .collect::<Vec<_>>()
            .join(" "),
    );
    t.row_str(
        "suffix q_(2)",
        "person[name/Rick]/bonus[laptop]",
        &q.suffix(2).to_string(),
    );
    t.row_str(
        "q′ (k = 3)",
        "IT-personnel//person[name/Rick]/bonus",
        &q.prefix(3).strip_output_predicates().to_string(),
    );
    t.row_str(
        "q″ (k = 3)",
        "IT-personnel//person/bonus[laptop]",
        &q.prefix(3).only_output_predicates().to_string(),
    );
    t.print()
}

fn e6() -> bool {
    let mut t = Table::new("E6 — Example 11 / Fig. 5 left: no fr despite qr");
    let q = pat("a/b[c]");
    let v = View::new("v", pat("a[.//c]/b"));
    let unf = pxv_tpq::comp(&v.pattern, &q.suffix(2));
    t.row_str(
        "deterministic rewriting exists (Fact 1)",
        "yes",
        if pxv_tpq::equivalent(&unf, &q) {
            "yes"
        } else {
            "no"
        },
    );
    t.row_num(
        "Pr(b ∈ q(P1))",
        0.325,
        pxv_peval::eval_tp_at(&fig5_p1(), &q, fig5_p1_b()),
    );
    t.row_num(
        "Pr(b ∈ q(P2))",
        0.5,
        pxv_peval::eval_tp_at(&fig5_p2(), &q, fig5_p2_b()),
    );
    let e1 = ProbExtension::materialize(&fig5_p1(), &v);
    let e2 = ProbExtension::materialize(&fig5_p2(), &v);
    t.row_num("β of b in (P̂1)_v", 0.65, e1.results[0].prob);
    t.row_num("β of b in (P̂2)_v", 0.65, e2.results[0].prob);
    t.row_str(
        "v′ ⊥ q″",
        "no",
        if pxv_rewrite::c_independent(
            &v.pattern.strip_output_predicates(),
            &q.prefix(2).only_output_predicates(),
        ) {
            "yes"
        } else {
            "no"
        },
    );
    t.row_str(
        "TPrewrite accepts",
        "no",
        if pxv_rewrite::tp_rewrite(&q, &[v]).is_empty() {
            "no"
        } else {
            "yes"
        },
    );
    t.print()
}

fn e7() -> bool {
    let mut t = Table::new("E7 — Example 12 / Fig. 5 right: prefix-suffix obstruction");
    let q = pat("a//b[e]/c/b/c//d");
    let v = View::new("v", pat("a//b[e]/c/b/c"));
    let (nc1, nc2, nd) = fig5_chain_nodes();
    t.row_num(
        "Pr(nd ∈ q(P3))",
        0.288,
        pxv_peval::eval_tp_at(&fig5_p3(), &q, nd),
    );
    t.row_num(
        "Pr(nd ∈ q(P4))",
        0.264,
        pxv_peval::eval_tp_at(&fig5_p4(), &q, nd),
    );
    for (name, pdoc) in [("P3", fig5_p3()), ("P4", fig5_p4())] {
        t.row_num(
            &format!("Pr(nc1 ∈ v({name}))"),
            0.12,
            pxv_peval::eval_tp_at(&pdoc, &v.pattern, nc1),
        );
        t.row_num(
            &format!("Pr(nc2 ∈ v({name}))"),
            0.24,
            pxv_peval::eval_tp_at(&pdoc, &v.pattern, nc2),
        );
    }
    let token = v.pattern.last_token();
    let u = pxv_tpq::pattern::max_prefix_suffix(&token.mb_labels(1, token.mb_len()));
    t.row_str("u (max prefix-suffix of last token)", "2", &u.to_string());
    t.row_str(
        "TPrewrite accepts",
        "no",
        if pxv_rewrite::tp_rewrite(&q, &[v]).is_empty() {
            "no"
        } else {
            "yes"
        },
    );
    t.print()
}

fn e8() -> bool {
    let mut t = Table::new("E8 — Example 13 / Theorem 1: restricted fr");
    let pper = fig2_pper();
    let views = [v2bon()];
    let rs = pxv_rewrite::tp_rewrite(&qbon(), &views);
    t.row_str(
        "plan found & restricted",
        "yes",
        if rs[0].restricted { "yes" } else { "no" },
    );
    let ext = ProbExtension::materialize(&pper, &views[0]);
    t.row_num(
        "fr(n5) = Pr(n5 ∈ qr(Pv)) ÷ Pr(n5 ∈ v(3)(P^n5_v))",
        0.9,
        pxv_rewrite::fr_tp::fr_tp(&rs[0], &ext, NodeId(5)),
    );
    t.row_num(
        "fr(n7)",
        0.0,
        pxv_rewrite::fr_tp::fr_tp(&rs[0], &ext, NodeId(7)),
    );
    t.print()
}

fn e9() -> bool {
    let mut t = Table::new("E9 — Theorem 2 accept/reject matrix");
    use pxv_rewrite::tp_rewrite::{try_view, TpReject};
    let cases: Vec<(&str, &str, &str)> = vec![
        ("a//b[e]/c/b/c//d", "a//b[e]/c/b/c", "reject:prefix-suffix"),
        ("a//b/c/b/c[e]//d", "a//b/c/b/c[e]", "accept(u=2)"),
        ("a//b[e]/c//d", "a//b[e]/c", "accept(u=0)"),
        ("a/b[c]", "a[.//c]/b", "reject:c-dependence"),
        (
            "IT-personnel//person/bonus[laptop]",
            "IT-personnel//person/bonus",
            "accept(restricted)",
        ),
    ];
    for (qs, vs, expected) in cases {
        let q = pat(qs);
        let views = [View::new("v", pat(vs))];
        let got = match try_view(&q, &views, 0) {
            Ok(rw) if rw.restricted => "accept(restricted)".to_string(),
            Ok(rw) => format!("accept(u={})", rw.u),
            Err(TpReject::PrefixSuffixPredicates) => "reject:prefix-suffix".to_string(),
            Err(TpReject::NotCIndependent) => "reject:c-dependence".to_string(),
            Err(e) => format!("reject:{e:?}"),
        };
        t.row_str(&format!("q={qs} v={vs}"), expected, &got);
    }
    t.print()
}

fn e10() -> bool {
    let mut t = Table::new("E10 — Example 15 / Theorem 3: product fr");
    let pper = fig2_pper();
    let views = vec![v1bon(), v2bon()];
    let rw = pxv_rewrite::tpi_rewrite(&qrbon(), &views, 5_000).expect("plan");
    let exts: Vec<ProbExtension> = views
        .iter()
        .map(|v| ProbExtension::materialize(&pper, v))
        .collect();
    let ans = pxv_rewrite::answer::answer_tpi(&rw, &exts);
    t.row_str(
        "answers",
        "n5",
        &ans.iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    t.row_num("fr(n5) = 0.75 × 0.9 ÷ 1", 0.675, ans[0].1);
    t.print()
}

fn e11() -> bool {
    let mut t = Table::new("E11 — Example 16 / Theorem 5: the S(q,V) system");
    let q = pat("a[1]/b[2]/c[3]/d");
    let views = vec![
        pat("a[1]/b/c[3]/d"),
        pat("a/b[2]/c[3]/d"),
        pat("a[1]/b[2]/c/d"),
        pat("a//d"),
    ];
    let sys = pxv_rewrite::system::build_system(&q, &views);
    t.row_str(
        "S(q,V) solvable",
        "yes",
        if sys.is_solvable() { "yes" } else { "no" },
    );
    t.row_str(
        "coefficients (v1..v4)",
        "1/2 1/2 1/2 -1/2",
        &sys.coefficients
            .clone()
            .map(|c| {
                c.iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default(),
    );
    let sys3 = pxv_rewrite::system::build_system(&q, &views[..3]);
    t.row_str(
        "solvable without v4 (appearance)",
        "no",
        if sys3.is_solvable() { "yes" } else { "no" },
    );
    t.row_str(
        "# d-view variables (Pr(1), Pr(2), Pr(3))",
        "3",
        &sys.decomposition.dviews.len().to_string(),
    );
    t.print()
}

fn e12() -> bool {
    let mut t = Table::new("E12 — Theorem 4: matching ⇔ c-independent rewriting");
    use pxv_rewrite::hardness::*;
    let cases: Vec<(usize, Vec<Vec<usize>>)> = vec![
        (4, vec![vec![1, 2], vec![3, 4]]),
        (4, vec![vec![1, 2], vec![2, 3]]),
        (6, vec![vec![1, 2, 3], vec![4, 5, 6], vec![2, 3, 4]]),
        (6, vec![vec![1, 2, 3], vec![3, 4, 5], vec![5, 6, 1]]),
    ];
    for (s, edges) in cases {
        let direct = matching_direct(s, &edges);
        let via = matching_via_rewriting(s, &edges);
        t.row_str(
            &format!("s={s} E={edges:?}"),
            if direct { "matching" } else { "none" },
            if via { "matching" } else { "none" },
        );
    }
    t.print()
}

fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

/// Minimal JSON emitter for the per-section `BENCH_<section>.json`
/// artifacts (std-only; metrics keep insertion order). Machine-readable
/// counterpart of the printed tables, so CI and trend tooling can diff
/// runs without scraping stdout.
struct Json {
    section: &'static str,
    rows: Vec<(String, String)>,
}

impl Json {
    fn new(section: &'static str) -> Json {
        Json {
            section,
            rows: Vec::new(),
        }
    }

    fn num(&mut self, key: impl Into<String>, v: f64) {
        self.rows.push((key.into(), format!("{v:.6}")));
    }

    fn int(&mut self, key: impl Into<String>, v: u64) {
        self.rows.push((key.into(), v.to_string()));
    }

    fn write(self) {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v}"))
            .collect();
        let text = format!(
            "{{\n  \"section\": \"{}\",\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            self.section,
            body.join(",\n")
        );
        let path = format!("BENCH_{}.json", self.section);
        match std::fs::write(&path, text) {
            Ok(()) => println!("  wrote {path}"),
            Err(e) => println!("  (skipping {path}: {e})"),
        }
    }
}

fn b_compact() {
    println!("\n== B1–B13 compact scaling runs (full statistics: cargo bench) ==");

    // B1: c-independence PTime shape.
    println!("\n[B1] c-independence test vs pattern size (Prop. 2):");
    for s in [2usize, 4, 8, 12, 16] {
        let q1 = chain_query(s);
        let q2 = chain_query(s);
        let t0 = Instant::now();
        let r = pxv_rewrite::c_independent(&q1, &q2);
        println!(
            "  s={s:2}: {:>12}  (dependent: {})",
            fmt_ms(t0.elapsed()),
            !r
        );
    }

    // B2: TPrewrite PTime shape.
    println!("\n[B2] TPrewrite vs |q| and |V| (Prop. 4):");
    for s in [2usize, 4, 8, 12] {
        let q = wide_query(s, true);
        let views: Vec<View> = (1..=q.mb_len())
            .map(|k| View::new(format!("v{k}"), q.prefix(k)))
            .collect();
        let t0 = Instant::now();
        let rs = pxv_rewrite::tp_rewrite(&q, &views);
        println!(
            "  |mb(q)|={:2} |V|={:2}: {:>12}  ({} plans)",
            q.mb_len(),
            views.len(),
            fmt_ms(t0.elapsed()),
            rs.len()
        );
    }

    // B3: evaluation scaling in data and in query.
    println!("\n[B3] p-document evaluation (data-PTime / query-exponential, [22]):");
    for copies in [4usize, 16, 64, 256] {
        let q = wide_query(4, false);
        let p = chain_pdoc(4, copies);
        let t0 = Instant::now();
        let _ = pxv_peval::eval_tp(&p, &q);
        println!("  data |P̂|={:5}: {:>12}", p.len(), fmt_ms(t0.elapsed()));
    }
    for n in [2usize, 4, 8, 12] {
        let q = wide_query(n, false);
        let p = chain_pdoc(n, 8);
        let t0 = Instant::now();
        let _ = pxv_peval::eval_tp(&p, &q);
        println!(
            "  query |q|={:2} (|P̂|={:4}): {:>12}",
            q.len(),
            p.len(),
            fmt_ms(t0.elapsed())
        );
    }

    // B4: interleavings blow-up vs forced merges.
    println!("\n[B4] TP∩ interleavings (Cor. 2 boundary):");
    for k in [2usize, 3, 4, 5] {
        let parts: Vec<pxv_tpq::TreePattern> = (0..k)
            .map(|i| {
                let mut s = String::from("r");
                s.push_str(&format!("//m{i}[x]"));
                s.push_str("//out");
                pat(&s)
            })
            .collect();
        let inter = pxv_tpq::TpIntersection::new(parts);
        let t0 = Instant::now();
        let n = inter.interleavings(1_000_000).map(|v| v.len());
        println!(
            "  k={k}: {:>12}  interleavings={:?}  (//-separated middles)",
            fmt_ms(t0.elapsed()),
            n
        );
    }
    for k in [2usize, 3, 4, 5] {
        let parts: Vec<pxv_tpq::TreePattern> =
            (0..k).map(|i| pat(&format!("r/m[x{i}]/out"))).collect();
        let inter = pxv_tpq::TpIntersection::new(parts);
        let t0 = Instant::now();
        let n = inter.interleavings(1_000_000).map(|v| v.len());
        println!(
            "  k={k}: {:>12}  interleavings={:?}  (/-forced, extended-skeleton-like)",
            fmt_ms(t0.elapsed()),
            n
        );
    }

    // B5: views vs direct.
    println!("\n[B5] answering via views vs direct evaluation (motivation, §1/§7):");
    for persons in [50usize, 200, 800] {
        let (pdoc, _) = personnel(persons, 3, 9);
        let q = qbon();
        let view = v2bon();
        let t0 = Instant::now();
        let direct = pxv_rewrite::answer_direct(&pdoc, &q);
        let t_direct = t0.elapsed();
        // One-time materialization…
        let t1 = Instant::now();
        let ext = ProbExtension::materialize(&pdoc, &view);
        let t_mat = t1.elapsed();
        // …then answering from the extension.
        let rs = pxv_rewrite::tp_rewrite(&q, std::slice::from_ref(&view));
        let t2 = Instant::now();
        let via = pxv_rewrite::fr_tp::answer_tp(&rs[0], &ext);
        let t_ans = t2.elapsed();
        assert_eq!(via.len(), direct.len());
        println!(
            "  |P̂|={:6}: direct {:>12}  materialize {:>12}  answer-from-view {:>12}  ({:.1}× faster)",
            pdoc.len(),
            fmt_ms(t_direct),
            fmt_ms(t_mat),
            fmt_ms(t_ans),
            t_direct.as_secs_f64() / t_ans.as_secs_f64()
        );
    }

    // B6: NP-hard cover search growth.
    println!("\n[B6] exhaustive c-independent cover search (Thm. 4):");
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(5);
    for m in [4usize, 8, 12, 16] {
        let edges = pxv_rewrite::hardness::random_hypergraph(6, 2, m, &mut rng);
        let (q, views) = pxv_rewrite::hardness::hypergraph_instance(6, &edges);
        let t0 = Instant::now();
        let found = pxv_rewrite::tpi_rewrite::find_c_independent_cover(&q, &views, 10_000);
        println!(
            "  |E|={m:2}: {:>12}  (cover: {})",
            fmt_ms(t0.elapsed()),
            found.is_some()
        );
    }

    // B7: S(q,V) build+solve scaling.
    println!("\n[B7] d-view decomposition + S(q,V) solve (Prop. 5):");
    for n in [2usize, 4, 8, 12] {
        let q = wide_query(n, false);
        let views = decomposition_views(&q);
        let t0 = Instant::now();
        let sys = pxv_rewrite::system::build_system(&q, &views);
        println!(
            "  |mb(q)|={:2} |V|={:2}: {:>12}  (solvable: {})",
            q.mb_len(),
            views.len(),
            fmt_ms(t0.elapsed()),
            sys.is_solvable()
        );
    }

    // B8: engine catalog amortization (cold vs warm; full statistics in
    // benches/engine_cache.rs).
    println!("\n[B8] engine cold vs warm catalog (memoized extensions):");
    {
        let mut json = Json::new("B8");
        for persons in [50usize, 200, 800] {
            use prxview::engine::Engine;
            let (pdoc, _) = personnel(persons, 3, 9);
            let q = qbon();
            let mut engine = Engine::new();
            let doc = engine.add_document("p", pdoc).unwrap();
            engine.register_view(v2bon()).unwrap();
            let t0 = Instant::now();
            let cold = engine.answer(doc, &q).expect("plan");
            let t_cold = t0.elapsed();
            let t1 = Instant::now();
            let warm = engine.answer(doc, &q).expect("plan");
            let t_warm = t1.elapsed();
            assert_eq!(warm.stats.materializations, 0);
            assert_eq!(warm.nodes, cold.nodes);
            println!(
                "  persons={persons:4}: cold {:>12} ({} materialized)  warm {:>12}  ({:.1}× faster)",
                fmt_ms(t_cold),
                cold.stats.materializations,
                fmt_ms(t_warm),
                t_cold.as_secs_f64() / t_warm.as_secs_f64()
            );
            json.num(
                format!("persons={persons}.cold_ms"),
                t_cold.as_secs_f64() * 1e3,
            );
            json.num(
                format!("persons={persons}.warm_ms"),
                t_warm.as_secs_f64() * 1e3,
            );
        }
        json.write();
    }

    // B9: concurrent batch throughput over a warm sharded catalog
    // (tentpole of the concurrency PR; full statistics in
    // benches/engine_batch.rs). Every thread count must produce answers
    // identical to the single-threaded run, with zero re-materialization.
    println!("\n[B9] concurrent batch throughput (warm sharded catalog, 64 queries):");
    {
        use prxview::engine::Engine;
        let (pdoc, _) = personnel(200, 3, 9);
        let mut engine = Engine::new();
        let doc = engine.add_document("p", pdoc).unwrap();
        engine.register_views([v1bon(), v2bon()]).unwrap();
        engine.warm(doc).unwrap();
        let batch: Vec<_> = batch_queries(64).into_iter().map(|q| (doc, q)).collect();
        let baseline = engine.answer_batch_with(&batch, engine.options(), 1);
        let warm_mats = engine.stats().materializations;
        let mut json = Json::new("B9");
        for threads in [1usize, 2, 4, 8] {
            let t0 = Instant::now();
            let results = engine.answer_batch_with(&batch, engine.options(), threads);
            let dt = t0.elapsed();
            for (got, want) in results.iter().zip(&baseline) {
                assert_eq!(
                    got.as_ref().unwrap().nodes,
                    want.as_ref().unwrap().nodes,
                    "batch answers must be identical to sequential"
                );
            }
            assert_eq!(
                engine.stats().materializations,
                warm_mats,
                "warm batches must never re-materialize"
            );
            println!(
                "  threads={threads}: {:>12}  ({:>8.0} q/s)",
                fmt_ms(dt),
                batch.len() as f64 / dt.as_secs_f64()
            );
            json.num(
                format!("threads={threads}.qps"),
                batch.len() as f64 / dt.as_secs_f64(),
            );
        }
        json.write();
    }

    // B10: the TCP serving layer (tentpole of the prxd PR). A warm
    // engine behind a loopback server; closed-loop clients split a fixed
    // request budget across 1/2/4/8 connections. Answers must be
    // bit-identical to in-process `Engine::answer` and protocol-error
    // free; the speedup column shows how much concurrency the host gives
    // (connection scaling is core-bound for this CPU-heavy mix — on a
    // single-core container it reports ~1×; `prxload` measures the same
    // against a standalone server).
    println!("\n[B10] TCP serving layer (loopback, warm engine, closed-loop clients):");
    {
        use prxview::engine::Engine;
        use pxv_server::client::Client;
        use pxv_server::serve::{serve, ServerConfig};
        let (pdoc, _) = personnel(25, 3, 9);
        let mut engine = Engine::new();
        let doc = engine.add_document("p", pdoc).unwrap();
        engine.register_views([v1bon(), v2bon()]).unwrap();
        engine.warm(doc).unwrap();
        let mix: Vec<String> = batch_queries(5).iter().map(|q| q.to_string()).collect();
        let expected: Vec<_> = batch_queries(5)
            .iter()
            .map(|q| engine.answer(doc, q).unwrap().nodes)
            .collect();
        let handle = serve(
            engine,
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 8,
                max_connections: 64,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let addr = handle.addr();
        const TOTAL_REQUESTS: usize = 200;
        let mut single_qps = 0.0;
        let mut json = Json::new("B10");
        for conns in [1usize, 2, 4, 8] {
            let per_conn = TOTAL_REQUESTS / conns;
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for c in 0..conns {
                    let mix = &mix;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        for r in 0..per_conn {
                            let i = (c + r) % mix.len();
                            let answer = client.query_text("p", &mix[i]).expect("answer");
                            assert_eq!(
                                answer.nodes, expected[i],
                                "wire answers must be bit-identical to Engine::answer"
                            );
                        }
                        let _ = client.quit();
                    });
                }
            });
            let dt = t0.elapsed();
            let qps = (conns * per_conn) as f64 / dt.as_secs_f64();
            if conns == 1 {
                single_qps = qps;
            }
            println!(
                "  connections={conns}: {:>12}  ({:>8.0} q/s aggregate, {:.2}× vs 1 conn)",
                fmt_ms(dt),
                qps,
                qps / single_qps
            );
            json.num(format!("connections={conns}.qps"), qps);
        }
        let stats = handle.stats();
        println!(
            "  server: {} request(s), {} error(s), p50 {} µs, p99 {} µs",
            stats.requests, stats.errors, stats.p50_us, stats.p99_us
        );
        assert_eq!(stats.errors, 0, "B10 burst must be protocol-error free");
        json.int("requests", stats.requests);
        json.int("p50_us", stats.p50_us);
        json.int("p99_us", stats.p99_us);
        json.write();
        handle.shutdown();
    }

    // B11: the persistent store (tentpole of the pxv-store PR). Cold
    // start = parse the document text, register views, warm the catalog,
    // answer a first query; snapshot-restore start = read the binary
    // snapshot and answer the same query from the restored (already
    // warm) cache. The restored answer must be bit-identical with zero
    // materializations — the snapshot is startup cost made durable.
    println!("\n[B11] snapshot store: cold parse+warm-up vs snapshot restore (pxv-store):");
    {
        use prxview::engine::Engine;
        use pxv_pxml::text::parse_pdocument;
        let q = qbon();
        let mut json = Json::new("B11");
        for persons in [50usize, 200, 800] {
            let (pdoc, _) = personnel(persons, 3, 9);
            let text = pdoc.to_string();
            // Cold start: parse + register + warm + first query.
            let t0 = Instant::now();
            let parsed = parse_pdocument(&text).expect("generated text re-parses");
            let mut engine = Engine::new();
            let doc = engine.add_document("p", parsed).unwrap();
            engine.register_views([v1bon(), v2bon()]).unwrap();
            engine.warm(doc).unwrap();
            let cold_first = engine.answer(doc, &q).expect("plan");
            let t_cold = t0.elapsed();
            // Snapshot the warm engine.
            let path =
                std::env::temp_dir().join(format!("pxv-b11-{}-{persons}.pxv", std::process::id()));
            let t1 = Instant::now();
            let bytes = engine.snapshot_to(&path).expect("snapshot");
            let t_save = t1.elapsed();
            // Restore + first query (the warm path).
            let t2 = Instant::now();
            let restored = Engine::restore_from(&path).expect("restore");
            let t_restore = t2.elapsed();
            let rdoc = restored.find_document("p").expect("doc restored");
            let t3 = Instant::now();
            let warm_first = restored.answer(rdoc, &q).expect("plan");
            let t_first = t3.elapsed();
            assert_eq!(
                warm_first.nodes, cold_first.nodes,
                "restored answers must be bit-identical"
            );
            assert_eq!(warm_first.stats.materializations, 0, "restore is warm");
            assert_eq!(restored.stats().materializations, 0);
            std::fs::remove_file(&path).ok();
            println!(
                "  persons={persons:4}: cold parse+warm+query {:>12}  snapshot {:>12} \
                 ({:>9} bytes)  restore {:>12}  first-query {:>12}  ({:.1}× faster start)",
                fmt_ms(t_cold),
                fmt_ms(t_save),
                bytes,
                fmt_ms(t_restore),
                fmt_ms(t_first),
                t_cold.as_secs_f64() / (t_restore + t_first).as_secs_f64()
            );
            json.num(
                format!("persons={persons}.cold_ms"),
                t_cold.as_secs_f64() * 1e3,
            );
            json.num(
                format!("persons={persons}.restore_ms"),
                (t_restore + t_first).as_secs_f64() * 1e3,
            );
            json.int(format!("persons={persons}.snapshot_bytes"), bytes);
        }
        json.write();
    }

    // B12: incremental view-extension maintenance (tentpole of the
    // updates PR). A warm engine takes one localized edit (reweigh a mux
    // branch inside a single person) and re-answers qBON. Incremental =
    // `Engine::apply_edits` (cached extensions maintained by delta);
    // full = invalidate + rematerialize-on-query, the pre-update-path
    // behavior. Both must produce answers bit-identical to a cold engine
    // built from the post-edit document; the incremental path must stay
    // fallback-free on these localized edits.
    println!("\n[B12] incremental edit+re-query vs invalidate+rematerialize (updates):");
    {
        use prxview::engine::Engine;
        use pxv_pxml::edit::Edit;
        use pxv_pxml::PKind;
        let q = qbon();
        let mut json = Json::new("B12");
        for persons in [50usize, 200, 800] {
            let (pdoc, _) = personnel(persons, 3, 9);
            // A mux-weighted edge deep inside one person subtree.
            let edit_site = pdoc
                .node_ids()
                .filter(|&n| {
                    pdoc.parent(n)
                        .is_some_and(|p| matches!(pdoc.kind(p), PKind::Mux))
                })
                .min()
                .expect("personnel has mux edges");
            let edit = Edit::SetProb {
                node: edit_site,
                prob: 0.5,
            };
            let build = || {
                let mut engine = Engine::new();
                let doc = engine.add_document("p", pdoc.clone()).unwrap();
                engine.register_views([v1bon(), v2bon()]).unwrap();
                engine.warm(doc).unwrap();
                (engine, doc)
            };
            // Incremental: apply_edits maintains both cached extensions.
            let (mut engine, doc) = build();
            let t0 = Instant::now();
            let report = engine
                .apply_edits(doc, std::slice::from_ref(&edit))
                .unwrap();
            let t_maint = t0.elapsed();
            let incr = engine.answer(doc, &q).expect("plan");
            let t_incr = t0.elapsed();
            assert_eq!(
                report.delta_fallbacks, 0,
                "localized edit stays incremental"
            );
            assert_eq!(incr.stats.materializations, 0, "maintained cache is warm");
            // Full: the pre-update-path alternative — replace the
            // document (evicting the cache) and rematerialize the same
            // extension set before answering.
            let (mut engine2, doc2) = build();
            let mut edited = pdoc.clone();
            edited.apply_edit(&edit).unwrap();
            let t1 = Instant::now();
            engine2.replace_document(doc2, edited.clone()).unwrap();
            engine2.warm(doc2).unwrap();
            let t_remat = t1.elapsed();
            let full = engine2.answer(doc2, &q).expect("plan");
            let t_full = t1.elapsed();
            // Both bit-identical to a cold post-edit engine.
            let mut cold = Engine::new();
            let cd = cold.add_document("p", edited).unwrap();
            cold.register_views([v1bon(), v2bon()]).unwrap();
            let want = cold.answer(cd, &q).expect("plan");
            assert_eq!(incr.nodes, want.nodes, "incremental bit-identical");
            assert_eq!(full.nodes, want.nodes, "full bit-identical");
            assert!(
                t_maint < t_remat,
                "incremental maintenance must beat rematerialization \
                 ({t_maint:?} vs {t_remat:?})"
            );
            println!(
                "  persons={persons:4}: delta-maintain {:>10} vs rematerialize {:>10} \
                 ({:.1}× faster); edit+query {:>10} vs {:>10}",
                fmt_ms(t_maint),
                fmt_ms(t_remat),
                t_remat.as_secs_f64() / t_maint.as_secs_f64(),
                fmt_ms(t_incr),
                fmt_ms(t_full),
            );
            json.num(
                format!("persons={persons}.maintain_ms"),
                t_maint.as_secs_f64() * 1e3,
            );
            json.num(
                format!("persons={persons}.rematerialize_ms"),
                t_remat.as_secs_f64() * 1e3,
            );
        }
        json.write();
    }

    // B13: the byte-budgeted extension cache + workload advisor
    // (tentpole of the pxv-advisor PR). A zipf-skewed document mix runs
    // against two engines: one unbounded, one capped at 50% of the
    // unbounded footprint. Score-driven eviction must keep the hot set
    // resident, every budgeted answer must stay bit-identical to the
    // unbounded engine's, the byte gauge must respect the budget at
    // every quiesced checkpoint, and the budgeted pass must stay within
    // 2× of unbounded throughput. The advisor then mines the budgeted
    // engine's own query log.
    println!("\n[B13] byte-budgeted cache at 50% footprint (zipf mix) + advisor:");
    {
        use prxview::engine::{AdviseOptions, Engine};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let q = qbon();
        let n_docs = 8usize;
        let build = || {
            let mut engine = Engine::new();
            let docs: Vec<_> = (0..n_docs)
                .map(|i| {
                    let (pdoc, _) = personnel(60, 3, 9);
                    engine.add_document(format!("p{i}"), pdoc).unwrap()
                })
                .collect();
            engine.register_views([v1bon(), v2bon()]).unwrap();
            (engine, docs)
        };
        // Unbounded baseline: fully warm, measure the footprint.
        let (unbounded, docs) = build();
        for &d in &docs {
            unbounded.warm(d).unwrap();
        }
        let unbounded_bytes = unbounded.cache_bytes();
        let expected: Vec<_> = docs
            .iter()
            .map(|&d| unbounded.answer(d, &q).unwrap().nodes)
            .collect();
        // Zipf-skewed document trace (weight ∝ 1/rank³, fixed seed): the
        // head documents dominate, the tail is visited rarely — the
        // access pattern a demand-driven cache exists for.
        let weights: Vec<f64> = (0..n_docs)
            .map(|i| 1.0 / ((i + 1) as f64).powi(3))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(13);
        let trace: Vec<usize> = (0..400)
            .map(|_| {
                let mut x = rng.gen::<f64>() * total;
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        return i;
                    }
                    x -= w;
                }
                n_docs - 1
            })
            .collect();
        // Budgeted engine: warm, then cap at 50% (evicts down), then one
        // adaptation pass so residency reflects demand, then the timed
        // pass on both engines.
        let (budgeted, bdocs) = build();
        for &d in &bdocs {
            budgeted.warm(d).unwrap();
        }
        let budget = unbounded_bytes / 2;
        budgeted.set_cache_budget(budget);
        assert!(
            budgeted.cache_bytes() <= budget,
            "gauge over budget after set_cache_budget"
        );
        for &i in &trace {
            let a = budgeted.answer(bdocs[i], &q).unwrap();
            assert_eq!(
                a.nodes, expected[i],
                "budgeted answers must be bit-identical"
            );
        }
        assert!(
            budgeted.cache_bytes() <= budget,
            "gauge over budget after adaptation pass"
        );
        let t0 = Instant::now();
        for &i in &trace {
            let a = unbounded.answer(docs[i], &q).unwrap();
            assert_eq!(a.nodes, expected[i]);
        }
        let t_unbounded = t0.elapsed();
        let t1 = Instant::now();
        for &i in &trace {
            let a = budgeted.answer(bdocs[i], &q).unwrap();
            assert_eq!(
                a.nodes, expected[i],
                "budgeted answers must be bit-identical"
            );
        }
        let t_budgeted = t1.elapsed();
        let stats = budgeted.stats();
        assert!(
            stats.cache_bytes <= budget,
            "quiesced gauge {} exceeds budget {budget}",
            stats.cache_bytes
        );
        assert!(stats.evictions > 0, "a 50% budget must actually evict");
        let ratio = t_budgeted.as_secs_f64() / t_unbounded.as_secs_f64();
        println!(
            "  footprint: unbounded {unbounded_bytes} B, budget {budget} B, resident {} B",
            stats.cache_bytes
        );
        println!(
            "  trace ({} queries): unbounded {:>12} ({:>8.0} q/s)  budgeted {:>12} ({:>8.0} q/s)  ratio {ratio:.2}×",
            trace.len(),
            fmt_ms(t_unbounded),
            trace.len() as f64 / t_unbounded.as_secs_f64(),
            fmt_ms(t_budgeted),
            trace.len() as f64 / t_budgeted.as_secs_f64(),
        );
        println!(
            "  evictions={} admission_rejects={} (hot set stays resident)",
            stats.evictions, stats.admission_rejects
        );
        assert!(
            ratio <= 2.0,
            "budgeted throughput ratio {ratio:.2} exceeds 2x"
        );
        // The budgeted engine logged the trace it just served; the
        // advisor mines that log (coverage > 0: the registered views
        // already answer qBON, and candidates are scored against the
        // remaining headroom).
        let report = budgeted.advise(&AdviseOptions::default());
        println!(
            "  advisor: {} logged, {} distinct, {} candidate(s), coverage {}",
            report.logged,
            report.distinct,
            report.candidates.len(),
            report.coverage()
        );
        assert!(report.logged >= trace.len() as u64, "trace was logged");
        let mut json = Json::new("B13");
        json.int("unbounded_bytes", unbounded_bytes);
        json.int("budget_bytes", budget);
        json.int("resident_bytes", stats.cache_bytes);
        json.int("evictions", stats.evictions);
        json.int("admission_rejects", stats.admission_rejects);
        json.num(
            "qps_unbounded",
            trace.len() as f64 / t_unbounded.as_secs_f64(),
        );
        json.num(
            "qps_budgeted",
            trace.len() as f64 / t_budgeted.as_secs_f64(),
        );
        json.num("throughput_ratio", ratio);
        json.int("advisor_logged", report.logged);
        json.int("advisor_distinct", report.distinct as u64);
        json.int("advisor_coverage", report.coverage() as u64);
        json.write();
    }
}

// B14: the evented serving layer under an UPDATE storm (tentpole of the
// MVCC PR). A warm engine behind a loopback server, connections = 8× the
// worker count (the old thread-per-connection design would starve 14 of
// them). Phase 1 measures quiescent client-observed p99; phase 2 repeats
// the identical read burst while one writer connection applies a
// continuous stream of UPDATEs (insert + delete of a bonus-less person,
// so every answer is unchanged). Readers ride published engine epochs:
// the storm p99 must stay within 3× the quiescent baseline (with a small
// floor absorbing scheduler noise on starved CI hosts) and every answer
// must stay bit-identical to in-process `Engine::answer`.
fn b14() {
    use prxview::engine::Engine;
    use pxv_pxml::edit::Edit;
    use pxv_pxml::text::parse_pdocument;
    use pxv_server::client::Client;
    use pxv_server::serve::{serve, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    const WORKERS: usize = 2;
    const CONNS: usize = 16; // 8× WORKERS — the acceptance ratio
    const PER_CONN: usize = 40;

    fn p99_us(samples: &Mutex<Vec<Duration>>) -> u64 {
        let mut v = std::mem::take(&mut *samples.lock().unwrap());
        v.sort();
        v[(v.len() * 99 / 100).min(v.len() - 1)].as_micros() as u64
    }

    println!("\n[B14] evented serving under UPDATE storm (MVCC epoch reads):");
    let (pdoc, _) = personnel(25, 3, 9);
    let root = pdoc.root();
    let mut engine = Engine::new();
    let doc = engine.add_document("p", pdoc).unwrap();
    engine.register_views([v1bon(), v2bon()]).unwrap();
    engine.warm(doc).unwrap();
    let mix: Vec<String> = batch_queries(5).iter().map(|q| q.to_string()).collect();
    let expected: Vec<_> = batch_queries(5)
        .iter()
        .map(|q| engine.answer(doc, q).unwrap().nodes)
        .collect();
    let handle = serve(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            max_connections: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let latencies = Mutex::new(Vec::with_capacity(CONNS * PER_CONN));
    let read_burst = |label: &str| {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CONNS {
                let (mix, expected, latencies) = (&mix, &expected, &latencies);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut local = Vec::with_capacity(PER_CONN);
                    for r in 0..PER_CONN {
                        let i = (c + r) % mix.len();
                        let q0 = Instant::now();
                        let answer = client.query_text("p", &mix[i]).expect("answer");
                        local.push(q0.elapsed());
                        assert_eq!(
                            answer.nodes, expected[i],
                            "wire answers must stay bit-identical to Engine::answer"
                        );
                    }
                    let _ = client.quit();
                    latencies.lock().unwrap().extend(local);
                });
            }
        });
        println!(
            "  {label}: {} connections × {PER_CONN} requests on {WORKERS} workers in {}",
            CONNS,
            fmt_ms(t0.elapsed())
        );
    };

    read_burst("quiescent");
    let p99_quiet = p99_us(&latencies);

    let storming = AtomicBool::new(true);
    let mut updates = 0u64;
    std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            let mut writer = Client::connect(addr).expect("connect writer");
            let subtree = parse_pdocument("person[name[Ghost]]").unwrap();
            let mut n = 0u64;
            while storming.load(Ordering::Relaxed) {
                let outcome = writer
                    .update(
                        "p",
                        &Edit::InsertSubtree {
                            parent: root,
                            prob: 1.0,
                            subtree: subtree.clone(),
                        },
                    )
                    .expect("storm insert");
                let ghost = outcome.inserted.expect("insert reports its root");
                writer
                    .update("p", &Edit::DeleteSubtree { node: ghost })
                    .expect("storm delete");
                n += 2;
            }
            let _ = writer.quit();
            n
        });
        read_burst("update storm");
        storming.store(false, Ordering::Relaxed);
        updates = storm.join().expect("storm thread");
    });
    let p99_storm = p99_us(&latencies);
    assert!(updates > 0, "the storm actually applied updates");

    // The acceptance bound: readers never wait on the writer's prepare
    // phase, so the storm can cost at most epoch-swap noise. The 5 ms
    // floor keeps a sub-millisecond quiescent baseline from turning
    // scheduler jitter into a flaky 3× violation.
    let bound_us = (3 * p99_quiet).max(5_000);
    let ratio = p99_storm as f64 / p99_quiet.max(1) as f64;
    println!(
        "  p99: quiescent {p99_quiet} µs, under storm {p99_storm} µs ({ratio:.2}×, \
         {updates} updates interleaved)"
    );
    assert!(
        p99_storm <= bound_us,
        "reader p99 under storm ({p99_storm} µs) exceeds bound ({bound_us} µs)"
    );
    let stats = handle.stats();
    assert_eq!(stats.errors, 0, "B14 must be protocol-error free");
    let mut json = Json::new("B14");
    json.int("workers", WORKERS as u64);
    json.int("connections", CONNS as u64);
    json.int("requests", stats.requests);
    json.int("updates", updates);
    json.int("p99_quiet_us", p99_quiet);
    json.int("p99_storm_us", p99_storm);
    json.num("storm_ratio", ratio);
    json.write();
    handle.shutdown();
}

// B15: per-query profiling cost and stage accounting. The warm B8
// workload (seeded personnel document, `v2BON` view, bonus query) is
// answered plain and profiled: each profiled query runs under a flight
// recorder and its stage breakdown is folded from the recorded spans
// (`QueryProfile::from_spans`, the same path as the server's `PROFILE`).
// The profiled path must account for its time — the stages must sum to
// within 10% of the root span's wall time — and both modes must produce
// bit-identical answers. (That an unrecorded span reads no clock is
// pinned by pxv-obs's `disabled_spans_record_nothing`.)
fn b15() {
    use prxview::engine::Engine;
    use prxview::obs::trace::in_flight;
    use prxview::obs::QueryProfile;

    const PERSONS: usize = 200;
    const REPS: usize = 7;
    const QUERIES_PER_REP: usize = 200;

    println!("\n[B15] per-query profiling: profiled-path overhead + stage accounting:");
    let (pdoc, _) = personnel(PERSONS, 3, 9);
    let q = qbon();
    let mut engine = Engine::new();
    let doc = engine.add_document("p", pdoc).unwrap();
    engine.register_view(v2bon()).unwrap();
    let baseline = engine.answer(doc, &q).expect("plan"); // warm the cache

    // One profiled query: its answer and the profile its spans fold to.
    let profiled = || {
        let (answer, records) = in_flight(|| engine.answer(doc, &q));
        (answer.expect("plan"), QueryProfile::from_spans(&records))
    };
    // Min-of-REPS timing of a loop of warm queries: the minimum is the
    // run least disturbed by the scheduler, which is what a code-path
    // cost comparison needs (a median still carries preemption noise).
    let time_ms = |profile: bool| -> f64 {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..QUERIES_PER_REP {
                    let answer = if profile {
                        profiled().0
                    } else {
                        engine.answer(doc, &q).expect("plan")
                    };
                    assert_eq!(
                        answer.nodes, baseline.nodes,
                        "profiling must never change answers"
                    );
                }
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain_ms = time_ms(false);
    let enabled_ms = time_ms(true);

    // Stage accounting: aggregate a profiled loop so one preempted query
    // cannot dominate the ratio.
    let (mut stage_sum, mut total_sum) = (0u64, 0u64);
    for _ in 0..QUERIES_PER_REP {
        let (_, profile) = profiled();
        assert!(profile.total_nanos > 0, "profiled total is measured");
        stage_sum += profile.stage_nanos_sum();
        total_sum += profile.total_nanos;
    }
    let stage_ratio = stage_sum as f64 / total_sum as f64;

    let overhead_enabled_pct = (enabled_ms / plain_ms - 1.0).max(0.0) * 100.0;
    println!(
        "  warm loop ({QUERIES_PER_REP} queries, min of {REPS}): plain {plain_ms:.3} ms, \
         profiled {enabled_ms:.3} ms ({overhead_enabled_pct:.2}% over)"
    );
    println!("  stage accounting: stages/total = {stage_ratio:.3} (bound: within 10%)");
    assert!(
        (0.9..=1.1).contains(&stage_ratio),
        "stage breakdown must sum to within 10% of wall time, got {stage_ratio:.3}"
    );

    let mut json = Json::new("B15");
    json.int("queries_per_rep", QUERIES_PER_REP as u64);
    json.num("plain_ms", plain_ms);
    json.num("enabled_ms", enabled_ms);
    json.num("overhead_enabled_pct", overhead_enabled_pct);
    json.num("stage_ratio", stage_ratio);
    json.write();
}

fn b16() {
    use prxview::engine::Engine;
    use prxview::obs::trace::{build_trees, in_flight};
    use prxview::obs::{Recorder, TraceContext};

    const PERSONS: usize = 200;
    const REPS: usize = 7;
    const QUERIES_PER_REP: usize = 200;

    println!("\n[B16] causal tracing: traced-path overhead + span-tree capture:");
    let (pdoc, _) = personnel(PERSONS, 3, 9);
    let q = qbon();
    let mut engine = Engine::new();
    let doc = engine.add_document("p", pdoc).unwrap();
    engine.register_view(v2bon()).unwrap();
    let baseline = engine.answer(doc, &q).expect("plan"); // warm the cache
    assert!(
        !Recorder::is_enabled(),
        "the harness runs with the process recorder off"
    );

    // Same min-of-REPS discipline as B15: the minimum is the run least
    // disturbed by the scheduler, which is what a code-path cost
    // comparison needs.
    let opts_off = engine.options().clone().trace(false);
    let opts_on = engine.options().clone().trace(true);
    let time_ms = |traced: bool| -> f64 {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..QUERIES_PER_REP {
                    let (_ctx, options) = if traced {
                        (Some(TraceContext::with_flight().install()), &opts_on)
                    } else {
                        (None, &opts_off)
                    };
                    let answer = engine.answer_with(doc, &q, options).expect("plan");
                    assert_eq!(
                        answer.nodes, baseline.nodes,
                        "tracing must never change answers"
                    );
                }
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };

    let plain_ms = time_ms(false);
    let enabled_ms = time_ms(true);

    // One traced query, checked structurally: the flight recorder holds
    // a single tree rooted at the engine's `answer` span with the
    // plan/eval stages as correctly-parented children.
    let (answer, records) = in_flight(|| engine.answer_with(doc, &q, &opts_on));
    answer.expect("plan");
    let spans_per_query = records.len() as u64;
    let trees = build_trees(&records);
    assert_eq!(trees.len(), 1, "one query, one trace");
    let root = &trees[0].roots[0];
    assert_eq!(root.record.name, "answer");
    for stage in ["plan", "eval"] {
        let child = root
            .children
            .iter()
            .find(|c| c.record.name == stage)
            .unwrap_or_else(|| panic!("missing `{stage}` child span"));
        assert_eq!(child.record.parent_id, root.record.span_id);
    }

    let overhead_enabled_pct = (enabled_ms / plain_ms - 1.0).max(0.0) * 100.0;
    println!(
        "  warm loop ({QUERIES_PER_REP} queries, min of {REPS}): plain {plain_ms:.3} ms, \
         traced {enabled_ms:.3} ms ({overhead_enabled_pct:.2}% over)"
    );
    println!("  span tree: {spans_per_query} spans/query, answer → plan/probe/eval");

    let mut json = Json::new("B16");
    json.int("queries_per_rep", QUERIES_PER_REP as u64);
    json.num("plain_ms", plain_ms);
    json.num("enabled_ms", enabled_ms);
    json.num("overhead_enabled_pct", overhead_enabled_pct);
    json.int("spans_per_query", spans_per_query);
    json.write();
}

// B17 measures the snapshot-format-v3 PR (columnar compressed sections
// + lazy per-section restore). Two claims are pinned: the columnar v3
// encoding of a warmed engine is at least 30% smaller than the v2 row
// encoding of the *same* snapshot, and a lazy v3 restore reaches its
// first answer at least 3× faster than a full eager v2 restore — while
// answering bit-identically with zero materializations (every extension
// comes out of the snapshot, faulted in on first probe).
fn b17() {
    use prxview::engine::Engine;
    use prxview::store::{
        decode_snapshot, decode_snapshot_lazy, encode_snapshot, encode_snapshot_v2,
    };

    const REPS: usize = 5;
    println!("\n[B17] columnar snapshots: v3 size + lazy restore time-to-first-answer:");
    let mut json = Json::new("B17");
    for persons in [200usize, 800] {
        let (pdoc, _) = personnel(persons, 3, 9);
        // The first query is the selective qRBON: its plan references one
        // view, so a lazy restore faults exactly one section while the
        // eager restore has decoded the whole eight-view catalog first —
        // which is the scenario lazy restore exists for.
        let q = qrbon();
        let mut engine = Engine::new();
        let doc = engine.add_document("p", pdoc).unwrap();
        engine.register_view(v1bon()).unwrap();
        engine.register_view(v2bon()).unwrap();
        for (name, pattern) in [
            ("vLAP", "IT-personnel//person/bonus[laptop]"),
            ("vPDA", "IT-personnel//person/bonus[pda]"),
            ("vTAB", "IT-personnel//person/bonus[tablet]"),
            ("vNAME", "IT-personnel//person/name"),
            ("vPER", "IT-personnel//person"),
            ("vRICK", "IT-personnel//person[name/Rick]"),
        ] {
            engine.register_view(View::new(name, pat(pattern))).unwrap();
        }
        engine.warm(doc).unwrap();
        let baseline = engine.answer(doc, &q).expect("plan");
        let snap = engine.snapshot();
        let v2_bytes = encode_snapshot_v2(&snap);
        let v3_bytes = encode_snapshot(&snap);

        // Eager v2 restore: decode the whole file, rebuild the engine,
        // answer. Min-of-REPS, as in B15/B16.
        let v2_ms = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                let snapshot = decode_snapshot(&v2_bytes).expect("v2 decodes");
                let restored = Engine::from_snapshot(snapshot).expect("v2 restores");
                let answer = restored.answer(doc, &q).expect("plan");
                assert_eq!(
                    answer.nodes, baseline.nodes,
                    "v2 restore must be bit-identical"
                );
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);

        // Lazy v3 restore: decode only the section directory, boot, and
        // answer — the first probe faults exactly the sections the plan
        // references. Then warm() to force the rest in.
        let mut v3_first_ms = f64::INFINITY;
        let mut v3_warm_ms = f64::INFINITY;
        let mut sections_total = 0;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let lazy = decode_snapshot_lazy(v3_bytes.clone()).expect("v3 decodes lazily");
            let restored = Engine::from_snapshot_lazy(lazy).expect("v3 restores");
            let answer = restored.answer(doc, &q).expect("plan");
            let first_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                answer.nodes, baseline.nodes,
                "v3 restore must be bit-identical"
            );
            let first_faults = restored.stats().sections_faulted;
            assert!(first_faults >= 1, "the first answer faults sections in");
            assert!(
                first_faults < restored.catalog().len() as u64,
                "the first answer must not force the whole catalog"
            );
            let t1 = Instant::now();
            restored.warm(doc).expect("warm");
            let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
            let stats = restored.stats();
            assert_eq!(
                stats.materializations, 0,
                "a lazy restore must serve entirely from the snapshot"
            );
            sections_total = stats.sections_faulted;
            v3_first_ms = v3_first_ms.min(first_ms);
            v3_warm_ms = v3_warm_ms.min(warm_ms);
        }

        let ratio = v3_bytes.len() as f64 / v2_bytes.len() as f64;
        let speedup = v2_ms / v3_first_ms;
        println!(
            "  {persons} persons: v2 {} B, v3 {} B ({:.1}% of v2); \
             eager v2 restore+answer {v2_ms:.3} ms, lazy v3 first answer {v3_first_ms:.3} ms \
             ({speedup:.1}×), full fault-in +{v3_warm_ms:.3} ms ({sections_total} sections)",
            v2_bytes.len(),
            v3_bytes.len(),
            ratio * 100.0,
        );
        if persons == 800 {
            assert!(
                v3_bytes.len() as f64 <= v2_bytes.len() as f64 * 0.7,
                "v3 must be ≥30% smaller than v2 at 800 persons: v2 {} B, v3 {} B",
                v2_bytes.len(),
                v3_bytes.len()
            );
            assert!(
                speedup >= 3.0,
                "lazy v3 time-to-first-answer must be ≥3× faster than eager v2 \
                 restore: v2 {v2_ms:.3} ms vs v3 {v3_first_ms:.3} ms"
            );
        }
        json.int(format!("persons={persons}.v2_bytes"), v2_bytes.len() as u64);
        json.int(format!("persons={persons}.v3_bytes"), v3_bytes.len() as u64);
        json.num(format!("persons={persons}.v2_restore_ms"), v2_ms);
        json.num(format!("persons={persons}.v3_first_ms"), v3_first_ms);
        json.num(format!("persons={persons}.v3_warm_ms"), v3_warm_ms);
    }
    json.write();
}

type Experiment = (&'static str, fn() -> bool);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `harness trace-check <file>` validates a Chrome trace dump and
    // exits — the CI trace-smoke job's JSON checker, sharing the exact
    // parser the obs tests assert against.
    if args.first().map(String::as_str) == Some("trace-check") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: harness trace-check <trace.json>");
            std::process::exit(2);
        };
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("trace-check: cannot read {path}: {e}");
            std::process::exit(1);
        });
        match prxview::obs::export::check_chrome_trace(&json) {
            Ok(events) => {
                println!("trace-check: {path}: {events} events ok");
                return;
            }
            Err(e) => {
                eprintln!("trace-check: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let want = |k: &str| args.is_empty() || args.iter().any(|a| a == k);
    let mut all_ok = true;
    let experiments: Vec<Experiment> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
    ];
    for (k, f) in experiments {
        if want(k) {
            all_ok &= f();
        }
    }
    let bench_all = want("bench") || args.is_empty();
    // `harness b14`/`b15`/`b16`/`b17` run only their own section (what
    // the CI server-storm, obs-smoke and bench-diff jobs invoke); any
    // other b-key still runs the whole compact suite.
    if bench_all
        || args
            .iter()
            .any(|a| a.starts_with('b') && a != "b14" && a != "b15" && a != "b16" && a != "b17")
    {
        b_compact();
    }
    if bench_all || want("b14") {
        b14();
    }
    if bench_all || want("b15") {
        b15();
    }
    if bench_all || want("b16") {
        b16();
    }
    if bench_all || want("b17") {
        b17();
    }
    println!(
        "\n{}",
        if all_ok {
            "ALL PAPER VALUES REPRODUCED ✓"
        } else {
            "SOME VALUES DIVERGED ✗"
        }
    );
    if !all_ok {
        std::process::exit(1);
    }
}
