//! What a run measured, and how it is printed: a human-readable block
//! (every metric by name with its unit, plus run metadata), a results
//! file, and — as the last line of standard output — the JSON object
//! carrying the metrics declared in `BENCHMARK.json`.

use crate::stats::{quiet, Samples};
use crate::Args;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run
/// (`--trace 1`); 0 where the workload never calls into that layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tpq.parse_us", "us"),
    ("server.parse_request_us", "us"),
    ("server.write_answer_us", "us"),
    ("server.answer_bytes", "bytes"),
    ("server.p50_us", "us"),
    ("server.p99_us", "us"),
    ("server.wire_ms", "ms"),
    ("server.stats_query_ratio", "ratio"),
    ("engine.answer_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.materializations", "count"),
    ("engine.evictions", "count"),
    ("engine.admission_rejects", "count"),
    ("engine.cache_bytes", "bytes"),
    ("engine.apply_edits_ms", "ms"),
    ("engine.publish_ms", "ms"),
    ("engine.deltas", "count"),
    ("engine.delta_fallbacks", "count"),
    ("rewrite.plan_us", "us"),
    ("rewrite.answer_tp_ms", "ms"),
    ("rewrite.execute_tpi_ms", "ms"),
    ("rewrite.candidates", "count"),
    ("rewrite.materialize_ms", "ms"),
    ("rewrite.apply_delta_ms", "ms"),
    ("peval.eval_tp_ms", "ms"),
    ("store.decode_lazy_ms", "ms"),
    ("store.boot_ms", "ms"),
    ("store.fault_ms", "ms"),
    ("store.sections_faulted", "count"),
    ("store.snapshot_bytes", "bytes"),
    ("self.tpq_ms", "ms"),
    ("self.server_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.rewrite_ms", "ms"),
    ("self.peval_ms", "ms"),
    ("self.store_ms", "ms"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_probe_ms", "ms"),
];

/// How many failure messages a report keeps verbatim.
const MAX_PROBLEMS: usize = 20;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (queries, updates, restores), counted by the
    /// client.
    pub attempted: u64,
    /// Operations that failed: an `ERR` reply, a broken connection, or an
    /// answer the oracle rejected.
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            self.note(format!("{name} was not finite ({value}); reported as 0"));
            0.0
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(what);
        }
    }

    /// Latencies in ms over every sample: `<prefix>_p50_ms`,
    /// `<prefix>_p90_ms`, `<prefix>_p99_ms` (each tail with a note when
    /// fewer than ten samples lie beyond it) and `<prefix>_samples`.
    pub fn put_latencies(&mut self, prefix: &str, samples: &[f64]) {
        let all = Samples::new(samples.to_vec());
        self.put(&format!("{prefix}_p50_ms"), all.median(), "ms");
        self.put_tail(prefix, &all);
    }

    fn put_tail(&mut self, prefix: &str, all: &Samples) {
        for (p, name) in [(0.90, "p90"), (0.99, "p99")] {
            let name = format!("{prefix}_{name}_ms");
            let (value, note) = all.tail(p, &name);
            self.put(&name, value, "ms");
            if let Some(note) = note {
                self.note(note);
            }
        }
        self.put(&format!("{prefix}_samples"), all.len() as f64, "count");
    }

    /// A closed loop's latencies, given as `(t, ms)` pairs over a phase of
    /// `span` seconds: as [`Report::put_latencies`], except that
    /// `<prefix>_p50_ms` is taken over the phase's quiet windows (see
    /// [`quiet`]; every window carries the same round-robin request mix,
    /// so only the host's speed moves a window's median) and the median of
    /// every sample is `<prefix>_p50_all_ms`. `<prefix>_tail_ms` is the
    /// p90: in a closed loop's round-robin mix it lies in the body of the
    /// slowest requests' latencies, where it moves least with the host.
    /// Returns the quiet windows' sample count and seconds.
    pub fn put_closed_loop(
        &mut self,
        prefix: &str,
        samples: &[(f64, f64)],
        span: f64,
    ) -> (usize, f64) {
        let (quiet, secs) = quiet(samples, span);
        let n = quiet.len();
        let all = Samples::new(samples.iter().map(|&(_, v)| v).collect());
        self.put(
            &format!("{prefix}_p50_ms"),
            Samples::new(quiet).median(),
            "ms",
        );
        self.put(&format!("{prefix}_p50_all_ms"), all.median(), "ms");
        self.put_tail(prefix, &all);
        let p90 = self.value(&format!("{prefix}_p90_ms"));
        self.put(&format!("{prefix}_tail_ms"), p90, "ms");
        (n, secs)
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of a metric put earlier (0 if none was).
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prints the report and writes the results file; the last line of
    /// standard output is the JSON result. Exits non-zero (printing no
    /// result) if a declared metric is missing.
    pub fn finish(mut self, args: &Args) {
        let declared = match (args.capacity, args.trace) {
            (true, _) => &[][..],
            (false, true) => PER_LAYER,
            (false, false) => END_TO_END,
        };
        let missing: Vec<&str> = declared
            .iter()
            .filter(|(name, _)| self.get(name).is_none())
            .map(|&(name, _)| name)
            .collect();
        if !missing.is_empty() {
            eprintln!("prxbench: internal error, metrics not measured: {missing:?}");
            std::process::exit(1);
        }
        let attempted = self.attempted.max(1);
        self.put(
            "failed_ops_ratio",
            self.failed as f64 / attempted as f64,
            "ratio",
        );
        let meta = [
            ("workload", format!("\"{}\"", args.workload.name())),
            ("seed", args.seed.to_string()),
            ("trace", (args.trace as u8).to_string()),
            ("nproc", crate::fixtures::nproc().to_string()),
            ("commit", format!("\"{}\"", crate::fixtures::commit())),
            ("setup_reps", self.value("setup_reps").to_string()),
            ("run_seconds", args.seconds.to_string()),
            ("capacity", (args.capacity as u8).to_string()),
        ];
        let head: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("prxbench {}", head.join(" "));
        for m in &self.metrics {
            println!("  {:<30} {:>16} {}", m.name, fmt_num(m.value), m.unit);
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
        for p in &self.problems {
            println!("  FAILED: {p}");
        }

        let mut file = String::from("{");
        for (k, v) in &meta {
            let _ = write!(file, "\"{k}\":{v},");
        }
        let _ = write!(
            file,
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},\"notes\":[{}],\"failures\":[{}]}}",
            self.correct(),
            attempted,
            self.failed,
            metrics_json(self.metrics.iter()),
            quoted(&self.notes),
            quoted(&self.problems),
        );
        let path = crate::fixtures::out_dir().join(format!(
            "{}{}-seed{}-trace{}.json",
            args.workload.name(),
            if args.capacity { "-capacity" } else { "" },
            args.seed,
            args.trace as u8
        ));
        if let Err(e) = std::fs::write(&path, file + "\n") {
            eprintln!("prxbench: cannot write {}: {e}", path.display());
        }
        println!("  results: {}", path.display());

        let selected = declared
            .iter()
            .map(|(name, _)| self.get(name).expect("checked above"));
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            attempted,
            self.failed,
            metrics_json(selected)
        );
    }
}

/// Every digit of `v`: `{}` on f64 prints the shortest string that
/// parses back to the same bits, never in exponent form.
fn fmt_num(v: f64) -> String {
    format!("{v}")
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn quoted(lines: &[String]) -> String {
    let escaped: Vec<String> = lines
        .iter()
        .map(|l| {
            let mut s = String::from("\"");
            for c in l.chars() {
                match c {
                    '"' => s.push_str("\\\""),
                    '\\' => s.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(s, "\\u{:04x}", c as u32);
                    }
                    c => s.push(c),
                }
            }
            s.push('"');
            s
        })
        .collect();
    escaped.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_obs::export::{parse_json, JsonValue};

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(JsonValue::Array(list)) = doc.get(key) else {
                panic!("`{key}` is not an array");
            };
            let theirs: Vec<(&str, &str)> = list
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(JsonValue::as_str).unwrap(),
                        m.get("unit").and_then(JsonValue::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(theirs, ours.to_vec(), "`{key}` differs from BENCHMARK.json");
        }
    }

    #[test]
    fn json_keeps_every_digit_and_escapes_text() {
        let m = Metric {
            name: "x".into(),
            value: 0.1 + 0.2,
            unit: "ms",
        };
        let json = metrics_json(std::iter::once(&m));
        assert_eq!(
            json,
            "{\"x\":{\"value\":0.30000000000000004,\"unit\":\"ms\"}}"
        );
        assert!(parse_json(&json).is_ok());
        assert_eq!(quoted(&["a\"b\n".into()]), "\"a\\\"b\\u000a\"");
        assert_eq!(fmt_num(1e-7), "0.0000001");
    }
}
