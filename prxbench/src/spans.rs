//! Span bookkeeping for the traced replay: naming program spans after
//! the crate (layer) that does the work, self time per span and per
//! layer, and the Chrome trace export.
//!
//! The replay opens its own spans around every call it makes into a
//! crate's public function (`server.parse_request`, `engine.answer_with`,
//! `store.read_snapshot_lazy`, …). The engine already opens spans around
//! the calls it makes into `rewrite` and `peval` (`plan`, `probe`,
//! `materialize`, `eval`, `eval_tp`); those nest under the replay's spans
//! and are renamed here to `<layer>.<call>`.

use pxv_obs::span::SpanRecord;
use std::collections::HashMap;

/// The root span of one replayed request; its `kind` field says which.
pub const REQUEST: &str = "bench.request";
/// The root span of an off-path call replayed only to be measured.
pub const SHADOW: &str = "bench.shadow";

/// `kind` field values on [`REQUEST`] roots.
pub const KIND_QUERY: u64 = 0;
pub const KIND_UPDATE: u64 = 1;
pub const KIND_RESTORE: u64 = 2;

/// How the engine answered a query: it decides what the engine's `eval`
/// span was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    Tp,
    Tpi,
    Direct,
}

/// Renames the engine's own spans after the layer doing the work.
pub fn rename_program_spans(records: &mut [SpanRecord], route: Option<Route>) {
    for r in records {
        r.name = match r.name {
            "answer" => "engine.answer",
            "plan" => "rewrite.plan",
            "probe" if field(r, "fault") == Some(1) => "store.fault",
            "probe" => "engine.probe",
            "materialize" => "rewrite.materialize",
            "eval" => match route {
                Some(Route::Tp) => "rewrite.answer_tp",
                Some(Route::Tpi) => "rewrite.execute_tpi",
                Some(Route::Direct) | None => "engine.direct",
            },
            "eval_tp" => "peval.eval_tp",
            "snapshot_read_lazy" => "store.decode",
            other => other,
        };
    }
}

/// A field of a span record.
pub fn field(r: &SpanRecord, key: &str) -> Option<u64> {
    r.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// The layer a span belongs to: the part of its name before the dot.
pub fn layer(name: &str) -> &str {
    name.split_once('.').map_or(name, |(l, _)| l)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
/// Overlapping intervals are counted once.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every record, in input order: its duration minus the
/// part of its interval that its direct children cover.
pub fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let index: HashMap<(u64, u64), usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.trace_id, r.span_id), i))
        .collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); records.len()];
    for r in records {
        if let Some(&p) = index.get(&(r.trace_id, r.parent_id)) {
            children[p].push((r.start_nanos, r.start_nanos + r.nanos));
        }
    }
    records
        .iter()
        .zip(&children)
        .map(|(r, kids)| r.nanos - covered(r.start_nanos, r.start_nanos + r.nanos, kids))
        .collect()
}

/// Per-span-name and per-layer timing of a traced replay.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Span name → every duration (ns), in request kinds kept apart:
    /// `(name, kind)` where `kind` is the root request's kind.
    durations: HashMap<(&'static str, u64), Vec<u64>>,
    /// Span name → self times (ns), likewise.
    self_ns: HashMap<(&'static str, u64), Vec<u64>>,
    /// Layer → total self time (ns) over requests (shadow calls excluded).
    pub layer_self_ns: HashMap<String, u64>,
    /// Per query request: self time spent in the engine layer (ns).
    pub engine_self_per_query: Vec<u64>,
    /// Requests seen.
    pub requests: u64,
}

impl Breakdown {
    /// Folds in the records of one replayed request or shadow call.
    pub fn add(&mut self, records: &[SpanRecord]) {
        let Some(root) = records
            .iter()
            .find(|r| r.name == REQUEST || r.name == SHADOW)
        else {
            return;
        };
        let shadow = root.name == SHADOW;
        let kind = field(root, "kind").unwrap_or(u64::MAX);
        let selfs = self_times(records);
        let mut engine_self = 0;
        for (r, &s) in records.iter().zip(&selfs) {
            self.durations
                .entry((r.name, kind))
                .or_default()
                .push(r.nanos);
            self.self_ns.entry((r.name, kind)).or_default().push(s);
            if shadow {
                continue;
            }
            let l = layer(r.name);
            *self.layer_self_ns.entry(l.to_string()).or_default() += s;
            if l == "engine" {
                engine_self += s;
            }
        }
        if !shadow {
            self.requests += 1;
            if kind == KIND_QUERY {
                self.engine_self_per_query.push(engine_self);
            }
        }
    }

    /// Moves up to `ns` of self time from layer `from` to layer `to`: work
    /// a call into `to` did inside a span of `from`, where no span of its
    /// own reaches.
    pub fn rebill(&mut self, from: &str, to: &str, ns: u64) {
        let from_ns = self.layer_self_ns.entry(from.to_string()).or_default();
        let ns = ns.min(*from_ns);
        *from_ns -= ns;
        *self.layer_self_ns.entry(to.to_string()).or_default() += ns;
    }

    /// Every duration (ns) of span `name`, over requests of any kind.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.collect(&self.durations, name, None)
    }

    /// Durations (ns) of span `name` within requests of `kind` only.
    pub fn durations_in(&self, name: &str, kind: u64) -> Vec<u64> {
        self.collect(&self.durations, name, Some(kind))
    }

    /// Self times (ns) of span `name`, over requests of any kind.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        self.collect(&self.self_ns, name, None)
    }

    fn collect(
        &self,
        map: &HashMap<(&'static str, u64), Vec<u64>>,
        name: &str,
        kind: Option<u64>,
    ) -> Vec<u64> {
        map.iter()
            .filter(|((n, k), _)| *n == name && kind.is_none_or(|want| want == *k))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Span names ranked by total self time (ns), largest first; the
    /// replay's own root spans are left out.
    pub fn self_ranking(&self) -> Vec<(&'static str, u64)> {
        let mut totals: HashMap<&'static str, u64> = HashMap::new();
        for (&(name, _), v) in &self.self_ns {
            if name != REQUEST && name != SHADOW {
                *totals.entry(name).or_default() += v.iter().sum::<u64>();
            }
        }
        let mut ranked: Vec<_> = totals.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, dur: u64, ids: (u64, u64, u64)) -> SpanRecord {
        SpanRecord {
            name,
            start_nanos: start,
            nanos: dur,
            fields: Vec::new(),
            trace_id: ids.0,
            span_id: ids.1,
            parent_id: ids.2,
        }
    }

    #[test]
    fn self_time_subtracts_children_coverage() {
        // parent [0, 100): children [10, 30) and [50, 60) → self 70.
        let records = vec![
            rec("p", 0, 100, (1, 1, 0)),
            rec("a", 10, 20, (1, 2, 1)),
            rec("b", 50, 10, (1, 3, 1)),
            // grandchild: billed to `a`, not to `p`.
            rec("c", 12, 5, (1, 4, 2)),
        ];
        assert_eq!(self_times(&records), vec![70, 15, 10, 5]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two parallel children [10, 60) and [30, 80) cover [10, 80): 70.
        let records = vec![
            rec("p", 0, 100, (1, 1, 0)),
            rec("w1", 10, 50, (1, 2, 1)),
            rec("w2", 30, 50, (1, 3, 1)),
        ];
        assert_eq!(self_times(&records)[0], 30);
        // A child running past its parent's end is clipped to the parent.
        let records = vec![rec("p", 0, 100, (1, 1, 0)), rec("late", 90, 50, (1, 2, 1))];
        assert_eq!(self_times(&records)[0], 90);
        // Same span ids in another trace are not this parent's children.
        let records = vec![rec("p", 0, 100, (1, 1, 0)), rec("x", 10, 50, (2, 2, 1))];
        assert_eq!(self_times(&records)[0], 100);
    }

    #[test]
    fn covered_merges_nested_and_touching_intervals() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (20, 30)]), 20);
        assert_eq!(covered(0, 100, &[(10, 50), (20, 30)]), 40);
        assert_eq!(covered(0, 100, &[(150, 160)]), 0);
    }

    #[test]
    fn breakdown_bills_layers_and_engine_self_time() {
        let mut root = rec(REQUEST, 0, 100, (7, 1, 0));
        root.fields.push(("kind", KIND_QUERY));
        let mut records = vec![
            root,
            rec("engine.answer_with", 10, 80, (7, 2, 1)),
            rec("answer", 11, 78, (7, 3, 2)),
            rec("plan", 12, 8, (7, 4, 3)),
            rec("eval", 30, 50, (7, 5, 3)),
        ];
        rename_program_spans(&mut records, Some(Route::Tp));
        let mut b = Breakdown::default();
        b.add(&records);
        assert_eq!(b.requests, 1);
        // engine: (80 - 78) + (78 - 8 - 50) = 22.
        assert_eq!(b.engine_self_per_query, vec![22]);
        assert_eq!(b.layer_self_ns["rewrite"], 58);
        assert_eq!(b.layer_self_ns["bench"], 20);
        assert_eq!(b.durations_in("rewrite.answer_tp", KIND_QUERY), vec![50]);
        assert!(b.durations_in("rewrite.answer_tp", KIND_UPDATE).is_empty());
        assert_eq!(b.self_ranking()[0], ("rewrite.answer_tp", 50));
    }

    #[test]
    fn shadow_calls_stay_out_of_layer_totals_and_rebilling_moves_self_time() {
        let mut b = Breakdown::default();
        let mut root = rec(REQUEST, 0, 100, (1, 1, 0));
        root.fields.push(("kind", KIND_QUERY));
        b.add(&[root, rec("server.parse_request", 0, 30, (1, 2, 1))]);
        b.add(&[
            rec(SHADOW, 0, 12, (2, 1, 0)),
            rec("tpq.parse_pattern", 1, 10, (2, 2, 1)),
        ]);
        assert_eq!(b.requests, 1);
        assert_eq!(b.durations("tpq.parse_pattern"), vec![10]);
        assert!(!b.layer_self_ns.contains_key("tpq"));
        b.rebill("server", "tpq", 10);
        assert_eq!(
            (b.layer_self_ns["server"], b.layer_self_ns["tpq"]),
            (20, 10)
        );
        // Never more than the source layer holds.
        b.rebill("server", "tpq", 50);
        assert_eq!((b.layer_self_ns["server"], b.layer_self_ns["tpq"]), (0, 30));
    }
}
