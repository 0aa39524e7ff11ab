//! The per-query flight record: where one answer's wall time went.
//!
//! A [`QueryProfile`] is never timed by hand. The engine and the server
//! enter one [`crate::Span`] per stage, under the names below; whoever
//! wants a profile runs the request under a flight-recording
//! [`crate::TraceContext`] (see [`crate::trace::in_flight`]) and folds
//! the captured records with [`QueryProfile::from_spans`]. Spans are
//! thus the one timing mechanism behind both `PROFILE` and traces, and
//! a request nobody profiles or traces reads no clock at all.

use crate::span::SpanRecord;

/// The server's parse of a wire request line.
pub const PARSE_SPAN: &str = "parse";
/// The engine's whole answer (the root of its span tree).
pub const ANSWER_SPAN: &str = "answer";
/// Planning: plan-cache lookup or rewriting search.
pub const PLAN_SPAN: &str = "plan";
/// One extension fetch; its [`HIT_FIELD`] says whether it was a cache
/// hit (or lazy fault) or a materialization.
pub const PROBE_SPAN: &str = "probe";
/// Evaluating the plan (or the direct fallback).
pub const EVAL_SPAN: &str = "eval";
/// The server's rendering of an answer to wire form.
pub const SERIALIZE_SPAN: &str = "serialize";
/// Field of a [`PROBE_SPAN`]: 1 when the extension was resident, 0 when
/// the probe materialized it.
pub const HIT_FIELD: &str = "hit";

/// Stage breakdown and context for a single profiled query. All times
/// are nanoseconds of wall clock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Parsing the wire request into a query (server-side).
    pub parse_nanos: u64,
    /// Planning: rewriting-based plan lookup or construction.
    pub plan_nanos: u64,
    /// Probing the extension cache for already-materialized views.
    pub probe_nanos: u64,
    /// Materializing view extensions missing from the cache.
    pub materialize_nanos: u64,
    /// Evaluating the plan (or the direct fallback) over extensions.
    pub eval_nanos: u64,
    /// Rendering the answer to wire form (server-side).
    pub serialize_nanos: u64,
    /// End-to-end wall time: the sum of the trace's root spans.
    pub total_nanos: u64,
    /// Extension-cache bytes resident when the query finished (set by
    /// the caller; spans carry no engine state).
    pub cache_bytes: u64,
    /// Catalog epoch the query observed (set by the caller).
    pub epoch: u64,
}

impl QueryProfile {
    /// Folds one request's span records into a profile: each stage is
    /// the summed duration of the spans with its name, a [`PROBE_SPAN`]
    /// counts as materialization when its [`HIT_FIELD`] is 0, and the
    /// total is the summed duration of the roots (spans whose parent is
    /// not among `records`). `cache_bytes` and `epoch` stay 0.
    pub fn from_spans(records: &[SpanRecord]) -> QueryProfile {
        let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.span_id).collect();
        let mut p = QueryProfile::default();
        for r in records {
            let stage = match r.name {
                PARSE_SPAN => Some(&mut p.parse_nanos),
                PLAN_SPAN => Some(&mut p.plan_nanos),
                PROBE_SPAN if r.fields.contains(&(HIT_FIELD, 0)) => Some(&mut p.materialize_nanos),
                PROBE_SPAN => Some(&mut p.probe_nanos),
                EVAL_SPAN => Some(&mut p.eval_nanos),
                SERIALIZE_SPAN => Some(&mut p.serialize_nanos),
                _ => None,
            };
            if let Some(stage) = stage {
                *stage += r.nanos;
            }
            if !ids.contains(&r.parent_id) {
                p.total_nanos += r.nanos;
            }
        }
        p
    }

    /// Sum of the individual stage times (excludes `total_nanos`; the gap
    /// between the two is time spent outside any stage span).
    pub fn stage_nanos_sum(&self) -> u64 {
        self.parse_nanos
            + self.plan_nanos
            + self.probe_nanos
            + self.materialize_nanos
            + self.eval_nanos
            + self.serialize_nanos
    }

    /// The profile as wire `key=value` pairs, in [`crate::keys::PROFILE_KEYS`]
    /// order, with times reported in microseconds.
    pub fn wire_pairs(&self) -> [(&'static str, u64); 9] {
        [
            (crate::keys::PROFILE_PARSE_US, self.parse_nanos / 1_000),
            (crate::keys::PROFILE_PLAN_US, self.plan_nanos / 1_000),
            (crate::keys::PROFILE_PROBE_US, self.probe_nanos / 1_000),
            (crate::keys::PROFILE_MAT_US, self.materialize_nanos / 1_000),
            (crate::keys::PROFILE_EVAL_US, self.eval_nanos / 1_000),
            (crate::keys::PROFILE_SER_US, self.serialize_nanos / 1_000),
            (crate::keys::PROFILE_TOTAL_US, self.total_nanos / 1_000),
            (crate::keys::PROFILE_CACHE_BYTES, self.cache_bytes),
            (crate::keys::PROFILE_EPOCH, self.epoch),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sum_excludes_total() {
        let p = QueryProfile {
            parse_nanos: 1,
            plan_nanos: 2,
            probe_nanos: 3,
            materialize_nanos: 4,
            eval_nanos: 5,
            serialize_nanos: 6,
            total_nanos: 1_000,
            cache_bytes: 7,
            epoch: 8,
        };
        assert_eq!(p.stage_nanos_sum(), 21);
    }

    #[test]
    fn wire_pairs_follow_canonical_key_order() {
        let p = QueryProfile {
            parse_nanos: 1_500,
            total_nanos: 9_999,
            ..QueryProfile::default()
        };
        let pairs = p.wire_pairs();
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, crate::keys::PROFILE_KEYS);
        assert_eq!(pairs[0], ("parse_us", 1), "ns truncate to µs");
        assert_eq!(pairs[6], ("total_us", 9));
    }

    fn rec(
        name: &'static str,
        span_id: u64,
        parent_id: u64,
        nanos: u64,
        fields: &[(&'static str, u64)],
    ) -> SpanRecord {
        SpanRecord {
            name,
            start_nanos: span_id,
            nanos,
            fields: fields.to_vec(),
            trace_id: 1,
            span_id,
            parent_id,
        }
    }

    #[test]
    fn from_spans_folds_stage_spans() {
        let planned = [
            rec(PARSE_SPAN, 1, 0, 100, &[]),
            rec(ANSWER_SPAN, 2, 0, 10_000, &[("doc", 0)]),
            rec(PLAN_SPAN, 3, 2, 500, &[]),
            // A warm probe and a cold one whose materialization nests.
            rec(PROBE_SPAN, 4, 2, 200, &[("view", 0), (HIT_FIELD, 1)]),
            rec(PROBE_SPAN, 5, 2, 6_000, &[("view", 1), (HIT_FIELD, 0)]),
            rec("materialize", 6, 5, 5_800, &[]),
            rec(EVAL_SPAN, 7, 2, 2_000, &[("candidates", 3)]),
            rec(SERIALIZE_SPAN, 8, 0, 300, &[]),
        ];
        assert_eq!(
            QueryProfile::from_spans(&planned),
            QueryProfile {
                parse_nanos: 100,
                plan_nanos: 500,
                probe_nanos: 200,
                materialize_nanos: 6_000,
                eval_nanos: 2_000,
                serialize_nanos: 300,
                total_nanos: 10_400,
                cache_bytes: 0,
                epoch: 0,
            }
        );
        // A direct fallback plans, fails, and evaluates directly: its
        // `eval` span nests peval's own `eval_tp`, which is no stage.
        let fallback = [
            rec(ANSWER_SPAN, 10, 0, 4_000, &[("doc", 0)]),
            rec(PLAN_SPAN, 11, 10, 700, &[]),
            rec(EVAL_SPAN, 12, 10, 3_000, &[]),
            rec("eval_tp", 13, 12, 2_900, &[]),
        ];
        assert_eq!(
            QueryProfile::from_spans(&fallback),
            QueryProfile {
                plan_nanos: 700,
                eval_nanos: 3_000,
                total_nanos: 4_000,
                ..QueryProfile::default()
            }
        );
        assert_eq!(QueryProfile::from_spans(&[]), QueryProfile::default());
    }
}
