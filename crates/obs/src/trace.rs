//! Request-scoped causal trace contexts and trace-tree assembly.
//!
//! A [`TraceContext`] names one request: a process-unique trace id plus
//! the span id of the innermost open span (the *parent* for the next
//! span entered on this thread). Contexts are propagated as a
//! thread-local **ambient** value: the unit of work that owns a request
//! — the server's worker picking a job off the queue, or an
//! `answer_batch` worker picking a query off the cursor — installs the
//! context with [`TraceContext::install`], and every
//! [`crate::span::Span`] entered underneath automatically links itself
//! into the tree by stamping `(trace_id, span_id, parent_id)` onto its
//! [`crate::span::SpanRecord`]. Crossing a thread boundary is always
//! explicit: capture [`TraceContext::current`] before spawning and
//! install the clone inside the worker — nothing flows implicitly.
//!
//! A context may carry a [`FlightRecorder`]: a bounded per-trace buffer
//! that receives a copy of every span record in the trace, so the
//! request's owner can render the full tree the moment the request
//! finishes (the slow-query log does exactly this) without draining —
//! and racing — the process-wide rings.

use crate::ring::Ring;
use crate::span::SpanRecord;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Capacity of one [`FlightRecorder`]: spans per trace beyond this are
/// dropped oldest-first (and counted by the underlying ring).
pub const FLIGHT_CAPACITY: usize = 256;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Number of installed contexts process-wide — the cheap "could any
/// thread be traced right now" gate [`crate::span::Span::enter`] reads
/// before touching thread-local state.
static ACTIVE_CONTEXTS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static AMBIENT: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// A bounded per-trace span buffer (see module docs). Cloning shares
/// the buffer, so the same recorder can follow a context across the
/// batch workers that re-install it.
#[derive(Clone, Debug)]
pub struct FlightRecorder(Arc<Mutex<Ring<SpanRecord>>>);

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// An empty recorder holding at most [`FLIGHT_CAPACITY`] spans.
    pub fn new() -> FlightRecorder {
        FlightRecorder(Arc::new(Mutex::new(Ring::new(FLIGHT_CAPACITY))))
    }

    pub(crate) fn push(&self, record: SpanRecord) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }

    /// Snapshot of the buffered spans, sorted by start time.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect();
        out.sort_by_key(|r| r.start_nanos);
        out
    }

    /// Spans dropped because the trace outgrew [`FLIGHT_CAPACITY`].
    pub fn dropped(&self) -> u64 {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped()
    }
}

/// The identity of one request's trace (see module docs).
#[derive(Clone, Debug)]
pub struct TraceContext {
    trace_id: u64,
    parent: u64,
    flight: Option<FlightRecorder>,
}

impl Default for TraceContext {
    fn default() -> TraceContext {
        TraceContext::new()
    }
}

impl TraceContext {
    /// A fresh context with a process-unique trace id and no parent
    /// span (the first span entered under it becomes a root).
    pub fn new() -> TraceContext {
        TraceContext {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            flight: None,
        }
    }

    /// A fresh context carrying a [`FlightRecorder`], so the trace can
    /// be rendered per-request without draining the global rings.
    pub fn with_flight() -> TraceContext {
        TraceContext {
            flight: Some(FlightRecorder::new()),
            ..TraceContext::new()
        }
    }

    /// The process-unique trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The flight recorder attached at construction, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// A clone of the context currently installed on this thread — what
    /// a dispatcher captures before handing work to another thread.
    pub fn current() -> Option<TraceContext> {
        AMBIENT.with(|cell| cell.borrow().clone())
    }

    /// Installs this context as the thread's ambient trace until the
    /// returned guard drops (the previous ambient value, if any, is
    /// restored — installs nest).
    pub fn install(self) -> ContextGuard {
        ACTIVE_CONTEXTS.fetch_add(1, Ordering::Relaxed);
        let previous = AMBIENT.with(|cell| cell.borrow_mut().replace(self));
        ContextGuard { previous }
    }
}

/// Runs `f` with a [`FlightRecorder`] capturing its spans and returns its
/// result with every span `f` opened, by start time — whether or not the
/// process recorder is on. `f` runs under a fresh context, unless the
/// ambient one already carries a flight (a server request traced while
/// the recorder is on): then `f` joins that trace, so the request's own
/// tree stays whole.
pub fn in_flight<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let first_span = NEXT_SPAN_ID.load(Ordering::Relaxed);
    let (out, flight) = match TraceContext::current().and_then(|c| c.flight) {
        Some(flight) => (f(), flight),
        None => {
            let ctx = TraceContext::with_flight();
            let flight = ctx.flight().cloned().expect("with_flight carries one");
            let _guard = ctx.install();
            (f(), flight)
        }
    };
    let mut records = flight.records();
    records.retain(|r| r.span_id >= first_span);
    (out, records)
}

/// RAII guard for an installed [`TraceContext`]; dropping it restores
/// whatever was ambient before.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct ContextGuard {
    previous: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        AMBIENT.with(|cell| *cell.borrow_mut() = self.previous.take());
        ACTIVE_CONTEXTS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether any thread currently has a context installed (relaxed load —
/// a gate, not a synchronization point).
pub(crate) fn any_context_active() -> bool {
    ACTIVE_CONTEXTS.load(Ordering::Relaxed) > 0
}

/// Whether *this* thread has an ambient context.
pub(crate) fn has_ambient() -> bool {
    AMBIENT.with(|cell| cell.borrow().is_some())
}

/// The causal identity handed to one opening span.
#[derive(Clone, Debug)]
pub(crate) struct OpenSpan {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub flight: Option<FlightRecorder>,
    /// Whether the ambient parent was re-pointed at this span (and must
    /// be restored on close).
    linked: bool,
}

/// Allocates ids for a span opening on this thread: reads the ambient
/// context (if any), assigns a fresh span id, and re-points the ambient
/// parent at the new span so spans entered underneath become children.
pub(crate) fn open_span() -> OpenSpan {
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    AMBIENT.with(|cell| match cell.borrow_mut().as_mut() {
        Some(ctx) => {
            let parent_id = ctx.parent;
            ctx.parent = span_id;
            OpenSpan {
                trace_id: ctx.trace_id,
                span_id,
                parent_id,
                flight: ctx.flight.clone(),
                linked: true,
            }
        }
        None => OpenSpan {
            trace_id: 0,
            span_id,
            parent_id: 0,
            flight: None,
            linked: false,
        },
    })
}

/// Restores the ambient parent a matching [`open_span`] displaced.
/// Tolerant of the context having been swapped underneath (a nested
/// install) — it only rolls back a parent it actually set.
pub(crate) fn close_span(open: &OpenSpan) {
    if !open.linked {
        return;
    }
    AMBIENT.with(|cell| {
        if let Some(ctx) = cell.borrow_mut().as_mut() {
            if ctx.trace_id == open.trace_id && ctx.parent == open.span_id {
                ctx.parent = open.parent_id;
            }
        }
    });
}

/// One node of an assembled trace tree.
#[derive(Clone, Debug)]
pub struct TraceNode {
    /// The span at this node.
    pub record: SpanRecord,
    /// Child spans, sorted by start time.
    pub children: Vec<TraceNode>,
}

/// One request's reassembled span tree.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The trace id shared by every span in the tree (0 collects spans
    /// recorded with no ambient context — a flat legacy timeline).
    pub trace_id: u64,
    /// Root spans (parent absent from the record set), by start time.
    pub roots: Vec<TraceNode>,
}

impl TraceTree {
    /// Total spans in the tree.
    pub fn len(&self) -> usize {
        fn count(nodes: &[TraceNode]) -> usize {
            nodes.iter().map(|n| 1 + count(&n.children)).sum()
        }
        count(&self.roots)
    }

    /// Whether the tree holds no spans.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// Reassembles drained span records into per-trace trees: records are
/// grouped by `trace_id`, children attach under their `parent_id`, and
/// a span whose parent is absent from `records` (dropped from a ring,
/// or never closed) becomes a root. Trees come back ordered by trace
/// id; siblings by start time.
pub fn build_trees(records: &[SpanRecord]) -> Vec<TraceTree> {
    use std::collections::HashMap;
    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for r in records {
        by_trace.entry(r.trace_id).or_default().push(r);
    }
    let mut trace_ids: Vec<u64> = by_trace.keys().copied().collect();
    trace_ids.sort_unstable();
    let mut out = Vec::with_capacity(trace_ids.len());
    for trace_id in trace_ids {
        let spans = &by_trace[&trace_id];
        let present: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, r)| (r.span_id, i))
            .collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, r) in spans.iter().enumerate() {
            match present.get(&r.parent_id) {
                // A self-parented span (id 0 in trace 0) is a root too.
                Some(&p) if p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        fn assemble(i: usize, spans: &[&SpanRecord], children: &[Vec<usize>]) -> TraceNode {
            let mut kids: Vec<TraceNode> = children[i]
                .iter()
                .map(|&c| assemble(c, spans, children))
                .collect();
            kids.sort_by_key(|n| n.record.start_nanos);
            TraceNode {
                record: spans[i].clone(),
                children: kids,
            }
        }
        let mut root_nodes: Vec<TraceNode> = roots
            .iter()
            .map(|&i| assemble(i, spans, &children))
            .collect();
        root_nodes.sort_by_key(|n| n.record.start_nanos);
        out.push(TraceTree {
            trace_id,
            roots: root_nodes,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, Span};
    use std::sync::MutexGuard;

    // The recorder switch is process-global; see span.rs tests.
    fn serial() -> MutexGuard<'static, ()> {
        crate::span::test_serial()
    }

    #[test]
    fn install_nests_and_restores() {
        let _guard = serial();
        assert!(TraceContext::current().is_none());
        let outer = TraceContext::new();
        let outer_id = outer.trace_id();
        let g1 = outer.install();
        assert_eq!(TraceContext::current().unwrap().trace_id(), outer_id);
        {
            let inner = TraceContext::with_flight();
            let inner_id = inner.trace_id();
            assert_ne!(inner_id, outer_id, "trace ids are process-unique");
            let _g2 = inner.install();
            assert_eq!(TraceContext::current().unwrap().trace_id(), inner_id);
        }
        assert_eq!(
            TraceContext::current().unwrap().trace_id(),
            outer_id,
            "inner guard restored the outer context"
        );
        drop(g1);
        assert!(TraceContext::current().is_none());
    }

    #[test]
    fn spans_under_a_context_form_a_tree() {
        let _guard = serial();
        Recorder::enable();
        let _ = Recorder::drain();
        let ctx = TraceContext::with_flight();
        let trace_id = ctx.trace_id();
        let flight = ctx.flight().cloned().unwrap();
        {
            let _g = ctx.install();
            let _root = Span::enter("request");
            {
                let _plan = Span::enter("plan");
            }
            {
                let _eval = Span::enter("eval");
                let _inner = Span::enter("eval_tp");
            }
        }
        Recorder::disable();
        let records = flight.records();
        assert_eq!(records.len(), 4, "flight mirror holds the whole trace");
        assert!(records.iter().all(|r| r.trace_id == trace_id));
        let trees = build_trees(&records);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].trace_id, trace_id);
        assert_eq!(trees[0].len(), 4);
        let root = &trees[0].roots[0];
        assert_eq!(root.record.name, "request");
        assert_eq!(root.record.parent_id, 0);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].record.name, "plan");
        assert_eq!(root.children[0].record.parent_id, root.record.span_id);
        let eval = &root.children[1];
        assert_eq!(eval.record.name, "eval");
        assert_eq!(eval.children.len(), 1);
        assert_eq!(eval.children[0].record.name, "eval_tp");
        assert_eq!(eval.children[0].record.parent_id, eval.record.span_id);
        // The global rings saw the same spans.
        let drained = Recorder::drain();
        assert!(drained.iter().filter(|r| r.trace_id == trace_id).count() == 4);
    }

    #[test]
    fn context_records_without_global_recorder() {
        let _guard = serial();
        Recorder::disable();
        let _ = Recorder::drain();
        {
            // No context, recorder off: fully inert.
            let s = Span::enter("inert");
            assert!(!s.is_active());
        }
        let ctx = TraceContext::with_flight();
        let flight = ctx.flight().cloned().unwrap();
        {
            let _g = ctx.install();
            let s = Span::enter("request");
            assert!(
                s.is_active(),
                "an installed context records even with the recorder off"
            );
        }
        assert_eq!(flight.records().len(), 1);
        // Spans recorded only for a flight stay out of the process rings:
        // many flights leave nothing to drain and drop nothing (the
        // `spans_dropped` gauge).
        let dropped_before = Recorder::dropped();
        for _ in 0..300 {
            let ((), records) = in_flight(|| {
                let _s = Span::enter("request");
            });
            assert_eq!(records.len(), 1, "the flight captured its span");
        }
        assert!(Recorder::drain().is_empty(), "no flight span leaked");
        assert_eq!(Recorder::dropped(), dropped_before);
    }

    /// Under an ambient flight, `in_flight` joins the request's trace:
    /// it returns only the spans it opened, and the outer tree keeps them.
    #[test]
    fn in_flight_joins_an_ambient_flight() {
        let _guard = serial();
        let ctx = TraceContext::with_flight();
        let outer = ctx.flight().cloned().unwrap();
        let _g = ctx.install();
        let root_id = {
            let _root = Span::enter("request");
            let ((), records) = in_flight(|| {
                let _s = Span::enter("answer");
            });
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].name, "answer");
            records[0].parent_id
        };
        let trees = build_trees(&outer.records());
        assert_eq!(trees.len(), 1, "one trace");
        assert_eq!(trees[0].roots[0].record.span_id, root_id);
        assert_eq!(trees[0].roots[0].children[0].record.name, "answer");
    }

    #[test]
    fn cross_thread_install_joins_the_same_trace() {
        let _guard = serial();
        Recorder::disable();
        let _ = Recorder::drain();
        let ctx = TraceContext::with_flight();
        let trace_id = ctx.trace_id();
        let flight = ctx.flight().cloned().unwrap();
        let _g = ctx.install();
        let root_span_id = {
            let _root = Span::enter("request");
            let handoff = TraceContext::current().expect("ambient present");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let handoff = handoff.clone();
                    scope.spawn(move || {
                        let _g = handoff.install();
                        let _s = Span::enter("worker");
                    });
                }
            });
            open_span().parent_id // peek at the live parent: the root span
        };
        let records = flight.records();
        let workers: Vec<_> = records.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        for w in workers {
            assert_eq!(w.trace_id, trace_id);
            assert_eq!(
                w.parent_id, root_span_id,
                "worker spans hang off the span open at capture time"
            );
        }
        let _ = Recorder::drain();
    }

    #[test]
    fn orphaned_spans_become_roots() {
        let records = vec![
            SpanRecord {
                name: "lost-parent",
                start_nanos: 5,
                nanos: 1,
                fields: Vec::new(),
                trace_id: 9,
                span_id: 100,
                parent_id: 42, // 42 was dropped from the ring
            },
            SpanRecord {
                name: "untraced",
                start_nanos: 1,
                nanos: 1,
                fields: Vec::new(),
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
            },
        ];
        let trees = build_trees(&records);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace_id, 0);
        assert_eq!(trees[0].roots[0].record.name, "untraced");
        assert_eq!(trees[1].trace_id, 9);
        assert_eq!(trees[1].roots[0].record.name, "lost-parent");
    }
}
