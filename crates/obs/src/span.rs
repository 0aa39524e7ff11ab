//! A lightweight span/tracing facade with per-thread bounded rings.
//!
//! The design goal is that instrumentation left compiled into hot paths
//! (`pxv_peval::eval_tp`, `ProbExtension::materialize`, snapshot I/O)
//! costs a couple of relaxed atomic loads when nobody is recording.
//! Recording turns on two ways: the process-wide [`Recorder`] switch, or
//! a request-scoped [`crate::trace::TraceContext`] installed on the
//! current thread. When either is active, [`Span::enter`] captures a
//! monotonic-clock start and stamps the span's causal identity —
//! `(trace_id, span_id, parent_id)` from the ambient context, so
//! [`Recorder::drain`] output can be reassembled into per-request trees
//! by [`crate::trace::build_trees`] — and dropping the span pushes a
//! [`SpanRecord`] into a bounded ring owned by the current thread.
//! Threads never contend on a shared buffer while recording — each ring
//! has its own lock touched only by its owner and by
//! [`Recorder::drain`], which merges all rings into one timeline.
//!
//! Only spans entered while the recorder is on land in the rings. A span
//! recorded just for an installed context goes to that context's flight
//! recorder alone, so per-request capture (`PROFILE`, `trace=true`)
//! neither fills the rings nor counts toward [`Recorder::dropped`].

use crate::ring::Ring;
use crate::trace;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Capacity of each per-thread span ring; the oldest records are dropped
/// (and counted) once a thread has this many undrained spans.
pub const SPAN_RING_CAPACITY: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Drop counts carried over from rings pruned by [`Recorder::drain`]
/// after their owning thread exited — keeps [`Recorder::dropped`]
/// monotone across pruning.
static PRUNED_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Process start reference for span timestamps: all `start_nanos` are
/// offsets from the first call that needs a timestamp.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

type SharedRing = Arc<Mutex<Ring<SpanRecord>>>;

/// The registry of per-thread rings. Entries for exited threads are
/// pruned by [`Recorder::drain`] once emptied (the thread-local keeps a
/// second `Arc` while its thread lives, so `strong_count == 1` means
/// the owner is gone) — without that, a server spawning short-lived
/// threads would grow this vector forever.
fn all_rings() -> &'static Mutex<Vec<SharedRing>> {
    static RINGS: OnceLock<Mutex<Vec<SharedRing>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: SharedRing = {
        let ring = Arc::new(Mutex::new(Ring::new(SPAN_RING_CAPACITY)));
        all_rings()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&ring));
        ring
    };
}

/// One completed span: what ran, when it started (nanoseconds since the
/// recorder's process epoch), how long it took, its causal identity,
/// and any integer fields attached while it was open.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Static span name, e.g. `"eval_tp"` or `"snapshot_write"`.
    pub name: &'static str,
    /// Start offset in nanoseconds from the process epoch.
    pub start_nanos: u64,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u64,
    /// Integer fields recorded while the span was open, in call order.
    pub fields: Vec<(&'static str, u64)>,
    /// The request trace this span belongs to (0: recorded with no
    /// ambient [`crate::trace::TraceContext`]).
    pub trace_id: u64,
    /// Process-unique id of this span (0 only in hand-built records).
    pub span_id: u64,
    /// Id of the span open when this one was entered (0: a root).
    pub parent_id: u64,
}

/// The process-wide recording switch and drain point.
pub struct Recorder;

impl Recorder {
    /// Starts recording spans process-wide.
    pub fn enable() {
        epoch(); // pin the time reference before the first span
        ENABLED.store(true, Ordering::Release);
    }

    /// Stops recording. Spans already buffered stay until drained.
    /// Request-scoped tracing (an installed
    /// [`crate::trace::TraceContext`]) is unaffected.
    pub fn disable() {
        ENABLED.store(false, Ordering::Release);
    }

    /// Whether spans are currently being recorded process-wide.
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Removes and returns all buffered spans from every thread's ring,
    /// merged and sorted by start time. Rings whose owning thread has
    /// exited are pruned from the registry on the way (their drop
    /// counts are preserved in [`Recorder::dropped`]).
    pub fn drain() -> Vec<SpanRecord> {
        let mut rings = all_rings().lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for ring in rings.iter() {
            out.extend(ring.lock().unwrap_or_else(PoisonError::into_inner).drain());
        }
        rings.retain(|ring| {
            if Arc::strong_count(ring) > 1 {
                return true; // the owning thread still holds its Arc
            }
            // Owner gone and the ring was just drained empty: fold its
            // lifetime drop count into the global carry and forget it.
            let dropped = ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .dropped();
            PRUNED_DROPPED.fetch_add(dropped, Ordering::Relaxed);
            false
        });
        drop(rings);
        out.sort_by_key(|r| r.start_nanos);
        out
    }

    /// Lifetime count of span records dropped because a thread's ring
    /// overflowed before being drained. Monotone — counts from rings
    /// pruned after their thread exited are carried over.
    pub fn dropped() -> u64 {
        let rings = all_rings().lock().unwrap_or_else(PoisonError::into_inner);
        PRUNED_DROPPED.load(Ordering::Relaxed)
            + rings
                .iter()
                .map(|r| r.lock().unwrap_or_else(PoisonError::into_inner).dropped())
                .sum::<u64>()
    }

    /// Number of per-thread rings currently registered (diagnostics:
    /// bounded by live threads once [`Recorder::drain`] has pruned).
    pub fn ring_count() -> usize {
        all_rings()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// An open span. Create with [`Span::enter`]; the measurement ends (and
/// the record is buffered) when the span is dropped.
#[must_use = "a span measures until dropped; binding it to `_` ends it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, u64)>,
    open: Option<trace::OpenSpan>,
    /// Whether the recorder was on at [`Span::enter`]: only then does
    /// the record go to this thread's ring.
    global: bool,
}

impl Span {
    /// Opens a span. When the [`Recorder`] is disabled and no
    /// [`crate::trace::TraceContext`] is installed anywhere, this is
    /// inert: two relaxed atomic loads, no clock read, no allocation.
    /// When some *other* thread is traced but this one is not (and the
    /// recorder is off), one thread-local read is added — still no
    /// clock.
    pub fn enter(name: &'static str) -> Span {
        let global = Recorder::is_enabled();
        let active = global || (trace::any_context_active() && trace::has_ambient());
        if !active {
            return Span {
                name,
                start: None,
                fields: Vec::new(),
                open: None,
                global,
            };
        }
        let open = trace::open_span();
        Span {
            name,
            start: Some(Instant::now()),
            fields: Vec::new(),
            open: Some(open),
            global,
        }
    }

    /// Attaches an integer field (e.g. `span.record("nodes", n)`).
    /// No-op on an inert span.
    pub fn record(&mut self, key: &'static str, value: u64) {
        if self.start.is_some() {
            self.fields.push((key, value));
        }
    }

    /// Whether this span is actually measuring (recording was active at
    /// [`Span::enter`] time).
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let open = self.open.take().expect("active spans carry an identity");
        trace::close_span(&open);
        let record = SpanRecord {
            name: self.name,
            start_nanos: start.duration_since(epoch()).as_nanos() as u64,
            nanos: start.elapsed().as_nanos() as u64,
            fields: std::mem::take(&mut self.fields),
            trace_id: open.trace_id,
            span_id: open.span_id,
            parent_id: open.parent_id,
        };
        if !self.global {
            if let Some(flight) = &open.flight {
                flight.push(record);
            }
            return;
        }
        if let Some(flight) = &open.flight {
            flight.push(record.clone());
        }
        LOCAL.with(|ring| {
            ring.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(record);
        });
    }
}

/// Serializes tests (within this crate) that flip the process-global
/// recorder or install ambient contexts on shared test threads.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_serial()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = serial();
        Recorder::disable();
        let _ = Recorder::drain();
        {
            let mut s = Span::enter("inert");
            assert!(!s.is_active());
            s.record("ignored", 1);
        }
        assert!(Recorder::drain().is_empty());
    }

    #[test]
    fn enabled_spans_capture_timing_and_fields() {
        let _guard = serial();
        Recorder::enable();
        let _ = Recorder::drain();
        {
            let mut s = Span::enter("work");
            assert!(s.is_active());
            s.record("items", 42);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        Recorder::disable();
        let spans = Recorder::drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert!(
            spans[0].nanos >= 1_000_000,
            "slept 2ms, got {}",
            spans[0].nanos
        );
        assert_eq!(spans[0].fields, vec![("items", 42)]);
        assert_eq!(spans[0].trace_id, 0, "no ambient context installed");
        assert_ne!(spans[0].span_id, 0, "span ids are allocated regardless");
        assert_eq!(spans[0].parent_id, 0);
    }

    #[test]
    fn drain_merges_threads_in_start_order() {
        let _guard = serial();
        Recorder::enable();
        let _ = Recorder::drain();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let _s = Span::enter("t");
                    }
                });
            }
        });
        Recorder::disable();
        let spans = Recorder::drain();
        assert_eq!(spans.len(), 12);
        assert!(spans
            .windows(2)
            .all(|w| w[0].start_nanos <= w[1].start_nanos));
    }

    /// Regression test for the ring-registry leak: rings of exited
    /// threads must be pruned by drain, not accumulated forever, and
    /// their drop counts must survive the pruning.
    #[test]
    fn drain_prunes_rings_of_exited_threads() {
        let _guard = serial();
        Recorder::enable();
        let _ = Recorder::drain();
        let dropped_before = Recorder::dropped();
        const THREADS: usize = 64;
        const SPANS_PER_THREAD: usize = SPAN_RING_CAPACITY + 10; // force drops
        for _ in 0..THREADS {
            std::thread::spawn(|| {
                for _ in 0..SPANS_PER_THREAD {
                    let _s = Span::enter("short-lived");
                }
            })
            .join()
            .unwrap();
        }
        Recorder::disable();
        let grown = Recorder::ring_count();
        assert!(grown >= THREADS, "each thread registered a ring: {grown}");
        let drained = Recorder::drain();
        assert_eq!(
            drained.iter().filter(|r| r.name == "short-lived").count(),
            THREADS * SPAN_RING_CAPACITY,
            "each exited thread's retained spans were recovered"
        );
        assert!(
            Recorder::ring_count() <= grown - THREADS,
            "dead-thread rings pruned: {} left of {grown}",
            Recorder::ring_count()
        );
        assert_eq!(
            Recorder::dropped() - dropped_before,
            (THREADS * (SPANS_PER_THREAD - SPAN_RING_CAPACITY)) as u64,
            "drop counts survive pruning"
        );
        // A second drain is a no-op on the pruned registry.
        assert!(Recorder::drain().is_empty());
    }
}
