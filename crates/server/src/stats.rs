//! Server-side counters and the server's metric surface: atomic totals,
//! the request-latency histogram (a `pxv_obs::Histogram`, shared with
//! the metrics registry), the reactor gauges exported by `METRICS`, and
//! the one row table both `STATS` and `METRICS` are rendered from.

use pxv_engine::EngineStats;
use pxv_obs::{Counter, Exposition, Gauge, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic lifetime counters of one server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and admitted to the worker pool.
    pub(crate) connections: AtomicU64,
    /// Connections turned away at the limit (`ERR busy`).
    pub(crate) rejected: AtomicU64,
    /// Requests handled (including those answered with `ERR`).
    pub(crate) requests: AtomicU64,
    /// Requests whose response contained at least one `ERR` line (a
    /// `BATCH` with failing body lines counts once).
    pub(crate) errors: AtomicU64,
    /// Requests that arrived pipelined — queued behind an earlier,
    /// still-unanswered request on the same connection.
    pub(crate) pipelined: AtomicU64,
    /// Per-request latency histogram (dispatch to response written,
    /// queue wait included; microsecond samples). Cloned into the
    /// metrics registry as `pxv_server_request_us`.
    pub(crate) latency: Histogram,
}

/// A point-in-time copy of [`ServerStats`] (what `STATS` serializes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted and admitted.
    pub connections: u64,
    /// Connections rejected at the connection limit.
    pub rejected: u64,
    /// Requests handled.
    pub requests: u64,
    /// Requests whose response contained at least one `ERR` line.
    pub errors: u64,
    /// Requests that were queued behind another in-flight request on the
    /// same connection (pipelining depth indicator).
    pub pipelined: u64,
    /// Median request latency (bucket upper bound, µs).
    pub p50_us: u64,
    /// 99th-percentile request latency (bucket upper bound, µs).
    pub p99_us: u64,
}

impl ServerStats {
    pub(crate) fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            pipelined: self.pipelined.load(Ordering::Relaxed),
            p50_us: self.latency.quantile(0.50),
            p99_us: self.latency.quantile(0.99),
        }
    }
}

/// Every value `STATS` and `METRICS` report, read once per request from
/// the published engine epoch and the server (see [`ROWS`] for what each
/// field means on the wire).
#[derive(Debug)]
pub(crate) struct Sample {
    pub(crate) docs: u64,
    pub(crate) views: u64,
    pub(crate) catalog_epoch: u64,
    pub(crate) published_epochs: u64,
    pub(crate) engine: EngineStats,
    pub(crate) server: ServerStatsSnapshot,
    pub(crate) active: u64,
    pub(crate) slow_queries: u64,
    pub(crate) spans_dropped: u64,
}

/// How a [`Row`] renders in the `METRICS` exposition.
enum Kind {
    Counter,
    Gauge,
}

use Kind::{Counter as C, Gauge as G};

/// One datum of the `STATS` line and the `METRICS` exposition: the
/// `STATS` key (`None` for a `METRICS`-only series), the metric kind and
/// name, the value, and the metric's help text.
struct Row(
    Option<&'static str>,
    Kind,
    &'static str,
    fn(&Sample) -> u64,
    &'static str,
);

/// The single table behind `STATS` and `METRICS`: the `STATS` line emits
/// the keyed rows in this order, and the exposition renders every row
/// after the live registry. A datum added here is served by both verbs.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row(Some("docs"), G, "pxv_engine_docs", |s| s.docs,
        "Loaded documents."),
    Row(Some("views"), G, "pxv_engine_views", |s| s.views,
        "Registered views."),
    Row(Some("epoch"), G, "pxv_engine_epoch", |s| s.catalog_epoch,
        "Catalog epoch (bumped per mutation)."),
    Row(Some("engine_epoch"), C, "pxv_engine_epochs_published_total", |s| s.published_epochs,
        "Engine epochs published since the server started."),
    Row(Some("queries"), C, "pxv_engine_queries_total", |s| s.engine.queries,
        "Queries answered."),
    Row(Some("tp"), C, "pxv_engine_tp_plans_total", |s| s.engine.plans_tp,
        "Single-view TP plans executed."),
    Row(Some("tpi"), C, "pxv_engine_tpi_plans_total", |s| s.engine.plans_tpi,
        "Interleaving TPI plans executed."),
    Row(Some("direct"), C, "pxv_engine_direct_total", |s| s.engine.direct,
        "Direct (view-less) evaluations."),
    Row(Some("mats"), C, "pxv_engine_materializations_total", |s| s.engine.materializations,
        "View extensions materialized."),
    Row(Some("exthits"), C, "pxv_engine_cache_hits_total", |s| s.engine.cache_hits,
        "Extension cache hits."),
    Row(Some("inval"), C, "pxv_engine_invalidations_total", |s| s.engine.invalidations,
        "Cached extensions invalidated."),
    Row(Some("planhits"), C, "pxv_engine_plan_cache_hits_total", |s| s.engine.plan_cache_hits,
        "Plan cache hits."),
    Row(Some("planmiss"), C, "pxv_engine_plan_cache_misses_total", |s| s.engine.plan_cache_misses,
        "Plan cache misses."),
    Row(Some("edits"), C, "pxv_engine_edits_total", |s| s.engine.edits_applied,
        "Document edits applied."),
    Row(Some("deltas"), C, "pxv_engine_deltas_total", |s| s.engine.deltas_applied,
        "Extensions maintained incrementally under edits."),
    Row(Some("fallbacks"), C, "pxv_engine_delta_fallbacks_total", |s| s.engine.delta_fallbacks,
        "Extensions invalidated because no delta rule applied."),
    Row(Some("cache_bytes"), G, "pxv_cache_bytes", |s| s.engine.cache_bytes,
        "Bytes held by the extension cache."),
    Row(Some("evictions"), C, "pxv_cache_evictions_total", |s| s.engine.evictions,
        "Extensions evicted by the budget."),
    Row(Some("admission_rejects"), C, "pxv_cache_admission_rejects_total",
        |s| s.engine.admission_rejects, "Extensions refused admission by the budget."),
    Row(Some("sections_faulted"), C, "pxv_store_sections_faulted_total",
        |s| s.engine.sections_faulted, "Lazily restored snapshot sections decoded on first probe."),
    Row(Some("lazy_decode_ns"), C, "pxv_store_lazy_decode_ns_total", |s| s.engine.lazy_decode_ns,
        "Nanoseconds spent decoding lazily faulted sections."),
    Row(Some("conns"), C, "pxv_server_connections_total", |s| s.server.connections,
        "Connections accepted and admitted."),
    Row(Some("rejected"), C, "pxv_server_rejected_total", |s| s.server.rejected,
        "Connections rejected at the connection limit."),
    Row(Some("active"), G, "pxv_server_active_connections", |s| s.active,
        "Currently open connections."),
    Row(Some("requests"), C, "pxv_server_requests_total", |s| s.server.requests,
        "Requests handled."),
    Row(Some("errors"), C, "pxv_server_errors_total", |s| s.server.errors,
        "Requests answered with at least one ERR line."),
    Row(Some("pipelined"), C, "pxv_server_pipelined_total", |s| s.server.pipelined,
        "Requests that arrived pipelined behind an unanswered one."),
    Row(None, C, "pxv_server_slow_queries_total", |s| s.slow_queries,
        "Requests slower than the slow-log threshold."),
    Row(Some("spans_dropped"), C, "pxv_obs_spans_dropped", |s| s.spans_dropped,
        "Span records dropped from overflowing trace rings."),
    Row(Some("p50us"), G, "pxv_server_request_p50_us", |s| s.server.p50_us,
        "Median request latency (bucket upper bound, µs)."),
    Row(Some("p99us"), G, "pxv_server_request_p99_us", |s| s.server.p99_us,
        "99th-percentile request latency (bucket upper bound, µs)."),
];

/// Every `STATS` key, in the order the server emits them, with the name
/// of the `METRICS` series that carries the same value.
pub fn stats_series() -> impl Iterator<Item = (&'static str, &'static str)> {
    ROWS.iter()
        .filter_map(|Row(key, _, metric, ..)| key.map(|key| (key, *metric)))
}

impl Sample {
    /// The `STATS` response line (without the trailing newline).
    pub(crate) fn stats_line(&self) -> String {
        let mut line = String::from("STATS");
        for Row(key, _, _, value, _) in ROWS {
            if let Some(key) = key {
                line.push_str(&format!(" {key}={}", value(self)));
            }
        }
        line
    }

    /// Appends every table row to a `METRICS` exposition.
    pub(crate) fn render_into(&self, x: &mut Exposition) {
        for Row(_, kind, metric, value, help) in ROWS {
            match kind {
                C => x.counter(metric, help, value(self)),
                G => x.gauge(metric, help, value(self)),
            }
        }
    }
}

/// The server's live metric handles, registered under canonical
/// `pxv_<layer>_<name>` names. Reactor gauges are written from the poll
/// loop; engine and server lifetime counters are *sampled* into the
/// rendered exposition at `METRICS` time (see [`Sample::render_into`])
/// instead of being double-counted into live handles.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    /// The registry the live handles below are registered in.
    pub(crate) registry: Registry,
    /// Request units sitting in the worker queue at the last sweep.
    pub(crate) queue_depth: Gauge,
    /// Largest per-connection pipelining depth seen at the last sweep.
    pub(crate) pipeline_depth: Gauge,
    /// Engine epoch last observed by the reactor.
    pub(crate) epoch: Gauge,
    /// Microseconds between reactor observations across the iteration
    /// that noticed the last epoch change — how stale a freshly
    /// published epoch can look to connections.
    pub(crate) epoch_lag_us: Gauge,
    /// Poll-loop iteration latency (µs).
    pub(crate) poll_loop_us: Histogram,
    /// Snapshots written via `SAVE`.
    pub(crate) saves: Counter,
    /// Snapshots loaded via `RESTORE`.
    pub(crate) restores: Counter,
    /// Size of the last snapshot written (bytes).
    pub(crate) snapshot_bytes: Gauge,
}

impl ServerMetrics {
    /// Builds the registry and registers every live handle, attaching
    /// `request_latency` (the [`ServerStats`] histogram) under
    /// `pxv_server_request_us`.
    pub(crate) fn new(request_latency: Histogram) -> ServerMetrics {
        let registry = Registry::new();
        registry.attach_histogram(
            "pxv_server_request_us",
            "Request latency from dispatch to response written (µs).",
            request_latency,
        );
        let queue_depth = registry.gauge(
            "pxv_server_queue_depth",
            "Request units waiting in the worker queue.",
        );
        let pipeline_depth = registry.gauge(
            "pxv_server_pipeline_depth",
            "Largest per-connection pipelining depth at the last sweep.",
        );
        let epoch = registry.gauge(
            "pxv_server_epoch",
            "Engine epoch last observed by the reactor.",
        );
        let epoch_lag_us = registry.gauge(
            "pxv_server_epoch_lag_us",
            "Reactor observation gap across the last epoch change (µs).",
        );
        let poll_loop_us = registry.histogram(
            "pxv_server_poll_loop_us",
            "Poll-loop iteration latency (µs).",
        );
        let saves = registry.counter("pxv_store_saves_total", "Snapshots written via SAVE.");
        let restores =
            registry.counter("pxv_store_restores_total", "Snapshots loaded via RESTORE.");
        let snapshot_bytes = registry.gauge(
            "pxv_store_snapshot_bytes",
            "Size of the last snapshot written (bytes).",
        );
        ServerMetrics {
            registry,
            queue_depth,
            pipeline_depth,
            epoch,
            epoch_lag_us,
            poll_loop_us,
            saves,
            restores,
            snapshot_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    #[test]
    fn snapshot_quantiles_come_from_the_shared_histogram() {
        let stats = ServerStats::default();
        let metrics = ServerMetrics::new(stats.latency.clone());
        for _ in 0..99 {
            stats.latency.record_duration(Duration::from_micros(3));
        }
        stats.latency.record_duration(Duration::from_millis(40));
        let snap = stats.snapshot();
        assert_eq!(snap.p50_us, 4);
        assert_eq!(snap.p99_us, 4);
        // The registry sees the same samples through the attached handle.
        let text = metrics.registry.render();
        assert!(text.contains("pxv_server_request_us_count 100"));
    }

    #[test]
    fn row_table_keys_and_names_are_unique_and_wire_safe() {
        let keys: HashSet<_> = ROWS.iter().filter_map(|row| row.0).collect();
        let metrics: HashSet<_> = ROWS.iter().map(|row| row.2).collect();
        assert_eq!(keys.len(), stats_series().count(), "duplicate STATS key");
        assert_eq!(metrics.len(), ROWS.len(), "duplicate metric name");
        let wire_safe = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_';
        assert!(keys.iter().all(|key| key.bytes().all(wire_safe)));
        assert!(metrics
            .iter()
            .all(|m| pxv_obs::metrics::valid_metric_name(m)));
    }

    #[test]
    fn reactor_gauges_render_under_canonical_names() {
        let metrics = ServerMetrics::new(Histogram::new());
        metrics.queue_depth.set(3);
        metrics.epoch.set(7);
        metrics.poll_loop_us.record(120);
        metrics.saves.inc();
        let text = metrics.registry.render();
        for needle in [
            "pxv_server_queue_depth 3",
            "pxv_server_epoch 7",
            "# TYPE pxv_server_poll_loop_us histogram",
            "pxv_store_saves_total 1",
            "# TYPE pxv_server_pipeline_depth gauge",
            "# TYPE pxv_server_epoch_lag_us gauge",
            "# TYPE pxv_store_restores_total counter",
            "# TYPE pxv_store_snapshot_bytes gauge",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
