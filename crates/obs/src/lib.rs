//! # sitra-obs
//!
//! Lightweight, dependency-free observability for the whole pipeline:
//! the per-component timeline capture the paper's evaluation is built
//! on (simulation blocked time, in-situ compute, data movement,
//! in-transit aggregation — Figures 9–12) as live, queryable state
//! instead of a passive post-run struct.
//!
//! Three pieces:
//!
//! * [`Registry`] — a lock-cheap store of named [`Counter`]s,
//!   [`Gauge`]s, and [`Histogram`]s. Handle resolution takes a lock
//!   once; every update afterwards is a single atomic operation, so
//!   instrumented hot paths (frame sends, scheduler hand-offs, shard
//!   puts) pay nanoseconds. Names follow `component.subsystem.metric`,
//!   with optional `{key=value}` labels (e.g.
//!   `net.conn.frames_sent{peer=127.0.0.1:7788}` on a dialed connection,
//!   `{peer=127.0.0.1}` on an accepted one).
//! * [`ObsEvent`] — a span-event journal entry (`ts_ns`, component,
//!   name, key/value pairs) routed to a global, test-overridable
//!   [`EventSink`]. The default sink is none (events cost one relaxed
//!   atomic load); [`JsonlSink`] appends JSON lines for offline replay
//!   (`obs_report`), [`VecSink`] captures in memory for tests.
//! * [`serve_metrics`] — a minimal HTTP endpoint rendering the global
//!   registry as a Prometheus-style text snapshot
//!   (`sitra-staged --metrics-listen`).
//!
//! Everything is process-global by default ([`global`]) so layers do
//! not need registry plumbing through every constructor; tests that
//! assert exact registry contents take [`isolate`], which swaps in a
//! fresh registry (and serializes such tests against each other).

mod event;
mod registry;
mod serve;

pub use event::{
    emit, install_sink, set_journal_path, ts_ns, EventSink, JsonlSink, ObsEvent, VecSink,
};
pub use registry::{
    global, isolate, Counter, Gauge, Histogram, IsolateGuard, MetricValue, Registry, Snapshot,
};
pub use serve::{serve_metrics, MetricsServer};

/// Resolve (or create) a counter in the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Resolve (or create) a gauge in the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Resolve (or create) a histogram in the global registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}
