//! Unified telemetry for the switchless runtimes (paper §VII's
//! "integration with profiling tools" extension).
//!
//! Three layers, all dependency-free and usable from both the real
//! runtimes and the deterministic simulator:
//!
//! 1. [`Tracer`] — a lock-free bounded MPSC ring buffer of typed
//!    [`Event`]s. Producers are wait-free on the happy path (one CAS on
//!    a relaxed cursor plus a release store); the ring drops the newest
//!    event when full and counts drops instead of blocking a caller.
//!    Timestamps are **caller-provided** cycle counts so the real
//!    runtimes stamp with `CycleClock` (real or virtual) and the DES
//!    stamps with kernel time — this crate has no clock of its own.
//! 2. [`MetricsRegistry`] — named counters/gauges/histograms plus
//!    pull-style collectors, with a single-pass [`MetricsRegistry::snapshot`].
//! 3. Exporters ([`export`]) — JSON-lines event dumps, Prometheus-style
//!    text exposition, and Chrome `trace_event` JSON (loads in
//!    `about://tracing` / Perfetto). All output is hand-rolled: the
//!    workspace `serde` is an offline no-op shim.
//!
//! A hub reaches a component only by being passed to it — a runtime's
//! `start_with_telemetry`, the simulator's `SimConfig::with_telemetry`;
//! there is no process-wide default, so an untraced run records nothing.
//!
//! Ordering contract (see DESIGN.md §8): events from one thread appear
//! in that thread's program order; events from different threads appear
//! in *some* interleaving consistent with the ring's admission order.
//! Metric updates are relaxed atomics — a snapshot is internally
//! consistent per counter but may skew across counters by in-flight
//! updates.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod quantile;
mod ring;
pub mod scheduler;
pub mod slo;
mod thread_ids;
pub mod tracer;

pub use event::{Event, Origin, PhaseKind, RecordedEvent};
pub use metrics::{
    Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot, HIST_BUCKETS,
};
pub use profile::{CallPhaseProfiler, Phase, PhaseRecorder, ProfileSnapshot, PHASES};
pub use quantile::Quantiles;
pub use scheduler::{SchedulerDriver, SchedulerStep};
pub use slo::SloReport;
pub use tracer::Tracer;

use std::sync::Arc;

/// Default ring capacity (events) for a [`Telemetry`] hub.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// A telemetry hub: one tracer plus one metrics registry.
///
/// Runtimes hold an `Option<Arc<Telemetry>>`; when `None` the hot path
/// is a single branch. Create with [`Telemetry::new`] and pass the same
/// hub to every component whose events should merge into one trace.
#[derive(Debug)]
pub struct Telemetry {
    tracer: Tracer,
    metrics: MetricsRegistry,
    profile: CallPhaseProfiler,
}

impl Telemetry {
    /// New hub with the default trace capacity.
    pub fn new() -> Arc<Self> {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// New hub with an explicit trace ring capacity (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            tracer: Tracer::with_capacity(capacity),
            metrics: MetricsRegistry::new(),
            profile: CallPhaseProfiler::new(),
        })
    }

    /// The event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The per-phase call profiler.
    pub fn profile(&self) -> &CallPhaseProfiler {
        &self.profile
    }

    /// Record one event (convenience for `tracer().record(..)`).
    #[inline]
    pub fn record(&self, t_cycles: u64, origin: Origin, event: Event) {
        self.tracer.record(t_cycles, origin, event);
    }

    /// Per-thread caller origin for this hub (see [`Tracer::caller_origin`]).
    #[inline]
    pub fn caller_origin(&self) -> Origin {
        self.tracer.caller_origin()
    }
}
