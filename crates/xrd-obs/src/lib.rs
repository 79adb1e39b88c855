//! # xrd-obs
//!
//! Dependency-free observability for the XRD daemons — the in-repo
//! answer to "what is the reactor/pipeline actually doing right now?".
//! Everything is plain `std`: atomics for the hot path, one mutex-held
//! `BTreeMap` per metric kind for registration (off the hot path), and
//! no wire format of its own (the `xrd-net` codec carries [`Snapshot`]s
//! as `StatsReport` frames).
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomic event/level accounting;
//! * [`Histogram`] — fixed-bucket log-scale latency histogram (4
//!   sub-buckets per octave, ≤25% relative bucket error) with
//!   p50/p95/p99 queries on its [`HistSnapshot`];
//! * [`SpanRecorder`] — a bounded ring of [`SpanEvent`]s, the per-round
//!   phase timeline (submission window → hops → verify → audit →
//!   reveal → delivery);
//! * [`Registry`] — names → metrics, with [`global()`] as the
//!   process-wide instance every daemon in the process reports into
//!   (one daemon per process in real deployments, so a scrape of the
//!   global registry *is* that daemon's view);
//! * [`Snapshot`] — a point-in-time copy of a registry, renderable as a
//!   human-readable dump and diffable against an earlier scrape;
//! * a leveled stderr logger (the [`error!`], [`warn!`], [`info!`],
//!   [`debug!`] macros) driven by `XRD_LOG`.
//!
//! Hot-path cost discipline: recording is one or two relaxed atomic
//! RMWs, and a fixed-name series is recorded through [`counter!`],
//! [`gauge!`] or [`hist!`], which look its name up once per call site
//! (the first time that site runs) and then read the `&'static` handle
//! from the site's own `OnceLock` — never the registry's mutex.  The
//! functions [`counter()`], [`gauge()`] and [`hist()`] are for names
//! computed at run time, whose caller keeps the handle.  Building with the
//! `noop` feature compiles all recording to nothing; the registry,
//! snapshots and scrapes keep working (and read zero).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hist;
mod logger;
mod metric;
mod registry;
mod snapshot;
mod span;

pub use hist::{bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, N_BUCKETS};
pub use logger::{log_enabled, log_line, set_level_for_tests, Level};
pub use metric::{Counter, Gauge};
pub use registry::{global, Registry, SpanTimer};
pub use snapshot::{HistSnapshot, Snapshot};
pub use span::{SpanEvent, SpanRecorder};

/// Get-or-create a counter in the [`global()`] registry.  A fixed name
/// is recorded through [`counter!`] instead.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Get-or-create a gauge in the [`global()`] registry.  A fixed name is
/// recorded through [`gauge!`] instead.
pub fn gauge(name: &str) -> &'static Gauge {
    global().gauge(name)
}

/// Get-or-create a histogram in the [`global()`] registry.  A fixed
/// name is recorded through [`hist!`] instead.
pub fn hist(name: &str) -> &'static Histogram {
    global().hist(name)
}

/// The [`global()`] registry's counter named by a string literal, the
/// same `&'static` handle [`counter()`] returns: the name is looked up
/// the first time this call site runs and the handle kept in the site's
/// own `OnceLock`.
///
/// ```
/// xrd_obs::counter!("doc.example.events").incr();
/// assert!(std::ptr::eq(
///     xrd_obs::counter!("doc.example.events"),
///     xrd_obs::counter("doc.example.events"),
/// ));
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::__handle!(counter, Counter, $name)
    };
}

/// The [`global()`] registry's gauge named by a string literal, resolved
/// once per call site (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {
        $crate::__handle!(gauge, Gauge, $name)
    };
}

/// The [`global()`] registry's histogram named by a string literal,
/// resolved once per call site (see [`counter!`]).
#[macro_export]
macro_rules! hist {
    ($name:literal) => {
        $crate::__handle!(hist, Histogram, $name)
    };
}

/// The body of [`counter!`], [`gauge!`] and [`hist!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __handle {
    ($get:ident, $kind:ident, $name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::$kind> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::$get($name))
    }};
}

/// Record a completed span in the [`global()`] registry's ring.
pub fn span(name: impl Into<String>, round: u64, start_us: u64, dur_us: u64) {
    global().spans().record(name, round, start_us, dur_us);
}

/// Start timing a span against the [`global()`] registry; the returned
/// guard records it when dropped (or via [`SpanTimer::finish`]).
pub fn span_timer(name: impl Into<String>, round: u64) -> SpanTimer {
    global().span_timer(name, round)
}
