//! The metric registry: names → metric handles, plus the span ring.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::hist::Histogram;
use crate::metric::{Counter, Gauge};
use crate::snapshot::Snapshot;
use crate::span::SpanRecorder;

/// Default span-ring capacity for [`global()`].
const GLOBAL_SPAN_CAPACITY: usize = 1024;

/// A set of named metrics.
///
/// Registration (`counter`/`gauge`/`hist`) takes a mutex and allocates
/// once per name — a call site resolves its handle once (the
/// [`counter!`](crate::counter!) macros) and holds the returned
/// `&'static` reference, so the per-event hot path never touches the
/// registry. Metric storage is intentionally
/// leaked: a metric, once created, lives for the process (that is what
/// makes the handles `'static` and lock-free to use).
pub struct Registry {
    start: Instant,
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    hists: Mutex<BTreeMap<String, &'static Histogram>>,
    spans: SpanRecorder,
}

impl Registry {
    /// An empty registry whose span ring keeps `span_capacity` events.
    pub fn new(span_capacity: usize) -> Registry {
        Registry {
            start: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            spans: SpanRecorder::new(span_capacity),
        }
    }

    /// Microseconds since this registry was created (the process-wide
    /// time base for span offsets and log timestamps).
    pub fn uptime_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Get-or-create the named counter.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        if let Some(c) = map.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        map.insert(name.to_string(), c);
        c
    }

    /// Get-or-create the named gauge.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        if let Some(g) = map.get(name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        map.insert(name.to_string(), g);
        g
    }

    /// Get-or-create the named histogram.
    pub fn hist(&self, name: &str) -> &'static Histogram {
        let mut map = self.hists.lock().expect("registry poisoned");
        if let Some(h) = map.get(name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        map.insert(name.to_string(), h);
        h
    }

    /// The span ring.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Start timing a span; the guard records into this registry's ring
    /// when dropped or [`finish`](SpanTimer::finish)ed.
    pub fn span_timer(&'static self, name: impl Into<String>, round: u64) -> SpanTimer {
        SpanTimer {
            registry: self,
            name: Some(name.into()),
            round,
            start_us: self.uptime_us(),
            started: Instant::now(),
        }
    }

    /// Point-in-time copy of every metric and the span ring.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            uptime_us: self.uptime_us(),
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            hists: self
                .hists
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            spans: self.spans.snapshot(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("uptime_us", &self.uptime_us())
            .finish_non_exhaustive()
    }
}

/// Drop-guard from [`Registry::span_timer`]: measures wall time from
/// construction and records one [`crate::SpanEvent`] exactly once.
pub struct SpanTimer {
    registry: &'static Registry,
    name: Option<String>,
    round: u64,
    start_us: u64,
    started: Instant,
}

impl SpanTimer {
    /// Record the span now and return its duration in µs.
    pub fn finish(mut self) -> u64 {
        self.record_once()
    }

    fn record_once(&mut self) -> u64 {
        match self.name.take() {
            Some(name) => {
                let dur_us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
                self.registry
                    .spans()
                    .record(name, self.round, self.start_us, dur_us);
                dur_us
            }
            None => 0,
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.record_once();
    }
}

/// The process-wide registry: every daemon, pool and kernel in this
/// process reports here, and a `StatsRequest` scrape returns its
/// snapshot. Real deployments run one daemon per process, so this *is*
/// the per-daemon registry; in-process test clusters aggregate.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::new(GLOBAL_SPAN_CAPACITY))
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_is_stable() {
        let reg = Registry::new(8);
        let a = reg.counter("x");
        a.add(3);
        assert_eq!(reg.counter("x").get(), 3);
        assert!(std::ptr::eq(a, reg.counter("x")));
        reg.gauge("g").set(-2);
        reg.hist("h").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), 3);
        assert_eq!(snap.gauge("g"), Some(-2));
        assert_eq!(snap.hist("h").unwrap().count, 1);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let reg: &'static Registry = Box::leak(Box::new(Registry::new(8)));
        {
            let _t = reg.span_timer("phase", 7);
        }
        let t2 = reg.span_timer("explicit", 8);
        t2.finish();
        let spans = reg.spans().snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].round, 7);
        assert_eq!(spans[1].name, "explicit");
    }
}
