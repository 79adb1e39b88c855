//! xrd-obs behavioral tests: histogram percentiles against an exact
//! sorted-vector oracle, counters under thread hammering, and span-ring
//! wraparound.

#![cfg(not(feature = "noop"))]

use proptest::prelude::*;

use xrd_obs::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Counter, Gauge, Histogram, Registry,
    SpanRecorder, N_BUCKETS,
};

/// Exact nearest-rank percentile, the oracle the histogram approximates.
fn oracle_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn histogram_percentiles_match_sorted_vec_oracle(
        // Mixed magnitudes: small exact values, µs-scale, and huge.
        small in prop::collection::vec(0u64..16, 1..60),
        mid in prop::collection::vec(1u64..2_000_000, 1..200),
        wide in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        let mut samples = small;
        samples.extend(mid);
        samples.extend(wide);

        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert!(snap.is_well_formed());
        prop_assert_eq!(snap.count, samples.len() as u64);

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());

        for p in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = oracle_percentile(&sorted, p);
            let got = snap.percentile(p);
            // Upper-bound semantics with ≤25% bucket width: the report
            // is never below the true value, and never above the true
            // value's bucket (it may clamp down to the observed max).
            prop_assert!(got >= exact.min(snap.max), "p{}: {} < {}", p, got, exact);
            prop_assert!(
                got <= bucket_upper_bound(bucket_index(exact)),
                "p{}: {} above bucket of {}",
                p,
                got,
                exact
            );
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_tight(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < N_BUCKETS);
        prop_assert!(bucket_lower_bound(i) <= v);
        prop_assert!(v <= bucket_upper_bound(i));
        if v > 0 {
            let j = bucket_index(v - 1);
            prop_assert!(j <= i);
        }
    }
}

#[test]
fn concurrent_counter_hammering_loses_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;
    let counter = Counter::new();
    let gauge = Gauge::new();
    let hist = Histogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (counter, gauge, hist) = (&counter, &gauge, &hist);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.incr();
                    gauge.add(if i % 2 == 0 { 1 } else { -1 });
                    hist.record(t as u64 * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(gauge.get(), 0);
    let snap = hist.snapshot();
    assert!(snap.is_well_formed());
    assert_eq!(snap.count, THREADS as u64 * PER_THREAD);
}

#[test]
fn span_ring_wraps_keeping_the_latest() {
    let rec = SpanRecorder::new(16);
    for i in 0..40u64 {
        rec.record(format!("phase{i}"), i / 8, i, 1 + i);
    }
    assert_eq!(rec.recorded(), 40);
    let spans = rec.snapshot();
    assert_eq!(spans.len(), 16);
    for (k, span) in spans.iter().enumerate() {
        let i = 24 + k as u64; // spans 24..40 survive
        assert_eq!(span.name, format!("phase{i}"));
        assert_eq!(span.start_us, i);
        assert_eq!(span.dur_us, 1 + i);
    }
}

#[test]
fn registry_snapshot_sees_every_kind() {
    let reg: &'static Registry = Box::leak(Box::new(Registry::new(8)));
    reg.counter("frames").add(9);
    reg.gauge("conns").set(3);
    reg.hist("lat").record(1234);
    reg.span_timer("round.window", 5).finish();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("frames"), 9);
    assert_eq!(snap.gauge("conns"), Some(3));
    assert_eq!(snap.hist("lat").unwrap().count, 1);
    assert_eq!(snap.spans.len(), 1);
    assert_eq!(snap.spans[0].name, "round.window");
    assert_eq!(snap.spans[0].round, 5);
    assert!(snap.render().contains("round.window"));
}

/// A macro's handle is the global registry's own, the one the function
/// form returns for the same name, and a series enters a snapshot at
/// its first record.
#[test]
fn a_macro_handle_is_the_registrys_handle() {
    let unrecorded = xrd_obs::global().snapshot();
    assert_eq!(unrecorded.counter("macro.same_handle"), 0);
    assert_eq!(unrecorded.gauge("macro.same_handle_g"), None);
    assert!(unrecorded.hist("macro.same_handle_h").is_none());
    assert!(std::ptr::eq(
        xrd_obs::counter!("macro.same_handle"),
        xrd_obs::counter("macro.same_handle")
    ));
    assert!(std::ptr::eq(
        xrd_obs::gauge!("macro.same_handle_g"),
        xrd_obs::gauge("macro.same_handle_g")
    ));
    assert!(std::ptr::eq(
        xrd_obs::hist!("macro.same_handle_h"),
        xrd_obs::hist("macro.same_handle_h")
    ));
}

/// Two call sites naming one series record into it, each resolving its
/// handle once however often it runs.
#[test]
fn two_call_sites_record_into_one_series() {
    fn here() {
        xrd_obs::counter!("macro.two_sites").incr();
    }
    fn there(n: u64) {
        xrd_obs::counter!("macro.two_sites").add(n);
    }
    for _ in 0..3 {
        here();
        there(10);
    }
    assert_eq!(xrd_obs::global().snapshot().counter("macro.two_sites"), 33);
}

/// A gauge or histogram call site records as the handle does.
#[test]
fn gauge_and_histogram_sites_record() {
    for depth in [4, -1, 2] {
        xrd_obs::gauge!("macro.depth").add(depth);
    }
    for us in [10, 20, 40] {
        xrd_obs::hist!("macro.latency_us").record(us);
    }
    let snap = xrd_obs::global().snapshot();
    assert_eq!(snap.gauge("macro.depth"), Some(5));
    let latency = snap.hist("macro.latency_us").expect("recorded");
    assert_eq!((latency.count, latency.sum), (3, 70));
    assert_eq!((latency.min, latency.max), (10, 40));
}
