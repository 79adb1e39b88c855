//! In-memory spans recorded by the harness around its calls into each
//! layer.  Nothing here touches program code: a span is opened and
//! closed by the benchmark itself, kept in memory for the whole run,
//! and only written out (Chrome trace-event JSON) after measuring ends.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::Json;

/// Handle of a recorded span, used to parent its children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.coordinator.mix`.
    pub name: &'static str,
    /// The round the span belongs to (spans of one round share it).
    pub round: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
    /// Small per-thread lane number (Chrome `tid`).
    pub lane: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

struct Inner {
    spans: Vec<Span>,
    lanes: HashMap<ThreadId, u32>,
}

/// The span recorder.  Shared by reference with the scoped threads the
/// harness runs chains and shards on.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                lanes: HashMap::new(),
            }),
        }
    }

    /// Run `f` inside a span.  The span's id is handed to `f` so it can
    /// parent nested spans, including ones recorded on other threads.
    pub fn span<T>(
        &self,
        name: &'static str,
        round: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let id = {
            let mut inner = self.inner.lock().expect("tracer poisoned");
            let next = inner.lanes.len() as u32;
            let lane = *inner
                .lanes
                .entry(std::thread::current().id())
                .or_insert(next);
            inner.spans.push(Span {
                name,
                round,
                parent,
                start_us,
                end_us: start_us,
                lane,
            });
            SpanId(inner.spans.len() - 1)
        };
        let out = f(id);
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.inner.lock().expect("tracer poisoned").spans[id.0].end_us = end_us;
        out
    }

    /// Every span recorded so far, in start order of opening.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().expect("tracer poisoned").spans.clone()
    }

    /// Per round, the summed duration (ms) of the spans called `name`,
    /// in round order.  Rounds without such a span are absent.
    pub fn sum_ms_by_round(&self, name: &str) -> Vec<f64> {
        self.fold_by_round(name, |acc, ms| acc + ms)
    }

    /// Per round, the longest span (ms) called `name`.
    pub fn max_ms_by_round(&self, name: &str) -> Vec<f64> {
        self.fold_by_round(name, f64::max)
    }

    fn fold_by_round(&self, name: &str, fold: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let mut by_round: std::collections::BTreeMap<u64, f64> = Default::default();
        for span in self.spans().iter().filter(|s| s.name == name) {
            by_round
                .entry(span.round)
                .and_modify(|acc| *acc = fold(*acc, span.ms()))
                .or_insert(span.ms());
        }
        by_round.into_values().collect()
    }

    /// For each span called `root`, the share of its duration its
    /// direct children cover, plus the widest stretch none of them
    /// covers (ms, and the names on either side of it).
    pub fn coverage(&self, root: &str) -> Vec<Coverage> {
        let spans = self.spans();
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, r)| {
                let mut kids: Vec<&Span> = spans
                    .iter()
                    .filter(|s| s.parent == Some(SpanId(i)))
                    .collect();
                kids.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
                let mut covered_us = 0.0;
                let mut cursor = r.start_us;
                let mut before = "start";
                let mut gap = (0.0, "start", "end");
                for kid in &kids {
                    if kid.start_us - cursor > gap.0 {
                        gap = (kid.start_us - cursor, before, kid.name);
                    }
                    // Direct children of a round run one after another
                    // on the harness thread; clamp in case they do not.
                    covered_us += (kid.end_us - kid.start_us.max(cursor)).max(0.0);
                    cursor = cursor.max(kid.end_us);
                    before = kid.name;
                }
                if r.end_us - cursor > gap.0 {
                    gap = (r.end_us - cursor, before, "end");
                }
                Coverage {
                    round: r.round,
                    total_ms: r.ms(),
                    covered_ms: covered_us / 1000.0,
                    gap_ms: gap.0 / 1000.0,
                    gap_after: gap.1,
                    gap_before: gap.2,
                }
            })
            .collect()
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete (`X`) event per span, with its round,
    /// parent and self time as arguments.
    pub fn chrome_json(&self) -> Json {
        let spans = self.spans();
        let mut child_us = vec![0.0f64; spans.len()];
        for span in &spans {
            if let Some(SpanId(p)) = span.parent {
                child_us[p] += span.end_us - span.start_us;
            }
        }
        let events = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let dur = s.end_us - s.start_us;
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.lane as f64)),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(dur)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            ("round", Json::Num(s.round as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |SpanId(p)| Json::Num(p as f64)),
                            ),
                            // Children running in parallel can cover
                            // more than their parent's wall clock.
                            ("self_us", Json::Num((dur - child_us[i]).max(0.0))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// [`Tracer::span`] when there is a tracer, a plain call when there is
/// not: for code that runs both traced and untraced.
pub fn span_if<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    round: u64,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, round, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// How much of one root span its direct children account for.
#[derive(Clone, Debug)]
pub struct Coverage {
    /// The root span's round.
    pub round: u64,
    /// The root span's duration.
    pub total_ms: f64,
    /// Time covered by direct children.
    pub covered_ms: f64,
    /// The widest uncovered stretch.
    pub gap_ms: f64,
    /// The child span that ends where the gap starts (or `start`).
    pub gap_after: &'static str,
    /// The child span that starts where the gap ends (or `end`).
    pub gap_before: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_gaps_are_found() {
        let tracer = Tracer::new();
        tracer.span("round", 3, None, |root| {
            tracer.span("a", 3, Some(root), |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            std::thread::sleep(Duration::from_millis(6));
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    tracer.span("b", 3, Some(root), |_| {
                        std::thread::sleep(Duration::from_millis(2))
                    })
                });
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert_ne!(spans[1].lane, spans[2].lane);
        assert_eq!(tracer.sum_ms_by_round("a").len(), 1);

        let cov = &tracer.coverage("round")[0];
        assert_eq!((cov.gap_after, cov.gap_before), ("a", "b"));
        assert!(cov.gap_ms >= 5.0 && cov.covered_ms < cov.total_ms);

        let json = tracer.chrome_json();
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
    }
}
