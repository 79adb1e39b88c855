//! # xrd-perf
//!
//! The repo's benchmark: four workloads, end-to-end metrics measured
//! untraced through the entry points users call, and a per-layer
//! ledger from a second, traced run in which the harness drives the
//! same round phase by phase and records spans around its own calls.
//! Nothing in the program is edited or instrumented for it.  See
//! `PERF.md` next to this crate for what each name means and why each
//! workload exists.

#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod env;
pub mod inputs;
pub mod json;
pub mod mailbox;
pub mod rounds;
pub mod rungs;
pub mod spec;
pub mod staged;
pub mod stats;
pub mod trace;

use std::time::Instant;

use crate::check::Tally;
use crate::json::Json;
use crate::mailbox::MailboxWorkload;
use crate::rounds::RoundWorkload;
use crate::staged::Backend;
use crate::trace::Tracer;

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Keep starting rounds until this many seconds have passed …
    pub seconds: f64,
    /// … and at least this many rounds are measured.
    pub min_rounds: usize,
}

impl Budget {
    /// Whether to start another round, `done` being measured so far.
    pub fn more(&self, start: Instant, done: usize) -> bool {
        done < self.min_rounds || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Metric values by name, in the order they were set.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Set (or overwrite) a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What one run of one workload produced.
pub struct RunOutput {
    /// Expected deliveries against verified ones.
    pub tally: Tally,
    /// The metrics the run measured (a layer the workload does not
    /// exercise has none; [`result_json`] reports those as 0).
    pub metrics: Metrics,
    /// Wall clock of each measured round, ms, in order.
    pub round_ms: Vec<f64>,
    /// The spans, if this was a traced run.
    pub tracer: Option<Tracer>,
}

/// A workload at the size the benchmark runs it, or at the size the
/// smoke test does.
enum Workload {
    Round(RoundWorkload),
    Mailbox(MailboxWorkload),
}

fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let round = |backend, users, smoke_users, warmup| {
        Workload::Round(RoundWorkload {
            backend,
            users: if smoke { smoke_users } else { users },
            warmup: if smoke { 1 } else { warmup },
        })
    };
    Some(match name {
        "round_inproc" => round(Backend::InProc, spec::ROUND_USERS, 16, 1),
        "round_tcp" => round(Backend::Tcp, spec::ROUND_USERS, 16, 1),
        "round_tcp_small" => round(Backend::Tcp, spec::SMALL_USERS, 8, 3),
        "mailbox_persist" => Workload::Mailbox(MailboxWorkload {
            mailboxes: if smoke { 60 } else { spec::MAILBOXES },
            warmup: 1,
        }),
        _ => return None,
    })
}

/// Run `name` once.  `smoke` shrinks the inputs and measures a fixed
/// two rounds, for the test suite.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Option<RunOutput> {
    let budget = if smoke {
        Budget {
            seconds: 0.0,
            min_rounds: 2,
        }
    } else {
        Budget {
            seconds,
            min_rounds: 3,
        }
    };
    let mut out = match (workload(name, smoke)?, traced) {
        (Workload::Round(w), false) => rounds::run_untraced(&w, seed, &budget),
        (Workload::Round(w), true) => rounds::run_traced(&w, seed, &budget),
        (Workload::Mailbox(w), false) => mailbox::run_untraced(&w, seed, &budget),
        (Workload::Mailbox(w), true) => mailbox::run_traced(&w, seed, &budget),
    };
    if !traced {
        out.metrics.set("peak_rss_mb", env::peak_rss_mb());
    }
    Some(out)
}

/// The result object the benchmark contract asks for on the last line
/// of standard output: `correct`, `attempted`, `failed`, and every
/// end-to-end metric (untraced) or every per-layer metric (traced),
/// each with its unit.  A per-layer metric of a layer the workload
/// never enters is reported as 0: no work done there, no time spent.
pub fn result_json(out: &RunOutput, traced: bool) -> Json {
    let specs = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let metrics = specs.iter().map(|m| {
        let value = out.metrics.get(m.name).unwrap_or(0.0);
        (
            m.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.tally.failed == 0)),
        ("attempted", Json::Num(out.tally.attempted as f64)),
        ("failed", Json::Num(out.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}
