//! The `mailbox_persist` workload: the storage tier alone.  Two
//! persistent mailbox daemons on loopback; every round the harness
//! delivers ℓ entries to every mailbox (one blocking connection per
//! shard, as a coordinator does) and then walks and acks the mailboxes
//! (one `FetchSession` each on one client-reactor thread, as users
//! do).  A rotating tenth of the mailboxes sits each round out and
//! drains two rounds' worth the next, so reads of a backlog run beside
//! reads of fresh entries.  No message is mixed: the crypto is idle.

use std::net::SocketAddr;
use std::time::Instant;

use xrd_core::mailbox::{shard_of, LogStoreConfig};
use xrd_mixnet::MailboxMessage;
use xrd_net::{Conn, DaemonHandle, MailboxDaemon};

use crate::check::{MailboxLedger, Tally};
use crate::env::{cpu_seconds, TempDir};
use crate::inputs::{rng, Mailboxes, Stream, ENTRIES_PER_ROUND};
use crate::rounds::{paired_shares, settled_snapshot, RegistryDeltas, SETUP_REPEATS};
use crate::rungs::log_store_rungs;
use crate::staged::{deliver_all, fetch_all};
use crate::stats::median;
use crate::trace::{span_if, Tracer};
use crate::{Budget, Metrics, RunOutput};

/// Mailbox shards (the deployment shape's).
const SHARDS: usize = 2;
/// One mailbox in this many skips each round's fetch.
const COHORTS: u64 = 10;
/// Mailboxes the direct `LogMailboxStore` rungs run on.
const RUNG_MAILBOXES: usize = 1000;

/// The workload's parameters.
#[derive(Clone, Copy, Debug)]
pub struct MailboxWorkload {
    /// Mailboxes.
    pub mailboxes: usize,
    /// Unmeasured rounds after launch (part of set-up).
    pub warmup: usize,
}

/// Two persistent shards, the connections to them, and the ledger of
/// what went in and came out.
struct Tier {
    /// Daemon handles (kept alive, never read).
    _daemons: Vec<DaemonHandle>,
    addrs: Vec<SocketAddr>,
    conns: Vec<Conn>,
    boxes: Mailboxes,
    ledger: MailboxLedger,
    round: u64,
}

/// What one round took.
struct RoundTimes {
    deliver_ms: f64,
    fetch_ms: f64,
}

impl Tier {
    /// Spawn the shards in fresh directories under `dir`, connect, and
    /// run the warm-up rounds.
    fn set_up(w: &MailboxWorkload, seed: u64, dir: &std::path::Path) -> Tier {
        let daemons: Vec<DaemonHandle> = (0..SHARDS)
            .map(|shard| {
                MailboxDaemon::spawn_persistent(
                    "127.0.0.1:0",
                    shard,
                    SHARDS,
                    dir.join(format!("shard-{shard}")),
                    LogStoreConfig::default(),
                )
                .expect("persistent mailbox daemon spawns")
            })
            .collect();
        let addrs: Vec<SocketAddr> = daemons.iter().map(DaemonHandle::addr).collect();
        let conns = addrs
            .iter()
            .map(|&addr| Conn::connect(addr).expect("mailbox daemon accepts"))
            .collect();
        let mut tier = Tier {
            _daemons: daemons,
            addrs,
            conns,
            boxes: Mailboxes::generate(&mut rng(seed, Stream::Mailboxes), w.mailboxes),
            ledger: MailboxLedger::new(w.mailboxes),
            round: 0,
        };
        for _ in 0..w.warmup {
            tier.run_round(None);
        }
        tier
    }

    /// Mailboxes that fetch in `round`: all but the resting cohort.
    fn fetching(&self, round: u64) -> Vec<usize> {
        (0..self.boxes.ids.len())
            .filter(|i| *i as u64 % COHORTS != round % COHORTS)
            .collect()
    }

    fn fetch(&mut self, who: &[usize]) {
        let ids: Vec<[u8; 32]> = who.iter().map(|&i| self.boxes.ids[i]).collect();
        let fetched = fetch_all(&self.addrs, &ids);
        for (&i, entries) in who.iter().zip(&fetched) {
            self.ledger.fetched(i, entries);
        }
    }

    /// One round: deliver to every mailbox, then walk and ack all but
    /// the resting cohort.  Inputs are built before the clock starts.
    fn run_round(&mut self, tracer: Option<&Tracer>) -> RoundTimes {
        let round = self.round;
        let mut per_shard: Vec<Vec<MailboxMessage>> = vec![Vec::new(); SHARDS];
        for msg in self.boxes.round_messages(round) {
            per_shard[shard_of(&msg.mailbox, SHARDS)].push(msg);
        }
        let who = self.fetching(round);

        let mut times = RoundTimes {
            deliver_ms: 0.0,
            fetch_ms: 0.0,
        };
        span_if(tracer, "round", round, None, |root| {
            let start = Instant::now();
            span_if(tracer, "net.mailbox.deliver", round, root, |deliver| {
                deliver_all(tracer, deliver, &mut self.conns, round, per_shard)
            });
            times.deliver_ms = start.elapsed().as_secs_f64() * 1e3;
            self.ledger.delivered(round);

            let start = Instant::now();
            span_if(tracer, "net.swarm.fetch", round, root, |_| self.fetch(&who));
            times.fetch_ms = start.elapsed().as_secs_f64() * 1e3;
        });
        self.round += 1;
        times
    }

    /// Drain whatever the last round's resting cohort still holds, off
    /// the clock, and close the ledger.
    fn finish(mut self) -> Tally {
        let last = self.round.saturating_sub(1);
        let resting: Vec<usize> = (0..self.boxes.ids.len())
            .filter(|i| *i as u64 % COHORTS == last % COHORTS)
            .collect();
        self.fetch(&resting);
        self.ledger.tally()
    }
}

/// Reactor bytes in and out so far, from the program's own registry
/// (only the two mailbox daemons serve connections in this workload).
fn reactor_bytes() -> f64 {
    let snap = settled_snapshot();
    (snap.counter("reactor.bytes_in") + snap.counter("reactor.bytes_out")) as f64
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(w: &MailboxWorkload, seed: u64, budget: &Budget) -> RunOutput {
    let mut tmp = TempDir::create("mailbox_persist").expect("temp dir under the target dir");
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut tier = None;
    let mut tally = Tally::default();
    for rep in 0..SETUP_REPEATS {
        if let Some(old) = tier.take() {
            tally.absorb(Tier::finish(old));
        }
        let start = Instant::now();
        tier = Some(Tier::set_up(
            w,
            seed,
            &tmp.path().join(format!("setup-{rep}")),
        ));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut tier = tier.expect("set up at least once");

    let read_before = tier.ledger.read;
    let bytes_before = reactor_bytes();
    let cpu_before = cpu_seconds();
    let mut round_ms = Vec::new();
    let start = Instant::now();
    while budget.more(start, round_ms.len()) {
        let times = tier.run_round(None);
        round_ms.push(times.deliver_ms + times.fetch_ms);
    }
    let cpu_s = cpu_seconds() - cpu_before;
    let bytes = reactor_bytes() - bytes_before;
    let read = (tier.ledger.read - read_before).max(1) as f64;
    tally.absorb(tier.finish());
    if tally.failed > 0 {
        tmp.keep();
    }

    let mut metrics = Metrics::default();
    metrics.set("round_latency_p50_ms", median(&round_ms));
    metrics.set("msgs_per_s", read / (round_ms.iter().sum::<f64>() / 1e3));
    metrics.set("bytes_per_msg", bytes / read);
    metrics.set("cpu_ms_per_msg", cpu_s * 1e3 / read);
    metrics.set("setup_s", median(&setup_s));
    RunOutput {
        tally,
        metrics,
        round_ms,
        tracer: None,
    }
}

/// The traced run: traced and untraced rounds alternate on one tier
/// (there is no opaque entry point for this workload — the harness is
/// the only driver, so "untraced" is the same loop with spans off),
/// then the `LogMailboxStore` rungs.
pub fn run_traced(w: &MailboxWorkload, seed: u64, budget: &Budget) -> RunOutput {
    let mut tmp = TempDir::create("mailbox_persist").expect("temp dir under the target dir");
    let tracer = Tracer::new();
    let mut tier = Tier::set_up(w, seed, &tmp.path().join("tier"));

    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut registry = RegistryDeltas::default();
    let start = Instant::now();
    while budget.more(start, traced_ms.len()) {
        let times = tier.run_round(None);
        plain_ms.push(times.deliver_ms + times.fetch_ms);
        let before = settled_snapshot();
        let times = tier.run_round(Some(&tracer));
        traced_ms.push(times.deliver_ms + times.fetch_ms);
        registry.add(&before, &settled_snapshot());
    }
    let rounds = traced_ms.len();
    let n = w.mailboxes as f64;
    let entries = n * ENTRIES_PER_ROUND as f64;
    let tally = tier.finish();

    let mut metrics = Metrics::default();
    let covered: Vec<f64> = tracer
        .coverage("round")
        .iter()
        .map(|c| c.covered_ms)
        .collect();
    let (share, overhead_pct) = paired_shares(&covered, &traced_ms, &plain_ms);
    metrics.set("trace.attributed_share", share);
    metrics.set("trace.overhead_pct", overhead_pct);
    let deliver_ms = median(&tracer.sum_ms_by_round("net.mailbox.deliver"));
    metrics.set("net.mailbox.deliver_ms", deliver_ms);
    metrics.set(
        "net.mailbox.deliver_us_per_entry",
        deliver_ms * 1e3 / entries,
    );
    metrics.set(
        "net.mailbox.deliver_entries_per_s",
        entries / (deliver_ms / 1e3),
    );
    // Nine mailboxes in ten fetch each round, and what they read
    // averages out to every entry delivered.
    let fetch_ms = median(&tracer.sum_ms_by_round("net.swarm.fetch"));
    let fetching = n * (COHORTS - 1) as f64 / COHORTS as f64;
    metrics.set("net.swarm.fetch_ms", fetch_ms);
    metrics.set("net.swarm.fetch_us_per_mailbox", fetch_ms * 1e3 / fetching);
    metrics.set("net.swarm.fetch_entries_per_s", entries / (fetch_ms / 1e3));
    metrics.set("net.swarm.connections", fetching);
    registry.report(&mut metrics, rounds);

    // The first of the run's mailboxes: the same generator stream, so
    // the same ids the tier was fed.
    let rung_boxes = Mailboxes::generate(
        &mut rng(seed, Stream::Mailboxes),
        w.mailboxes.min(RUNG_MAILBOXES),
    );
    for (name, value) in log_store_rungs(&tmp.path().join("rung"), &rung_boxes) {
        metrics.set(name, value);
    }
    if tally.failed > 0 {
        tmp.keep();
    }
    RunOutput {
        tally,
        metrics,
        round_ms: traced_ms,
        tracer: Some(tracer),
    }
}
