//! The `round_*` workloads: a population submits at round start and
//! fetches at round end, closed loop, the next round starting when the
//! previous returns.

use std::time::Instant;

use rand::rngs::StdRng;

use xrd_core::{FetchResults, RoundReport, User};

use crate::check::{check_round, Tally};
use crate::env::cpu_seconds;
use crate::inputs::{rng, Population, Stream};
use crate::rungs::round_rungs;
use crate::staged::{Backend, Opaque, Staged};
use crate::stats::{median, median_or_zero};
use crate::trace::Tracer;
use crate::{Budget, Metrics, RunOutput};

/// Times set-up is repeated in an untraced run; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;

/// Times the kernel rungs are repeated in a traced run.
const RUNG_REPEATS: usize = 5;

/// One `round_*` workload's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RoundWorkload {
    /// Which deployment runs the rounds.
    pub backend: Backend,
    /// Population size.
    pub users: usize,
    /// Unmeasured rounds after launch (part of set-up): the first
    /// round pays lazy initialisation and a cold allocator.
    pub warmup: usize,
}

/// A deployment, its population and its client-side generator.
struct Live<D> {
    deployment: D,
    pop: Population,
    rng: StdRng,
}

impl<D> Live<D> {
    /// Queue the round's chats, time `run`, check what it returns.
    fn timed_round(
        &mut self,
        round: u64,
        ell: usize,
        tally: &mut Tally,
        run: impl FnOnce(&mut D, &mut StdRng, &mut [User]) -> (RoundReport, FetchResults),
    ) -> f64 {
        self.pop.queue_chats(round);
        let start = Instant::now();
        let (report, fetched) = run(&mut self.deployment, &mut self.rng, &mut self.pop.users);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tally.absorb(check_round(&self.pop, ell, round, &report, &fetched));
        ms
    }
}

impl Live<Opaque> {
    fn round(&mut self, tally: &mut Tally) -> f64 {
        let (round, ell) = (self.deployment.round(), self.deployment.topology().ell());
        self.timed_round(round, ell, tally, |d, rng, users| d.run_round(rng, users))
    }
}

impl Live<Staged> {
    fn round(&mut self, tracer: &Tracer, tally: &mut Tally) -> f64 {
        let (round, ell) = (self.deployment.round(), self.deployment.topology().ell());
        self.timed_round(round, ell, tally, |d, rng, users| {
            d.run_round(tracer, rng, users)
        })
    }
}

/// Key generation, launch and connect, user creation, warm-up rounds:
/// everything a user of the system pays before the first steady round.
fn set_up_opaque(w: &RoundWorkload, seed: u64, tally: &mut Tally) -> Live<Opaque> {
    let deployment = Opaque::launch(w.backend, &mut rng(seed, Stream::Deployment));
    let pop = Population::generate(
        &mut rng(seed, Stream::Users),
        deployment.topology(),
        w.users,
    );
    let mut live = Live {
        deployment,
        pop,
        rng: rng(seed, Stream::Rounds),
    };
    for _ in 0..w.warmup {
        live.round(tally);
    }
    live
}

/// Bytes one user moves per delivered message in process, where no
/// wire exists to count them on: the 2ℓ submissions she seals per round
/// (this round's and the next round's cover) plus the ℓ sealed entries
/// she fetches, over ℓ.  Sizes are read off what the program produces.
fn user_bytes_per_msg(live: &mut Live<Opaque>) -> f64 {
    let Opaque::InProc(deployment) = &live.deployment else {
        unreachable!("only the in-process deployment has no wire");
    };
    let topo = deployment.topology();
    let round = deployment.round();
    let user = &live.pop.users[0];
    let sealed = user.seal_round(&mut live.rng, topo, deployment.chain_keys(), round, false);
    let submit_bytes: usize = sealed.iter().map(|(_, s)| s.wire_len()).sum();
    let fetch_bytes: usize = user
        .build_round_messages(topo, round, false)
        .iter()
        .map(|(_, m)| m.sealed.len())
        .sum();
    (2 * submit_bytes + fetch_bytes) as f64 / topo.ell() as f64
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(w: &RoundWorkload, seed: u64, budget: &Budget) -> RunOutput {
    let mut tally = Tally::default();

    // Set up several times (each from scratch, the previous deployment
    // torn down first) and keep the last to measure on.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        drop(live.take());
        let start = Instant::now();
        live = Some(set_up_opaque(w, seed, &mut tally));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut live = live.expect("set up at least once");

    let wire_before = live.deployment.bytes_on_wire();
    let verified_before = tally.verified();
    let cpu_before = cpu_seconds();
    let mut round_ms = Vec::new();
    let start = Instant::now();
    while budget.more(start, round_ms.len()) {
        round_ms.push(live.round(&mut tally));
    }
    let cpu_s = cpu_seconds() - cpu_before;
    let delivered = (tally.verified() - verified_before).max(1) as f64;
    let bytes_per_msg = match (wire_before, live.deployment.bytes_on_wire()) {
        (Some(before), Some(after)) => (after - before) as f64 / delivered,
        _ => user_bytes_per_msg(&mut live),
    };

    let mut metrics = Metrics::default();
    metrics.set("round_latency_p50_ms", median(&round_ms));
    metrics.set(
        "msgs_per_s",
        delivered / (round_ms.iter().sum::<f64>() / 1e3),
    );
    metrics.set("bytes_per_msg", bytes_per_msg);
    metrics.set("cpu_ms_per_msg", cpu_s * 1e3 / delivered);
    metrics.set("setup_s", median(&setup_s));
    RunOutput {
        tally,
        metrics,
        round_ms,
        tracer: None,
    }
}

/// The traced run: opaque and staged rounds alternate on two
/// deployments fed identical inputs, so the staged spans are held
/// against an opaque median measured in the same process over the same
/// seconds; then the kernel rungs.
pub fn run_traced(w: &RoundWorkload, seed: u64, budget: &Budget) -> RunOutput {
    let mut tally = Tally::default();
    let tracer = Tracer::new();

    let mut opaque = set_up_opaque(w, seed, &mut tally);
    let mut staged = {
        let deployment = Staged::launch(w.backend, &mut rng(seed, Stream::Deployment));
        let pop = Population::generate(
            &mut rng(seed, Stream::Users),
            deployment.topology(),
            w.users,
        );
        Live {
            deployment,
            pop,
            rng: rng(seed, Stream::Rounds),
        }
    };
    // Warm-up spans would drag the medians; record them elsewhere.
    let warmup_tracer = Tracer::new();
    for _ in 0..w.warmup {
        staged.round(&warmup_tracer, &mut tally);
    }

    let mut opaque_ms = Vec::new();
    let mut staged_ms = Vec::new();
    let mut registry = RegistryDeltas::default();
    let start = Instant::now();
    while budget.more(start, staged_ms.len()) {
        // Alternate which goes first, so neither always runs on the
        // other's warm caches.
        let opaque_first = staged_ms.len() % 2 == 0;
        if opaque_first {
            opaque_ms.push(opaque.round(&mut tally));
        }
        let before = settled_snapshot();
        staged_ms.push(staged.round(&tracer, &mut tally));
        registry.add(&before, &settled_snapshot());
        if !opaque_first {
            opaque_ms.push(opaque.round(&mut tally));
        }
    }
    let rounds = staged_ms.len();

    let mut metrics = Metrics::default();
    let opaque_p50 = median(&opaque_ms);
    let coverage = tracer.coverage("round");
    let covered: Vec<f64> = coverage.iter().map(|c| c.covered_ms).collect();
    let attributed = median(&covered);
    let (share, overhead_pct) = paired_shares(&covered, &staged_ms, &opaque_ms);
    metrics.set("trace.attributed_share", share);
    metrics.set("trace.overhead_pct", overhead_pct);
    if let Some(widest) = coverage.iter().max_by(|a, b| a.gap_ms.total_cmp(&b.gap_ms)) {
        eprintln!(
            "largest unattributed gap: {:.3} ms in round {} between {} and {} \
             (opaque p50 {opaque_p50:.1} ms, staged spans p50 {attributed:.1} ms)",
            widest.gap_ms, widest.round, widest.gap_after, widest.gap_before
        );
    }

    let n = w.users as f64;
    let ell = staged.deployment.topology().ell() as f64;
    let k = staged.deployment.topology().chain_len() as f64;
    let entries = n * ell;
    let p50_sum = |name: &str| median_or_zero(&tracer.sum_ms_by_round(name));
    let p50_max = |name: &str| median_or_zero(&tracer.max_ms_by_round(name));

    // Spans both drivers record.  Each user seals this round's ℓ
    // submissions and the next round's ℓ covers.
    let sealed = 2.0 * entries;
    metrics.set("mixnet.client.sealed", sealed);
    metrics.set(
        "mixnet.client.seal_us_per_submission",
        p50_sum("mixnet.client.seal") * 1e3 / sealed,
    );
    metrics.set(
        "mixnet.server.entries",
        registry.per_round("hop.entries", rounds),
    );
    let open_ms = p50_sum("core.user.open") - p50_sum("core.mailbox.drain");
    metrics.set("core.user.open_us_per_entry", open_ms * 1e3 / entries);

    match w.backend {
        Backend::InProc => {
            metrics.set(
                "mixnet.runner.chain_round_ms",
                p50_max("mixnet.runner.chain_round"),
            );
            metrics.set(
                "mixnet.runner.chain_round_sum_ms",
                p50_sum("mixnet.runner.chain_round"),
            );
            metrics.set(
                "core.deployment.rotate_ms",
                p50_sum("core.deployment.rotate"),
            );
            metrics.set("core.deployment.glue_ms", opaque_p50 - attributed);
            metrics.set(
                "core.mailbox.put_us_per_entry",
                p50_sum("core.mailbox.put") * 1e3 / entries,
            );
            metrics.set(
                "core.mailbox.drain_us_per_mailbox",
                p50_sum("core.mailbox.drain") * 1e3 / n,
            );
        }
        Backend::Tcp => {
            let Staged::Tcp(cluster) = &staged.deployment else {
                unreachable!("a TCP workload stages a TCP cluster");
            };
            let submit_ms = p50_sum("net.swarm.submit");
            metrics.set("net.swarm.submit_ms", submit_ms);
            metrics.set(
                "net.swarm.submit_us_per_submission",
                submit_ms * 1e3 / entries,
            );
            metrics.set("net.swarm.connections", k * entries);
            metrics.set("net.swarm.sessions_failed", cluster.sessions_failed as f64);
            let fetch_ms = p50_sum("net.swarm.fetch");
            metrics.set("net.swarm.fetch_ms", fetch_ms);
            metrics.set("net.swarm.fetch_us_per_mailbox", fetch_ms * 1e3 / n);
            metrics.set("net.swarm.fetch_entries_per_s", entries / (fetch_ms / 1e3));

            let open = p50_sum("net.coordinator.open");
            let agree = p50_max("net.coordinator.agree");
            let reveal = p50_sum("net.coordinator.reveal");
            let rotate = p50_sum("net.coordinator.rotate");
            metrics.set("net.coordinator.open_ms", open);
            metrics.set("net.coordinator.agree_ms", agree);
            metrics.set("net.coordinator.mix_ms", p50_max("net.coordinator.mix"));
            metrics.set("net.coordinator.mix_sum_ms", p50_sum("net.coordinator.mix"));
            metrics.set("net.coordinator.reveal_ms", reveal);
            metrics.set("net.coordinator.rotate_ms", rotate);
            metrics.set("net.coordinator.fixed_ms", open + agree + reveal + rotate);
            metrics.set("mixnet.server.audit_ms", p50_sum("mixnet.server.audit"));

            let deliver_ms = p50_sum("net.mailbox.deliver");
            metrics.set("net.mailbox.deliver_ms", deliver_ms);
            metrics.set(
                "net.mailbox.deliver_us_per_entry",
                deliver_ms * 1e3 / entries,
            );
            metrics.set(
                "net.mailbox.deliver_entries_per_s",
                entries / (deliver_ms / 1e3),
            );
            metrics.set("net.remote.glue_ms", opaque_p50 - attributed);
            registry.report(&mut metrics, rounds);
        }
    }

    // The rungs run last, on an otherwise idle process, several times
    // over (each is milliseconds of work); the median is reported.
    let per_chain =
        w.users * staged.deployment.topology().ell() / staged.deployment.topology().n_chains();
    let mut rung_rng = rng(seed, Stream::Rungs);
    let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for _ in 0..RUNG_REPEATS {
        for (name, value) in round_rungs(&mut rung_rng, per_chain) {
            match samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => samples.push((name, vec![value])),
            }
        }
    }
    for (name, values) in samples {
        if w.backend == Backend::Tcp || !name.starts_with("net.") {
            metrics.set(name, median(&values));
        }
    }

    RunOutput {
        tally,
        metrics,
        round_ms: staged_ms,
        tracer: Some(tracer),
    }
}

/// `trace.attributed_share` and `trace.overhead_pct` from rounds paired
/// in time: round `i`'s spans (`covered_ms`) and wall clock
/// (`traced_ms`) against the untraced round run right beside it
/// (`plain_ms`), median over pairs.  Pairing cancels the machine's
/// slow drifts, which a ratio of two medians would not.
pub fn paired_shares(covered_ms: &[f64], traced_ms: &[f64], plain_ms: &[f64]) -> (f64, f64) {
    let shares: Vec<f64> = covered_ms
        .iter()
        .zip(plain_ms)
        .map(|(c, p)| c / p)
        .collect();
    let overheads: Vec<f64> = traced_ms
        .iter()
        .zip(plain_ms)
        .map(|(t, p)| (t - p) / p * 100.0)
        .collect();
    (median(&shares), median(&overheads))
}

/// The program's registry, read once its daemons have gone quiet.  A
/// reactor thread counts a write after making it, so the client can
/// hold a round's last reply a moment before the daemon has counted
/// it; a count read at once would land in the wrong round now and then
/// and stop repeating exactly.
pub fn settled_snapshot() -> xrd_obs::Snapshot {
    std::thread::sleep(std::time::Duration::from_millis(5));
    xrd_obs::global().snapshot()
}

/// Registry counters summed over the staged rounds only (the opaque
/// deployment's daemons share the process and the registry; they are
/// idle while a staged round runs).
#[derive(Default)]
pub struct RegistryDeltas {
    totals: std::collections::BTreeMap<String, u64>,
}

impl RegistryDeltas {
    /// Add what happened between two snapshots.
    pub fn add(&mut self, before: &xrd_obs::Snapshot, after: &xrd_obs::Snapshot) {
        for (name, delta) in after.counters_since(before) {
            *self.totals.entry(name).or_default() += delta;
        }
    }

    /// A counter's mean per round; 0 for a counter the program does
    /// not (or no longer does) keep.
    pub fn per_round(&self, name: &str, rounds: usize) -> f64 {
        self.totals.get(name).copied().unwrap_or(0) as f64 / rounds.max(1) as f64
    }

    /// The `net.reactor.*` metrics (per staged round) and the
    /// `net.daemon.*` ones (the registry's histograms as they stand).
    pub fn report(&self, metrics: &mut Metrics, rounds: usize) {
        for (metric, counter) in [
            ("net.reactor.accepts", "reactor.accepts"),
            ("net.reactor.frames_in", "reactor.frames_in"),
            ("net.reactor.bytes_in", "reactor.bytes_in"),
            ("net.reactor.bytes_out", "reactor.bytes_out"),
        ] {
            metrics.set(metric, self.per_round(counter, rounds));
        }
        let now = xrd_obs::global().snapshot();
        for (metric, hist) in [
            (
                "net.daemon.hop_decrypt_blind_us_p50",
                "hop.decrypt_blind_us",
            ),
            (
                "net.daemon.hop_shuffle_prove_us_p50",
                "hop.shuffle_prove_us",
            ),
        ] {
            metrics.set(metric, now.hist(hist).map_or(0.0, |h| h.p50() as f64));
        }
    }
}
