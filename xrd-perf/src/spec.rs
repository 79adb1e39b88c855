//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics.  `BENCHMARK.json` at the repo root lists the same names;
//! the smoke test fails if the two drift apart.

/// Users in `round_inproc` and `round_tcp`: 192 entries per chain,
/// above the 128 at which the coordinator streams a batch in chunks.
pub const ROUND_USERS: usize = 384;
/// Users in `round_tcp_small`: 48 entries per chain, whole-batch frames.
pub const SMALL_USERS: usize = 96;
/// Mailboxes in `mailbox_persist`.
pub const MAILBOXES: usize = 4000;

/// A workload and why it is in the benchmark.
pub struct WorkloadSpec {
    /// The `--workload` name.
    pub name: &'static str,
    /// What it stresses that the others do not.
    pub why: &'static str,
}

/// The workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "round_inproc",
        why: "384 users, in-process rounds: crypto, mixnet and core do all the work and the wire none, so a hop-kernel, sealing or proof change shows here and a wire change must not",
    },
    WorkloadSpec {
        name: "round_tcp",
        why: "same 384 users over a loopback cluster, batches streamed in chunks: same crypto plus codec, reactors, daemons, coordinator; minus round_inproc it prices the wire",
    },
    WorkloadSpec {
        name: "round_tcp_small",
        why: "96 users on the same cluster code, whole-batch frames: per-round fixed costs (window, agreement, audit, reveal, rotation, round trips) dominate instead of per-message work",
    },
    WorkloadSpec {
        name: "mailbox_persist",
        why: "4000 mailboxes on 2 persistent shards, a tenth draining a backlog each round: storage tier only, crypto idle, log writes and fsyncs beside paged reads and acks",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
pub struct MetricSpec {
    /// The name it is printed under.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics: what a user of the system sees.  Every workload
/// reports every one (bounds live in `BENCHMARK.json`).
pub const END_TO_END: &[MetricSpec] = &[
    lower("round_latency_p50_ms", "ms"),
    higher("msgs_per_s", "1/s"),
    lower("bytes_per_msg", "bytes"),
    lower("cpu_ms_per_msg", "ms"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// Per-layer metrics, bottom layer first.  `*_us_per_*` is span (or
/// rung) time over the count at that boundary; `*_ms` is the median
/// over rounds of a staged span.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("crypto.scalar_mul_pair_us", "us"),
    lower("crypto.dleq_batch_verify_us_per_proof", "us"),
    lower("crypto.aead_open_us", "us"),
    lower("mixnet.client.seal_us_per_submission", "us"),
    lower("mixnet.client.sealed", "count"),
    lower("mixnet.client.verify_pok_us", "us"),
    lower("mixnet.server.hop_us_per_entry", "us"),
    lower("mixnet.server.verify_hop_us_per_entry", "us"),
    lower("mixnet.server.audit_ms", "ms"),
    lower("mixnet.server.open_batch_us_per_entry", "us"),
    lower("mixnet.server.entries", "count"),
    lower("mixnet.runner.chain_round_ms", "ms"),
    lower("mixnet.runner.chain_round_sum_ms", "ms"),
    lower("core.user.open_us_per_entry", "us"),
    lower("core.deployment.rotate_ms", "ms"),
    lower("core.deployment.glue_ms", "ms"),
    lower("core.mailbox.put_us_per_entry", "us"),
    lower("core.mailbox.drain_us_per_mailbox", "us"),
    lower("core.mailbox.log_put_us_per_entry", "us"),
    lower("core.mailbox.log_flush_us", "us"),
    lower("core.mailbox.log_flushes", "count"),
    lower("core.mailbox.log_fetch_page_us", "us"),
    lower("core.mailbox.log_ack_us", "us"),
    lower("core.mailbox.log_bytes_per_entry", "bytes"),
    lower("net.codec.encode_us_per_entry", "us"),
    lower("net.codec.decode_us_per_entry", "us"),
    lower("net.codec.submit_frame_bytes", "bytes"),
    lower("net.swarm.submit_ms", "ms"),
    lower("net.swarm.submit_us_per_submission", "us"),
    lower("net.swarm.connections", "count"),
    lower("net.swarm.sessions_failed", "count"),
    lower("net.swarm.fetch_ms", "ms"),
    lower("net.swarm.fetch_us_per_mailbox", "us"),
    higher("net.swarm.fetch_entries_per_s", "1/s"),
    lower("net.coordinator.open_ms", "ms"),
    lower("net.coordinator.agree_ms", "ms"),
    lower("net.coordinator.mix_ms", "ms"),
    lower("net.coordinator.mix_sum_ms", "ms"),
    lower("net.coordinator.reveal_ms", "ms"),
    lower("net.coordinator.rotate_ms", "ms"),
    lower("net.coordinator.fixed_ms", "ms"),
    lower("net.reactor.accepts", "count"),
    lower("net.reactor.frames_in", "count"),
    lower("net.reactor.bytes_in", "bytes"),
    lower("net.reactor.bytes_out", "bytes"),
    lower("net.daemon.hop_decrypt_blind_us_p50", "us"),
    lower("net.daemon.hop_shuffle_prove_us_p50", "us"),
    lower("net.mailbox.deliver_ms", "ms"),
    lower("net.mailbox.deliver_us_per_entry", "us"),
    higher("net.mailbox.deliver_entries_per_s", "1/s"),
    lower("net.remote.glue_ms", "ms"),
    higher("trace.attributed_share", "ratio"),
    lower("trace.overhead_pct", "%"),
];
