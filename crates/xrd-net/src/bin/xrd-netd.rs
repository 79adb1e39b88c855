//! `xrd-netd`: the standalone XRD daemon launcher.
//!
//! Subcommands:
//!
//! * `keygen --chain-len K --epoch E --out-dir DIR` — run the §6.1 key
//!   ceremony for one chain and write `server-<i>.cfg` (secrets +
//!   public bundle; distribute each to its server, keep it secret) —
//!   in a real deployment each server would generate its own keys;
//! * `mix --config FILE [--listen ADDR] [--journal FILE]` — serve one
//!   mix hop, optionally with a durable state journal it resumes from
//!   after a crash;
//! * `byzantine --config FILE --lie LIE [--listen ADDR]` — serve one
//!   *lying* mix hop for adversarial deployments: the honest protocol
//!   with one `xrd_mixnet::Lie`, named as in `Lie::NAMED` (`lie-verify`,
//!   `equivocate-digest`, `corrupt-hop`, `bad-proof`, …; the table is
//!   `docs/FAULTS.md` §2); honest coordinators are expected to localize
//!   it — convict it, or suspect it for a digest lie;
//! * `proxy --upstream ADDR [--listen ADDR] [--plan FILE]` — a
//!   fault-injecting relay in front of any daemon, driven by a
//!   [`FaultPlan`] config file (see
//!   `docs/FAULTS.md`); with no plan it forwards faithfully;
//! * `demo [--servers N] [--chain-len K] [--shards S] [--users U]
//!   [--rounds R] [--faults FILE]` — spin a full loopback deployment
//!   (daemons, coordinator, client swarm) in one process and print
//!   round latency/throughput, every user's delivery checked; `--faults`
//!   inserts a fault proxy (running the given plan) in front of every
//!   mix daemon, turning the demo into a chaos run.  `--servers 1
//!   --chain-len 1 --shards 1 --users N --rounds 2` is the
//!   connection-scalability probe: N users submitting to one mix
//!   daemon's reactor, the first round paying every dial and the
//!   second none;
//! * `mailbox-storm [--shards S] [--mailboxes M] [--per-box P]
//!   [--offline F] [--dir DIR] [--seed X]` — drive the mailbox tier at
//!   paper scale (default 100 000 mailboxes across 4 shards) through
//!   two rounds on the path a deployment runs: the coordinator
//!   delivers shard-parallel, every user walks and acks her own
//!   mailbox over her own connection, and an offline fraction drains a
//!   two-round backlog in round 1 — fails on any lost or duplicated
//!   entry, and with `--dir` (persistent shards) prints acks, fsyncs
//!   and acks per fsync and fails if 1 000+ mailboxes paid a sync per
//!   ack;
//! * `launch --manifest FILE [--users N] [--rounds R]` — spawn the
//!   deployment a manifest describes as real `xrd-netd` child
//!   processes (key ceremony, config files), drive a client-reactor
//!   swarm against it, print per-round latency/throughput, and shut
//!   everything down over the wire (see `docs/DEPLOYMENT.md`);
//! * `scale [--users N[,N...]] [--rounds R]` — the §8 scaling curve:
//!   for each population size, launch a fresh multi-process deployment
//!   and drive the emulated-user swarm through `R` rounds, emitting one
//!   JSON object per size (round latency, msgs/s, per-phase span
//!   timings).  Multiple sizes re-invoke this
//!   binary once per size so each measurement gets a clean process-
//!   global metrics registry;
//! * `stats ADDR` — scrape any running daemon's metrics over the wire
//!   (a `StatsRequest` frame) and print the human-readable dump: frame
//!   counters, hop-phase latency histograms, round span timeline.
//!
//! Daemons print `LISTENING <addr>` once bound, so launchers (and
//! tests) binding port 0 can discover the assigned port.  Error paths
//! log through the leveled `xrd-obs` logger (`XRD_LOG=warn|info|debug`,
//! default `warn`).

use std::io::Write;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use xrd_core::DeploymentConfig;
use xrd_mixnet::chain_keys::{ChainPublicKeys, ServerSecrets};
use xrd_mixnet::Lie;
use xrd_net::codec::{decode_server_config, encode_server_config};
use xrd_net::{
    launch_local, launch_local_faulty_with, launch_manifest, mailbox_storm, run_swarm,
    ConnTimeouts, FaultPlan, FaultProxy, MailboxDaemon, MailboxStormConfig, Manifest,
    MixServerDaemon, RetryPolicy, SwarmConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  xrd-netd keygen --chain-len K [--epoch E] --out-dir DIR\n  \
         xrd-netd mix --config FILE [--listen ADDR] [--journal FILE]\n  \
         xrd-netd byzantine --config FILE --lie LIE [--listen ADDR] (LIE: lie-verify, \
         equivocate-digest, corrupt-hop, ... — docs/FAULTS.md §2)\n  \
         xrd-netd proxy --upstream ADDR [--listen ADDR] [--plan FILE]\n  \
         xrd-netd mailbox --shard S --shards N [--listen ADDR] [--dir DIR]\n  \
         xrd-netd mailbox-storm [--shards S] [--mailboxes M] [--per-box P] [--offline F] \
         [--dir DIR] [--seed X]\n  \
         xrd-netd demo [--servers N] [--chain-len K] [--shards S] [--users U] [--rounds R] \
         [--faults FILE]\n  \
         xrd-netd launch --manifest FILE [--users N] [--rounds R]\n  \
         xrd-netd scale [--users N[,N...]] [--rounds R] [--servers S] [--chain-len K] \
         [--shards M] [--json FILE]\n  \
         xrd-netd stats ADDR"
    );
    ExitCode::FAILURE
}

/// Pull `--name value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "keygen" => keygen(rest),
        "mix" => mix(rest),
        "byzantine" => byzantine(rest),
        "proxy" => proxy(rest),
        "mailbox" => mailbox(rest),
        "mailbox-storm" => mailbox_storm_cmd(rest),
        "demo" => demo(rest),
        "launch" => launch(rest),
        "scale" => scale(rest),
        "stats" => stats(rest),
        _ => usage(),
    }
}

/// Scrape one daemon's metrics over the wire and print the dump.
fn stats(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        return usage();
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            xrd_obs::error!("stats: bad address {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut conn = match xrd_net::Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            xrd_obs::error!("stats: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match conn.request(&xrd_net::codec::Frame::StatsRequest) {
        Ok(xrd_net::codec::Frame::StatsReport { snapshot }) => {
            print!("{}", snapshot.render());
            ExitCode::SUCCESS
        }
        Ok(other) => {
            xrd_obs::error!("stats: {addr} answered {other:?} instead of a StatsReport");
            ExitCode::FAILURE
        }
        Err(e) => {
            xrd_obs::error!("stats: scrape of {addr} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn keygen(args: &[String]) -> ExitCode {
    let Some(k) = flag(args, "--chain-len").and_then(|v| v.parse::<usize>().ok()) else {
        return usage();
    };
    let epoch = flag(args, "--epoch")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let Some(out_dir) = flag(args, "--out-dir") else {
        return usage();
    };
    let mut rng = StdRng::seed_from_u64(rand::rngs::OsRng.next_u64());
    let (mut secrets, mut public) = xrd_mixnet::generate_chain_keys(&mut rng, k, epoch);
    // Activate round-0 inner keys, exactly as deployments expect.
    xrd_mixnet::chain_keys::rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        xrd_obs::error!("keygen: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    for s in &secrets {
        let path = format!("{out_dir}/server-{}.cfg", s.position);
        let blob = encode_server_config(s, &public);
        if let Err(e) = std::fs::write(&path, blob) {
            xrd_obs::error!("keygen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn mix(args: &[String]) -> ExitCode {
    let Some(config_path) = flag(args, "--config") else {
        return usage();
    };
    let listen = flag(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let Some((secrets, public)) = read_config("mix", &config_path) else {
        return ExitCode::FAILURE;
    };
    let daemon = match flag(args, "--journal") {
        Some(journal) => MixServerDaemon::spawn_with_journal(
            listen.as_str(),
            secrets,
            public,
            rand::rngs::OsRng.next_u64(),
            journal,
        ),
        None => MixServerDaemon::spawn(
            listen.as_str(),
            secrets,
            public,
            rand::rngs::OsRng.next_u64(),
        ),
    };
    serve("mix", &listen, daemon)
}

/// A server's config file (`keygen`'s output), read for the subcommand
/// `cmd`: `None` once the failure is logged.
fn read_config(cmd: &str, path: &str) -> Option<(ServerSecrets, ChainPublicKeys)> {
    let blob = std::fs::read(path)
        .map_err(|e| xrd_obs::error!("{cmd}: cannot read {path}: {e}"))
        .ok()?;
    decode_server_config(&blob)
        .map_err(|e| xrd_obs::error!("{cmd}: bad config: {e}"))
        .ok()
}

/// Serve one deliberately-misbehaving mix hop: the adversary side of
/// the chaos harness.  Same config as `mix`, plus `--lie`.
fn byzantine(args: &[String]) -> ExitCode {
    let (Some(config_path), Some(lie)) = (flag(args, "--config"), flag(args, "--lie")) else {
        return usage();
    };
    let Ok(lie) = (lie.parse::<Lie>()).map_err(|e| xrd_obs::error!("byzantine: {e}")) else {
        return usage();
    };
    let listen = flag(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let Some((secrets, public)) = read_config("byzantine", &config_path) else {
        return ExitCode::FAILURE;
    };
    let seed = rand::rngs::OsRng.next_u64();
    let daemon = MixServerDaemon::spawn_byzantine(listen.as_str(), secrets, public, seed, lie);
    serve("byzantine", &listen, daemon)
}

/// Relay all traffic for one daemon through a fault-injection plan.
fn proxy(args: &[String]) -> ExitCode {
    let Some(upstream) = flag(args, "--upstream") else {
        return usage();
    };
    let upstream: std::net::SocketAddr = match upstream.parse() {
        Ok(a) => a,
        Err(e) => {
            xrd_obs::error!("proxy: bad upstream address {upstream}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listen = flag(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let plan = match flag(args, "--plan") {
        None => FaultPlan::new(0),
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    xrd_obs::error!("proxy: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match FaultPlan::parse(&text) {
                Ok(p) => p,
                Err(e) => {
                    xrd_obs::error!("proxy: bad plan in {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let n_rules = plan.rules.len();
    let proxy = match FaultProxy::spawn(listen.as_str(), upstream, plan) {
        Ok(p) => p,
        Err(e) => {
            xrd_obs::error!("proxy: cannot listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    announce(proxy.addr());
    println!("proxying to {upstream} under {n_rules} fault rule(s)");
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn mailbox(args: &[String]) -> ExitCode {
    let Some(shard) = flag(args, "--shard").and_then(|v| v.parse::<usize>().ok()) else {
        return usage();
    };
    let Some(shards) = flag(args, "--shards").and_then(|v| v.parse::<usize>().ok()) else {
        return usage();
    };
    let listen = flag(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let daemon = match flag(args, "--dir") {
        Some(dir) => MailboxDaemon::spawn_persistent(
            listen.as_str(),
            shard,
            shards,
            std::path::PathBuf::from(dir),
            xrd_core::mailbox::LogStoreConfig::default(),
        ),
        None => MailboxDaemon::spawn(listen.as_str(), shard, shards),
    };
    serve("mailbox", &listen, daemon)
}

fn mailbox_storm_cmd(args: &[String]) -> ExitCode {
    let config = MailboxStormConfig {
        shards: flag(args, "--shards")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
        mailboxes: flag(args, "--mailboxes")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000),
        per_box: flag(args, "--per-box")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1),
        offline_fraction: flag(args, "--offline")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.1),
        persist_dir: flag(args, "--dir").map(std::path::PathBuf::from),
        seed: flag(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(7),
    };
    println!(
        "mailbox-storm: {} mailboxes × {} msg/round across {} shard{} \
         ({:.0}% offline round 0, draining in round 1{})",
        config.mailboxes,
        config.per_box,
        config.shards,
        if config.shards == 1 { "" } else { "s" },
        config.offline_fraction * 100.0,
        if config.persist_dir.is_some() {
            ", persistent store"
        } else {
            ""
        },
    );
    let report = match mailbox_storm(&config) {
        Ok(r) => r,
        Err(e) => {
            xrd_obs::error!("mailbox-storm: failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.lost != 0 || report.duplicated != 0 {
        xrd_obs::error!(
            "mailbox-storm: accounting broken — {} lost, {} duplicated",
            report.lost,
            report.duplicated
        );
        return ExitCode::FAILURE;
    }
    for (round, r) in report.rounds.iter().enumerate() {
        println!(
            "round {round}: deliver {:.1?} | fetch {:.1?} ({} entries)",
            r.deliver, r.fetch, r.fetched
        );
    }
    println!("loss 0 | duplication 0");
    if config.persist_dir.is_some() {
        // How the acks were made durable, from the registry the shard
        // daemons (in this process) wrote: a shard syncs once per
        // reactor tick, so a herd's acks share syncs — a build that is
        // back to one sync per ack reads 1.0 here.
        let acks = report.stats.counter("frames.in.FetchAck");
        let fsyncs = report.stats.counter("mailbox.log.fsyncs");
        println!(
            "acks {acks} | fsyncs {fsyncs} | {:.1} acks per fsync",
            acks as f64 / fsyncs.max(1) as f64
        );
        // (`acks == 0`: an `obs-noop` build counts nothing.)
        if config.mailboxes >= 1000 && acks > 0 && fsyncs >= acks {
            xrd_obs::error!("mailbox-storm: {fsyncs} fsyncs for {acks} acks — no group commit");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn announce(addr: std::net::SocketAddr) {
    println!("LISTENING {addr}");
    let _ = std::io::stdout().flush();
}

/// Announce a daemon that bound `listen` and keep the process alive
/// until it is shut down over the wire — or log, for the subcommand
/// `cmd`, why it could not listen.
fn serve(cmd: &str, listen: &str, daemon: std::io::Result<xrd_net::DaemonHandle>) -> ExitCode {
    match daemon {
        Ok(mut daemon) => {
            announce(daemon.addr());
            daemon.wait();
            ExitCode::SUCCESS
        }
        Err(e) => {
            xrd_obs::error!("{cmd}: cannot listen on {listen}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn demo(args: &[String]) -> ExitCode {
    let servers = flag(args, "--servers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(6usize);
    let chain_len = flag(args, "--chain-len")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);
    let shards = flag(args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2usize);
    let users = flag(args, "--users")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128usize);
    let rounds = flag(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3u64);
    let faults = match flag(args, "--faults") {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    xrd_obs::error!("demo: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match FaultPlan::parse(&text) {
                Ok(p) => Some(p),
                Err(e) => {
                    xrd_obs::error!("demo: bad fault plan in {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let mut rng = StdRng::seed_from_u64(7);
    let config = DeploymentConfig {
        n_servers: servers,
        chain_len: Some(chain_len),
        f: 0.2,
        n_mailbox_shards: shards,
        seed: 0,
    };
    let (mut cluster, _proxies, mut deployment) = match &faults {
        None => match launch_local(&mut rng, &config) {
            Ok((cluster, deployment)) => (cluster, Vec::new(), deployment),
            Err(e) => {
                xrd_obs::error!("demo: launch failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        Some(plan) => match launch_local_faulty_with(
            &mut rng,
            &config,
            plan,
            ConnTimeouts::default(),
            RetryPolicy::default(),
        ) {
            Ok(v) => v,
            Err(e) => {
                xrd_obs::error!("demo: launch failed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!(
        "demo: {} daemons up ({} chains × {} hops + {} mailbox shards){}",
        cluster.n_daemons(),
        deployment.topology().n_chains(),
        chain_len,
        shards,
        if faults.is_some() {
            " — every mix daemon behind a fault proxy"
        } else {
            ""
        }
    );
    let report = match run_swarm(
        &mut rng,
        &mut deployment,
        &SwarmConfig {
            n_users: users,
            rounds,
            ..Default::default()
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            xrd_obs::error!("demo: {e}");
            cluster.shutdown();
            return ExitCode::FAILURE;
        }
    };
    for r in &report.rounds {
        println!(
            "round {:>3}: {:>8.1?}  mixed {:>5}  delivered {:>5}  {:>8.0} msg/s",
            r.round, r.latency, r.messages_mixed, r.delivered, r.msgs_per_sec
        );
    }
    println!(
        "mean latency {:.1?}, mean throughput {:.0} msg/s, {:.2} MiB on the wire",
        report.mean_latency(),
        report.mean_throughput(),
        report.bytes_on_wire as f64 / (1024.0 * 1024.0)
    );
    if faults.is_some() {
        // The chaos ledger: injected faults and how the dispute/retry
        // machinery absorbed them (same names as `xrd-netd stats`).
        for name in [
            "fault.injected.drop",
            "fault.injected.corrupt",
            "fault.injected.delay",
            "fault.injected.truncate",
            "fault.injected.reorder",
            "fault.injected.stall",
            "fault.injected.disconnect",
            "chain.mix_retries",
            "chain.reconnects",
            "dispute.opened",
            "dispute.convicted",
            "round.degraded",
            "round.chain_failures",
        ] {
            let n = report.stats.counter(name);
            if n > 0 {
                println!("{name}: {n}");
            }
        }
    }
    // Per-phase hop latency, from the same registry `xrd-netd stats`
    // serves (the demo's daemons all run in this process).
    for name in ["hop.decrypt_blind_us", "hop.shuffle_prove_us"] {
        if let Some(h) = report.stats.hist(name) {
            println!(
                "{name}: n={} mean {}µs p50 {}µs p95 {}µs max {}µs",
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.max
            );
        }
    }
    cluster.shutdown();
    ExitCode::SUCCESS
}

/// Spawn a manifest-described deployment as real child processes and
/// drive a client swarm against it.
fn launch(args: &[String]) -> ExitCode {
    let Some(path) = flag(args, "--manifest") else {
        return usage();
    };
    let users = flag(args, "--users")
        .and_then(|v| v.parse().ok())
        .unwrap_or(256usize);
    let rounds = flag(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2u64);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            xrd_obs::error!("launch: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match Manifest::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            xrd_obs::error!("launch: bad manifest {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let netd = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            xrd_obs::error!("launch: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rng = StdRng::seed_from_u64(rand::rngs::OsRng.next_u64());
    let mut cluster = match launch_manifest(&mut rng, &manifest, &netd) {
        Ok(c) => c,
        Err(e) => {
            xrd_obs::error!("launch: spawn failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "launch: {} processes up ({} chains × {} hops + {} mailbox shards)",
        cluster.n_processes(),
        cluster.topology().n_chains(),
        manifest.chain_len,
        manifest.n_shards
    );
    let mut deployment = match cluster.connect() {
        Ok(d) => d,
        Err(e) => {
            xrd_obs::error!("launch: cannot connect coordinator: {e}");
            cluster.shutdown();
            return ExitCode::FAILURE;
        }
    };
    let report = match run_swarm(
        &mut rng,
        &mut deployment,
        &SwarmConfig {
            n_users: users,
            rounds,
            ..Default::default()
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            xrd_obs::error!("launch: {e}");
            cluster.shutdown();
            return ExitCode::FAILURE;
        }
    };
    for r in &report.rounds {
        println!(
            "round {:>3}: {:>8.1?}  mixed {:>5}  delivered {:>5}  {:>8.0} msg/s",
            r.round, r.latency, r.messages_mixed, r.delivered, r.msgs_per_sec
        );
    }
    println!(
        "mean latency {:.1?}, mean throughput {:.0} msg/s, {:.2} MiB on the wire",
        report.mean_latency(),
        report.mean_throughput(),
        report.bytes_on_wire as f64 / (1024.0 * 1024.0)
    );
    let killed = cluster.shutdown();
    if killed > 0 {
        xrd_obs::error!("launch: {killed} daemon(s) ignored Shutdown and were killed");
        return ExitCode::FAILURE;
    }
    println!("launch: clean shutdown");
    ExitCode::SUCCESS
}

/// Span durations (ms) of one named round phase, restricted to the
/// given rounds.
fn spans_ms(stats: &xrd_obs::Snapshot, name: &str, rounds: &[u64]) -> Vec<f64> {
    stats
        .spans
        .iter()
        .filter(|s| s.name == name && rounds.contains(&s.round))
        .map(|s| s.dur_us as f64 / 1000.0)
        .collect()
}

fn json_f64s(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.2}")).collect();
    format!("[{}]", items.join(", "))
}

/// The swarm's measurements as JSON fields, phase spans pulled from
/// its end-of-run snapshot.
fn report_json(report: &xrd_net::SwarmReport) -> String {
    let stats = &report.stats;
    let rounds: Vec<u64> = report.rounds.iter().map(|r| r.round).collect();
    let latency_ms: Vec<f64> = report
        .rounds
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1000.0)
        .collect();
    let msgs: Vec<f64> = report.rounds.iter().map(|r| r.msgs_per_sec).collect();
    format!(
        "\"round_ms\": {}, \"msgs_per_sec\": {}, \"submit_ms\": {}, \"mix_ms\": {}, \
         \"deliver_ms\": {}, \"fetch_ms\": {}",
        json_f64s(&latency_ms),
        json_f64s(&msgs),
        json_f64s(&spans_ms(stats, "round.submit_window", &rounds)),
        json_f64s(&spans_ms(stats, "round.mix", &rounds)),
        json_f64s(&spans_ms(stats, "round.deliver", &rounds)),
        json_f64s(&spans_ms(stats, "round.fetch", &rounds)),
    )
}

/// The §8 scaling curve: per population size, a fresh multi-process
/// deployment, the swarm's rounds, one JSON object on stdout.  Multiple sizes run as child invocations so
/// every measurement gets its own process-global metrics registry.
fn scale(args: &[String]) -> ExitCode {
    let users_arg = flag(args, "--users").unwrap_or_else(|| "1000,10000,50000".into());
    let sizes: Vec<usize> = match users_arg
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(v) if !v.is_empty() => v,
        _ => {
            xrd_obs::error!("scale: bad --users list `{users_arg}`");
            return usage();
        }
    };
    let rounds = flag(args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2u64);
    let servers = flag(args, "--servers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    let chain_len = flag(args, "--chain-len")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);
    let shards = flag(args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2usize);
    let json_path = flag(args, "--json");

    if sizes.len() > 1 {
        // Driver mode: one child process per size, clean registry each.
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                xrd_obs::error!("scale: cannot locate own binary: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut objects = Vec::new();
        for n in sizes {
            eprintln!("scale: measuring {n} users × {rounds} rounds...");
            let out = std::process::Command::new(&exe)
                .arg("scale")
                .arg("--users")
                .arg(n.to_string())
                .arg("--rounds")
                .arg(rounds.to_string())
                .arg("--servers")
                .arg(servers.to_string())
                .arg("--chain-len")
                .arg(chain_len.to_string())
                .arg("--shards")
                .arg(shards.to_string())
                .stderr(std::process::Stdio::inherit())
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    xrd_obs::error!("scale: child for {n} users failed to start: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if !out.status.success() {
                xrd_obs::error!("scale: child for {n} users exited with {}", out.status);
                return ExitCode::FAILURE;
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            let Some(line) = stdout.lines().find(|l| l.starts_with('{')) else {
                xrd_obs::error!("scale: child for {n} users printed no measurement");
                return ExitCode::FAILURE;
            };
            objects.push(line.to_string());
        }
        let doc = format!("[\n{}\n]", objects.join(",\n"));
        if let Some(path) = &json_path {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                xrd_obs::error!("scale: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("{doc}");
        return ExitCode::SUCCESS;
    }

    // Single size: measure in this process.
    let n_users = sizes[0];
    let manifest = Manifest::single_host(
        "local",
        std::net::IpAddr::from([127, 0, 0, 1]),
        9,
        servers,
        0.2,
        chain_len,
        shards,
        0,
    );
    let netd = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            xrd_obs::error!("scale: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rng = StdRng::seed_from_u64(rand::rngs::OsRng.next_u64());
    let mut cluster = match launch_manifest(&mut rng, &manifest, &netd) {
        Ok(c) => c,
        Err(e) => {
            xrd_obs::error!("scale: spawn failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A mix hop is legitimately silent while it decrypts its whole
    // batch, and with every daemon timesharing this host that stretch
    // grows with the population — size the read ceiling to it.
    let timeouts = xrd_net::ConnTimeouts {
        read: std::cmp::max(
            std::time::Duration::from_secs(60),
            std::time::Duration::from_millis(10) * n_users as u32,
        ),
        write: std::cmp::max(
            std::time::Duration::from_secs(30),
            std::time::Duration::from_millis(5) * n_users as u32,
        ),
        ..xrd_net::ConnTimeouts::default()
    };
    let mut deployment = match cluster.connect_timeouts(timeouts, Default::default()) {
        Ok(d) => d,
        Err(e) => {
            xrd_obs::error!("scale: cannot connect coordinator: {e}");
            cluster.shutdown();
            return ExitCode::FAILURE;
        }
    };
    let config = SwarmConfig {
        n_users,
        rounds,
        conversing_fraction: 0.5,
    };
    let report = match run_swarm(&mut rng, &mut deployment, &config) {
        Ok(r) => r,
        Err(e) => {
            xrd_obs::error!("scale: swarm failed: {e}");
            cluster.shutdown();
            return ExitCode::FAILURE;
        }
    };
    cluster.shutdown();
    println!(
        "{{\"users\": {n_users}, \"rounds\": {rounds}, \"servers\": {servers}, \
         \"chain_len\": {chain_len}, \"shards\": {shards}, {}}}",
        report_json(&report),
    );
    ExitCode::SUCCESS
}
