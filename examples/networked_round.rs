//! A real networked XRD round on loopback TCP: launch one daemon per
//! mix hop and per mailbox shard (each on its own port), then drive a
//! swarm of hundreds of concurrent users through full rounds and report
//! per-round wall-clock latency and throughput.
//!
//! ```text
//! cargo run --release --example networked_round [n_users] [rounds]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd::core::DeploymentConfig;
use xrd_net::{launch_local, run_swarm, SwarmConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_users: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(200);
    let rounds: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(3);

    let mut rng = StdRng::seed_from_u64(42);
    // 6 chains of 3 mix servers (18 mix daemons) + 2 mailbox shards.
    let config = DeploymentConfig::small(6, 3);
    let (mut cluster, mut deployment) =
        launch_local(&mut rng, &config).expect("failed to launch loopback cluster");

    let topo = deployment.topology();
    println!(
        "cluster up: {} daemons ({} chains × {} hops + {} mailbox shards), ℓ = {}",
        cluster.n_daemons(),
        topo.n_chains(),
        topo.chain_len(),
        config.n_mailbox_shards,
        topo.ell(),
    );
    println!(
        "driving {n_users} users × {rounds} rounds ({} mailbox messages per round)…",
        n_users * topo.ell()
    );

    let report = run_swarm(
        &mut rng,
        &mut deployment,
        &SwarmConfig {
            n_users,
            rounds,
            conversing_fraction: 0.5,
        },
    )
    .expect("loopback swarm round failed");

    println!();
    println!("round   latency      mixed  delivered  chats      msg/s");
    for r in &report.rounds {
        println!(
            "{:>5}   {:>9.1?}  {:>7}  {:>9}  {:>5}  {:>9.0}",
            r.round, r.latency, r.messages_mixed, r.delivered, r.chats_received, r.msgs_per_sec
        );
    }
    println!();
    println!("mean round latency : {:.1?}", report.mean_latency());
    println!(
        "mean throughput    : {:.0} mailbox msgs/sec end to end",
        report.mean_throughput()
    );
    println!(
        "wire traffic       : {:.2} MiB total ({:.1} KiB per delivered message)",
        report.bytes_on_wire as f64 / (1024.0 * 1024.0),
        report.bytes_on_wire as f64
            / 1024.0
            / report
                .rounds
                .iter()
                .map(|r| r.delivered)
                .sum::<usize>()
                .max(1) as f64,
    );
    // Per-phase breakdown from the metrics registry — the same series
    // `xrd-netd stats` scrapes from a production daemon.
    for name in ["hop.decrypt_blind_us", "hop.shuffle_prove_us"] {
        if let Some(h) = report.stats.hist(name) {
            println!(
                "{name:<24}: n={:<5} p50 {}µs  p95 {}µs  max {}µs",
                h.count,
                h.p50(),
                h.p95(),
                h.max
            );
        }
    }
    println!(
        "round spans recorded  : {} (submit window, per-hop, audit, reveal, deliver, fetch)",
        report.stats.spans.len()
    );

    cluster.shutdown();
}
