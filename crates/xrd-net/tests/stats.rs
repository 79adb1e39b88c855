//! Wire-scrape acceptance tests for the observability layer: a
//! [`Frame::StatsRequest`] against a live daemon must return a
//! [`Frame::StatsReport`] whose counters match the frames *actually
//! sent* on the wire, and a round's submission storm must leave the
//! registry telling the round's own story (per-tag frame counts,
//! hop-phase histograms, round spans).
//!
//! The metrics registry is process-wide, so these tests serialize on a
//! shared lock and assert on *deltas* between snapshots, never on
//! absolute values.

#![cfg(not(feature = "obs-noop"))]

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::{DeploymentConfig, User};
use xrd_net::codec::Frame;
use xrd_net::{launch_local, mailbox_storm, Conn, MailboxDaemon, MailboxStormConfig};
use xrd_obs::Snapshot;

/// Serializes the registry-delta-sensitive tests.
static REGISTRY_ACCOUNTING: Mutex<()> = Mutex::new(());

/// Scrape a daemon over the wire.
fn scrape(conn: &mut Conn) -> Snapshot {
    match conn.request(&Frame::StatsRequest).expect("scrape answered") {
        Frame::StatsReport { snapshot } => *snapshot,
        other => panic!("expected StatsReport, got {other:?}"),
    }
}

/// Counter delta between two snapshots (0 if the counter is absent or
/// did not move).
fn delta(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    after.counter(name) - before.counter(name)
}

/// The core contract: per-tag frame counters in a wire-scraped
/// [`Frame::StatsReport`] advance by exactly the number of frames this
/// test put on the wire between two scrapes — including the scrape
/// traffic itself.
#[test]
fn scraped_counters_match_frames_actually_sent() {
    let _guard = REGISTRY_ACCOUNTING.lock().unwrap();
    let daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let mut scraper = Conn::connect(daemon.addr()).expect("scraper connects");
    let mut traffic = Conn::connect(daemon.addr()).expect("traffic connects");

    let before = scrape(&mut scraper);

    // A known mix of frames, every one acknowledged before the second
    // scrape — so by the time the daemon answers it, each frame below
    // has been decoded and counted.
    const PINGS: u64 = 7;
    const FETCHES: u64 = 3;
    let mut traffic_bytes = 0u64;
    for _ in 0..PINGS {
        traffic_bytes += Frame::Ping.encode().len() as u64;
        traffic.ping().expect("ping served");
    }
    for i in 0..FETCHES {
        let fetch = Frame::FetchPage {
            mailbox: [i as u8; 32],
            cursor: 0,
            max: 8,
        };
        traffic_bytes += fetch.encode().len() as u64;
        // Nothing was ever delivered to these mailboxes, so the shard
        // distinguishes them from merely-empty ones with a typed error.
        match traffic.request(&fetch) {
            Err(xrd_net::NetError::Remote { code, .. }) => {
                assert_eq!(code, xrd_net::codec::error_code::UNKNOWN_MAILBOX)
            }
            other => panic!("expected UNKNOWN_MAILBOX, got {other:?}"),
        }
    }

    let after = scrape(&mut scraper);

    assert_eq!(delta(&after, &before, "frames.in.Ping"), PINGS);
    assert_eq!(delta(&after, &before, "frames.in.FetchPage"), FETCHES);
    // The first scrape's own request is inside its snapshot (counted
    // before the report is built), so between the two snapshots
    // exactly one more StatsRequest landed: the second scrape's.
    assert_eq!(delta(&after, &before, "frames.in.StatsRequest"), 1);
    assert_eq!(
        delta(&after, &before, "reactor.frames_in"),
        PINGS + FETCHES + 1,
        "the aggregate counter must equal the sum over tags"
    );
    // Byte accounting: at least the traffic frames' wire bytes landed
    // (the scrape request adds a few more on the other connection).
    assert!(
        delta(&after, &before, "reactor.bytes_in") >= traffic_bytes,
        "bytes_in advanced by {} for {traffic_bytes} bytes of traffic",
        delta(&after, &before, "reactor.bytes_in"),
    );
    // No error path fired for this well-behaved exchange.
    assert_eq!(delta(&after, &before, "reactor.err.malformed_frame"), 0);
    // Both of this test's connections are open and counted.
    assert!(after.gauge("reactor.conns_open").unwrap_or(0) >= 2);
    // Everything in the report is structurally sound.
    for (name, h) in &after.hists {
        assert!(h.is_well_formed(), "histogram {name} is malformed");
    }
}

/// Scraping a live mix daemon right after a round's submission storm:
/// N users run one round on a one-chain, one-hop, one-shard loopback
/// cluster, and the daemon — scraped over the wire while the users'
/// connections are still parked open — returns per-tag frame counters
/// and hop-phase histograms that follow exactly from the cluster's
/// shape.
#[test]
fn storm_scrape_tells_the_storm_story() {
    let _guard = REGISTRY_ACCOUNTING.lock().unwrap();
    const N: usize = 96;
    let mut rng = StdRng::seed_from_u64(23);
    let config = DeploymentConfig {
        n_servers: 1,
        chain_len: Some(1),
        f: 0.2,
        n_mailbox_shards: 1,
        seed: 0,
    };
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster up");
    let topo = deployment.topology();
    let (k, ell) = (topo.chain_len(), topo.ell());
    assert_eq!((topo.n_chains(), k), (1, 1), "one chain of one hop");
    let round = deployment.round();
    let mut users: Vec<User> = (0..N).map(|_| User::new(&mut rng)).collect();

    let before = xrd_obs::global().snapshot();
    let (report, _) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round completes");
    assert_eq!(report.delivered, N * ell);
    let s = scrape(&mut Conn::connect(cluster.mix[0][0].addr()).expect("scraper connects"));

    // Every user's every submission reached every hop of its chain,
    // exactly once.
    assert_eq!(delta(&s, &before, "frames.in.Submit"), (N * ell * k) as u64);
    // The coordinator's window and mix traffic: one of each — hop 0
    // mixes its own window, so no batch is streamed to it or fetched.
    assert_eq!(delta(&s, &before, "frames.in.OpenRound"), 1);
    assert_eq!(delta(&s, &before, "frames.in.CloseSubmissions"), 1);
    assert_eq!(delta(&s, &before, "frames.in.MixWindow"), 1);
    assert_eq!(delta(&s, &before, "frames.in.MixBatchStart"), 0);
    assert_eq!(delta(&s, &before, "frames.in.GetBatch"), 0);
    // Each user dialed the mix daemon and the shard once, and the
    // scraper once more; the users' connections are still open.
    assert_eq!(delta(&s, &before, "reactor.accepts"), 2 * N as u64 + 1);
    assert!(s.gauge("reactor.conns_open").unwrap_or(0) >= N as i64);

    // Hop-phase accounting: the batch was mixed once, so the kernel
    // saw N·ℓ entries…
    assert_eq!(delta(&s, &before, "hop.entries"), (N * ell) as u64);
    assert_eq!(delta(&s, &before, "hop.err.decrypt_failures"), 0);
    // …and both phase histograms recorded real, well-formed samples.
    for name in ["hop.decrypt_blind_us", "hop.shuffle_prove_us"] {
        let h = s.hist(name).expect("hop histogram present");
        assert!(h.is_well_formed(), "histogram {name} is malformed");
        assert!(
            h.count > before.hist(name).map(|h| h.count).unwrap_or(0),
            "{name} recorded no new samples"
        );
        assert!(h.max >= h.p50(), "{name} percentile ordering broken");
    }

    // The span ring holds the hop of the round driven — the one hop
    // span there is.
    assert!(
        s.spans
            .iter()
            .any(|e| e.name == "hop.stream" && e.round == round),
        "span hop.stream missing from the scrape"
    );
    assert!(
        s.spans
            .iter()
            .all(|e| !e.name.starts_with("hop.") || e.name == "hop.stream"),
        "a second hop span flavor is in the scrape"
    );
    drop(deployment);
    cluster.shutdown();
}

/// The same on a persistent mailbox shard pair: a 500-mailbox storm's
/// scrape says how the acks were made durable — every segment sync is
/// one reactor commit (or a rotation/compaction), and the herd's acks
/// share them instead of paying one apiece.
#[test]
fn persistent_storm_scrape_tells_the_group_commit_story() {
    let _guard = REGISTRY_ACCOUNTING.lock().unwrap();
    let before = xrd_obs::global().snapshot();
    let dir = std::env::temp_dir().join(format!("xrd-stats-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const N: u64 = 500;
    let config = MailboxStormConfig {
        shards: 2,
        mailboxes: N as usize,
        per_box: 2,
        persist_dir: Some(dir.clone()),
        ..MailboxStormConfig::default()
    };
    let report = mailbox_storm(&config).expect("storm completes");
    assert_eq!((report.lost, report.duplicated), (0, 0));
    let s = &report.stats;

    // Round 0 acks the online 90 %, round 1 everybody.
    let acks = delta(s, &before, "frames.in.FetchAck");
    assert_eq!(acks, N - N / 10 + N);
    let fsyncs = delta(s, &before, "mailbox.log.fsyncs");
    let commits = delta(s, &before, "reactor.commits");
    let housekeeping =
        delta(s, &before, "mailbox.segment_rotations") + delta(s, &before, "mailbox.compactions");
    assert!(fsyncs >= 1, "a persistent shard synced nothing");
    assert!(
        fsyncs <= commits + housekeeping,
        "{fsyncs} syncs for {commits} commits + {housekeeping} rotations/compactions: \
         something syncs outside the commit phase"
    );
    assert!(
        fsyncs < acks,
        "{fsyncs} syncs for {acks} acks: the herd is back to a sync per ack"
    );
    // Every held reply was released by some commit: the acks plus the
    // two rounds' Deliver batches.
    let held = s.hist("reactor.commit.held").expect("histogram present");
    let held_before = before.hist("reactor.commit.held").map_or(0, |h| h.sum);
    assert_eq!(
        held.sum - held_before,
        acks + delta(s, &before, "frames.in.Deliver")
    );
    for name in ["mailbox.log.fsync_us", "reactor.commit_us"] {
        let h = s.hist(name).expect("histogram present");
        assert!(h.is_well_formed(), "histogram {name} is malformed");
        assert!(h.count > before.hist(name).map_or(0, |h| h.count));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
