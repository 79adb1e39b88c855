//! Multi-process soak tests: a manifest-launched deployment of real
//! `xrd-netd` child processes, driven for several rounds by the
//! single-threaded client reactor with user churn, with **exact**
//! delivery accounting — zero loss, zero duplication — and a clean
//! (Shutdown-honored, no kill) teardown.
//!
//! The tier-1 test runs a scaled-down population so `cargo test` stays
//! fast; the `#[ignore]`d heavy variant is the §8-scale soak (10k
//! users) and additionally bounds daemon-to-daemon chunk forwarding
//! against coordinator-relayed streaming on mix-phase latency (parity,
//! not superiority: on a one-core host the k× overlap has nothing to
//! overlap with — see `scale_curve_pr9` in `BENCH_net.json`).

use std::net::IpAddr;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::user::{Received, User};
use xrd_net::codec::Frame;
use xrd_net::{launch_manifest, Conn, ConnTimeouts, Manifest, RetryPolicy, Transport};
use xrd_topology::ChainId;

/// Mean duration (ms) of the named span over the given rounds.
fn mean_span_ms(stats: &xrd_obs::Snapshot, name: &str, rounds: &[u64]) -> f64 {
    let durs: Vec<f64> = stats
        .spans
        .iter()
        .filter(|s| s.name == name && rounds.contains(&s.round))
        .map(|s| s.dur_us as f64 / 1000.0)
        .collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.iter().sum::<f64>() / durs.len() as f64
}

/// The soak body, parameterized by population size.
///
/// Shape: the smallest multi-chain k=3 deployment the topology admits
/// (chains must have k *distinct* servers and the manifest derives
/// `n_chains = n_servers`, §5.2.1) — 3 chains × 3 hops + 2 mailbox
/// shards = 11 real child processes.  Three rounds; in the middle
/// round 10% of the users churn offline (their stored covers submit
/// for them, §5.3.3) and return in the final round to drain a
/// two-round backlog.
///
/// Returns `(forwarded mix ms, streamed mix ms)` from one extra
/// comparison round per transport, for the caller to assert on (heavy)
/// or merely report (tier-1).
fn soak(n_users: usize, seed: u64) -> (f64, f64) {
    const ROUNDS: u64 = 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let manifest = Manifest::single_host(
        "local",
        IpAddr::from([127, 0, 0, 1]),
        seed,
        3,   // servers (= chains)
        0.2, // fault fraction (sizing only; nobody misbehaves here)
        3,   // k
        2,   // mailbox shards
        0,   // OS-assigned ports
    );
    let netd = Path::new(env!("CARGO_BIN_EXE_xrd-netd"));
    let mut cluster = launch_manifest(&mut rng, &manifest, netd).expect("cluster launches");
    assert_eq!(cluster.n_processes(), 11, "3 chains × 3 hops + 2 shards");

    let mut deployment = cluster.connect().expect("coordinator connects");
    deployment.set_transport(Transport::Forwarded);
    let ell = deployment.topology().ell();

    // Population: the last 10% churn; the first half converse in
    // pairs.  The pairs sit outside the churn set so every queued chat
    // has an online recipient.
    let churned = n_users / 10;
    let churn_start = n_users - churned;
    let paired = (n_users / 2) & !1;
    assert!(
        paired <= churn_start,
        "pairs must not overlap the churn set"
    );
    let mut users: Vec<User> = (0..n_users).map(|_| User::new(&mut rng)).collect();
    for i in (0..paired).step_by(2) {
        let (a, b) = (users[i].pk(), users[i + 1].pk());
        users[i].start_conversation(b);
        users[i + 1].start_conversation(a);
    }

    let offline_round = 1u64; // covers stored in round 0 carry them
    for r in 0..ROUNDS {
        let round = deployment.round();
        assert_eq!(round, r);
        for user in &mut users[churn_start..] {
            user.online = round != offline_round;
        }
        for i in (0..paired).step_by(2) {
            users[i].queue_chat(format!("r{round} {i}→{}", i + 1).into_bytes());
            users[i + 1].queue_chat(format!("r{round} {}→{i}", i + 1).into_bytes());
        }

        let (report, fetched) = deployment
            .run_round(&mut rng, &mut users)
            .expect("round completes");

        // Zero loss at the protocol ledger: every user (online or
        // covered) contributed ℓ submissions, every chain survived,
        // everything mixed was delivered.
        assert!(report.failed_chains.is_empty(), "round {round}: {report:?}");
        assert!(
            report.aborted_chains.is_empty(),
            "round {round}: {report:?}"
        );
        assert_eq!(report.messages_mixed, n_users * ell, "round {round}");
        assert_eq!(report.delivered, n_users * ell, "round {round}");

        // Exact per-user accounting: ℓ entries per round fetched, the
        // churn backlog drained in full exactly once, offline users
        // fetched nothing.
        for (i, user) in users.iter().enumerate() {
            let got = fetched.get(&user.mailbox_id());
            if round == offline_round && i >= churn_start {
                assert!(got.is_none(), "offline user {i} fetched in round {round}");
                continue;
            }
            let got = got.unwrap_or_else(|| panic!("user {i} missing from round {round} fetch"));
            let backlog_rounds = if round == offline_round + 1 && i >= churn_start {
                2 // the churned round's ℓ plus this round's ℓ
            } else {
                1
            };
            assert_eq!(
                got.len(),
                backlog_rounds * ell,
                "user {i} round {round}: wrong entry count (loss or duplication)"
            );
            if i < paired {
                let partner = if i % 2 == 0 { i + 1 } else { i - 1 };
                let expect = format!("r{round} {partner}→{i}").into_bytes();
                let matches = got
                    .iter()
                    .filter(|r| matches!(r, Received::Chat { data, .. } if *data == expect))
                    .count();
                assert_eq!(
                    matches, 1,
                    "user {i} round {round}: chat delivered {matches}×"
                );
            }
        }
    }

    // Transport comparison: one more round per transport, same
    // (recovered) population, spans separated by round number.
    for user in &mut users {
        user.online = true;
    }
    let fwd_round = deployment.round();
    deployment
        .run_round(&mut rng, &mut users)
        .expect("forwarded comparison round");
    deployment.set_transport(Transport::Streamed);
    let str_round = deployment.round();
    deployment
        .run_round(&mut rng, &mut users)
        .expect("streamed comparison round");
    let stats = xrd_obs::global().snapshot();
    let fwd_ms = mean_span_ms(&stats, "round.mix", &[fwd_round]);
    let str_ms = mean_span_ms(&stats, "round.mix", &[str_round]);

    // Clean teardown: every child honors the wire Shutdown; zero
    // processes needed a kill.
    drop(deployment);
    assert_eq!(cluster.shutdown(), 0, "daemon(s) had to be killed");
    (fwd_ms, str_ms)
}

/// The tier-1 soak: small population, full protocol — 11 real child
/// processes, 3 rounds, 10% churn, exact accounting, clean teardown.
/// The forwarded-vs-streamed mix numbers are printed but not asserted:
/// at this batch size the difference is pipeline-overlap noise.
#[test]
fn multi_process_soak_with_churn_accounts_exactly() {
    let (fwd_ms, str_ms) = soak(300, 42);
    println!("mix phase at 300 users: forwarded {fwd_ms:.1} ms, streamed {str_ms:.1} ms");
}

/// The §8-scale soak: 10 000 users against the same 11-process
/// deployment, plus a forwarded-vs-relayed mix-latency comparison.
///
/// Forwarding's k× transfer/compute overlap needs hops on separate
/// cores or hosts; with all 11 daemons timesharing one core, transfer
/// *is* compute and the direct hop-to-hop path measures near (often
/// slightly above) coordinator relaying — see `scale_curve_pr9` in
/// `BENCH_net.json`.  What is assertable on any host is that the
/// forwarded path carries a real batch end-to-end with exact
/// accounting (the soak body) at a cost commensurate with relaying —
/// a forwarded pipeline that serializes pathologically (per-chunk
/// round-trips, head-of-line stalls) fails the 2× bound.
#[test]
#[ignore = "minutes-long at 10k users; run with --ignored in the scale tier"]
fn soak_at_ten_thousand_users_with_transport_parity() {
    let (fwd_ms, str_ms) = soak(10_000, 43);
    println!("mix phase at 10k users: forwarded {fwd_ms:.1} ms, streamed {str_ms:.1} ms");
    assert!(
        fwd_ms < str_ms * 2.0,
        "daemon-to-daemon forwarding ({fwd_ms:.1} ms) should stay within 2x of \
         coordinator-relayed streaming ({str_ms:.1} ms); a bigger gap means the \
         forwarded pipeline is serializing"
    );
}

/// A forwarded batch is sent **once**, and a failure deep in a
/// forwarded chain costs no relayed retry.  A bad onion at the last
/// layer fails the last hop, which reports its `HopFailure` to the
/// coordinator and acks hop 1's batch; nothing upstream re-sends a
/// batch or runs the round's hop a second time.  Read off each daemon
/// process's own `hop.stream` spans: one per pass the chain took —
/// forwarded (blamed in place), forwarded (clean) on the chain with the
/// onion, one on the others.
#[test]
fn refused_forward_is_not_resent() {
    let mut rng = StdRng::seed_from_u64(77);
    let manifest =
        Manifest::single_host("local", IpAddr::from([127, 0, 0, 1]), 77, 3, 0.2, 3, 2, 0);
    let netd = Path::new(env!("CARGO_BIN_EXE_xrd-netd"));
    let mut cluster = launch_manifest(&mut rng, &manifest, netd).expect("cluster launches");
    let retry = RetryPolicy {
        attempts: 2,
        ..RetryPolicy::default()
    };
    let mut deployment = cluster
        .connect_timeouts(ConnTimeouts::default(), retry)
        .expect("coordinator connects");
    deployment.set_transport(Transport::Forwarded);
    let ell = deployment.topology().ell();
    let last_layer = deployment.topology().chain_len() - 1;

    let mut users: Vec<User> = (0..5).map(|_| User::new(&mut rng)).collect();
    let bad = xrd_mixnet::testutil::malicious_submission(
        &mut rng,
        &deployment.chain_keys()[0],
        0,
        last_layer,
    );
    deployment.inject_submission(ChainId(0), bad);
    let (report, _) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round completes");
    assert!(report.failed_chains.is_empty(), "{report:?}");
    assert_eq!(report.malicious_by_chain.get(&0), Some(&1), "{report:?}");
    assert_eq!(report.delivered, 5 * ell);

    for (c, chain) in cluster.chain_addrs().iter().enumerate() {
        for (pos, addr) in chain.iter().enumerate() {
            let mut conn = Conn::connect(*addr).expect("daemon answers");
            let stats = match conn.request(&Frame::StatsRequest).expect("scrape answered") {
                Frame::StatsReport { snapshot } => snapshot,
                other => panic!("expected StatsReport, got {other:?}"),
            };
            let hops = stats
                .spans
                .iter()
                .filter(|s| s.name == "hop.stream" && s.round == 0)
                .count();
            let passes = if c == 0 { 2 } else { 1 };
            assert_eq!(
                hops, passes,
                "chain {c} hop {pos} ran the round's hop {hops}×"
            );
        }
    }
    drop(deployment);
    assert_eq!(cluster.shutdown(), 0, "daemon(s) had to be killed");
}
