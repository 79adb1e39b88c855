//! Multi-process soak tests: a manifest-launched deployment of real
//! `xrd-netd` child processes, driven for several rounds by the
//! single-threaded client reactor with user churn, with **exact**
//! delivery accounting — zero loss, zero duplication — and a clean
//! (Shutdown-honored, no kill) teardown.
//!
//! The tier-1 test runs a scaled-down population so `cargo test` stays
//! fast; the `#[ignore]`d heavy variant is the §8-scale soak (10k
//! users).

use std::net::IpAddr;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::user::{Received, User};
use xrd_net::{launch_manifest, Manifest};

/// The soak body, parameterized by population size.
///
/// Shape: the smallest multi-chain k=3 deployment the topology admits
/// (chains must have k *distinct* servers and the manifest derives
/// `n_chains = n_servers`, §5.2.1) — 3 chains × 3 hops + 2 mailbox
/// shards = 11 real child processes.  Three rounds; in the middle
/// round 10% of the users churn offline (their stored covers submit
/// for them, §5.3.3) and return in the final round to drain a
/// two-round backlog.
fn soak(n_users: usize, seed: u64) {
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

    // Clean teardown: every child honors the wire Shutdown; zero
    // processes needed a kill.
    drop(deployment);
    assert_eq!(cluster.shutdown(), 0, "daemon(s) had to be killed");
}

/// The tier-1 soak: small population, full protocol — 11 real child
/// processes, 3 rounds, 10% churn, exact accounting, clean teardown.
#[test]
fn multi_process_soak_with_churn_accounts_exactly() {
    soak(300, 42);
}

/// The §8-scale soak: 10 000 users against the same 11-process
/// deployment.
#[test]
#[ignore = "minutes-long at 10k users; run with --ignored in the scale tier"]
fn soak_at_ten_thousand_users() {
    soak(10_000, 43);
}
