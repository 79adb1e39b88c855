//! The adversarial deployment harness: seeded fault-injection chaos
//! runs and byzantine-daemon localization tests.
//!
//! Three layers are under test together (see `docs/FAULTS.md`):
//!
//! * the [`FaultProxy`] wire layer — drops, delays, stalls and cut
//!   connections between the coordinator and honest daemons must be
//!   absorbed by deadlines + retry-with-reconnect, with **zero**
//!   convictions (nobody lied);
//! * the byzantine daemons — a server that lies in verification,
//!   equivocates its batch digest, or corrupts its hop output must be
//!   localized (convicted or suspected) by the dispute path while the
//!   round, wherever possible, still delivers;
//! * hardened round progress — an unrecoverable chain failure degrades
//!   the round ([`RoundReport::failed_chains`]) or surfaces as a typed
//!   [`RoundError`], never as a coordinator panic or hang.
//!
//! Every assertion message carries the seed so a failing schedule can
//! be replayed exactly.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use xrd_core::user::User;
use xrd_core::{DeploymentConfig, RoundError};
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};
use xrd_mixnet::Lie;
use xrd_net::codec::{error_code, Frame, STREAM_CHUNK};
use xrd_net::{
    launch_local_faulty_with, Conn, ConnTimeouts, DaemonHandle, Direction, FaultKind, FaultPlan,
    FaultRule, MailboxDaemon, MixServerDaemon, RemoteDeployment, RetryPolicy, SubmissionPolicy,
};
use xrd_topology::{Beacon, Topology};

/// Deadlines tight enough that an injected stall or drop is detected
/// in well under a second.
fn fast_timeouts() -> ConnTimeouts {
    ConnTimeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_millis(700),
        write: Duration::from_secs(2),
    }
}

fn fast_retry() -> RetryPolicy {
    // Every proxy carries its own copy of the fault schedule, and a
    // rule fires on `count` = 1 matching frame per proxy however many
    // frames a hop takes (Start, a chunk per 64 entries, End, each way;
    // one `VerifyHopKeys` and its verdicts per daemon): at most one
    // failed pass per rule per hop.  A mix retry restarts the pass from
    // hop 0, so with k=3 hops and up to two rules a chain may need 2·3
    // failed passes before a clean one.
    RetryPolicy {
        attempts: 8,
        base_backoff: Duration::from_millis(10),
    }
}

/// Wire tag byte for a frame name (the same mapping `FaultPlan::parse`
/// uses for `tag=` keys).
fn tag(name: &str) -> u8 {
    (0..=u8::MAX)
        .find(|&t| Frame::tag_name(t) == Some(name))
        .unwrap_or_else(|| panic!("unknown frame name {name}"))
}

/// Users 0 and 1 conversing (one chat queued from 0 to 1), the rest on
/// cover traffic.
fn users_with_chat(rng: &mut StdRng, n: usize) -> Vec<User> {
    let mut users: Vec<User> = (0..n).map(|_| User::new(rng)).collect();
    let (a, b) = (users[0].pk(), users[1].pk());
    users[0].start_conversation(b);
    users[1].start_conversation(a);
    users[0].queue_chat(b"through the storm".to_vec());
    users
}

/// A deployment like `launch_local`, but with chosen hops replaced by
/// byzantine daemons (`byz` holds `(chain, hop, lie)`) and fast
/// coordinator deadlines.
fn launch_byzantine(
    rng: &mut StdRng,
    config: &DeploymentConfig,
    byz: &[(usize, usize, Lie)],
) -> (Vec<Vec<DaemonHandle>>, Vec<DaemonHandle>, RemoteDeployment) {
    let beacon = Beacon::from_u64(config.seed);
    let k = config.chain_len.expect("explicit chain length");
    let topo = Topology::build_with(&beacon, 0, config.n_servers, config.n_servers, k, config.f);

    let mut mix = Vec::new();
    let mut chain_addrs = Vec::new();
    let mut chain_keys = Vec::new();
    for c in 0..topo.n_chains() {
        let (mut secrets, mut public) = generate_chain_keys(rng, k, c as u64);
        rotate_inner_keys(rng, &mut secrets, &mut public, 0);
        let mut daemons = Vec::new();
        let mut addrs = Vec::new();
        for (hop, server_secrets) in secrets.into_iter().enumerate() {
            let lie = byz
                .iter()
                .find(|&&(bc, bh, _)| bc == c && bh == hop)
                .map(|&(_, _, lie)| lie);
            let daemon = match lie {
                None => MixServerDaemon::spawn(
                    "127.0.0.1:0",
                    server_secrets,
                    public.clone(),
                    rng.next_u64(),
                ),
                Some(lie) => MixServerDaemon::spawn_byzantine(
                    "127.0.0.1:0",
                    server_secrets,
                    public.clone(),
                    rng.next_u64(),
                    lie,
                ),
            }
            .expect("daemon spawns");
            addrs.push(daemon.addr());
            daemons.push(daemon);
        }
        mix.push(daemons);
        chain_addrs.push(addrs);
        chain_keys.push(public);
    }

    let mut mailboxes = Vec::new();
    let mut mailbox_addrs = Vec::new();
    for shard in 0..config.n_mailbox_shards {
        let daemon = MailboxDaemon::spawn("127.0.0.1:0", shard, config.n_mailbox_shards)
            .expect("mailbox spawns");
        mailbox_addrs.push(daemon.addr());
        mailboxes.push(daemon);
    }

    let deployment = RemoteDeployment::connect_with(
        topo,
        chain_addrs,
        chain_keys,
        mailbox_addrs,
        fast_timeouts(),
        fast_retry(),
    )
    .expect("deployment connects");
    (mix, mailboxes, deployment)
}

fn shutdown_all(mix: &mut [Vec<DaemonHandle>], mailboxes: &mut [DaemonHandle]) {
    for chain in mix.iter_mut() {
        for d in chain {
            d.shutdown();
        }
    }
    for d in mailboxes {
        d.shutdown();
    }
}

/// The flagship chaos sweep: 20 seeded fault schedules against an
/// all-honest multi-chain deployment.  Transient wire faults (drops,
/// delays, cut connections) on round-critical frames must be absorbed
/// by deadline + retry: the round completes with nothing degraded,
/// nobody convicted, nobody suspected, and the queued chat delivered.
fn chaos_sweep(seeds: std::ops::Range<u64>) {
    // Frames whose loss or delay exercises every phase of the round;
    // all are recoverable because the daemons' round handlers are
    // idempotent under retry.
    let tags = [
        "CloseSubmissions",
        "BatchDigest",
        "GetBatch",
        "SubmissionBatch",
        "MixBatchStart",
        "MixBatchChunk",
        "MixBatchEnd",
        "HopProof",
        "VerifyHopKeys",
        "VerifyResult",
        "RevealInnerKey",
        "InnerKeyReveal",
    ];
    let kinds = [FaultKind::Drop, FaultKind::Delay, FaultKind::Disconnect];
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(0xC4405 + seed);
        let mut plan = FaultPlan::new(seed);
        for _ in 0..1 + rng.gen_range(0..2) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let dir = match rng.gen_range(0..3) {
                0 => Direction::Up,
                1 => Direction::Down,
                _ => Direction::Both,
            };
            plan = plan.with(
                FaultRule::new(kind)
                    .tag(tag(tags[rng.gen_range(0..tags.len())]))
                    .skip(rng.gen_range(0..2))
                    .ms(150)
                    .dir(dir),
            );
        }

        let config = DeploymentConfig::small(3, 3);
        let (mut cluster, _proxies, mut deployment) =
            launch_local_faulty_with(&mut rng, &config, &plan, fast_timeouts(), fast_retry())
                .unwrap_or_else(|e| panic!("seed {seed}: launch failed: {e}"));
        assert!(deployment.topology().n_chains() >= 2, "multi-chain");
        let ell = deployment.topology().ell();
        let mut users = users_with_chat(&mut rng, 6);

        let (report, fetched) = deployment
            .run_round(&mut rng, &mut users)
            .unwrap_or_else(|e| panic!("seed {seed}: round failed under {plan:?}: {e}"));
        assert!(
            report.failed_chains.is_empty(),
            "seed {seed}: chains failed under {plan:?}: {:?}",
            report.failed_chains
        );
        assert!(
            report.convicted_by_chain.is_empty(),
            "seed {seed}: false conviction under {plan:?}: {:?}",
            report.convicted_by_chain
        );
        assert!(
            report.suspected_by_chain.is_empty(),
            "seed {seed}: false suspicion under {plan:?}: {:?}",
            report.suspected_by_chain
        );
        assert!(report.aborted_chains.is_empty(), "seed {seed}: aborts");
        assert_eq!(
            report.delivered,
            6 * ell,
            "seed {seed}: delivery shrank under {plan:?}"
        );
        assert!(
            fetched[&users[1].mailbox_id()]
                .iter()
                .any(|r| matches!(r, xrd_core::Received::Chat { data, .. }
                    if data == b"through the storm")),
            "seed {seed}: the queued chat was lost"
        );
        cluster.shutdown();
    }
}

#[test]
fn chaos_sweep_seeds_0_to_10() {
    chaos_sweep(0..10);
}

#[test]
fn chaos_sweep_seeds_10_to_20() {
    chaos_sweep(10..20);
}

/// A server that rejects valid attestations (and doubles down under
/// oath) is convicted through the dispute path and the round still
/// delivers in full — the liar is excluded instead of the round
/// aborting.  The dispute counters are then read back over the wire
/// from a live daemon, the way an operator would.
#[test]
fn lying_verifier_is_convicted_and_round_delivers() {
    let mut rng = StdRng::seed_from_u64(71);
    let config = DeploymentConfig::small(3, 3);
    let (mut mix, mut mailboxes, mut deployment) =
        launch_byzantine(&mut rng, &config, &[(0, 1, Lie::RejectsAndUpholds)]);
    let ell = deployment.topology().ell();
    let mut users = users_with_chat(&mut rng, 6);

    let (report, fetched) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round completes despite the liar");
    assert_eq!(
        report.convicted_by_chain.get(&0),
        Some(&vec![1]),
        "the lying verifier is localized: {:?}",
        report.convicted_by_chain
    );
    assert_eq!(
        report.convicted_by_chain.len(),
        1,
        "no other chain convicts anyone"
    );
    assert!(report.failed_chains.is_empty(), "no chain fails");
    assert!(report.aborted_chains.is_empty(), "no chain aborts");
    assert_eq!(report.delivered, 6 * ell, "the round delivers in full");
    assert!(
        fetched[&users[1].mailbox_id()]
            .iter()
            .any(|r| matches!(r, xrd_core::Received::Chat { data, .. }
                if data == b"through the storm")),
        "the chat still lands"
    );

    // Acceptance: the dispute counters are visible in a live stats
    // scrape of a daemon that took part (same wire path as
    // `xrd-netd stats ADDR`).
    let mut conn = Conn::connect(mix[0][0].addr()).expect("scrape connects");
    match conn.request(&Frame::StatsRequest).expect("scrape answers") {
        Frame::StatsReport { snapshot } => {
            assert!(snapshot.counter("dispute.opened") >= 1, "dispute.opened");
            assert!(
                snapshot.counter("dispute.convicted") >= 1,
                "dispute.convicted"
            );
            assert!(
                snapshot.counter("dispute.evidence.served") >= 1,
                "witnesses served evidence"
            );
        }
        other => panic!("expected StatsReport, got {other:?}"),
    }
    shutdown_all(&mut mix, &mut mailboxes);
}

/// A server that equivocates its batch digest is outvoted by the
/// honest majority and recorded as a suspect — never convicted, since
/// a dropped submission is indistinguishable from equivocation — and
/// the round proceeds on the majority batch.
#[test]
fn equivocating_digest_is_suspected_and_majority_continues() {
    let mut rng = StdRng::seed_from_u64(72);
    let config = DeploymentConfig::small(3, 3);
    let (mut mix, mut mailboxes, mut deployment) =
        launch_byzantine(&mut rng, &config, &[(0, 2, Lie::EquivocateDigest)]);
    let ell = deployment.topology().ell();
    let mut users = users_with_chat(&mut rng, 6);

    let (report, fetched) = deployment
        .run_round(&mut rng, &mut users)
        .expect("majority carries the round");
    assert_eq!(
        report.suspected_by_chain.get(&0),
        Some(&vec![2]),
        "the equivocator is the suspect: {:?}",
        report.suspected_by_chain
    );
    assert!(
        report.convicted_by_chain.is_empty(),
        "digest dissent alone never convicts: {:?}",
        report.convicted_by_chain
    );
    assert!(report.failed_chains.is_empty());
    assert_eq!(report.delivered, 6 * ell, "majority batch delivers fully");
    assert!(fetched[&users[1].mailbox_id()]
        .iter()
        .any(|r| matches!(r, xrd_core::Received::Chat { data, .. }
                if data == b"through the storm")),);
    shutdown_all(&mut mix, &mut mailboxes);
}

/// A server that corrupts its hop output (an output key its aggregate
/// attestation does not cover) is convicted — whatever its position and
/// however many chunks the batch takes — no user is, and the rest of
/// the deployment still delivers its round.
///
/// * Position 0: the relay forwards chunks verbatim, so the garbled key
///   reaches hop 1 before any verification; hop 1 halts with a
///   `HopFailure` and the §6.4 trace must pin it on **server 0** — not
///   on hop 1 (the accuser) and not on the user whose onion it was.
/// * Position k−1: nothing downstream decrypts; the end-of-chain
///   `VerifyHopKeys` broadcast is rejected and the dispute convicts.
#[test]
fn corrupting_hop_is_localized_and_other_chains_deliver() {
    const K: usize = 3;
    // (corrupt position, users): 8 users is a one-chunk batch, 240 put
    // three chunks or more on every chain.
    for (position, n_users) in [(0, 8), (0, 240), (K - 1, 8), (K - 1, 240)] {
        let case = format!("corrupt hop {position}, {n_users} users");
        let mut rng = StdRng::seed_from_u64(73);
        let config = DeploymentConfig::small(3, K);
        let (mut mix, mut mailboxes, mut deployment) =
            launch_byzantine(&mut rng, &config, &[(0, position, Lie::CorruptHop)]);
        let mut users = users_with_chat(&mut rng, n_users);
        let on_chain = |chain: u32| -> usize {
            users
                .iter()
                .flat_map(|u| deployment.topology().chains_of_user(&u.mailbox_id()))
                .filter(|c| c.0 == chain)
                .count()
        };
        let corrupted = on_chain(0);
        let elsewhere: usize = (1..deployment.topology().n_chains() as u32)
            .map(on_chain)
            .sum();
        if n_users == 8 {
            assert!((2..=STREAM_CHUNK).contains(&corrupted), "{case}: one chunk");
        } else {
            assert!(corrupted > 2 * STREAM_CHUNK, "{case}: three chunks or more");
        }

        let (report, _) = deployment
            .run_round(&mut rng, &mut users)
            .unwrap_or_else(|e| panic!("{case}: the deployment survives one corrupt chain: {e}"));
        assert_eq!(
            report.convicted_by_chain,
            [(0, vec![position as u32])].into(),
            "{case}: exactly the corrupting server is convicted"
        );
        assert!(
            report.malicious_by_chain.is_empty(),
            "{case}: no user is blamed for a server's lie: {:?}",
            report.malicious_by_chain
        );
        assert_eq!(report.aborted_chains, vec![0], "{case}: chain 0 halts");
        assert!(
            report.failed_chains.is_empty(),
            "{case}: nothing else fails"
        );
        assert_eq!(
            report.delivered, elsewhere,
            "{case}: the other chains deliver all of their mail"
        );
        shutdown_all(&mut mix, &mut mailboxes);
    }
}

/// Loss inside a hop's reply: every proxy swallows the first output
/// chunk (or the opening `HopProof`) its daemon emits, so the
/// coordinator sees a stream that fails reassembly — or a reply that
/// begins mid-stream — instead of a silent socket.  That is transport trouble like any other
/// ([`xrd_net::NetError::Desync`]): the pass is retried on fresh
/// connections, nobody is convicted, everything delivers.
#[test]
fn dropped_output_frames_desync_the_stream_and_are_retried() {
    for (seed, frame) in [(78, "MixBatchChunk"), (79, "HopProof")] {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FaultPlan::new(seed).with(
            FaultRule::new(FaultKind::Drop)
                .tag(tag(frame))
                .dir(Direction::Down),
        );
        let config = DeploymentConfig::small(3, 3);
        let (mut cluster, _proxies, mut deployment) =
            launch_local_faulty_with(&mut rng, &config, &plan, fast_timeouts(), fast_retry())
                .expect("cluster launches");
        let ell = deployment.topology().ell();
        let mut users = users_with_chat(&mut rng, 6);

        let (report, _) = deployment
            .run_round(&mut rng, &mut users)
            .unwrap_or_else(|e| panic!("a dropped {frame} is not fatal: {e}"));
        assert!(
            report.failed_chains.is_empty(),
            "dropped {frame}: chains failed: {:?}",
            report.failed_chains
        );
        assert!(
            report.convicted_by_chain.is_empty(),
            "dropped {frame}: nobody lied: {:?}",
            report.convicted_by_chain
        );
        assert_eq!(report.delivered, 6 * ell, "dropped {frame}: full delivery");
        cluster.shutdown();
    }
}

/// Stall injection: a proxy that wedges mid-round on the mix frame is
/// caught by the read deadline and healed by retry-with-reconnect —
/// the round completes in bounded time with full delivery, and the
/// retry shows up in the metrics.
#[test]
fn stalled_mix_frame_times_out_and_retries() {
    let mut rng = StdRng::seed_from_u64(74);
    // Every proxy stalls the first batch chunk it sees, indefinitely;
    // the reconnect after the read deadline finds the rule spent, so
    // the retry sails through that hop (and meets the next hop's stall:
    // k failed passes in all).
    let plan = FaultPlan::new(74).with(
        FaultRule::new(FaultKind::Stall)
            .tag(tag("MixBatchChunk"))
            .dir(Direction::Up),
    );
    let config = DeploymentConfig::small(3, 3);
    let (mut cluster, _proxies, mut deployment) = launch_local_faulty_with(
        &mut rng,
        &config,
        &plan,
        fast_timeouts(),
        RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_millis(10),
        },
    )
    .expect("cluster launches");
    let ell = deployment.topology().ell();
    let mut users = users_with_chat(&mut rng, 6);

    let started = Instant::now();
    let (report, _) = deployment
        .run_round(&mut rng, &mut users)
        .expect("stalls are healed by deadline + reconnect");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "recovery is deadline-bounded, not hang-until-killed"
    );
    assert!(report.failed_chains.is_empty(), "no chain fails");
    assert!(report.convicted_by_chain.is_empty(), "nobody lied");
    assert_eq!(report.delivered, 6 * ell);

    // The injected stalls and the retries that healed them are on the
    // books, scraped over the wire from a live daemon.
    let mut conn = Conn::connect(cluster.mix[0][0].addr()).expect("scrape connects");
    match conn.request(&Frame::StatsRequest).expect("scrape answers") {
        Frame::StatsReport { snapshot } => {
            assert!(
                snapshot.counter("fault.injected.stall") >= 1,
                "stalls were injected"
            );
            assert!(
                snapshot.counter("chain.mix_retries") >= 1,
                "the mix was retried"
            );
        }
        other => panic!("expected StatsReport, got {other:?}"),
    }
    cluster.shutdown();
}

/// A network that stays wedged past every retry is a typed
/// [`RoundError`], not a panic or a hang: with every chain's mix
/// permanently stalled the round fails as `AllChainsFailed` in bounded
/// time.
#[test]
fn permanently_stalled_deployment_fails_typed_not_hung() {
    let mut rng = StdRng::seed_from_u64(75);
    let plan = FaultPlan::new(75).with(
        FaultRule::new(FaultKind::Stall)
            .tag(tag("MixBatchStart"))
            .count(u32::MAX)
            .dir(Direction::Up),
    );
    let config = DeploymentConfig::small(3, 3);
    let (mut cluster, _proxies, mut deployment) = launch_local_faulty_with(
        &mut rng,
        &config,
        &plan,
        fast_timeouts(),
        RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_millis(10),
        },
    )
    .expect("cluster launches");
    let mut users = users_with_chat(&mut rng, 6);

    let started = Instant::now();
    let err = deployment
        .run_round(&mut rng, &mut users)
        .expect_err("a fully wedged deployment cannot complete a round");
    assert!(
        matches!(err, RoundError::AllChainsFailed { round: 0 }),
        "typed degradation, got: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "failure is deadline-bounded"
    );
    cluster.shutdown();
}

/// Submission-window hardening: a connection that floods past its
/// quota is refused with [`error_code::QUOTA_EXCEEDED`] while other
/// connections (and the window itself) stay healthy.
#[test]
fn per_connection_quota_rejects_flood() {
    let mut rng = StdRng::seed_from_u64(76);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
    let daemon = MixServerDaemon::spawn_with_policy(
        "127.0.0.1:0",
        secrets.remove(0),
        public.clone(),
        76,
        SubmissionPolicy {
            max_per_conn: 2,
            max_pending: 1024,
        },
    )
    .expect("daemon spawns");

    let mut conn = Conn::connect(daemon.addr()).expect("connects");
    conn.request_ok(&Frame::OpenRound { round: 0 })
        .expect("window opens");
    for _ in 0..2 {
        let submission = xrd_mixnet::testutil::malicious_submission(&mut rng, &public, 0, 2);
        conn.request_ok(&Frame::Submit {
            round: 0,
            submission,
        })
        .expect("within quota");
    }
    let submission = xrd_mixnet::testutil::malicious_submission(&mut rng, &public, 0, 2);
    match conn.request(&Frame::Submit {
        round: 0,
        submission: submission.clone(),
    }) {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, error_code::QUOTA_EXCEEDED),
        Err(xrd_net::NetError::Remote { code, .. }) => {
            assert_eq!(code, error_code::QUOTA_EXCEEDED)
        }
        other => panic!("expected a quota rejection, got {other:?}"),
    }

    // A fresh connection has its own quota; the window survived the
    // flood.
    let mut conn2 = Conn::connect(daemon.addr()).expect("connects");
    conn2
        .request_ok(&Frame::Submit {
            round: 0,
            submission,
        })
        .expect("other connections are unaffected");

    let mut daemon = daemon;
    daemon.shutdown();
}

/// Negative control: a corrupted frame between coordinator and an
/// honest daemon must never convict anyone.  The verdict byte of a
/// `VerifyResult` is flipped on the wire; strict canonical decoding
/// rejects the mangled frame, the coordinator classifies it as a
/// transport failure and re-asks, and the honest answer stands — no
/// dispute, no conviction.  (A decoded-but-false verdict is covered by
/// the evidence rule: a rejecting verifier whose own signed evidence
/// does not uphold the rejection is never convicted, see
/// `lying_verifier_is_convicted_and_round_delivers` for the
/// doubling-down counterpart.)
#[test]
fn corrupted_verify_result_convicts_nobody() {
    let mut rng = StdRng::seed_from_u64(77);
    // Flip a byte in the first VerifyResult answered by each daemon.
    let plan = FaultPlan::new(77).with(
        FaultRule::new(FaultKind::Corrupt)
            .tag(tag("VerifyResult"))
            .dir(Direction::Down),
    );
    let config = DeploymentConfig::small(3, 3);
    let (mut cluster, _proxies, mut deployment) =
        launch_local_faulty_with(&mut rng, &config, &plan, fast_timeouts(), fast_retry())
            .expect("cluster launches");
    let ell = deployment.topology().ell();
    let mut users = users_with_chat(&mut rng, 6);

    let (report, _) = deployment
        .run_round(&mut rng, &mut users)
        .expect("a flipped verdict is not fatal");
    assert!(
        report.convicted_by_chain.is_empty(),
        "wire corruption must never convict an honest server: {:?}",
        report.convicted_by_chain
    );
    assert!(report.failed_chains.is_empty(), "no chain fails");
    assert_eq!(report.delivered, 6 * ell, "full delivery");
    cluster.shutdown();
}
