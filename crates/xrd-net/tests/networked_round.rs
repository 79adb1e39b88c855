//! Loopback integration tests: a complete XRD deployment as real TCP
//! services — every mix hop and every mailbox shard its own daemon on
//! its own port — driven through full rounds over the wire.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::user::{Received, User};
use xrd_core::DeploymentConfig;
use xrd_net::launch_local;
use xrd_topology::ChainId;

/// The acceptance-scale round: 64 users across 6 chains of 3 mix
/// servers each (18 mix daemons) plus 2 mailbox shards, entirely over
/// TCP.  Every recipient receives exactly the plaintext sent to them;
/// a cover-traffic-only user receives no chat at all.
#[test]
fn full_round_64_users_over_tcp() {
    let mut rng = StdRng::seed_from_u64(1);
    let config = DeploymentConfig::small(6, 3); // 6 chains × k=3, 2 shards
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    assert_eq!(deployment.topology().n_chains(), 6);
    assert_eq!(deployment.topology().chain_len(), 3);
    assert_eq!(cluster.n_daemons(), 6 * 3 + 2, "one port per daemon");

    let n_users = 64;
    let mut users: Vec<User> = (0..n_users).map(|_| User::new(&mut rng)).collect();
    let ell = deployment.topology().ell();

    // Users 0..40 converse in pairs with distinct payloads; users
    // 40..64 are cover-traffic-only (they send ℓ loopbacks and must
    // receive no chat).
    let paired = 40;
    for i in (0..paired).step_by(2) {
        let (a, b) = (users[i].pk(), users[i + 1].pk());
        users[i].start_conversation(b);
        users[i + 1].start_conversation(a);
        users[i].queue_chat(format!("hello {} from {}", i + 1, i).into_bytes());
        users[i + 1].queue_chat(format!("hello {} from {}", i, i + 1).into_bytes());
    }

    let (report, fetched) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round failed");

    // Uniformity: everyone's traffic is ℓ in, ℓ out.
    assert_eq!(report.messages_mixed, n_users * ell);
    assert_eq!(report.delivered, n_users * ell);
    assert!(report.aborted_chains.is_empty());
    assert!(report.malicious_by_chain.is_empty());

    for (i, user) in users.iter().enumerate() {
        let got = &fetched[&user.mailbox_id()];
        assert_eq!(got.len(), ell, "user {i} receives exactly ℓ messages");
        if i < paired {
            // Exactly the partner's plaintext, plus ℓ-1 loopbacks.
            let partner = if i % 2 == 0 { i + 1 } else { i - 1 };
            let expect = Received::Chat {
                from: users[partner].mailbox_id(),
                data: format!("hello {i} from {partner}").into_bytes(),
            };
            assert!(got.contains(&expect), "user {i} missing partner chat");
            assert_eq!(
                got.iter().filter(|r| **r == Received::Loopback).count(),
                ell - 1,
                "user {i} loopback count"
            );
        } else {
            // Cover-traffic user: nothing but her own loopbacks — no
            // chat, no opaque residue.
            assert!(
                got.iter().all(|r| *r == Received::Loopback),
                "cover-traffic user {i} must receive nothing but loopbacks, got {got:?}"
            );
        }
    }

    cluster.shutdown();
}

/// Multiple consecutive rounds over the wire: inner keys rotate each
/// round, queued chats flow in order, counts stay uniform.
#[test]
fn multi_round_conversation_over_tcp() {
    let mut rng = StdRng::seed_from_u64(2);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = deployment.topology().ell();

    let mut users: Vec<User> = (0..8).map(|_| User::new(&mut rng)).collect();
    let (a, b) = (users[0].pk(), users[1].pk());
    users[0].start_conversation(b);
    users[1].start_conversation(a);
    users[0].queue_chat(b"one".to_vec());
    users[0].queue_chat(b"two".to_vec());
    users[0].queue_chat(b"three".to_vec());

    for (round, expect) in [b"one".as_slice(), b"two", b"three"].iter().enumerate() {
        let (report, fetched) = deployment
            .run_round(&mut rng, &mut users)
            .expect("round failed");
        assert_eq!(report.round, round as u64);
        for user in &users {
            assert_eq!(fetched[&user.mailbox_id()].len(), ell, "round {round}");
        }
        assert!(
            fetched[&users[1].mailbox_id()].contains(&Received::Chat {
                from: users[0].mailbox_id(),
                data: expect.to_vec(),
            }),
            "round {round}: chat {:?} not delivered",
            String::from_utf8_lossy(expect)
        );
    }

    cluster.shutdown();
}

/// §5.3.3 churn over the wire: a user who goes offline is represented
/// by her stored cover submissions (sealed against pre-published
/// next-round keys), and her partner is notified.
#[test]
fn offline_cover_replay_over_tcp() {
    let mut rng = StdRng::seed_from_u64(3);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = deployment.topology().ell();

    let mut users: Vec<User> = (0..6).map(|_| User::new(&mut rng)).collect();
    let (a, b) = (users[0].pk(), users[1].pk());
    users[0].start_conversation(b);
    users[1].start_conversation(a);

    let (_, _) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round failed");
    users[0].online = false;

    let (report, fetched) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round failed");
    assert_eq!(report.messages_mixed, 6 * ell, "covers replayed for user 0");
    let bob_got = &fetched[&users[1].mailbox_id()];
    assert_eq!(bob_got.len(), ell);
    assert!(bob_got.contains(&Received::PartnerOffline {
        partner: users[0].mailbox_id()
    }));
    assert!(users[1].partner().is_none(), "partner conversation ended");

    cluster.shutdown();
}

/// The blame protocol over the wire: a protocol-violating submission
/// (valid PoK, garbage onion) is traced via Accuse/RevealSlot frames
/// and removed; every honest message still lands.
#[test]
fn wire_blame_removes_malicious_submission() {
    let mut rng = StdRng::seed_from_u64(4);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = deployment.topology().ell();

    let mut users: Vec<User> = (0..5).map(|_| User::new(&mut rng)).collect();
    // Garbage fails at the last hop — the worst case for blame (traces
    // through every shuffle).
    let bad = xrd_mixnet::testutil::malicious_submission(
        &mut rng,
        &deployment.chain_keys()[0],
        0,
        deployment.topology().chain_len() - 1,
    );
    deployment.inject_submission(ChainId(0), bad);

    let (report, fetched) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round failed");
    assert!(report.aborted_chains.is_empty(), "no server is at fault");
    assert_eq!(
        report.malicious_by_chain.get(&0),
        Some(&1),
        "the injected submission is convicted"
    );
    assert_eq!(report.messages_mixed, 5 * ell + 1);
    assert_eq!(report.delivered, 5 * ell, "honest messages all survive");
    for user in &users {
        assert_eq!(fetched[&user.mailbox_id()].len(), ell);
    }

    // The next round is unaffected.
    let (report2, _) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round failed");
    assert!(report2.malicious_by_chain.is_empty());

    cluster.shutdown();
}

/// A submission with an invalid proof of knowledge is rejected at the
/// daemon's door (never enters the batch).
#[test]
fn bad_pok_rejected_at_submission() {
    use xrd_net::codec::Frame;
    use xrd_net::Conn;

    let mut rng = StdRng::seed_from_u64(5);
    let config = DeploymentConfig::small(3, 3);
    let (mut cluster, deployment) = launch_local(&mut rng, &config).expect("cluster launches");

    // Seal for the wrong round: the PoK is round-bound, so it fails.
    let msg = xrd_mixnet::MailboxMessage {
        mailbox: [7u8; 32],
        sealed: vec![1u8; xrd_mixnet::PAYLOAD_LEN + xrd_crypto::TAG_LEN],
    };
    let wrong_round = xrd_mixnet::seal_ahs(&mut rng, &deployment.chain_keys()[0], 99, &msg);

    let addr = deployment.chain_addrs()[0][0];
    let mut conn = Conn::connect(addr).expect("connect");
    conn.request_ok(&Frame::OpenRound { round: 0 }).unwrap();
    let response = conn.request(&Frame::Submit {
        round: 0,
        submission: wrong_round,
    });
    assert!(
        matches!(response, Err(xrd_net::NetError::Remote { code, .. })
            if code == xrd_net::codec::error_code::REJECTED_SUBMISSION),
        "daemon must reject a bad PoK, got {response:?}"
    );

    cluster.shutdown();
}

/// The standalone `xrd-netd` binary really serves the protocol as its
/// own OS process: spawn a mailbox daemon, deliver and fetch over TCP,
/// then shut it down over the wire.
#[test]
fn netd_process_serves_mailbox() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    use xrd_net::codec::Frame;
    use xrd_net::Conn;

    let mut child = Command::new(env!("CARGO_BIN_EXE_xrd-netd"))
        .args(["mailbox", "--shard", "0", "--shards", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn xrd-netd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr: std::net::SocketAddr = loop {
        let line = lines.next().expect("daemon announces").expect("readable");
        if let Some(rest) = line.strip_prefix("LISTENING ") {
            break rest.parse().expect("valid addr");
        }
    };

    let mut conn = Conn::connect(addr).expect("connect to daemon process");
    let sealed = vec![9u8; xrd_mixnet::MAILBOX_MSG_LEN - 32];
    conn.request_ok(&Frame::Deliver {
        round: 7,
        batch: 0,
        messages: vec![xrd_mixnet::MailboxMessage {
            mailbox: [3u8; 32],
            sealed: sealed.clone(),
        }],
    })
    .expect("deliver");
    let page = Frame::FetchPage {
        mailbox: [3u8; 32],
        cursor: 0,
        max: 16,
    };
    match conn.request(&page).unwrap() {
        Frame::MailboxPage {
            sealed: got,
            next_cursor,
            remaining,
        } => {
            assert_eq!(got, vec![(7, sealed)]);
            assert_eq!(next_cursor, 1);
            assert_eq!(remaining, 0);
        }
        other => panic!("expected page, got {other:?}"),
    }
    // Un-acked entries stay: a second walk re-reads the same page.
    match conn.request(&page).unwrap() {
        Frame::MailboxPage { sealed: got, .. } => assert_eq!(got.len(), 1),
        other => panic!("expected page, got {other:?}"),
    }
    conn.request_ok(&Frame::FetchAck {
        mailbox: [3u8; 32],
        upto: 1,
    })
    .expect("ack");
    match conn.request(&page).unwrap() {
        Frame::MailboxPage { sealed: got, .. } => assert!(got.is_empty(), "acked mail retired"),
        other => panic!("expected page, got {other:?}"),
    }
    conn.request_ok(&Frame::Shutdown).expect("shutdown");
    let status = child.wait().expect("daemon exits");
    assert!(status.success());
}

/// A chain whose conclusion fails still reports the convictions of its
/// mix phase.  Chain 0's hop 1 rejects every hop it checks and upholds
/// the rejections, so the verification wave convicts it; then every
/// `RevealInnerKey` to chain 0's hop 0 cuts its connection, so the
/// chain fails after its verdicts fell.  The round reports both.
#[test]
fn a_failed_conclusion_keeps_the_mix_phase_convictions() {
    use rand::RngCore;
    use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};
    use xrd_mixnet::Lie;
    use xrd_net::codec::Frame;
    use xrd_net::{
        ConnTimeouts, DaemonHandle, Direction, FaultKind, FaultPlan, FaultProxy, FaultRule,
        MailboxDaemon, MixServerDaemon, RemoteDeployment, RetryPolicy,
    };
    use xrd_topology::{Beacon, Topology};

    let mut rng = StdRng::seed_from_u64(74);
    let (n_servers, k) = (3, 3);
    let topo = Topology::build_with(&Beacon::from_u64(0), 0, n_servers, n_servers, k, 0.2);
    let reveal = (0..=u8::MAX).find(|&t| Frame::tag_name(t) == Some("RevealInnerKey"));
    let cut_reveals = FaultPlan::new(74).with(
        FaultRule::new(FaultKind::Disconnect)
            .tag(reveal.expect("a RevealInnerKey tag"))
            .count(u32::MAX)
            .dir(Direction::Up),
    );
    let (mut daemons, mut proxies): (Vec<DaemonHandle>, Vec<FaultProxy>) = (vec![], vec![]);
    let (mut chain_addrs, mut chain_keys) = (vec![], vec![]);
    for chain in 0..topo.n_chains() {
        let (mut secrets, mut public) = generate_chain_keys(&mut rng, k, chain as u64);
        rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
        let mut addrs = vec![];
        for (hop, secrets) in secrets.into_iter().enumerate() {
            let (seed, public) = (rng.next_u64(), public.clone());
            let daemon = match (chain, hop) {
                (0, 1) => MixServerDaemon::spawn_byzantine(
                    "127.0.0.1:0",
                    secrets,
                    public,
                    seed,
                    Lie::RejectsAndUpholds,
                ),
                _ => MixServerDaemon::spawn("127.0.0.1:0", secrets, public, seed),
            }
            .expect("daemon spawns");
            let mut addr = daemon.addr();
            if (chain, hop) == (0, 0) {
                let proxy = FaultProxy::spawn("127.0.0.1:0", addr, cut_reveals.clone());
                let proxy = proxy.expect("proxy spawns");
                addr = proxy.addr();
                proxies.push(proxy);
            }
            addrs.push(addr);
            daemons.push(daemon);
        }
        chain_addrs.push(addrs);
        chain_keys.push(public);
    }
    let mailboxes: Vec<DaemonHandle> = (0..2)
        .map(|shard| MailboxDaemon::spawn("127.0.0.1:0", shard, 2).expect("mailbox spawns"))
        .collect();
    let retry = RetryPolicy {
        attempts: 2,
        base_backoff: std::time::Duration::from_millis(5),
    };
    let mailbox_addrs = mailboxes.iter().map(DaemonHandle::addr).collect();
    let mut deployment = RemoteDeployment::connect_with(
        topo,
        chain_addrs,
        chain_keys,
        mailbox_addrs,
        ConnTimeouts::default(),
        retry,
    )
    .expect("deployment connects");
    let mut users: Vec<User> = (0..6).map(|_| User::new(&mut rng)).collect();
    let (report, _) = deployment
        .run_round(&mut rng, &mut users)
        .expect("the other chain carries the round");
    assert_eq!(report.failed_chains, vec![0], "chain 0 cannot reveal");
    assert_eq!(
        report.convicted_by_chain.get(&0),
        Some(&vec![1]),
        "the liar stays convicted: {:?}",
        report.convicted_by_chain
    );
    drop(proxies);
}

/// Hop 0 mixing its own window, on the wire: a k = 3 chain of
/// in-process daemons, hop 0 telling `lie` if any.  Returns the
/// daemons, their addresses and the chain's bundle for round 0.
fn window_chain(
    rng: &mut StdRng,
    lie: Option<xrd_mixnet::Lie>,
) -> (
    Vec<xrd_net::DaemonHandle>,
    Vec<std::net::SocketAddr>,
    xrd_mixnet::ChainPublicKeys,
) {
    use rand::RngCore;
    use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};
    use xrd_net::MixServerDaemon;

    let (mut secrets, mut public) = generate_chain_keys(rng, 3, 0);
    rotate_inner_keys(rng, &mut secrets, &mut public, 0);
    let daemons: Vec<xrd_net::DaemonHandle> = (secrets.into_iter().enumerate())
        .map(|(hop, secrets)| {
            let (seed, public) = (rng.next_u64(), public.clone());
            match lie.filter(|_| hop == 0) {
                Some(lie) => {
                    MixServerDaemon::spawn_byzantine("127.0.0.1:0", secrets, public, seed, lie)
                }
                None => MixServerDaemon::spawn("127.0.0.1:0", secrets, public, seed),
            }
            .expect("daemon spawns")
        })
        .collect();
    let addrs = daemons.iter().map(xrd_net::DaemonHandle::addr).collect();
    (daemons, addrs, public)
}

/// Submit each of `subs` for `round` to every address, each on its own
/// connection; an exchange that fails (a dropped frame) is given up.
fn submit_everywhere(addrs: &[std::net::SocketAddr], round: u64, subs: &[xrd_mixnet::Submission]) {
    use xrd_net::codec::Frame;
    use xrd_net::{Conn, ConnTimeouts};
    let timeouts = ConnTimeouts {
        read: std::time::Duration::from_millis(300),
        ..ConnTimeouts::default()
    };
    for &addr in addrs {
        for submission in subs {
            let mut conn = Conn::connect_with(addr, timeouts).expect("submitter connects");
            let submit = Frame::Submit {
                round,
                submission: submission.clone(),
            };
            let _ = conn.request_ok(&submit);
        }
    }
}

/// Hop 0 that mixes other than its window — its window less the first
/// submission — attests a column that does not hash to the agreed one:
/// the pass is refused at the seam entering hop 0, before anything is
/// verified or revealed, and nobody is convicted or suspected.
#[test]
fn hop_0_mixing_other_than_its_window_is_refused_at_the_seam() {
    use xrd_net::{ChainClient, NetError};
    let mut rng = StdRng::seed_from_u64(80);
    let (_daemons, addrs, public) = window_chain(&mut rng, Some(xrd_mixnet::Lie::DropsFromWindow));
    let mut client = ChainClient::connect(&addrs, public.clone()).expect("client connects");
    client.open_round(0).expect("window opens");
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, 0, 6);
    submit_everywhere(&addrs, 0, &subs);
    let agreement = client.close_and_agree(0).expect("its digests are honest");
    assert_eq!(agreement.len(), 6);
    match client.mix_round(0, &agreement) {
        Err(NetError::Protocol(why)) => assert_eq!(why, "column seam mismatch entering hop 0"),
        Err(other) => panic!("expected the seam breach, got {other}"),
        Ok(outcome) => panic!("the pass went through: {outcome:?}"),
    }
    assert!(client.take_suspects().is_empty(), "nobody is suspected");
}

/// A lost `Submit` makes hop 0's window dissent: the majority still
/// agrees, hop 0 is only suspected, and the round delivers every
/// message through the fallback — the batch fetched from a majority
/// daemon and streamed to hop 0.
#[test]
fn a_dissenting_hop_0_is_streamed_the_agreed_batch() {
    use xrd_net::codec::Frame;
    use xrd_net::{ChainClient, Direction, FaultKind, FaultPlan, FaultProxy, FaultRule};
    let mut rng = StdRng::seed_from_u64(81);
    let (_daemons, mut addrs, public) = window_chain(&mut rng, None);
    let submit = (0..=u8::MAX).find(|&t| Frame::tag_name(t) == Some("Submit"));
    let drop_one = FaultPlan::new(81).with(
        FaultRule::new(FaultKind::Drop)
            .tag(submit.expect("a Submit tag"))
            .count(1)
            .dir(Direction::Up),
    );
    let proxy = FaultProxy::spawn("127.0.0.1:0", addrs[0], drop_one).expect("proxy spawns");
    addrs[0] = proxy.addr();
    let mut client = ChainClient::connect(&addrs, public.clone()).expect("client connects");
    client.open_round(0).expect("window opens");
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, 0, 6);
    submit_everywhere(&addrs, 0, &subs);
    let agreement = client.close_and_agree(0).expect("hops 1 and 2 agree");
    assert_eq!(agreement.len(), 6);
    assert_eq!(client.take_suspects(), vec![0], "hop 0 dissented");
    let outcome = client.mix_round(0, &agreement).expect("the fallback mixes");
    assert_eq!(outcome.delivered.len(), 6, "every message, exactly");
    assert!(outcome.misbehaving_servers.is_empty() && outcome.malicious_users.is_empty());
    drop(proxy);
}

/// A daemon holding no window for a round refuses to mix one
/// (`UNKNOWN_ROUND`; any position but 0 refuses any window), and the
/// pass then falls back: hop 0, having closed two later windows, keeps
/// no window for round 0 nor its batch, so the coordinator fetches the
/// batch from the next majority daemon and streams it.  (Hop 0 has
/// opened later windows, so it would not reveal round 0's key: the mix
/// phase is what is checked.)
#[test]
fn a_hop_0_without_the_window_is_streamed_the_batch_fetched_elsewhere() {
    use xrd_net::codec::{error_code, Frame};
    use xrd_net::{ChainClient, Conn, MixPhase, NetError};
    let mut rng = StdRng::seed_from_u64(82);
    let (_daemons, addrs, public) = window_chain(&mut rng, None);
    let refusal = |at: std::net::SocketAddr, round: u64| {
        let mut conn = Conn::connect(at).expect("connects");
        match conn.request(&Frame::MixWindow {
            round,
            removed: vec![],
        }) {
            Err(NetError::Remote { code, .. }) => code,
            other => panic!("expected a refusal, got {other:?}"),
        }
    };
    assert_eq!(refusal(addrs[0], 7), error_code::UNKNOWN_ROUND);

    let mut client = ChainClient::connect(&addrs, public.clone()).expect("client connects");
    client.open_round(0).expect("window opens");
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, 0, 6);
    submit_everywhere(&addrs, 0, &subs);
    let agreement = client.close_and_agree(0).expect("agreement");
    assert_eq!(
        refusal(addrs[1], 0),
        error_code::BAD_STATE,
        "only hop 0 mixes"
    );
    let mut side = Conn::connect(addrs[0]).expect("connects");
    for round in [1, 2] {
        side.request_ok(&Frame::OpenRound { round }).expect("opens");
        side.request(&Frame::CloseSubmissions { round })
            .expect("closes");
    }
    assert_eq!(refusal(addrs[0], 0), error_code::UNKNOWN_ROUND);
    match client.mix_round_deferred(0, &agreement) {
        Ok(MixPhase::AwaitingAudit(pending)) => {
            assert_eq!(pending.outputs.len(), 6);
            let audit = xrd_mixnet::verify_hops_batched(&public, 0, &pending.records());
            assert!(audit, "a clean, verified pass");
        }
        Ok(MixPhase::Done(outcome)) => panic!("a clean pass awaits its audit: {outcome:?}"),
        Err(e) => panic!("the fallback mixes: {e}"),
    }
}
