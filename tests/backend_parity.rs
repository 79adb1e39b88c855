//! The same round-protocol test suite, run against both backends via
//! the common `RoundBackend` trait: the in-process `Deployment` and the
//! networked `RemoteDeployment` must be indistinguishable to users —
//! and, both being the one round driver over their own cluster, report
//! a round in the same words.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd::core::backend::RoundBackend;
use xrd::core::{Deployment, DeploymentConfig, Received, RoundReport, User};
use xrd::mixnet::{seal_ahs, ChainPublicKeys, MailboxMessage, Submission, PAYLOAD_LEN};
use xrd::topology::ChainId;
use xrd_net::launch_local;

/// Drive any backend through the core protocol properties:
///
/// 1. an idle round is all loopbacks, exactly ℓ per user;
/// 2. a conversation round delivers exactly the queued plaintexts while
///    every mailbox still holds exactly ℓ messages;
/// 3. multi-round: queued chats arrive in order as inner keys rotate;
/// 4. churn: an offline user's stored covers are replayed and the
///    partner is notified (§5.3.3).
fn round_protocol_suite(backend: &mut dyn RoundBackend, rng: &mut StdRng) {
    let ell = backend.topology().ell();
    let mut users: Vec<User> = (0..6).map(|_| User::new(rng)).collect();

    // 1. Idle round.
    let (report, fetched) = backend.run_round(rng, &mut users).expect("round failed");
    assert_eq!(
        report,
        RoundReport {
            round: 0,
            messages_mixed: 6 * ell,
            delivered: 6 * ell,
            ..Default::default()
        },
        "an honest round reports no casualty of any kind"
    );
    for user in &users {
        let got = &fetched[&user.mailbox_id()];
        assert_eq!(got.len(), ell);
        assert!(got.iter().all(|r| *r == Received::Loopback));
    }

    // 2. Conversation round.
    let (a, b) = (users[0].pk(), users[1].pk());
    users[0].start_conversation(b);
    users[1].start_conversation(a);
    users[0].queue_chat(b"first".to_vec());
    users[0].queue_chat(b"second".to_vec());
    users[1].queue_chat(b"reply".to_vec());

    let (_, fetched) = backend.run_round(rng, &mut users).expect("round failed");
    for user in &users {
        assert_eq!(fetched[&user.mailbox_id()].len(), ell, "uniformity");
    }
    assert!(fetched[&users[1].mailbox_id()].contains(&Received::Chat {
        from: users[0].mailbox_id(),
        data: b"first".to_vec(),
    }));
    assert!(fetched[&users[0].mailbox_id()].contains(&Received::Chat {
        from: users[1].mailbox_id(),
        data: b"reply".to_vec(),
    }));

    // 3. Second queued chat arrives next round.
    let (_, fetched) = backend.run_round(rng, &mut users).expect("round failed");
    assert!(fetched[&users[1].mailbox_id()].contains(&Received::Chat {
        from: users[0].mailbox_id(),
        data: b"second".to_vec(),
    }));

    // 4. Churn: user 0 vanishes; her covers are replayed, user 1 is
    // notified and ends the conversation.
    users[0].online = false;
    let (report, fetched) = backend.run_round(rng, &mut users).expect("round failed");
    assert_eq!(report.messages_mixed, 6 * ell, "covers stand in");
    let partner_view = &fetched[&users[1].mailbox_id()];
    assert_eq!(partner_view.len(), ell);
    assert!(partner_view.contains(&Received::PartnerOffline {
        partner: users[0].mailbox_id(),
    }));
    assert!(users[1].partner().is_none());

    assert_eq!(backend.round(), 4);
}

#[test]
fn in_process_backend_passes_protocol_suite() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut deployment = Deployment::new(&mut rng, DeploymentConfig::small(4, 3));
    round_protocol_suite(&mut deployment, &mut rng);
}

#[test]
fn networked_backend_passes_protocol_suite() {
    let mut rng = StdRng::seed_from_u64(11);
    let (mut cluster, mut deployment) =
        launch_local(&mut rng, &DeploymentConfig::small(4, 3)).expect("cluster launches");
    round_protocol_suite(&mut deployment, &mut rng);
    cluster.shutdown();
}

/// The two backends expose identical public round state for identical
/// configs: topology shape and key schedule move in lockstep.
#[test]
fn backends_agree_on_round_state() {
    let config = DeploymentConfig::small(4, 3);
    let mut rng_a = StdRng::seed_from_u64(5);
    let mut rng_b = StdRng::seed_from_u64(5);
    let mut local = Deployment::new(&mut rng_a, config.clone());
    let (mut cluster, mut remote) = launch_local(&mut rng_b, &config).expect("cluster launches");

    let (lt, rt) = (
        RoundBackend::topology(&local),
        RoundBackend::topology(&remote),
    );
    assert_eq!(lt.n_chains(), rt.n_chains());
    assert_eq!(lt.chain_len(), rt.chain_len());
    assert_eq!(lt.ell(), rt.ell());
    // Chain formation is beacon-driven, so the chains are identical.
    for c in 0..lt.n_chains() {
        assert_eq!(lt.chains[c].members, rt.chains[c].members, "chain {c}");
    }

    let mut users_a: Vec<User> = (0..3).map(|_| User::new(&mut rng_a)).collect();
    let mut users_b: Vec<User> = (0..3).map(|_| User::new(&mut rng_b)).collect();
    for round in 0..2u64 {
        assert_eq!(RoundBackend::round(&local), round);
        assert_eq!(RoundBackend::round(&remote), round);
        assert_eq!(
            RoundBackend::chain_keys(&local).len(),
            RoundBackend::chain_keys(&remote).len()
        );
        for keys in RoundBackend::chain_keys(&remote) {
            assert_eq!(keys.inner_epoch, round, "wire keys rotate per round");
            assert!(keys.verify());
        }
        let (ra, _) = RoundBackend::run_round(&mut local, &mut rng_a, &mut users_a)
            .expect("local round failed");
        let (rb, _) = remote
            .run_round(&mut rng_b, &mut users_b)
            .expect("remote round failed");
        assert_eq!(ra, rb);
    }

    cluster.shutdown();
}

/// A well-formed submission whose proof of knowledge is for another
/// round.
fn wrong_round_pok(rng: &mut StdRng, keys: &ChainPublicKeys, round: u64) -> Submission {
    let msg = MailboxMessage {
        mailbox: [7; 32],
        sealed: vec![7; PAYLOAD_LEN + xrd::crypto::TAG_LEN],
    };
    seal_ahs(rng, keys, round + 99, &msg)
}

/// A valid proof of knowledge on an onion that fails at the last hop.
fn garbage_onion(rng: &mut StdRng, keys: &ChainPublicKeys, round: u64) -> Submission {
    xrd::mixnet::testutil::malicious_submission(rng, keys, round, keys.len() - 1)
}

/// One meaning per report field: a malicious submitter injected into
/// chain 0 reads the same on both backends, whether she is refused up
/// front for a bad proof of knowledge (by `ChainRunner`'s screening in
/// process; by the daemons at the window, re-checked by the client,
/// over the wire — she never enters a mix batch) or mixed and removed
/// by blame.
#[test]
fn backends_report_a_malicious_submitter_alike() {
    type Attack = fn(&mut StdRng, &ChainPublicKeys, u64) -> Submission;
    let attacks: [(Attack, usize); 2] = [(wrong_round_pok, 0), (garbage_onion, 1)];

    let config = DeploymentConfig::small(4, 3);
    let mut rng = StdRng::seed_from_u64(23);
    let mut local = Deployment::new(&mut rng, config.clone());
    let (mut cluster, mut remote) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = local.topology().ell();
    let mut users_a: Vec<User> = (0..3).map(|_| User::new(&mut rng)).collect();
    let mut users_b = users_a.clone();

    for (round, (attack, entered)) in (0u64..).zip(attacks) {
        let bad = attack(&mut rng, &local.chain_keys()[0], round);
        local.inject_submission(ChainId(0), bad);
        let bad = attack(&mut rng, &remote.chain_keys()[0], round);
        remote.inject_submission(ChainId(0), bad);

        let (ra, _) = local.run_round(&mut rng, &mut users_a);
        let (rb, _) = remote
            .run_round(&mut rng, &mut users_b)
            .expect("remote round failed");
        assert_eq!(
            ra,
            RoundReport {
                round,
                messages_mixed: 3 * ell + entered,
                delivered: 3 * ell,
                malicious_by_chain: [(0, 1)].into(),
                ..Default::default()
            }
        );
        assert_eq!(ra, rb, "round {round}");
    }

    cluster.shutdown();
}
