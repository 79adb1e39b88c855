//! Integration tests of the active-attack story (§6 + Appendix A):
//! lying servers (a [`Lie`] set on one of the chain's servers) and
//! malicious users against the full chain protocol, exercised across
//! crate boundaries.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd::mixnet::blame::BlameVerdict;
use xrd::mixnet::client::seal_ahs;
use xrd::mixnet::testutil::malicious_submission;
use xrd::mixnet::{ChainParty, ChainRunner, Lie, MailboxMessage, Submission, PAYLOAD_LEN};

fn honest_submission(rng: &mut StdRng, chain: &ChainRunner, round: u64, tag: u8) -> Submission {
    let msg = MailboxMessage {
        mailbox: [tag; 32],
        sealed: vec![tag; PAYLOAD_LEN + 16],
    };
    seal_ahs(rng, chain.public(), round, &msg)
}

#[test]
fn malicious_users_at_every_layer_are_caught() {
    let mut rng = StdRng::seed_from_u64(1);
    let k = 5;
    for bad_layer in 0..k {
        let mut chain = ChainRunner::new(&mut rng, k, 0);
        let mut subs: Vec<Submission> = (0..6)
            .map(|i| honest_submission(&mut rng, &chain, 0, i))
            .collect();
        subs.insert(
            3,
            malicious_submission(&mut rng, chain.public(), 0, bad_layer),
        );
        let outcome = chain.run_round(&mut rng, 0, &subs);
        assert_eq!(
            outcome.malicious_users,
            vec![3],
            "bad layer {bad_layer}: wrong user removed"
        );
        assert_eq!(outcome.delivered.len(), 6, "honest messages must survive");
        assert!(outcome.misbehaving_servers.is_empty());
    }
}

#[test]
fn mixed_honest_and_multiple_attackers() {
    let mut rng = StdRng::seed_from_u64(2);
    let k = 3;
    let mut chain = ChainRunner::new(&mut rng, k, 1);
    let mut subs: Vec<Submission> = (0..10)
        .map(|i| honest_submission(&mut rng, &chain, 1, i))
        .collect();
    // Attackers at different depths and positions.
    subs[1] = malicious_submission(&mut rng, chain.public(), 1, 0);
    subs[5] = malicious_submission(&mut rng, chain.public(), 1, 1);
    subs[9] = malicious_submission(&mut rng, chain.public(), 1, 2);
    let outcome = chain.run_round(&mut rng, 1, &subs);
    let mut removed = outcome.malicious_users.clone();
    removed.sort();
    assert_eq!(removed, vec![1, 5, 9]);
    assert_eq!(outcome.delivered.len(), 7);
    // Three separate blame rounds (failures surface at distinct hops).
    assert_eq!(outcome.stats.blame_rounds, 3);
}

#[test]
fn tampering_server_detected_by_aggregate_proof() {
    // The last server overwrites one output key after proving: the
    // product relation breaks, so the other server's verification
    // rejects the hop and the dispute convicts it — nobody else, and
    // nothing is delivered.
    let mut rng = StdRng::seed_from_u64(3);
    let round = 0;
    let mut chain = ChainRunner::new(&mut rng, 2, round);
    let subs: Vec<Submission> = (0..5)
        .map(|i| honest_submission(&mut rng, &chain, round, i))
        .collect();
    chain.servers_mut()[1].set_lie(Some(Lie::CorruptHop));
    let outcome = chain.run_round(&mut rng, round, &subs);
    assert_eq!(outcome.misbehaving_servers, vec![1]);
    assert!(outcome.malicious_users.is_empty());
    assert!(outcome.delivered.is_empty());
    // Convicted at the cross-check's dispute, before any audit.
    assert_eq!(outcome.stats.proofs_verified, 2);
}

#[test]
fn appendix_a_product_preserving_attack_is_pinned_by_blame() {
    // The subtle attack from Appendix A: multiply one key by delta and
    // another by delta^{-1}.  The aggregate still verifies, but the
    // affected ciphertexts fail downstream and blame identifies the
    // tampering server (not the innocent users).
    let mut rng = StdRng::seed_from_u64(4);
    let round = 2;
    let mut chain = ChainRunner::new(&mut rng, 3, round);
    let subs: Vec<Submission> = (0..6)
        .map(|i| honest_submission(&mut rng, &chain, round, i))
        .collect();
    // Server 0 shifts its output keys 0 and 1 by T and T^{-1}, its
    // retained records kept consistent.
    chain.servers_mut()[0].set_lie(Some(Lie::ShiftKeys));
    let all: Vec<usize> = (0..subs.len()).collect();
    let mut pass = chain.pass(&mut rng, round, &subs);
    let (hops, end) = pass.party.mix(round, &all).expect("in process");
    // The aggregate proof still verifies — the attack is invisible here.
    assert!(hops[0].verify(pass.public));

    // But the next hop fails on exactly the tampered slots...
    assert_eq!(hops.len(), 1, "hop 1 fails");
    let bad = end.expect_err("hop 1 fails to decrypt");
    assert_eq!(bad, vec![0, 1]);
    // ...and blame pins the server, never a user.
    for idx in bad {
        let verdict = pass.blame(&subs, 1, idx).expect("in process");
        assert_eq!(verdict, BlameVerdict::ServerMisbehaved { position: 0 });
    }
}

#[test]
fn chain_halts_without_delivery_when_server_misbehaves() {
    // When blame identifies a server, the chain aborts: no messages are
    // delivered (the servers delete their inner keys, §6.4) and privacy
    // is preserved.  Server 0 flips a ciphertext byte in what it
    // forwards; its retained state only records the blinded keys, which
    // stay consistent with the tampered batch.
    let mut rng = StdRng::seed_from_u64(5);
    let round = 0;
    let mut chain = ChainRunner::new(&mut rng, 2, round);
    let subs: Vec<Submission> = (0..4)
        .map(|i| honest_submission(&mut rng, &chain, round, i))
        .collect();
    chain.servers_mut()[0].set_lie(Some(Lie::FlipCiphertext));
    let outcome = chain.run_round(&mut rng, round, &subs);
    assert_eq!(outcome.misbehaving_servers, vec![0]);
    assert!(outcome.malicious_users.is_empty());
    assert!(outcome.delivered.is_empty());
    assert_eq!(outcome.stats.blame_rounds, 1);
}

#[test]
fn forged_pok_rejected_at_submission() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut chain = ChainRunner::new(&mut rng, 2, 0);
    let mut subs: Vec<Submission> = (0..3)
        .map(|i| honest_submission(&mut rng, &chain, 0, i))
        .collect();
    // Replay attack: reuse another user's PoK with our own DH key.
    let pok = subs[0].pok;
    subs[1].pok = pok;
    let outcome = chain.run_round(&mut rng, 0, &subs);
    assert!(outcome.malicious_users.contains(&1));
    assert_eq!(outcome.stats.rejected_pok, 1);
}
