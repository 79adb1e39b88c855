//! Integration tests of the active-attack story (§6 + Appendix A):
//! tampering servers and malicious users against the full chain
//! protocol, exercised across crate boundaries.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd::crypto::ristretto::GroupElement;
use xrd::crypto::scalar::Scalar;
use xrd::mixnet::blame::BlameVerdict;
use xrd::mixnet::client::seal_ahs;
use xrd::mixnet::testutil::malicious_submission;
use xrd::mixnet::{ChainRunner, MailboxMessage, MixError, Submission, PAYLOAD_LEN};

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
    // A server that swaps an entry outright breaks the product relation:
    // the other servers' verification fails immediately.
    let mut rng = StdRng::seed_from_u64(3);
    let round = 0;
    let (secrets, public) = xrd::mixnet::generate_chain_keys(&mut rng, 2, round);
    let subs: Vec<Submission> = (0..5)
        .map(|i| {
            let msg = MailboxMessage {
                mailbox: [i; 32],
                sealed: vec![i; PAYLOAD_LEN + 16],
            };
            seal_ahs(&mut rng, &public, round, &msg)
        })
        .collect();
    let entries: Vec<xrd::mixnet::MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
    let mut server0 = xrd::mixnet::MixServer::new(secrets[0].clone(), public.clone());
    let mut result = server0
        .process_round(&mut rng, round, entries.clone())
        .unwrap();
    // Replace one output with an entry of the adversary's own making.
    result.outputs[2] = xrd::mixnet::MixEntry {
        dh: GroupElement::base_mul(&Scalar::random(&mut rng)),
        ct: result.outputs[2].ct.clone(),
    };
    assert!(
        !xrd::mixnet::verify_hop(&public, 0, round, &entries, &result.outputs, &result.proof),
        "replacement must break the aggregate proof"
    );
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

    let public = chain.public().clone();
    let servers = chain.servers_mut();
    let entries: Vec<xrd::mixnet::MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let mut out0 = servers[0]
        .process_round(&mut rng, round, entries.clone())
        .unwrap();
    // Shift two keys by T and T^{-1}: the aggregate product is
    // unchanged, but both slots' keys are now wrong.
    let t = GroupElement::base_mul(&Scalar::random(&mut rng));
    out0.outputs[0].dh = out0.outputs[0].dh.add(&t);
    out0.outputs[4].dh = out0.outputs[4].dh.sub(&t);
    {
        let st = servers[0].state_mut().unwrap();
        st.output_dhs[0] = out0.outputs[0].dh;
        st.output_dhs[4] = out0.outputs[4].dh;
    }
    // The aggregate proof still verifies — the attack is invisible here.
    assert!(xrd::mixnet::verify_hop(
        &public,
        0,
        round,
        &entries,
        &out0.outputs,
        &out0.proof
    ));

    // But the next hop fails on exactly the tampered slots...
    match servers[1].process_round(&mut rng, round, out0.outputs) {
        Err(MixError::DecryptFailure(bad)) => {
            assert_eq!(bad, vec![0, 4]);
            // ...and blame pins the server, never a user.
            let mut pass = chain.pass(&mut rng, round);
            for idx in bad {
                let verdict = pass.blame(&subs, 1, idx).expect("in process");
                assert_eq!(verdict, BlameVerdict::ServerMisbehaved { position: 0 });
            }
        }
        other => panic!("expected decrypt failure, got {other:?}"),
    }
}

#[test]
fn chain_halts_without_delivery_when_server_misbehaves() {
    // When blame identifies a server, the chain aborts: no messages are
    // delivered (the servers delete their inner keys, §6.4) and privacy
    // is preserved.
    let mut rng = StdRng::seed_from_u64(5);
    let round = 0;
    let mut chain = ChainRunner::new(&mut rng, 2, round);
    let subs: Vec<Submission> = (0..4)
        .map(|i| honest_submission(&mut rng, &chain, round, i))
        .collect();

    // Manually drive: server 0 processes then tampers a ciphertext
    // (consistently with its own records — a deliberate cheater).
    let tampered = {
        let servers = chain.servers_mut();
        let entries: Vec<xrd::mixnet::MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let result = servers[0].process_round(&mut rng, round, entries).unwrap();
        // The cheater flips ciphertext bytes in what it forwards; its
        // retained state only records the blinded keys, which stay
        // consistent with the tampered batch.
        let mut outputs = result.outputs;
        outputs[1].ct[0] ^= 0xff;
        outputs
    };
    // Resume via the runner-level API on a fresh runner is not possible
    // (state is consumed); instead verify at the protocol level:
    match chain.servers_mut()[1].process_round(&mut rng, round, tampered) {
        Err(MixError::DecryptFailure(bad)) => {
            let verdict = chain.pass(&mut rng, round).blame(&subs, 1, bad[0]);
            let verdict = verdict.expect("in process");
            assert_eq!(verdict, BlameVerdict::ServerMisbehaved { position: 0 });
        }
        other => panic!("expected failure, got {other:?}"),
    }
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
