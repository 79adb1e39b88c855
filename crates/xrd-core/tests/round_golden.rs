//! Golden in-process rounds: the lifecycle's observable output, pinned.
//!
//! Three seeded rounds on the in-process [`Deployment`] — a
//! conversation, a valid-PoK garbage onion injected into chain 0, one
//! partner going offline on her stored covers and then running out of
//! them — folded into one digest: every [`RoundReport`] field, every
//! user's [`Received`] list in user order, and the pre-published
//! next-round key bundles.
//!
//! The digest depends on the order the round consumes its RNG in
//! (sealing seeds → one 32-byte mix seed per chain, in chain order, each
//! chain then drawing from its own stream → each chain's inner-key
//! rotation in chain order) as much as on what the round computes, so
//! it pins both — and it does not depend on how many cores the chains
//! were spread over: the scenario is run on the machine's budget and
//! again on a budget of one.  A change to [`GOLDEN_DIGEST`] is a change
//! to what a round does: regenerate it in the same commit — the failing
//! assertion prints the new value — and say why in the commit message.
//!
//! Re-pinned once since it was recorded, when the chains of an
//! in-process round began to run side by side: each chain's mix draws
//! from a stream of its own instead of from the round's RNG in turn, so
//! shuffles and proof nonces — and, through the RNG's position, the
//! rotated keys — differ from the serial walk's.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::{Deployment, DeploymentConfig, FetchResults, Received, RoundReport, User};
use xrd_crypto::Blake2b;
use xrd_mixnet::ChainPublicKeys;
use xrd_topology::ChainId;

/// Blake2b-256 over the three rounds below.
const GOLDEN_DIGEST: &str = "919ad4ba4c5d90f8232650a65cfcd262cc83efdb220ec6038e4541cd55865c0d";

fn hash_u64(h: &mut Blake2b, v: u64) {
    h.update(&v.to_le_bytes());
}

/// A per-chain map, in chain order.
fn hash_by_chain<V>(
    h: &mut Blake2b,
    map: &HashMap<u32, V>,
    mut hash_value: impl FnMut(&mut Blake2b, &V),
) {
    let mut chains: Vec<&u32> = map.keys().collect();
    chains.sort_unstable();
    hash_u64(h, chains.len() as u64);
    for chain in chains {
        hash_u64(h, u64::from(*chain));
        hash_value(h, &map[chain]);
    }
}

fn hash_positions(h: &mut Blake2b, positions: &[u32]) {
    hash_u64(h, positions.len() as u64);
    for p in positions {
        hash_u64(h, u64::from(*p));
    }
}

fn hash_report(h: &mut Blake2b, report: &RoundReport) {
    // Destructured so that a new report field fails to compile here
    // instead of going unpinned.
    let RoundReport {
        round,
        messages_mixed,
        delivered,
        malicious_by_chain,
        aborted_chains,
        failed_chains,
        convicted_by_chain,
        suspected_by_chain,
    } = report;
    hash_u64(h, *round);
    hash_u64(h, *messages_mixed as u64);
    hash_u64(h, *delivered as u64);
    hash_by_chain(h, malicious_by_chain, |h, n| hash_u64(h, *n as u64));
    hash_positions(h, aborted_chains);
    hash_positions(h, failed_chains);
    hash_by_chain(h, convicted_by_chain, |h, p| hash_positions(h, p));
    hash_by_chain(h, suspected_by_chain, |h, p| hash_positions(h, p));
}

fn hash_fetched(h: &mut Blake2b, users: &[User], fetched: &FetchResults) {
    for user in users {
        let Some(received) = fetched.get(&user.mailbox_id()) else {
            h.update(b"absent");
            continue;
        };
        hash_u64(h, received.len() as u64);
        for r in received {
            match r {
                Received::Loopback => h.update(b"L"),
                Received::Chat { from, data } => {
                    h.update(b"C").update(from);
                    hash_u64(h, data.len() as u64);
                    h.update(data)
                }
                Received::PartnerOffline { partner } => h.update(b"P").update(partner),
                Received::Opaque => h.update(b"O"),
            };
        }
    }
}

fn hash_keys(h: &mut Blake2b, bundles: &[ChainPublicKeys]) {
    for keys in bundles {
        hash_u64(h, keys.epoch);
        hash_u64(h, keys.inner_epoch);
        for element in keys.bpks.iter().chain(&keys.mpks).chain(&keys.ipks) {
            h.update(&element.encode());
        }
        for proofs in &keys.proofs {
            h.update(&proofs.msk_pok.to_bytes());
            h.update(&proofs.isk_pok.to_bytes());
        }
    }
}

#[test]
fn three_seeded_rounds_hash_to_the_golden_digest() {
    let on_every_core = three_seeded_rounds();
    assert_eq!(on_every_core, GOLDEN_DIGEST, "an in-process round changed");
    let on_one_core = xrd_mixnet::par::with_workers(1, three_seeded_rounds);
    assert_eq!(
        on_one_core, on_every_core,
        "the core budget changed a round"
    );
}

/// The scenario, checked for what happened in it, as its digest.
fn three_seeded_rounds() -> String {
    let mut rng = StdRng::seed_from_u64(0x60_1d);
    let mut deployment = Deployment::new(&mut rng, DeploymentConfig::small(4, 2));
    let mut users: Vec<User> = (0..12).map(|_| User::new(&mut rng)).collect();
    let ell = deployment.topology().ell();

    let (a, b) = (users[0].pk(), users[1].pk());
    users[0].start_conversation(b);
    users[1].start_conversation(a);
    users[0].queue_chat(b"pinned");
    users[1].queue_chat(b"down");

    // A protocol-violating submitter: honest proof of knowledge, an
    // onion that fails authentication at the last hop.
    let garbage = xrd_mixnet::testutil::malicious_submission(
        &mut rng,
        &deployment.chain_keys()[0],
        0,
        deployment.topology().chain_len() - 1,
    );
    deployment.inject_submission(ChainId(0), garbage);

    let mut h = Blake2b::new(32);
    let mut reports = Vec::new();
    for round in 0..3u64 {
        // User 0 leaves after round 0: round 1 mixes her stored
        // covers, round 2 finds none.
        users[0].online = round == 0;
        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
        hash_report(&mut h, &report);
        hash_fetched(&mut h, &users, &fetched);
        hash_keys(&mut h, deployment.next_chain_keys());
        reports.push((report, fetched));
    }

    // What the three rounds were, so that the digest pins a scenario
    // that happened rather than three empty rounds.
    let (r0, f0) = &reports[0];
    assert_eq!(r0.messages_mixed, 12 * ell + 1);
    assert_eq!(r0.delivered, 12 * ell);
    assert_eq!(r0.malicious_by_chain.get(&0), Some(&1));
    assert!(f0[&users[1].mailbox_id()].contains(&Received::Chat {
        from: users[0].mailbox_id(),
        data: b"pinned".to_vec(),
    }));
    let (r1, f1) = &reports[1];
    assert_eq!(r1.messages_mixed, 12 * ell, "covers stand in for user 0");
    assert!(
        f1[&users[1].mailbox_id()].contains(&Received::PartnerOffline {
            partner: users[0].mailbox_id(),
        })
    );
    assert!(!f1.contains_key(&users[0].mailbox_id()));
    let (r2, _) = &reports[2];
    assert_eq!(r2.messages_mixed, 11 * ell, "no cover left");

    xrd_crypto::util::to_hex(&h.finalize_32())
}
