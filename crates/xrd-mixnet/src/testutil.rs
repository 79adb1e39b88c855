//! Attack-construction utilities shared by tests, integration tests and
//! the Figure-7 measurement harness.  These build *valid-looking but
//! malicious* inputs; a deployment never uses them.

use rand::Rng;
use rand::RngCore;

use xrd_crypto::aead::{aenc, round_nonce};
use xrd_crypto::nizk::SchnorrProof;
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;

use crate::chain_keys::ChainPublicKeys;
use crate::client::{outer_layer_key, submission_context, Submission};
use crate::message::{domain_outer, outer_ct_len};

/// Build a submission that decrypts correctly through hops
/// `0..bad_layer` and then fails authenticated decryption at
/// `bad_layer` (the §6.4 malicious-user attack; `bad_layer = k-1` is the
/// worst case for the blame protocol).  The PoK and the DH key are
/// valid; only the onion content is garbage beneath `bad_layer`.
pub fn malicious_submission<R: RngCore + ?Sized>(
    rng: &mut R,
    keys: &ChainPublicKeys,
    round: u64,
    bad_layer: usize,
) -> Submission {
    let k = keys.len();
    assert!(bad_layer < k);
    // Random bytes of exactly the size hop `bad_layer` expects; they
    // will fail its AEAD authentication with overwhelming probability.
    let mut ct = vec![0u8; outer_ct_len(k - bad_layer)];
    rng.fill(&mut ct[..]);

    let x = Scalar::random(rng);
    for layer in (0..bad_layer).rev() {
        let shared = keys.mpks[layer].mul(&x);
        ct = aenc(
            &outer_layer_key(&shared.encode(), round, layer),
            &round_nonce(round, domain_outer(layer)),
            b"",
            &ct,
        );
    }
    let dh = GroupElement::base_mul(&x);
    let pok = SchnorrProof::prove(
        rng,
        &submission_context(round),
        &GroupElement::generator(),
        &dh,
        &x,
    );
    Submission::new(dh, ct, pok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_keys::generate_chain_keys;
    use crate::pass::ChainParty;
    use crate::runner::ChainRunner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fails_at_exactly_the_requested_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let k = 4;
        for bad_layer in 0..k {
            let mut chain = ChainRunner::new(&mut rng, k, 0);
            let sub = malicious_submission(&mut rng, chain.public(), 0, bad_layer);
            assert!(sub.verify_pok(0), "PoK must look honest");
            let (hops, end) = chain
                .pass(&mut rng, 0, std::slice::from_ref(&sub))
                .party
                .mix(0, &[0])
                .unwrap();
            assert_eq!(
                hops.len(),
                bad_layer,
                "failed at {}, wanted {bad_layer}",
                hops.len()
            );
            assert_eq!(end.expect_err("fails at its layer"), vec![0]);
            // The hops before it proved; the failing server keeps its
            // state as blame's evidence; nobody after it ran.
            let servers = chain.servers_mut();
            let evidence = servers[bad_layer]
                .state()
                .expect("failing hop keeps its state");
            assert_eq!(evidence.inputs.len(), 1);
            assert!(servers[bad_layer + 1..].iter().all(|s| s.state().is_none()));
        }
    }

    #[test]
    fn has_uniform_wire_size() {
        // The attack submission is indistinguishable in size from an
        // honest one.
        let mut rng = StdRng::seed_from_u64(2);
        let (_, public) = generate_chain_keys(&mut rng, 3, 0);
        let honest = crate::client::seal_ahs(
            &mut rng,
            &public,
            0,
            &crate::message::MailboxMessage {
                mailbox: [0u8; 32],
                sealed: vec![0u8; crate::message::PAYLOAD_LEN + 16],
            },
        );
        for bad_layer in 0..3 {
            let bad = malicious_submission(&mut rng, &public, 0, bad_layer);
            assert_eq!(bad.ct.len(), honest.ct.len(), "layer {bad_layer}");
        }
    }
}
