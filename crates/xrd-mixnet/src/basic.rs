//! The baseline mix server of §5 (Algorithm 1): plain decrypt-and-shuffle
//! with per-layer DH keys and **no verification**.
//!
//! This is the design XRD starts from before adding AHS; it is secure
//! against passive adversaries only.  We keep it as (a) the ablation
//! baseline for AHS cost accounting, and (b) a demonstration — exercised
//! by tests — that an active tampering attack passes *silently* here
//! while AHS catches it.

use rand::Rng;
use rand::RngCore;

use xrd_crypto::aead::{adec, round_nonce};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;

use crate::client::outer_layer_key;
use crate::message::{domain_outer, MailboxMessage};

/// Keys for one baseline chain: ordinary `(msk_i, mpk_i = g^{msk_i})`.
#[derive(Clone, Debug)]
pub struct BasicChainKeys {
    /// Secret mixing keys, one per hop.
    pub msks: Vec<Scalar>,
    /// Public mixing keys, one per hop.
    pub mpks: Vec<GroupElement>,
}

/// Generate baseline mixing key pairs for a chain of `k` servers.
pub fn generate_basic_keys<R: RngCore + ?Sized>(rng: &mut R, k: usize) -> BasicChainKeys {
    let msks: Vec<Scalar> = (0..k).map(|_| Scalar::random(rng)).collect();
    let mpks = msks.iter().map(GroupElement::base_mul).collect();
    BasicChainKeys { msks, mpks }
}

/// A baseline (Algorithm 1) mix server.
pub struct BasicMixServer {
    /// Hop position.
    pub position: usize,
    msk: Scalar,
}

impl BasicMixServer {
    /// Create the server for hop `position`.
    pub fn new(position: usize, msk: Scalar) -> BasicMixServer {
        BasicMixServer { position, msk }
    }

    /// Algorithm 1: decrypt each onion layer and shuffle.  Messages that
    /// fail to decrypt are silently dropped — exactly the weakness AHS
    /// exists to fix.
    pub fn process_round<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        round: u64,
        inputs: Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        let mut outputs: Vec<Vec<u8>> = inputs
            .into_iter()
            .filter_map(|ct| {
                if ct.len() < 32 {
                    return None;
                }
                let mut gx = [0u8; 32];
                gx.copy_from_slice(&ct[..32]);
                let gx = GroupElement::decode(&gx)?;
                let key = outer_layer_key(&gx.mul(&self.msk).encode(), round, self.position);
                adec(
                    &key,
                    &round_nonce(round, domain_outer(self.position)),
                    b"",
                    &ct[32..],
                )
            })
            .collect();
        // Fisher-Yates shuffle.
        for i in (1..outputs.len()).rev() {
            let j = rng.gen_range(0..=i);
            outputs.swap(i, j);
        }
        outputs
    }
}

/// Run a full baseline chain round: k hops then parse mailbox messages.
pub fn run_basic_chain<R: RngCore + ?Sized>(
    rng: &mut R,
    keys: &BasicChainKeys,
    round: u64,
    submissions: Vec<Vec<u8>>,
) -> Vec<MailboxMessage> {
    let mut batch = submissions;
    for (pos, msk) in keys.msks.iter().enumerate() {
        let server = BasicMixServer::new(pos, *msk);
        batch = server.process_round(rng, round, batch);
    }
    batch
        .into_iter()
        .filter_map(|bytes| MailboxMessage::from_bytes(&bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::seal_basic;
    use crate::message::PAYLOAD_LEN;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xrd_crypto::TAG_LEN;

    fn msg(tag: u8) -> MailboxMessage {
        MailboxMessage {
            mailbox: [tag; 32],
            sealed: vec![tag; PAYLOAD_LEN + TAG_LEN],
        }
    }

    #[test]
    fn basic_chain_delivers() {
        let mut rng = StdRng::seed_from_u64(1);
        let keys = generate_basic_keys(&mut rng, 3);
        let msgs: Vec<MailboxMessage> = (0..7).map(msg).collect();
        let subs: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| seal_basic(&mut rng, &keys.mpks, 4, m))
            .collect();
        let mut delivered = run_basic_chain(&mut rng, &keys, 4, subs);
        delivered.sort_by_key(|m| m.mailbox);
        let mut expected = msgs;
        expected.sort_by_key(|m| m.mailbox);
        assert_eq!(delivered, expected);
    }

    #[test]
    fn tampering_goes_undetected_in_baseline() {
        // The §6 motivating attack: a malicious first server drops an
        // honest user's message.  In the baseline nothing notices — the
        // round "succeeds" with one message missing.  (The corresponding
        // AHS test shows detection; see `blame::tests`.)
        let mut rng = StdRng::seed_from_u64(2);
        let keys = generate_basic_keys(&mut rng, 3);
        let msgs: Vec<MailboxMessage> = (0..5).map(msg).collect();
        let mut subs: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| seal_basic(&mut rng, &keys.mpks, 0, m))
            .collect();
        subs.remove(2); // adversary drops user 2's message
        let delivered = run_basic_chain(&mut rng, &keys, 0, subs);
        assert_eq!(delivered.len(), 4); // silently short
        assert!(!delivered.iter().any(|m| m.mailbox == [2u8; 32]));
    }

    #[test]
    fn garbage_is_silently_dropped() {
        let mut rng = StdRng::seed_from_u64(3);
        let keys = generate_basic_keys(&mut rng, 2);
        let good = seal_basic(&mut rng, &keys.mpks, 1, &msg(1));
        let garbage = vec![0u8; good.len()];
        let delivered = run_basic_chain(&mut rng, &keys, 1, vec![good, garbage]);
        assert_eq!(delivered.len(), 1);
    }

    #[test]
    fn short_input_dropped() {
        let mut rng = StdRng::seed_from_u64(4);
        let keys = generate_basic_keys(&mut rng, 1);
        let delivered = run_basic_chain(&mut rng, &keys, 0, vec![vec![1, 2, 3]]);
        assert!(delivered.is_empty());
    }
}
