//! The blame protocol (§6.4).
//!
//! When a server finds a ciphertext that fails authenticated decryption,
//! it accuses: upstream servers then reveal, for that one message slot,
//! their input `(X_i, c_i)`, a DLEQ proof that they blinded the key
//! correctly, and their decryption key `(X_i)^{msk_i}` with a DLEQ proof
//! of its correctness.  Everyone re-executes the decryption chain from
//! the user's original submission down to the problem ciphertext:
//!
//! * if every link verifies, the **user** who submitted the original
//!   ciphertext is malicious (the outer ciphertext acts as a commitment
//!   to all layers), and is removed;
//! * if some server cannot produce a consistent link, that **server** is
//!   identified as the misbehaving party.
//!
//! Privacy is preserved throughout: only the single problem slot is
//! traced, and the revealed ciphertexts stay encrypted under the honest
//! server's mixing or inner keys (see §6.4's analysis).
//!
//! This module holds the evidence and its check: a server's
//! [`Accusation`] and [`BlameReveal`]s, and [`trace_blame`], which
//! judges them.  Who is asked for them, and what a verdict does to the
//! round, is decided once, in [`ChainPass::blame`](crate::ChainPass::blame)
//! and the pass's blame-retry loop.

use rand::RngCore;

use xrd_crypto::aead::{adec, round_nonce};
use xrd_crypto::nizk::DleqProof;
use xrd_crypto::ristretto::GroupElement;

use crate::chain_keys::ChainPublicKeys;
use crate::client::{outer_layer_key, Submission};
use crate::message::{domain_outer, MixEntry};
use crate::server::MixServer;

/// One upstream server's revelation for a problem slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameReveal {
    /// Hop position of the revealing server.
    pub position: usize,
    /// Index of the revealed entry in this server's *input* order.
    pub input_index: usize,
    /// The input entry `(X_i, c_i)` for the traced slot.
    pub input: MixEntry,
    /// The blinded key `X_{i+1}` this server produced for the slot.
    pub output_dh: GroupElement,
    /// Proof that `output_dh = input.dh^{bsk_i}` (step 1 of §6.4).
    pub blind_proof: DleqProof,
    /// The decryption key `input.dh^{msk_i}` (step 2 of §6.4).
    pub dec_key: GroupElement,
    /// Proof that `dec_key` was computed with the real `msk_i`.
    pub key_proof: DleqProof,
}

/// The accusing server's opening move: the problem entry plus its own
/// decryption key and proof (step 4 of §6.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Accusation {
    /// Hop position of the accuser.
    pub position: usize,
    /// Index of the problem entry in the accuser's input order.
    pub input_index: usize,
    /// The problem entry `(X_h, c_h)`.
    pub entry: MixEntry,
    /// `entry.dh^{msk_h}`.
    pub dec_key: GroupElement,
    /// DLEQ proof for `dec_key`.
    pub key_proof: DleqProof,
}

/// Outcome of the blame protocol for one problem slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlameVerdict {
    /// The traced submission was malformed by its submitter; remove the
    /// user at this submission index.
    MaliciousUser {
        /// Index into the round's submission list.
        submission_index: usize,
    },
    /// A server failed to justify its processing of the slot.
    ServerMisbehaved {
        /// Hop position of the misbehaving server.
        position: usize,
    },
}

/// Context string for blame-protocol DLEQ proofs.
pub fn blame_context(round: u64, position: usize) -> Vec<u8> {
    let mut ctx = b"xrd/blame".to_vec();
    ctx.extend_from_slice(&round.to_le_bytes());
    ctx.extend_from_slice(&(position as u64).to_le_bytes());
    ctx
}

impl MixServer {
    /// Produce this server's revelation for the slot that exited this
    /// server at output index `output_index`.
    pub fn blame_reveal<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        output_index: usize,
    ) -> Option<BlameReveal> {
        let state = self.state()?;
        let input_index = *state.perm.get(output_index)?;
        let input = state.inputs[input_index].clone();
        let output_dh = state.output_dhs[output_index];
        let (position, public) = (self.position(), self.public());
        let blind_proof = DleqProof::prove(
            rng,
            &blame_context(state.round, position),
            &input.dh,
            &output_dh,
            public.blinding_base(position),
            &public.bpks[position + 1],
            &self.secrets().bsk,
        );
        let (dec_key, key_proof) = self.layer_key(rng, state.round, &input.dh);
        Some(BlameReveal {
            position,
            input_index,
            input,
            output_dh,
            blind_proof,
            dec_key,
            key_proof,
        })
    }

    /// Open an accusation for a problem entry at `input_index` (the
    /// accuser's own input order).  A lying accuser tells its lie here.
    pub fn accuse<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        input_index: usize,
    ) -> Option<Accusation> {
        let state = self.state()?;
        let entry = state.inputs.get(input_index)?.clone();
        let (dec_key, key_proof) = self.layer_key(rng, state.round, &entry.dh);
        let accusation = Accusation {
            position: self.position(),
            input_index,
            entry,
            dec_key,
            key_proof,
        };
        crate::lie::accusation(self.lie(), accusation)
    }

    /// This server's outer-layer key for the key `dh`, `dh^msk`, with
    /// the proof that it was computed with the real `msk` (§6.4 steps 2
    /// and 4).
    fn layer_key<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        round: u64,
        dh: &GroupElement,
    ) -> (GroupElement, DleqProof) {
        let (position, public, msk) = (self.position(), self.public(), &self.secrets().msk);
        let dec_key = dh.mul(msk);
        let ctx = blame_context(round, position);
        let base = public.blinding_base(position);
        let proof = DleqProof::prove(rng, &ctx, dh, &dec_key, base, &public.mpks[position], msk);
        (dec_key, proof)
    }
}

/// Open `entry`'s outer layer at `position` with a revealed layer key:
/// `None` if the key's proof does not hold, else the decryption
/// (itself `None` when authentication fails).
fn open_layer(
    public: &ChainPublicKeys,
    round: u64,
    position: usize,
    entry: &MixEntry,
    dec_key: &GroupElement,
    proof: &DleqProof,
) -> Option<Option<Vec<u8>>> {
    let (ctx, base) = (
        blame_context(round, position),
        public.blinding_base(position),
    );
    if !proof.verify(&ctx, &entry.dh, dec_key, base, &public.mpks[position]) {
        return None;
    }
    let key = outer_layer_key(&dec_key.encode(), round, position);
    let nonce = round_nonce(round, domain_outer(position));
    Some(adec(&key, &nonce, b"", &entry.ct))
}

/// Verify a [`BlameReveal`] against the chain public keys and the
/// expected downstream values: the revealed output key is the
/// downstream one, it was blinded correctly (`X_{i+1} = X_i^{bsk_i}`),
/// and the proven layer key opens the revealed ciphertext to the
/// downstream one.  `false`: the server misbehaved.
fn check_reveal(
    public: &ChainPublicKeys,
    round: u64,
    reveal: &BlameReveal,
    expected_dh: &GroupElement,
    expected_ct: &[u8],
) -> bool {
    let (position, input) = (reveal.position, &reveal.input);
    let ctx = blame_context(round, position);
    let (base, blinded) = (public.blinding_base(position), &public.bpks[position + 1]);
    let opened = open_layer(
        public,
        round,
        position,
        input,
        &reveal.dec_key,
        &reveal.key_proof,
    );
    reveal.output_dh == *expected_dh
        && reveal
            .blind_proof
            .verify(&ctx, &input.dh, &reveal.output_dh, base, blinded)
        && opened.flatten().is_some_and(|pt| pt == expected_ct)
}

/// Run the full blame protocol for one problem slot, given the
/// accusation and a way to obtain each upstream server's reveal.
///
/// This is the *verifier's* side of §6.4, independent of where the
/// servers live: [`ChainPass::blame`](crate::ChainPass::blame) obtains
/// the accusation and passes a closure that asks its party for each
/// reveal — a call on a local [`MixServer`] or a request over the
/// wire.  `fetch_reveal(position, output_index)` must return the reveal
/// of the server at `position` for the slot that left it at
/// `output_index` (or `None` if the server refuses — which convicts
/// it).
pub fn trace_blame<F>(
    public: &ChainPublicKeys,
    submissions: &[Submission],
    round: u64,
    accusation: &Accusation,
    mut fetch_reveal: F,
) -> BlameVerdict
where
    F: FnMut(usize, usize) -> Option<BlameReveal>,
{
    let accuser_position = accusation.position;

    // Step 4 (checked first; order does not matter for soundness): the
    // accuser's key must be proven correct, and decryption must fail —
    // a ciphertext that decrypts fine is a false accusation.
    if open_layer(
        public,
        round,
        accuser_position,
        &accusation.entry,
        &accusation.dec_key,
        &accusation.key_proof,
    ) != Some(None)
    {
        return BlameVerdict::ServerMisbehaved {
            position: accuser_position,
        };
    }

    // Steps 1-3: walk upstream, verifying each server's link.
    let mut expected_dh = accusation.entry.dh;
    let mut expected_ct = accusation.entry.ct.clone();
    let mut slot_index = accusation.input_index;
    for position in (0..accuser_position).rev() {
        let reveal = match fetch_reveal(position, slot_index) {
            Some(r) => r,
            None => return BlameVerdict::ServerMisbehaved { position },
        };
        // The reveal must be for the position and slot that were asked.
        if reveal.position != position {
            return BlameVerdict::ServerMisbehaved { position };
        }
        if !check_reveal(public, round, &reveal, &expected_dh, &expected_ct) {
            return BlameVerdict::ServerMisbehaved { position };
        }
        expected_dh = reveal.input.dh;
        expected_ct = reveal.input.ct;
        slot_index = reveal.input_index;
    }

    // Step 3: the first server's revealed input must equal the agreed
    // user submission.  The index is adversary-supplied (it came from
    // the accusation or the last reveal, possibly over a network), so
    // an out-of-range value convicts whoever produced it rather than
    // crashing the verifier.
    let Some(submission) = submissions.get(slot_index) else {
        return BlameVerdict::ServerMisbehaved { position: 0 };
    };
    if submission.dh() != expected_dh || submission.ct != expected_ct {
        return BlameVerdict::ServerMisbehaved { position: 0 };
    }

    BlameVerdict::MaliciousUser {
        submission_index: slot_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_keys::generate_chain_keys;
    use crate::client::seal_ahs;
    use crate::message::{MailboxMessage, PAYLOAD_LEN};
    use crate::pass::ChainParty;
    use crate::runner::ChainRunner;
    use crate::server::MixError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xrd_crypto::TAG_LEN;

    fn msg(tag: u8) -> MailboxMessage {
        MailboxMessage {
            mailbox: [tag; 32],
            sealed: vec![tag; PAYLOAD_LEN + TAG_LEN],
        }
    }

    use crate::testutil::malicious_submission;

    /// One chain, its round and the agreed submissions.
    struct ChainHarness {
        chain: ChainRunner,
        public: crate::chain_keys::ChainPublicKeys,
        subs: Vec<Submission>,
        round: u64,
    }

    impl ChainHarness {
        /// The servers, for the tests that step hops by hand to tamper
        /// between them.
        fn servers(&mut self) -> &mut [MixServer] {
            self.chain.servers_mut()
        }

        /// One hop stepped by hand.
        fn hop(
            &mut self,
            rng: &mut StdRng,
            position: usize,
            entries: Vec<MixEntry>,
        ) -> Result<crate::server::HopResult, MixError> {
            let round = self.round;
            self.servers()[position].process_round(rng, round, entries)
        }

        fn blame(&mut self, rng: &mut StdRng, position: usize, idx: usize) -> BlameVerdict {
            let mut pass = self.chain.pass(rng, self.round, &self.subs);
            pass.blame(&self.subs, position, idx).expect("in process")
        }
    }

    fn harness(rng: &mut StdRng, k: usize, round: u64, n_honest: usize) -> ChainHarness {
        let (secrets, public) = generate_chain_keys(rng, k, round);
        let subs: Vec<Submission> = (0..n_honest)
            .map(|i| seal_ahs(rng, &public, round, &msg(i as u8)))
            .collect();
        ChainHarness {
            chain: ChainRunner::from_parts(secrets, public.clone()),
            public,
            subs,
            round,
        }
    }

    /// Run the chain's mix wave; if a hop fails to decrypt, run blame
    /// for each failed index and return the verdicts.
    fn run_until_blame(rng: &mut StdRng, h: &mut ChainHarness) -> Vec<BlameVerdict> {
        let all: Vec<usize> = (0..h.subs.len()).collect();
        let (hops, end) = h
            .chain
            .pass(rng, h.round, &h.subs)
            .party
            .mix(h.round, &all)
            .unwrap();
        match end {
            Ok(_) => vec![],
            Err(failed) => failed
                .into_iter()
                .map(|idx| h.blame(rng, hops.len(), idx))
                .collect(),
        }
    }

    #[test]
    fn honest_round_never_triggers_blame() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut h = harness(&mut rng, 3, 5, 6);
        assert!(run_until_blame(&mut rng, &mut h).is_empty());
    }

    #[test]
    fn malicious_user_identified_at_first_layer() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut h = harness(&mut rng, 3, 5, 4);
        let bad = malicious_submission(&mut rng, &h.public, 5, 0);
        h.subs.insert(2, bad);
        let verdicts = run_until_blame(&mut rng, &mut h);
        assert_eq!(
            verdicts,
            vec![BlameVerdict::MaliciousUser {
                submission_index: 2
            }]
        );
    }

    #[test]
    fn malicious_user_identified_at_deep_layer() {
        // The garbage survives until layer 2; blame must trace back
        // through two shuffles to find the original submitter.
        let mut rng = StdRng::seed_from_u64(3);
        let mut h = harness(&mut rng, 4, 7, 5);
        let bad = malicious_submission(&mut rng, &h.public, 7, 2);
        h.subs.push(bad);
        let verdicts = run_until_blame(&mut rng, &mut h);
        assert_eq!(
            verdicts,
            vec![BlameVerdict::MaliciousUser {
                submission_index: 5
            }]
        );
    }

    #[test]
    fn multiple_malicious_users_all_identified() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut h = harness(&mut rng, 3, 1, 5);
        let bad_a = malicious_submission(&mut rng, &h.public, 1, 1);
        let bad_b = malicious_submission(&mut rng, &h.public, 1, 1);
        h.subs.insert(1, bad_a);
        h.subs.insert(4, bad_b);
        let mut verdicts = run_until_blame(&mut rng, &mut h);
        verdicts.sort_by_key(|v| match v {
            BlameVerdict::MaliciousUser { submission_index } => *submission_index,
            _ => usize::MAX,
        });
        assert_eq!(
            verdicts,
            vec![
                BlameVerdict::MaliciousUser {
                    submission_index: 1
                },
                BlameVerdict::MaliciousUser {
                    submission_index: 4
                },
            ]
        );
    }

    #[test]
    fn false_accusation_blames_the_accuser() {
        // All users honest; a malicious server at position 1 accuses an
        // honest slot.  The ciphertext decrypts fine, so the accuser is
        // identified.
        let mut rng = StdRng::seed_from_u64(5);
        let mut h = harness(&mut rng, 3, 2, 4);
        let mut entries: Vec<MixEntry> = h.subs.iter().map(|s| s.to_entry()).collect();
        for pos in 0..2 {
            entries = h.hop(&mut rng, pos, entries).unwrap().outputs;
        }
        // Position-1 server falsely accuses its input slot 0... we let
        // the *next* server (position 1) hold state; accuse from pos 1.
        let verdict = h.blame(&mut rng, 1, 0);
        assert_eq!(verdict, BlameVerdict::ServerMisbehaved { position: 1 });
    }

    #[test]
    fn tampering_server_is_identified() {
        // Server 1 tampers one of its outputs (ciphertext bytes); server
        // 2 fails to decrypt and blames; the trace shows server 1 cannot
        // justify the link.
        let mut rng = StdRng::seed_from_u64(6);
        let mut h = harness(&mut rng, 3, 3, 5);
        let mut entries: Vec<MixEntry> = h.subs.iter().map(|s| s.to_entry()).collect();
        entries = h.hop(&mut rng, 0, entries).unwrap().outputs;
        let mut out1 = h.hop(&mut rng, 1, entries).unwrap().outputs;
        // Malicious tampering *after* the hop: flip bytes of output 2 and
        // poison the server's stored state the same way (a consistent
        // cheater).
        out1[2].ct[5] ^= 0xff;

        match h.hop(&mut rng, 2, out1) {
            Err(MixError::DecryptFailure(indices)) => {
                assert_eq!(indices, vec![2]);
                let verdict = h.blame(&mut rng, 2, 2);
                assert_eq!(verdict, BlameVerdict::ServerMisbehaved { position: 1 });
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn product_preserving_key_tamper_is_identified() {
        // The Appendix-A attack: server 0 multiplies one slot's key by δ
        // and another's by δ^{-1}, preserving the aggregate product (so
        // the hop proof would still verify) — but downstream decryption
        // fails and blame pins server 0.
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = harness(&mut rng, 2, 4, 6);
        let entries: Vec<MixEntry> = h.subs.iter().map(|s| s.to_entry()).collect();
        // Server 0 shifts two keys by T and T^{-1}: the aggregate product
        // (and so the hop proof) is preserved, but both slots' keys are
        // wrong; it keeps its stored state consistent with them.
        h.servers()[0].set_lie(Some(crate::Lie::ShiftKeys));
        let out0 = h.hop(&mut rng, 0, entries).unwrap().outputs;
        match h.hop(&mut rng, 1, out0) {
            Err(MixError::DecryptFailure(indices)) => {
                assert_eq!(indices, vec![0, 1]);
                for idx in indices {
                    let verdict = h.blame(&mut rng, 1, idx);
                    assert_eq!(verdict, BlameVerdict::ServerMisbehaved { position: 0 });
                }
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn honest_user_is_never_convicted_by_honest_chain() {
        // Fuzz: random honest rounds with one malicious user at a random
        // layer; blame always returns that user's index, never another.
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..5 {
            let k = 2 + (trial % 3);
            let mut h = harness(&mut rng, k, trial as u64, 4);
            let bad_layer = trial % k;
            let bad = malicious_submission(&mut rng, &h.public, trial as u64, bad_layer);
            let bad_index = trial % (h.subs.len() + 1);
            h.subs.insert(bad_index, bad);
            let verdicts = run_until_blame(&mut rng, &mut h);
            assert_eq!(
                verdicts,
                vec![BlameVerdict::MaliciousUser {
                    submission_index: bad_index
                }],
                "trial {trial}"
            );
        }
    }

    #[test]
    fn out_of_range_trace_indices_convict_not_panic() {
        // A networked adversary controls the indices inside accusations
        // and reveals; bogus values must convict the sender, never
        // panic the verifying coordinator.
        let mut rng = StdRng::seed_from_u64(9);
        let mut h = harness(&mut rng, 1, 0, 3);
        let entries: Vec<MixEntry> = h.subs.iter().map(|s| s.to_entry()).collect();
        // Make slot 1 undecryptable so the (single, position-0) server
        // can produce a *valid* accusation, then tamper its index.
        let mut bad_entries = entries;
        bad_entries[1].ct[0] ^= 0xff;
        match h.hop(&mut rng, 0, bad_entries) {
            Err(MixError::DecryptFailure(idx)) => assert_eq!(idx, vec![1]),
            other => panic!("expected failure, got {other:?}"),
        }
        let mut accusation = h.servers()[0].accuse(&mut rng, 1).expect("accuses");
        accusation.input_index = usize::MAX; // adversarial index
        let verdict = trace_blame(&h.public, &h.subs, 0, &accusation, |_, _| {
            panic!("no upstream servers for k = 1")
        });
        assert_eq!(verdict, BlameVerdict::ServerMisbehaved { position: 0 });
    }
}
