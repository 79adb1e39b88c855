//! The chain round in one process: a chain's servers as the
//! [`LocalParty`] of the one chain pass ([`crate::pass`]).
//!
//! [`ChainRunner`] holds a chain's servers and keys, screens the
//! submissions' proofs of knowledge (§6.2), and hands the rest to
//! [`ChainPass::run`] — the same protocol a networked coordinator runs
//! over the wire, with every wave answered by a call on these servers:
//! every hop proof is verified by the `k−1` other servers and audited
//! once more, a rejected proof is disputed, a decryption failure is
//! blamed, and a lying reveal convicts its server.  This is the
//! executor used by tests, examples and the in-process deployment in
//! `xrd-core`; [`ChainRunner::pass`] hands out the pass itself, for the
//! security game and the blame measurements that step through it.

use std::collections::HashSet;

use rand::RngCore;

use xrd_crypto::scalar::Scalar;

use crate::blame::{Accusation, BlameReveal};
use crate::chain_keys::{generate_chain_keys, ChainPublicKeys, ServerSecrets};
use crate::client::Submission;
use crate::lie::{attestation, upheld, window_submissions};
use crate::message::MixEntry;
use crate::par;
use crate::pass::{
    agreed_column, Breach, ChainParty, ChainPass, ChainRoundOutcome, Evidence, MixWave,
};
use crate::server::{CrossCheck, DhColumn, HopAttestation, HopResult, MixError, MixServer};

/// A chain's servers in this process, as the pass asks them: each wave
/// a call on the servers themselves — the functions a mix daemon calls
/// too, so a server's [`Lie`](crate::Lie) is told here as on the wire —
/// drawing what it needs from the chain's RNG in wave order.  Nothing
/// here can fail; a [`Breach`] is what the pass finds in the answers.
pub struct LocalParty<'a, R: ?Sized> {
    /// The chain's servers in hop order.
    pub servers: &'a mut [MixServer],
    /// The chain's RNG: shuffles, proof nonces, blame proofs and
    /// dispute signatures.
    pub rng: &'a mut R,
    /// The agreed batch, in canonical order: the window hop 0 mixes.
    pub batch: &'a [Submission],
}

impl<R: RngCore + ?Sized> ChainParty for LocalParty<'_, R> {
    type Error = Breach;

    /// Hop 0 takes its window's entries, its input column carrying the
    /// bytes the submissions came in.
    fn mix(&mut self, round: u64, active: &[usize]) -> Result<MixWave, Breach> {
        let window = window_submissions(self.servers[0].lie(), self.batch, active);
        let mut entering = Some(DhColumn::with_encodings(
            window.iter().map(|s| s.dh()).collect(),
            window.iter().map(|s| *s.encoded_dh()).collect(),
        ));
        let mut batch: Vec<MixEntry> = window.into_iter().map(Submission::to_entry).collect();
        let mut hops = Vec::with_capacity(self.servers.len());
        for server in self.servers.iter_mut() {
            let input_dhs = entering.take();
            let input_dhs = input_dhs.unwrap_or_else(|| batch.iter().map(|e| e.dh).collect());
            let HopResult { outputs, proof } = match server.process_round(self.rng, round, batch) {
                Ok(result) => result,
                Err(MixError::DecryptFailure(failed)) => return Ok((hops, Err(failed))),
                Err(MixError::Malformed) => unreachable!("a hop is handed its predecessor's batch"),
            };
            let position = server.position();
            let output_dhs = outputs.iter().map(|e| e.dh).collect();
            hops.push(attestation(
                server.lie(),
                round,
                position,
                input_dhs,
                output_dhs,
                proof,
            ));
            batch = outputs;
        }
        Ok((hops, Ok(batch)))
    }

    fn batch(&mut self, _round: u64) -> Result<Vec<Submission>, Breach> {
        Ok(self.batch.to_vec())
    }

    /// Each verifier is handed what a mix daemon is sent.
    fn verify(
        &mut self,
        round: u64,
        hops: &[HopAttestation],
        verifiers: &[bool],
    ) -> Result<Vec<Option<Vec<bool>>>, Breach> {
        let check = |server: &MixServer| {
            let request = CrossCheck::of(round, hops, server.position());
            let verdicts = server.verifier(round).map(|v| v.check(&request));
            verdicts.expect("it mixed").expect("a request in shape")
        };
        let verifiers = self.servers.iter().zip(verifiers);
        Ok(verifiers
            .map(|(server, &asked)| asked.then(|| check(server)))
            .collect())
    }

    fn dispute(&mut self, hop: &HopAttestation, witnesses: &[bool]) -> Vec<Option<Evidence>> {
        let (servers, rng) = (self.servers.iter(), &mut *self.rng);
        let mut testify = |witness: &MixServer| {
            let upheld = upheld(witness.lie(), witness.public(), hop);
            (upheld, hop.sign_verdict(rng, witness, upheld))
        };
        let asked = servers.zip(witnesses).map(|(w, &asked)| asked.then_some(w));
        asked.map(|witness| witness.map(&mut testify)).collect()
    }

    /// In process the verdict is the outcome's: nobody else to tell.
    fn announce(&mut self, _: u64, _: usize, _: u8, _: bool, _: u32) {}

    fn accuse(&mut self, _: u64, at: usize, slot: usize) -> Result<Option<Accusation>, Breach> {
        Ok(self.servers[at].accuse(self.rng, slot))
    }

    fn reveal(&mut self, _: u64, at: usize, slot: usize) -> Result<Option<BlameReveal>, Breach> {
        Ok(self.servers[at].blame_reveal(self.rng, slot))
    }

    /// The keys go out, so blame can no longer run for the round: each
    /// server releases its per-hop copy of the batch blame would have
    /// traced.
    fn reveal_inner_keys(&mut self, _round: u64) -> Result<Vec<(usize, Scalar)>, Breach> {
        let reveal = |server: &mut MixServer| {
            server.clear_state();
            server.inner_key_reveal()
        };
        Ok(self.servers.iter_mut().map(reveal).collect())
    }
}

/// A whole chain executing in one process: the servers plus shared
/// public keys.
pub struct ChainRunner {
    secrets: Vec<ServerSecrets>,
    servers: Vec<MixServer>,
    public: ChainPublicKeys,
    /// A prepared-but-not-yet-active inner-key rotation.  Inner keys for
    /// round ρ+1 must be published while round ρ runs, because users
    /// seal their §5.3.3 cover messages for ρ+1 one round in advance.
    pending: Option<(Vec<ServerSecrets>, ChainPublicKeys)>,
    /// Verifiers convicted of a false verdict ([`ChainPass::excluded`]).
    excluded: HashSet<usize>,
}

impl ChainRunner {
    /// Set up a chain of `k` servers with fresh keys for `epoch`.
    pub fn new<R: RngCore + ?Sized>(rng: &mut R, k: usize, epoch: u64) -> ChainRunner {
        let (secrets, public) = generate_chain_keys(rng, k, epoch);
        assert!(public.verify(), "freshly generated keys must verify");
        Self::from_parts(secrets, public)
    }

    /// Assemble from externally generated parts.
    pub fn from_parts(secrets: Vec<ServerSecrets>, public: ChainPublicKeys) -> ChainRunner {
        let servers = (secrets.iter())
            .map(|s| MixServer::new(s.clone(), public.clone()))
            .collect();
        ChainRunner {
            secrets,
            servers,
            public,
            pending: None,
            excluded: HashSet::new(),
        }
    }

    /// Rotate the per-round inner keys to `inner_epoch` (§6.1) and reset
    /// the servers for a fresh round.
    pub fn rotate_inner_keys<R: RngCore + ?Sized>(&mut self, rng: &mut R, inner_epoch: u64) {
        crate::chain_keys::rotate_inner_keys(rng, &mut self.secrets, &mut self.public, inner_epoch);
        self.rebuild_servers();
    }

    /// Generate (and publish) the inner keys for a *future* round without
    /// activating them.  Users seal cover messages for round ρ+1 against
    /// this bundle while round ρ is still being mixed (§5.3.3).
    pub fn prepare_inner_rotation<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        inner_epoch: u64,
    ) -> ChainPublicKeys {
        let mut secrets = self.secrets.clone();
        let mut public = self.public.clone();
        crate::chain_keys::rotate_inner_keys(rng, &mut secrets, &mut public, inner_epoch);
        let snapshot = public.clone();
        self.pending = Some((secrets, public));
        snapshot
    }

    /// Switch to the previously prepared inner keys (start of the next
    /// round).  Panics if no rotation was prepared.
    pub fn activate_inner_rotation(&mut self) {
        let (secrets, public) = self
            .pending
            .take()
            .expect("prepare_inner_rotation must be called first");
        self.secrets = secrets;
        self.public = public;
        self.rebuild_servers();
    }

    /// Re-key every server from the chain's secrets and bundle; a
    /// server's lie survives ([`MixServer::rekey`]).
    fn rebuild_servers(&mut self) {
        for (server, secrets) in self.servers.iter_mut().zip(&self.secrets) {
            server.rekey(secrets.clone(), self.public.clone());
        }
    }

    /// The chain's public key bundle (what users encrypt against).
    pub fn public(&self) -> &ChainPublicKeys {
        &self.public
    }

    /// Chain length.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True if the chain has no servers (never in practice).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Access the servers: to set a server's [`Lie`](crate::Lie), or to
    /// step its hops by hand.
    #[doc(hidden)]
    pub fn servers_mut(&mut self) -> &mut [MixServer] {
        &mut self.servers
    }

    /// This chain's servers as one [`ChainPass`] for `round` over the
    /// agreed `batch`, drawing from `rng`: what
    /// [`ChainRunner::run_round`] runs, and what the security game, the
    /// blame measurements and their tests step through wave by wave.
    pub fn pass<'a, R: RngCore + ?Sized>(
        &'a mut self,
        rng: &'a mut R,
        round: u64,
        batch: &'a [Submission],
    ) -> ChainPass<'a, LocalParty<'a, R>> {
        ChainPass {
            party: LocalParty {
                servers: &mut self.servers,
                rng,
                batch,
            },
            public: &self.public,
            round,
            excluded: &mut self.excluded,
        }
    }

    /// Execute one full round for this chain (§6.3 with §6.4 fallback).
    ///
    /// Returns the delivered mailbox messages together with the list of
    /// removed malicious submissions.  Honest users' messages are always
    /// delivered (the protocol repeats after blame, with bad inputs
    /// removed).
    pub fn run_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        round: u64,
        submissions: &[Submission],
    ) -> ChainRoundOutcome {
        let started = std::time::Instant::now();

        // Submission screening: verify each PoK (§6.2 step 2); a bad
        // proof identifies the submitter immediately (§6.4).  Batched
        // per chunk; a chunk holding a bad proof falls back to
        // per-proof checks, so exactly the offenders are rejected.
        let pok_ok = par::map_entries(submissions, |chunk| Submission::verify_poks(round, chunk));
        let (active, rejected): (Vec<usize>, Vec<usize>) =
            (0..submissions.len()).partition(|&i| pok_ok[i]);

        let agreed = agreed_column(submissions, &active);
        let mut outcome = (self.pass(rng, round, submissions).run(agreed, active))
            .unwrap_or_else(|breach| panic!("an in-process chain broke its own pass: {breach}"));
        outcome.stats.rejected_pok = rejected.len();
        outcome.malicious_users.splice(0..0, rejected);
        // One sample per chain round: beside the deployment's `round.mix`
        // span, their sum says how much of the chains' work overlapped.
        xrd_obs::hist!("chain.round_us").record_duration(started.elapsed());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::seal_ahs;
    use crate::message::{MailboxMessage, PAYLOAD_LEN};
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
    fn clean_round_delivers_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut chain = ChainRunner::new(&mut rng, 3, 0);
        let msgs: Vec<MailboxMessage> = (0..10).map(msg).collect();
        let subs: Vec<Submission> = msgs
            .iter()
            .map(|m| seal_ahs(&mut rng, chain.public(), 0, m))
            .collect();
        let outcome = chain.run_round(&mut rng, 0, &subs);
        assert!(outcome.malicious_users.is_empty());
        assert!(outcome.misbehaving_servers.is_empty());
        assert_eq!(outcome.delivered.len(), 10);
        assert_eq!(outcome.stats.proofs_generated, 3);
        assert_eq!(outcome.stats.proofs_verified, 3 * 2 + 3);
        let mut mailboxes: Vec<[u8; 32]> = outcome.delivered.iter().map(|m| m.mailbox).collect();
        mailboxes.sort();
        assert_eq!(
            mailboxes,
            (0..10).map(|i| [i as u8; 32]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_honest_verifier_vouches_for_every_other_hop_in_one_wave() {
        let mut rng = StdRng::seed_from_u64(9);
        let (k, round) = (4, 2);
        let mut chain = ChainRunner::new(&mut rng, k, round);
        let subs: Vec<Submission> = (0..5)
            .map(|i| seal_ahs(&mut rng, chain.public(), round, &msg(i)))
            .collect();
        let mut party = chain.pass(&mut rng, round, &subs).party;
        let (hops, end) = party.mix(round, &[0, 1, 2, 3, 4]).expect("in process");
        assert!(end.is_ok(), "a clean pass");
        let verdicts = party.verify(round, &hops, &[true, false, true, true]);
        let all_true = Some(vec![true; k - 1]);
        let expected = vec![all_true.clone(), None, all_true.clone(), all_true];
        assert_eq!(verdicts, Ok(expected));
    }

    #[test]
    fn bad_pok_is_rejected_without_blame() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut chain = ChainRunner::new(&mut rng, 2, 1);
        let mut subs: Vec<Submission> = (0..4)
            .map(|i| seal_ahs(&mut rng, chain.public(), 1, &msg(i)))
            .collect();
        // Replay a PoK from the wrong round: invalid.
        subs[1] = seal_ahs(&mut rng, chain.public(), 99, &msg(1));
        let outcome = chain.run_round(&mut rng, 1, &subs);
        assert_eq!(outcome.stats.rejected_pok, 1);
        assert_eq!(outcome.malicious_users, vec![1]);
        // The others still go through... note user 1's onion was built
        // for round 99 so even its ct would fail; it never enters.
        assert_eq!(outcome.delivered.len(), 3);
    }

    #[test]
    fn one_bad_pok_among_many_is_the_only_rejection() {
        // Screening is batched per worker chunk; the chunk holding the
        // bad proof falls back to per-proof checks, so exactly that
        // submitter is rejected — wherever in the batch it sits.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(20);
        let round = 4;
        let n = 200;
        let mut chain = ChainRunner::new(&mut rng, 1, round);
        let honest: Vec<Submission> = (0..n)
            .map(|i| seal_ahs(&mut rng, chain.public(), round, &msg(i as u8)))
            .collect();
        for workers in [1, 3] {
            let bad = rng.gen_range(0..n);
            let mut subs = honest.clone();
            // A well-formed proof of the right statement for the wrong
            // round.
            subs[bad].pok = seal_ahs(&mut rng, chain.public(), round + 1, &msg(0)).pok;
            let outcome = par::with_workers(workers, || chain.run_round(&mut rng, round, &subs));
            assert_eq!(outcome.malicious_users, vec![bad], "workers={workers}");
            assert_eq!(outcome.stats.rejected_pok, 1);
            assert_eq!(outcome.stats.blame_rounds, 0);
            assert_eq!(outcome.delivered.len(), n - 1);
        }
    }

    #[test]
    fn hop_state_is_dropped_after_a_clean_round_and_kept_as_evidence() {
        let mut rng = StdRng::seed_from_u64(21);
        let (mut secrets, public) = generate_chain_keys(&mut rng, 2, 0);
        let subs: Vec<Submission> = (0..4)
            .map(|i| seal_ahs(&mut rng, &public, 0, &msg(i)))
            .collect();

        // Clean round (including one blame-and-retry on the way): once
        // the inner keys are out nothing is retained.
        let mut chain = ChainRunner::from_parts(secrets.clone(), public.clone());
        let mut with_garbage = subs.clone();
        with_garbage[2].ct[7] ^= 1;
        let outcome = chain.run_round(&mut rng, 0, &with_garbage);
        assert_eq!(outcome.malicious_users, vec![2]);
        assert_eq!(outcome.delivered.len(), 3);
        assert!(chain.servers_mut().iter().all(|s| s.state().is_none()));

        // Server 1 mixes with a key that is not the one it published:
        // every entry fails at its hop, blame convicts it, the round
        // halts — and every server still holds what it saw.
        secrets[1].msk = Scalar::random(&mut rng);
        let mut chain = ChainRunner::from_parts(secrets, public);
        let outcome = chain.run_round(&mut rng, 0, &subs);
        assert!(!outcome.misbehaving_servers.is_empty());
        assert!(outcome.misbehaving_servers.iter().all(|&p| p == 1));
        assert!(outcome.delivered.is_empty());
        assert!(outcome.malicious_users.is_empty());
        for server in chain.servers_mut().iter() {
            let state = server.state().expect("evidence retained");
            assert_eq!(state.inputs.len(), subs.len());
        }
    }

    #[test]
    fn a_lie_survives_the_rotation() {
        // The rotation re-keys the servers; server 1 still reveals a
        // key that is not its published one, and is convicted for it.
        let mut rng = StdRng::seed_from_u64(22);
        let mut chain = ChainRunner::new(&mut rng, 3, 0);
        chain.servers_mut()[1].set_lie(Some(crate::Lie::WrongKey));
        chain.rotate_inner_keys(&mut rng, 1);
        let subs: Vec<Submission> = (0..4)
            .map(|i| seal_ahs(&mut rng, chain.public(), 1, &msg(i)))
            .collect();
        let outcome = chain.run_round(&mut rng, 1, &subs);
        assert_eq!(outcome.misbehaving_servers, vec![1]);
        assert!(outcome.delivered.is_empty());
    }

    #[test]
    fn malicious_submission_removed_and_rest_delivered() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut chain = ChainRunner::new(&mut rng, 3, 2);
        let mut subs: Vec<Submission> = (0..6)
            .map(|i| seal_ahs(&mut rng, chain.public(), 2, &msg(i)))
            .collect();
        // Corrupt user 4's ciphertext (valid PoK, garbage onion).
        subs[4].ct[10] ^= 0x55;
        let outcome = chain.run_round(&mut rng, 2, &subs);
        assert_eq!(outcome.malicious_users, vec![4]);
        assert_eq!(outcome.stats.removed_by_blame, 1);
        assert_eq!(outcome.stats.blame_rounds, 1);
        assert_eq!(outcome.delivered.len(), 5);
        assert!(outcome.misbehaving_servers.is_empty());
    }

    #[test]
    fn many_malicious_users_removed_iteratively() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut chain = ChainRunner::new(&mut rng, 2, 3);
        let mut subs: Vec<Submission> = (0..8)
            .map(|i| seal_ahs(&mut rng, chain.public(), 3, &msg(i)))
            .collect();
        for &i in &[1usize, 3, 6] {
            subs[i].ct[0] ^= 0xff;
        }
        let outcome = chain.run_round(&mut rng, 3, &subs);
        let mut bad = outcome.malicious_users.clone();
        bad.sort();
        assert_eq!(bad, vec![1, 3, 6]);
        assert_eq!(outcome.delivered.len(), 5);
    }

    #[test]
    fn empty_round_is_fine() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut chain = ChainRunner::new(&mut rng, 2, 0);
        let outcome = chain.run_round(&mut rng, 0, &[]);
        assert!(outcome.delivered.is_empty());
        assert!(outcome.malicious_users.is_empty());
    }

    #[test]
    fn inner_key_rotation_supports_multiple_rounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut chain = ChainRunner::new(&mut rng, 2, 0);
        for round in 0..3u64 {
            chain.rotate_inner_keys(&mut rng, round);
            assert!(chain.public().verify(), "round {round} keys verify");
            let subs: Vec<Submission> = (0..4)
                .map(|i| seal_ahs(&mut rng, chain.public(), round, &msg(i)))
                .collect();
            let outcome = chain.run_round(&mut rng, round, &subs);
            assert_eq!(outcome.delivered.len(), 4, "round {round}");
        }
    }

    #[test]
    fn rotation_changes_inner_keys_only() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut chain = ChainRunner::new(&mut rng, 2, 0);
        let before = chain.public().clone();
        chain.rotate_inner_keys(&mut rng, 1);
        let after = chain.public();
        assert_eq!(before.bpks.len(), after.bpks.len());
        for i in 0..before.bpks.len() {
            assert_eq!(before.bpks[i], after.bpks[i], "blinding keys stable");
        }
        for i in 0..before.mpks.len() {
            assert_eq!(before.mpks[i], after.mpks[i], "mixing keys stable");
            assert_ne!(before.ipks[i], after.ipks[i], "inner keys rotated");
        }
        assert_eq!(after.inner_epoch, 1);
    }

    #[test]
    fn single_server_chain_works() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut chain = ChainRunner::new(&mut rng, 1, 0);
        let subs: Vec<Submission> = (0..3)
            .map(|i| seal_ahs(&mut rng, chain.public(), 0, &msg(i)))
            .collect();
        let outcome = chain.run_round(&mut rng, 0, &subs);
        assert_eq!(outcome.delivered.len(), 3);
    }
}
