//! In-process execution of the complete per-chain protocol:
//! submission validation → k hops of AHS mixing with verification →
//! inner-key reveal → envelope opening — with the blame protocol and
//! malicious-submission removal woven in (§6.3 + §6.4).
//!
//! This is the reference executor used by tests, examples, and the
//! real (thread-backed) deployment in `xrd-core`.  It is written as a
//! faithful single-trust-domain execution of the multi-party protocol:
//! every proof that the paper says "all other servers verify" *is*
//! verified here (and counted, so benchmarks can attribute cost).

use rand::RngCore;

use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;

use crate::blame::{run_blame, BlameVerdict};
use crate::chain_keys::{generate_chain_keys, ChainPublicKeys, ServerSecrets};
use crate::client::Submission;
use crate::message::{MailboxMessage, MixEntry};
use crate::par;
use crate::server::{input_digest, open_revealed, verify_hop_keys, MixError, MixServer};

/// Statistics from one chain-round execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainRoundStats {
    /// Submissions rejected up front (bad PoK).
    pub rejected_pok: usize,
    /// Users removed by the blame protocol.
    pub removed_by_blame: usize,
    /// Number of times the hop pipeline was restarted after blame.
    pub blame_rounds: usize,
    /// Hop proofs generated (== hops completed).
    pub proofs_generated: usize,
    /// Hop proof verifications performed (each of the other k-1 servers
    /// verifies every hop).
    pub proofs_verified: usize,
}

/// Outcome of a chain round.  Also the round's running ledger: the
/// executors start from `default()` and fill it in as verdicts fall.
#[derive(Clone, Debug, Default)]
pub struct ChainRoundOutcome {
    /// Messages ready for mailbox delivery, in shuffled order.
    pub delivered: Vec<MailboxMessage>,
    /// Submission indices identified as malicious and removed.
    pub malicious_users: Vec<usize>,
    /// Servers caught misbehaving (empty in an honest deployment).
    pub misbehaving_servers: Vec<usize>,
    /// Execution statistics.
    pub stats: ChainRoundStats,
}

/// What one hop's decryption failures resolved to ([`resolve_blame`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlameResolution {
    /// Only users were convicted and they are out of the active set:
    /// mix again without them.
    Retry,
    /// A server was convicted: the chain halts with nothing delivered
    /// (§6.4: servers delete their inner keys).
    Abort,
}

/// The verdict bookkeeping of one failed hop, the same wherever the
/// servers live: run `blame` on every failed input slot (an index into
/// the batch just mixed, i.e. into `active`), record each convicted
/// server in `outcome`, and — only if no server was convicted — move
/// the convicted users from `active` to `outcome.malicious_users`.
///
/// `active` holds the original submission indices still in the batch;
/// a [`BlameVerdict::MaliciousUser`] indexes into it.  `failed` must
/// not be empty (a failure names the slots that failed), so some party
/// is always identified.
pub fn resolve_blame<E>(
    outcome: &mut ChainRoundOutcome,
    active: &mut Vec<usize>,
    failed: impl IntoIterator<Item = usize>,
    mut blame: impl FnMut(usize) -> Result<BlameVerdict, E>,
) -> Result<BlameResolution, E> {
    outcome.stats.blame_rounds += 1;
    let mut to_remove: Vec<usize> = Vec::new();
    for idx in failed {
        match blame(idx)? {
            BlameVerdict::MaliciousUser { submission_index } => {
                to_remove.push(active[submission_index]);
            }
            BlameVerdict::ServerMisbehaved { position } => {
                outcome.misbehaving_servers.push(position);
            }
        }
    }
    if !outcome.misbehaving_servers.is_empty() {
        return Ok(BlameResolution::Abort);
    }
    assert!(
        !to_remove.is_empty(),
        "blame must identify at least one party"
    );
    outcome.stats.removed_by_blame += to_remove.len();
    active.retain(|i| !to_remove.contains(i));
    outcome.malicious_users.extend(to_remove);
    Ok(BlameResolution::Retry)
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
        let servers = secrets
            .iter()
            .map(|s| MixServer::new(s.clone(), public.clone()))
            .collect();
        ChainRunner {
            secrets,
            servers,
            public,
            pending: None,
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

    fn rebuild_servers(&mut self) {
        self.servers = self
            .secrets
            .iter()
            .map(|s| MixServer::new(s.clone(), self.public.clone()))
            .collect();
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

    /// Access the servers (for fault-injection in tests).
    #[doc(hidden)]
    pub fn servers_mut(&mut self) -> &mut [MixServer] {
        &mut self.servers
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
        let mut outcome = ChainRoundOutcome::default();

        // Submission screening: verify each PoK (§6.2 step 2); a bad
        // proof identifies the submitter immediately (§6.4).  Batched
        // per chunk; a chunk holding a bad proof falls back to
        // per-proof checks, so exactly the offenders are rejected.
        let pok_ok = par::map_entries(submissions, |chunk| Submission::verify_poks(round, chunk));
        let mut active: Vec<usize> = Vec::with_capacity(submissions.len());
        for (i, ok) in pok_ok.into_iter().enumerate() {
            if ok {
                active.push(i);
            } else {
                outcome.stats.rejected_pok += 1;
                outcome.malicious_users.push(i);
            }
        }

        // The agreed batch as the first hop's entries, built once: what
        // input agreement hashes is what the first pass mixes.
        let to_entries = |active: &[usize]| -> Vec<MixEntry> {
            active.iter().map(|&i| submissions[i].to_entry()).collect()
        };
        let mut entries = to_entries(&active);

        // Input agreement: all servers hash the agreed submission set.
        // (With one process there is nothing to compare against, but the
        // digest is computed as the protocol prescribes.)
        input_digest(&entries);

        // Mixing with blame-retry: repeat until a clean pass, or until
        // a server is convicted and the chain halts.
        let mixed: Option<Vec<MixEntry>> = loop {
            match self.mix_pass(rng, round, entries, &mut outcome.stats) {
                MixPass::Clean(outputs) => break Some(outputs),
                MixPass::Failed { position, failed } => {
                    // Blame runs against the batch actually mixed (the
                    // active subset); verdict indices are then mapped
                    // back to original submission indices.
                    let active_subs: Vec<Submission> =
                        active.iter().map(|&i| submissions[i].clone()).collect();
                    let blame = |idx| -> Result<BlameVerdict, std::convert::Infallible> {
                        Ok(run_blame(
                            rng,
                            &self.public,
                            &self.servers,
                            &active_subs,
                            round,
                            position,
                            idx,
                        ))
                    };
                    let Ok(resolution) = resolve_blame(&mut outcome, &mut active, failed, blame);
                    if resolution == BlameResolution::Abort {
                        // The servers keep their hop state: it is the
                        // evidence.
                        break None;
                    }
                    entries = to_entries(&active);
                }
            }
        };

        if let Some(delivered_entries) = mixed {
            // Inner key reveal + verification, then open.
            let inner_keys: Vec<Scalar> =
                self.servers.iter().map(|s| s.reveal_inner_key()).collect();
            // The keys are out, so blame can no longer run for this
            // round: release the per-hop copies of the batch it would
            // have traced.
            for server in &mut self.servers {
                server.clear_state();
            }
            outcome.delivered = open_revealed(&self.public, round, &inner_keys, &delivered_entries)
                .expect("inner key reveal must verify");
        }
        // One sample per chain round: beside the deployment's `round.mix`
        // span, their sum says how much of the chains' work overlapped.
        xrd_obs::hist("chain.round_us").record_duration(started.elapsed());
        outcome
    }

    /// One pass of `entries` over all k hops (§6.3): each server mixes
    /// the previous one's output and each hop proof is verified by the
    /// other k−1 servers (counted in `stats`).  Stops at the first hop
    /// whose decryption fails.  Every server that ran keeps its
    /// [`HopState`](crate::server::HopState) — blame traces it, and the
    /// caller clears it once the inner keys are out.
    ///
    /// This is the chain's one hop loop: [`ChainRunner::run_round`]
    /// repeats it after blame, and the security game, the blame
    /// measurements and their tests drive it directly.
    pub fn mix_pass<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        round: u64,
        mut entries: Vec<MixEntry>,
        stats: &mut ChainRoundStats,
    ) -> MixPass {
        let k = self.servers.len();
        for pos in 0..k {
            // The hop proof is a statement about the DH keys alone, so
            // the input's key column is all a verifier keeps of it.
            let input_dhs: Vec<GroupElement> = entries.iter().map(|e| e.dh).collect();
            match self.servers[pos].process_round(rng, round, entries) {
                Ok(result) => {
                    stats.proofs_generated += 1;
                    // Every other server verifies the hop proof.
                    let mut ok = result.outputs.len() == input_dhs.len();
                    for _verifier in 0..k.saturating_sub(1) {
                        ok &= verify_hop_keys(
                            &self.public,
                            pos,
                            round,
                            input_dhs.iter(),
                            result.outputs.iter().map(|e| &e.dh),
                            &result.proof,
                        );
                        stats.proofs_verified += 1;
                    }
                    assert!(ok, "honest hop proof must verify");
                    entries = result.outputs;
                }
                Err(MixError::DecryptFailure(failed)) => {
                    return MixPass::Failed {
                        position: pos,
                        failed,
                    };
                }
                Err(MixError::Malformed) => {
                    panic!("malformed batch in in-process execution");
                }
            }
        }
        MixPass::Clean(entries)
    }
}

/// What one [`ChainRunner::mix_pass`] came to.
#[derive(Clone, Debug)]
pub enum MixPass {
    /// Every hop mixed and every hop proof verified: the last hop's
    /// outputs, ready for the inner-key reveal.
    Clean(Vec<MixEntry>),
    /// The hop at `position` failed to decrypt the input slots `failed`
    /// (indices into its input batch); blame starts there (§6.4).
    Failed {
        /// Hop position of the failing server.
        position: usize,
        /// Its input slots that failed authenticated decryption.
        failed: Vec<usize>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::seal_ahs;
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
        assert_eq!(outcome.stats.proofs_verified, 3 * 2);
        let mut mailboxes: Vec<[u8; 32]> = outcome.delivered.iter().map(|m| m.mailbox).collect();
        mailboxes.sort();
        assert_eq!(
            mailboxes,
            (0..10).map(|i| [i as u8; 32]).collect::<Vec<_>>()
        );
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
