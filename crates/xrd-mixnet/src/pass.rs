//! The chain protocol of §6.3–§6.4, decided once.
//!
//! A chain round, after input agreement, is one conversation between a
//! verifier and the chain's `k` servers, the same wherever the servers
//! live: mix the agreed batch through the hops, have every other server
//! check each hop's aggregate proof, settle a rejected proof by dispute,
//! blame a decryption failure back to its origin and mix again without
//! the convicted users, and — only once the chain verified and was
//! audited — reveal the inner keys and open the envelopes.
//!
//! [`ChainPass`] is that conversation as straight-line code.  Every
//! protocol decision is made here: the anchor of hop 0's input column
//! in the agreed batch and the column seams between hops, the
//! one verification wave, who a dispute convicts, the blame-retry loop
//! and the accuser's position, the localization of a failed audit, and
//! the inner-key reveal's checks.  What it asks the servers goes
//! through a [`ChainParty`], one method per *wave*, and two parties
//! answer:
//!
//! * [`LocalParty`](crate::runner::LocalParty) — the chain's
//!   [`MixServer`](crate::MixServer)s in this process, each wave a call
//!   on them, drawing from the chain's RNG
//!   ([`ChainRunner::run_round`](crate::ChainRunner::run_round));
//! * the networked coordinator's party (`xrd-net`), each wave one
//!   fan-out of frames to the chain's daemons.
//!
//! A lying server ([`Lie`](crate::Lie)) tells its lie in the server
//! functions both parties call, so a lie is told by the same lines in
//! process and on the wire, and convicted by the same lines here.  Routing — who carries a batch between hops, streaming,
//! retries — is the party's business: §6.3 proves statements over DH-key
//! columns, so the pass never sees how a batch travelled.

use std::collections::HashSet;

use xrd_crypto::nizk::SchnorrProof;
use xrd_crypto::scalar::Scalar;

use crate::blame::{trace_blame, Accusation, BlameReveal, BlameVerdict};
use crate::chain_keys::ChainPublicKeys;
use crate::client::Submission;
use crate::message::{MailboxMessage, MixEntry};
use crate::server::{
    column_digest, open_revealed, verify_hops_batched, DhColumn, HopAttestation, HopRecord,
};
use dispute_claim::{BAD_PROOF, FALSE_VERDICT};

/// Claim codes of an announced verdict ([`ChainParty::announce`]): what
/// the accused is alleged to have done.
pub mod dispute_claim {
    /// The accused published a hop attestation that does not verify.
    pub const BAD_PROOF: u8 = 0;
    /// The accused, acting as a verifier, rejected a valid attestation.
    pub const FALSE_VERDICT: u8 = 1;
    /// The accused's input-agreement digest dissented from the
    /// majority (equivocation, or a lossy submission link — digest
    /// evidence alone never convicts; see `docs/FAULTS.md`).
    pub const EQUIVOCATION: u8 = 2;
}

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
    /// Hop proof verifications performed: each of the other `k−1`
    /// servers checks every hop of the clean pass, and the audit checks
    /// all `k` once more — `k(k−1) + k` in a clean round.
    pub proofs_verified: usize,
}

/// Outcome of a chain round.  Also the round's running ledger: the pass
/// starts from `default()` and fills it in as verdicts fall.
#[derive(Clone, Debug, Default)]
pub struct ChainRoundOutcome {
    /// Messages ready for mailbox delivery, in shuffled order.
    pub delivered: Vec<MailboxMessage>,
    /// Submission indices identified as malicious and removed.
    pub malicious_users: Vec<usize>,
    /// Servers convicted, in the order they were (empty in an honest
    /// deployment).  A position can repeat.
    pub misbehaving_servers: Vec<usize>,
    /// Execution statistics.
    pub stats: ChainRoundStats,
}

/// What one mix wave came to ([`ChainParty::mix`]): one attestation
/// per hop that mixed, in hop order, and the last hop's outputs — or
/// (`Err`) the input slots that the hop at position `hops.len()` failed
/// to decrypt: blame starts there.
pub type MixWave = (Vec<HopAttestation>, Result<Vec<MixEntry>, Vec<usize>>);

/// What the servers said does not fit together, so the pass cannot go
/// on.  The displayed text is the protocol error a networked
/// coordinator reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Breach {
    /// The hop at this position attested an input column other than the
    /// one the hop before it emitted (hop 0: one that does not hash to
    /// the agreed batch's column).
    Seam(usize),
    /// The hop at this position attested input and output columns of
    /// different lengths.
    ColumnLengths(usize),
}

impl std::fmt::Display for Breach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Breach::Seam(hop) => write!(f, "column seam mismatch entering hop {hop}"),
            Breach::ColumnLengths(hop) => write!(f, "hop {hop} attested mismatched column lengths"),
        }
    }
}

impl std::error::Error for Breach {}

/// A chain's servers, as the pass asks them: one method per wave.  A
/// wave's `Err` is the party's own failure (a lost connection, a reply
/// outside the protocol) and ends the pass; a server that answers a
/// wave wrongly is the pass's to judge.
pub trait ChainParty {
    /// Why a wave could not be answered; a [`Breach`] found by the pass
    /// ends it the same way.
    type Error: From<Breach>;

    /// Mix the agreed batch's submissions at `active` — indices into the
    /// batch in its canonical order, ascending — through the chain's
    /// hops in order: hop 0 takes them from the window it holds
    /// ([`window_submissions`](crate::lie::window_submissions)), each
    /// later hop the one before it's output, until the last hop emits or
    /// one fails to decrypt, naming at least one slot.  The servers keep
    /// their hop state for blame.
    fn mix(&mut self, round: u64, active: &[usize]) -> Result<MixWave, Self::Error>;

    /// The agreed batch, in canonical order: what blame traces a failed
    /// slot back to.
    fn batch(&mut self, round: u64) -> Result<Vec<Submission>, Self::Error>;

    /// The verification wave: every server `v` with `verifiers[v]`
    /// checks all the other hops of `hops` at once, against the two key
    /// columns it holds of its own
    /// ([`Verifier::check`](crate::server::Verifier::check)).  Its
    /// answer, at index `v`, is one verdict per other hop in hop order.
    fn verify(
        &mut self,
        round: u64,
        hops: &[HopAttestation],
        verifiers: &[bool],
    ) -> Result<Vec<Option<Vec<bool>>>, Self::Error>;

    /// Ask every server `w` with `witnesses[w]` for its signed verdict on
    /// `hop` — `(upheld, signature)`, where upheld means the attestation
    /// does not verify ([`HopAttestation::sign_verdict`]).  Never fails:
    /// a witness that cannot answer abstains (`None`).
    fn dispute(&mut self, hop: &HopAttestation, witnesses: &[bool]) -> Vec<Option<Evidence>>;

    /// Tell every server but `accused` a verdict ([`dispute_claim`]):
    /// best effort, a server that cannot be told does not change it.
    fn announce(&mut self, round: u64, accused: usize, claim: u8, upheld: bool, votes: u32);

    /// Ask the server `at` to accuse its input `slot` (§6.4 step 4).
    /// `None`: it refused.
    fn accuse(
        &mut self,
        round: u64,
        at: usize,
        slot: usize,
    ) -> Result<Option<Accusation>, Self::Error>;

    /// Ask the server `at` to reveal the slot that left it at output
    /// `slot` (§6.4 steps 1–2).  `None`: it refused.
    fn reveal(
        &mut self,
        round: u64,
        at: usize,
        slot: usize,
    ) -> Result<Option<BlameReveal>, Self::Error>;

    /// Ask every server for its inner key: `(position it answered as,
    /// isk)`, in hop order.  From here on blame cannot run for the round.
    fn reveal_inner_keys(&mut self, round: u64) -> Result<Vec<(usize, Scalar)>, Self::Error>;
}

/// A witness's answer in a dispute: its verdict (`true`: the accusation
/// is upheld) and its signature on it.
pub type Evidence = (bool, SchnorrProof);

/// Result of [`ChainPass::mix`]: the audit is the caller's.
pub enum MixPhase {
    /// The chain's outcome is already final (a server was convicted
    /// mid-mix); no attestations to audit, nothing will be revealed.
    Done(ChainRoundOutcome),
    /// A clean, cross-verified pass: its attestations await the
    /// caller's audit before [`ChainPass::conclude`] reveals keys.
    AwaitingAudit(PendingChainRound),
}

/// A clean mixing pass whose attestations have not been audited yet:
/// what [`ChainPass::conclude`] needs once the caller has folded this
/// chain's proofs into its (possibly deployment-wide) batched
/// verification.  It holds what the proofs are about — key columns —
/// and the final batch; no intermediate ciphertext batch outlives its
/// hop.
pub struct PendingChainRound {
    /// Hop `i`'s attestation at index `i`: each input column is the
    /// previous hop's output column.
    pub hops: Vec<HopAttestation>,
    /// The chain's final mixed batch.
    pub outputs: Vec<MixEntry>,
    /// The round's ledger through the mix phase: users convicted by
    /// blame during earlier passes, verifiers convicted of lying,
    /// statistics.  Nothing delivered yet.
    pub outcome: ChainRoundOutcome,
}

impl PendingChainRound {
    /// Borrow the clean pass's attestations as [`HopRecord`]s, the form
    /// [`verify_hops_batched_multi`](crate::verify_hops_batched_multi) consumes.
    pub fn records(&self) -> Vec<HopRecord<'_>> {
        self.hops.iter().map(HopAttestation::record).collect()
    }
}

/// One chain round's protocol over `party`: see the [module
/// docs](self).
pub struct ChainPass<'a, P> {
    /// Who answers the waves.
    pub party: P,
    /// The chain's active bundle: what every proof is checked against.
    pub public: &'a ChainPublicKeys,
    /// The round.
    pub round: u64,
    /// Verifiers convicted of a false verdict, in this round or an
    /// earlier one: no longer asked to verify or to witness.
    pub excluded: &'a mut HashSet<usize>,
}

/// The digest hop 0's input column must have when the agreed `batch`'s
/// submissions at `active` enter the mix: their `g^x` column, in order
/// ([`column_digest`]).
pub fn agreed_column(batch: &[Submission], active: &[usize]) -> [u8; 32] {
    column_digest(active.iter().map(|&i| batch[i].encoded_dh()))
}

impl<P: ChainParty> ChainPass<'_, P> {
    /// The whole chain round over the agreed batch, of which the indices
    /// `active` enter the mix, hop 0's input column hashing to `agreed`
    /// ([`agreed_column`]): [`ChainPass::mix`], the chain's own audit of
    /// its `k` proofs ([`verify_hops_batched`]), then
    /// [`ChainPass::conclude`].
    pub fn run(
        &mut self,
        agreed: [u8; 32],
        active: Vec<usize>,
    ) -> Result<ChainRoundOutcome, P::Error> {
        match self.mix(agreed, active)? {
            MixPhase::Done(outcome) => Ok(outcome),
            MixPhase::AwaitingAudit(pending) => {
                let audit_ok = verify_hops_batched(self.public, self.round, &pending.records());
                self.conclude(pending, audit_ok)
            }
        }
    }

    /// Mix with blame-retry until a clean pass (§6.3–§6.4), then
    /// cross-verify it.  Each mix wave's attestations must chain — hop
    /// 0's input column hash to `agreed`, hop `i` consume what hop `i−1`
    /// emitted — or the pass fails with a [`Breach`].  A hop that failed
    /// to decrypt is blamed slot by slot, against the agreed batch
    /// ([`ChainParty::batch`], asked for once): convicted users leave
    /// `active`, hop 0's column must now be that batch's less them, and
    /// the batch is mixed again; a convicted server ends the round with
    /// nothing delivered.  A clean pass goes through the verification
    /// wave and any disputes it raises, and is returned for the caller's
    /// audit: nothing is revealed before that.
    pub fn mix(&mut self, agreed: [u8; 32], mut active: Vec<usize>) -> Result<MixPhase, P::Error> {
        let mut outcome = ChainRoundOutcome::default();
        let (mut agreed, mut batch): (_, Option<Vec<Submission>>) = (agreed, None);
        let (hops, outputs) = loop {
            let (hops, end) = self.party.mix(self.round, &active)?;
            check_seams(&agreed, &hops)?;
            outcome.stats.proofs_generated += hops.len();
            let failed = match end {
                Ok(outputs) => break (hops, outputs),
                Err(failed) => failed,
            };
            // Blame runs against the batch actually mixed; a user's
            // verdict indexes into `active`.
            outcome.stats.blame_rounds += 1;
            let batch = match &mut batch {
                Some(batch) => batch,
                empty => empty.insert(self.party.batch(self.round)?),
            };
            let mixed: Vec<Submission> = active.iter().map(|&i| batch[i].clone()).collect();
            let mut users = Vec::new();
            for slot in failed {
                match self.blame(&mixed, hops.len(), slot)? {
                    BlameVerdict::MaliciousUser {
                        submission_index: i,
                    } => users.push(active[i]),
                    BlameVerdict::ServerMisbehaved { position } => {
                        outcome.misbehaving_servers.push(position)
                    }
                }
            }
            if !outcome.misbehaving_servers.is_empty() {
                // A convicted server halts the chain with nothing
                // delivered (§6.4); the servers keep their hop state: it
                // is the evidence.
                return Ok(MixPhase::Done(outcome));
            }
            assert!(!users.is_empty(), "blame must identify at least one party");
            outcome.stats.removed_by_blame += users.len();
            active.retain(|i| !users.contains(i));
            agreed = agreed_column(batch, &active);
            outcome.malicious_users.extend(users);
        };
        let _span = xrd_obs::span_timer("chain.verify", self.round);
        if !self.cross_verify(&hops, &mut outcome)? {
            return Ok(MixPhase::Done(outcome));
        }
        Ok(MixPhase::AwaitingAudit(PendingChainRound {
            hops,
            outputs,
            outcome,
        }))
    }

    /// Conclude a clean pass once its attestations have been audited:
    /// on a failed audit, re-check this chain's hops one by one and put
    /// each refuted one through a dispute (the offender may be in
    /// another chain, and then this one proceeds); then reveal the inner
    /// keys and open the envelopes.  A key revealed for another position,
    /// or one that is not the published one, convicts its server and
    /// nothing is opened.
    ///
    /// `audit_ok` is the verdict of a batched verification that
    /// *included* this chain's records — this chain alone
    /// ([`ChainPass::run`]) or every chain of the deployment round
    /// ([`verify_hops_batched_multi`](crate::verify_hops_batched_multi)).
    pub fn conclude(
        &mut self,
        pending: PendingChainRound,
        audit_ok: bool,
    ) -> Result<ChainRoundOutcome, P::Error> {
        let (hops, outputs, mut outcome) = (pending.hops, pending.outputs, pending.outcome);
        // The audit covered this chain's k statements: count them once,
        // whatever the verdict — the re-checks below localize.
        outcome.stats.proofs_verified += hops.len();
        if !audit_ok {
            let refuted: Vec<&HopAttestation> =
                hops.iter().filter(|hop| !hop.verify(self.public)).collect();
            for hop in &refuted {
                // The conviction rests on gossiped, signed evidence, not
                // on this verifier's word.
                let (upholders, _) = self.dispute(hop);
                self.convict(&mut outcome, hop.position, BAD_PROOF, upholders.len());
            }
            // Only a *prover* convicted here blocks the reveal: verifiers
            // convicted of lying are already excluded.
            if !refuted.is_empty() {
                return Ok(outcome);
            }
        }
        let k = self.public.len();
        let keys = self.party.reveal_inner_keys(self.round)?;
        // Answering as another position is as good as a key that does
        // not verify.
        let in_place = (keys.iter().take(k).enumerate())
            .take_while(|(at, (answered, _))| at == answered)
            .count();
        let keys: Vec<Scalar> = keys.into_iter().take(k).map(|(_, isk)| isk).collect();
        let opened = match in_place {
            mislabelled if mislabelled < k => Err(mislabelled),
            _ => open_revealed(self.public, self.round, &keys, &outputs),
        };
        match opened {
            Ok(delivered) => outcome.delivered = delivered,
            Err(liar) => outcome.misbehaving_servers.push(liar),
        }
        Ok(outcome)
    }

    /// The §6.4 trace of one problem slot: the server at `accuser`
    /// accuses its input slot `slot`, then each upstream server reveals
    /// its link, one after another (each reveal asked for depends on the
    /// one before).  A refusal, or an accusation made for another
    /// position, convicts the accuser.  `submissions` is the batch that
    /// was mixed, in mix order.
    pub fn blame(
        &mut self,
        submissions: &[Submission],
        accuser: usize,
        slot: usize,
    ) -> Result<BlameVerdict, P::Error> {
        let round = self.round;
        let accusation = match self.party.accuse(round, accuser, slot)? {
            Some(accusation) if accusation.position == accuser => accusation,
            _ => return Ok(BlameVerdict::ServerMisbehaved { position: accuser }),
        };
        // The trace takes its reveals as `Option`s: a party's own
        // failure is kept aside and ends the pass afterwards.
        let mut failure = None;
        let party = &mut self.party;
        let verdict = trace_blame(self.public, submissions, round, &accusation, |at, slot| {
            // A refusal ends the trace: a failure is the last reveal asked.
            let reveal = party.reveal(round, at, slot).map_err(|e| failure = Some(e));
            reveal.ok().flatten()
        });
        failure.map_or(Ok(verdict), Err)
    }

    /// End-of-chain cross-server verification: one wave, in which every
    /// verifier not yet excluded checks the `k−1` other hops, all side by
    /// side.  Each rejected attestation becomes a dispute.
    /// `Ok(false)`: the dispute convicted a *prover* (a bad proof) and
    /// the chain halts with nothing delivered.  `Ok(true)`: every
    /// attestation stands — and a verifier that rejected a valid one is
    /// convicted and excluded if it upheld the rejection under oath, or
    /// forgiven if it recanted (a verdict corrupted in transit, which an
    /// honest verifier recants, never convicts anyone).
    fn cross_verify(
        &mut self,
        hops: &[HopAttestation],
        outcome: &mut ChainRoundOutcome,
    ) -> Result<bool, P::Error> {
        let k = hops.len();
        // A chain of one has no other hop to check.
        let asked: Vec<bool> = (0..k)
            .map(|v| k > 1 && !self.excluded.contains(&v))
            .collect();
        if !asked.contains(&true) {
            return Ok(true);
        }
        let mut rejections: Vec<(usize, usize)> = Vec::new(); // (prover, verifier)
        let verdicts = self.party.verify(self.round, hops, &asked)?;
        for (verifier, (verdicts, asked)) in verdicts.into_iter().zip(asked).enumerate() {
            let provers = (0..k).filter(|&p| p != verifier);
            for (prover, ok) in provers.zip(verdicts.filter(|_| asked).unwrap_or_default()) {
                outcome.stats.proofs_verified += 1;
                if !ok {
                    rejections.push((prover, verifier));
                }
            }
        }
        let mut disputed: Vec<usize> = rejections.iter().map(|&(prover, _)| prover).collect();
        disputed.sort_unstable();
        disputed.dedup();
        for prover in disputed {
            let (upholders, cast) = self.dispute(&hops[prover]);
            if !hops[prover].verify(self.public) {
                self.convict(outcome, prover, BAD_PROOF, upholders.len());
                return Ok(false);
            }
            let perjured = rejections
                .iter()
                .filter(|&&(p, v)| p == prover && upholders.contains(&v));
            for &(_, verifier) in perjured {
                // Once, whichever hop it lied about.
                if self.excluded.insert(verifier) {
                    self.convict(outcome, verifier, FALSE_VERDICT, cast - upholders.len());
                }
            }
        }
        Ok(true)
    }

    /// The dispute over one contested attestation: every server but the
    /// accused and the excluded is asked for signed evidence, and only
    /// a signature that checks against the witness's mix key counts, so
    /// the conviction is transferable.  Returns who upheld the
    /// accusation and how many witnesses signed at all; the pass's own
    /// re-check of the statement decides the verdict.
    fn dispute(&mut self, hop: &HopAttestation) -> (Vec<usize>, usize) {
        let (round, accused) = (self.round, hop.position);
        xrd_obs::counter!("dispute.opened").incr();
        xrd_obs::info!("round {round}: dispute opened against server {accused}");
        let witnesses: Vec<bool> = (0..self.public.len())
            .map(|w| w != accused && !self.excluded.contains(&w))
            .collect();
        let evidence = self.party.dispute(hop, &witnesses).into_iter().enumerate();
        let signed: Vec<(usize, bool)> = evidence
            .filter_map(|(w, evidence)| Some((w, evidence.filter(|_| witnesses[w])?)))
            .filter(|(w, (upheld, sig))| hop.verdict_signed(self.public, *w, *upheld, sig))
            .map(|(w, (upheld, _))| (w, upheld))
            .collect();
        let upholders = signed
            .iter()
            .filter(|(_, upheld)| *upheld)
            .map(|&(w, _)| w)
            .collect();
        (upholders, signed.len())
    }

    /// Convict `accused` on `claim`: announce it and enter it.
    fn convict(&mut self, ledger: &mut ChainRoundOutcome, accused: usize, claim: u8, votes: usize) {
        let (round, votes) = (self.round, votes as u32);
        xrd_obs::counter!("dispute.convicted").incr();
        xrd_obs::info!("round {round}: server {accused} convicted (claim {claim}, {votes} votes)");
        self.party.announce(round, accused, claim, true, votes);
        ledger.misbehaving_servers.push(accused);
    }
}

/// Hop 0's input column must hash to the `agreed` one, hop `i`'s be
/// what hop `i−1` emitted, and each hop's two columns one length.
fn check_seams(agreed: &[u8; 32], hops: &[HopAttestation]) -> Result<(), Breach> {
    let mut emitted: Option<&DhColumn> = None;
    for (position, hop) in hops.iter().enumerate() {
        let seamless = match emitted {
            None => hop.input_dhs.digest() == *agreed,
            Some(emitted) => hop.input_dhs == *emitted,
        };
        if !seamless {
            return Err(Breach::Seam(position));
        }
        if hop.output_dhs.len() != hop.input_dhs.len() {
            return Err(Breach::ColumnLengths(position));
        }
        emitted = Some(&hop.output_dhs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Every lie a server can tell, told in process: the lie is set on
    //! the [`LocalParty`]'s servers, which tell it in the functions a
    //! mix daemon calls too.

    use super::*;
    use crate::chain_keys::generate_chain_keys;
    use crate::client::seal_ahs;
    use crate::lie::Lie;
    use crate::message::PAYLOAD_LEN;
    use crate::runner::LocalParty;
    use crate::server::MixServer;
    use crate::testutil::malicious_submission;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xrd_crypto::TAG_LEN;

    const ROUND: u64 = 3;
    const USERS: usize = 6;

    /// One round of a `k`-server chain over [`USERS`] honest users —
    /// one of them replaced by an onion that fails at `bad_layer`, if
    /// any — with the server at each `(position, lie)` of `lies` lying.
    /// Every case runs on its own seed-fixed chain.
    fn round_with(
        lies: &[(usize, Lie)],
        k: usize,
        bad_layer: Option<usize>,
    ) -> Result<ChainRoundOutcome, Breach> {
        let mut rng = StdRng::seed_from_u64(38);
        let (secrets, public) = generate_chain_keys(&mut rng, k, ROUND);
        let mut servers: Vec<MixServer> = (secrets.into_iter())
            .map(|s| MixServer::new(s, public.clone()))
            .collect();
        for &(liar, lie) in lies {
            servers[liar].set_lie(Some(lie));
        }
        let mut subs: Vec<Submission> = (0..USERS as u8)
            .map(|tag| {
                let msg = MailboxMessage {
                    mailbox: [tag; 32],
                    sealed: vec![tag; PAYLOAD_LEN + TAG_LEN],
                };
                seal_ahs(&mut rng, &public, ROUND, &msg)
            })
            .collect();
        if let Some(layer) = bad_layer {
            subs[1] = malicious_submission(&mut rng, &public, ROUND, layer);
        }
        let mut excluded = HashSet::new();
        let party = LocalParty {
            servers: &mut servers,
            rng: &mut rng,
            batch: &subs,
        };
        let mut pass = ChainPass {
            party,
            public: &public,
            round: ROUND,
            excluded: &mut excluded,
        };
        let active: Vec<usize> = (0..USERS).collect();
        pass.run(agreed_column(&subs, &active), active)
    }

    /// `(delivered, misbehaving_servers, malicious_users)` of a round
    /// that ran to its end.
    fn ledger(outcome: Result<ChainRoundOutcome, Breach>) -> (usize, Vec<usize>, Vec<usize>) {
        let outcome = outcome.expect("the pass runs to its end");
        let (servers, users) = (outcome.misbehaving_servers, outcome.malicious_users);
        (outcome.delivered.len(), servers, users)
    }

    #[test]
    fn the_honest_chain_verifies_every_hop_k_minus_1_times_and_audits_it() {
        let outcome = round_with(&[], 3, None).expect("runs");
        assert_eq!(outcome.delivered.len(), USERS);
        assert!(outcome.misbehaving_servers.is_empty() && outcome.malicious_users.is_empty());
        assert_eq!(outcome.stats.proofs_generated, 3);
        assert_eq!(outcome.stats.proofs_verified, 3 * 2 + 3);
        // A user's bad onion is blamed on the user, never on a server.
        let (delivered, servers, users) = ledger(round_with(&[], 3, Some(2)));
        assert_eq!((delivered, servers, users), (USERS - 1, vec![], vec![1]));
    }

    #[test]
    fn a_verifier_who_upholds_a_false_rejection_is_convicted_excluded_and_the_round_delivers() {
        for liar in 0..3 {
            let (delivered, servers, users) =
                ledger(round_with(&[(liar, Lie::RejectsAndUpholds)], 3, None));
            assert_eq!((delivered, users), (USERS, vec![]), "liar {liar}");
            assert_eq!(
                servers,
                vec![liar],
                "liar {liar}: convicted once, nobody else"
            );
        }
    }

    #[test]
    fn a_verifier_who_recants_is_not_convicted() {
        let (delivered, servers, users) =
            ledger(round_with(&[(1, Lie::RejectsAndRecants)], 3, None));
        assert_eq!((delivered, servers, users), (USERS, vec![], vec![]));
    }

    #[test]
    fn a_bad_hop_proof_is_convicted_through_the_dispute() {
        for hop in 0..3 {
            let outcome = round_with(&[(hop, Lie::BadProof)], 3, None).expect("runs");
            assert_eq!(outcome.misbehaving_servers, vec![hop], "hop {hop}");
            assert!(outcome.delivered.is_empty(), "hop {hop}: nothing revealed");
            // Convicted at the dispute, before any audit.
            assert_eq!(outcome.stats.proofs_verified, 3 * 2, "hop {hop}");
        }
    }

    #[test]
    fn a_bad_proof_every_verifier_covers_for_is_localized_by_the_audit() {
        for hop in 0..2 {
            let outcome = round_with(&[(hop, Lie::BadProof), (1 - hop, Lie::Vouches)], 2, None)
                .expect("runs");
            assert_eq!(outcome.misbehaving_servers, vec![hop], "hop {hop}");
            assert!(outcome.delivered.is_empty(), "hop {hop}: nothing revealed");
            assert_eq!(outcome.stats.proofs_verified, 2 + 2, "hop {hop}");
        }
    }

    #[test]
    fn a_seam_mismatch_fails_the_pass() {
        for hop in 0..3 {
            let failure = round_with(&[(hop, Lie::Seam)], 3, None).expect_err("the seam breaks");
            assert_eq!(failure, Breach::Seam(hop));
            assert_eq!(
                failure.to_string(),
                format!("column seam mismatch entering hop {hop}")
            );
        }
    }

    #[test]
    fn an_accuser_who_refuses_or_accuses_as_another_position_is_convicted() {
        for lie in [Lie::AccuserRefuses, Lie::AccuserAsAnother] {
            for layer in 0..2 {
                let (delivered, servers, users) =
                    ledger(round_with(&[(layer, lie)], 3, Some(layer)));
                assert_eq!(servers, vec![layer], "{lie:?} at {layer}: the accuser");
                assert_eq!((delivered, users), (0, vec![]), "{lie:?} at {layer}");
            }
        }
    }

    #[test]
    fn an_inner_key_revealed_as_another_position_or_not_verifying_is_convicted() {
        for liar in 0..3 {
            for lie in [Lie::KeyAsAnother, Lie::WrongKey] {
                let (delivered, servers, users) = ledger(round_with(&[(liar, lie)], 3, None));
                assert_eq!(
                    (delivered, servers, users),
                    (0, vec![liar], vec![]),
                    "{lie:?}"
                );
            }
        }
    }

    /// The table of lies, in process: for chains of 2, 3 and 4 servers,
    /// every single server lying at every position gets its row of
    /// `docs/FAULTS.md` §2 — the liar alone is convicted or no one is, no
    /// user is blamed but the one an accuser lie needs seeded, every
    /// honest message is delivered or none is, a seam lie fails the
    /// pass there, and so does hop 0 mixing other than its window.
    #[test]
    fn every_lie_at_every_position_gets_its_ledger() {
        for k in 2..=4 {
            for liar in 0..k {
                for (name, lie) in Lie::NAMED {
                    // Not convicted yet (ROADMAP item 1): the last hop's
                    // output keys are not used to open anything, and a
                    // bent last-hop envelope just fails to open.
                    if liar + 1 == k && matches!(lie, Lie::ShiftKeys | Lie::FlipCiphertext) {
                        continue;
                    }
                    let case = format!("{name} at {liar} of {k}");
                    let accuses = matches!(lie, Lie::AccuserRefuses | Lie::AccuserAsAnother);
                    let outcome = round_with(&[(liar, lie)], k, accuses.then_some(liar));
                    if lie == Lie::Seam || (lie, liar) == (Lie::DropsFromWindow, 0) {
                        assert_eq!(outcome.err(), Some(Breach::Seam(liar)), "{case}");
                        continue;
                    }
                    let (delivered, servers, users) = ledger(outcome);
                    assert_eq!(users, vec![], "{case}: no user is blamed");
                    match lie {
                        // Nobody is framed, nobody is hurt: a recanted
                        // rejection, a vouch for a valid hop, a digest
                        // lie only a daemon's window can tell, and a
                        // window lie past hop 0, which holds no window.
                        Lie::RejectsAndRecants
                        | Lie::Vouches
                        | Lie::EquivocateDigest
                        | Lie::DropsFromWindow => {
                            assert_eq!((delivered, servers), (USERS, vec![]), "{case}")
                        }
                        // The perjured verifier is excluded; the round goes on.
                        Lie::RejectsAndUpholds => {
                            assert_eq!((delivered, servers), (USERS, vec![liar]), "{case}")
                        }
                        // A convicted server halts its chain.
                        _ => {
                            assert_eq!(delivered, 0, "{case}: nothing is delivered");
                            assert!(!servers.is_empty(), "{case}: somebody is convicted");
                            assert!(servers.iter().all(|&s| s == liar), "{case}: {servers:?}");
                        }
                    }
                }
            }
        }
    }
}
