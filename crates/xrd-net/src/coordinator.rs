//! The round coordinator for one networked mix chain.
//!
//! Drives the chain's `k` daemons through a round over the wire:
//!
//! 1. **submission window** — open the window on every server, let
//!    clients submit (to *all* servers of the chain, per the paper's
//!    input-agreement step), close it, and check that a majority of the
//!    servers fixed the same canonical batch (digest comparison, §6.3):
//!    an [`Agreement`], which holds no submission;
//! 2. **the chain pass** — mixing, cross-server verification, disputes,
//!    blame and retry, the audit's localization and the inner-key
//!    reveal: [`xrd_mixnet::ChainPass`], the same code that runs the
//!    in-process chain ([`ChainRunner::run_round`](xrd_mixnet::ChainRunner::run_round)),
//!    with the chain's daemons as its party.  Each wave the pass asks
//!    is answered here by one fan-out of frames.
//!
//! The coordinator holds no key material beyond the public bundle; in a
//! real deployment this role is played by the servers gossiping among
//! themselves, and any party can replay the coordinator's checks.
//!
//! # The mix wave
//!
//! Hop 0 mixes the window it holds — the batch it fixed at the close,
//! less the users blame removed — and names the column it consumed
//! ([`Frame::MixWindow`], [`Frame::WindowColumn`]): the agreed batch
//! crosses the coordinator's wire only when blame needs it, or to a
//! hop 0 that dissented or holds no window (one respawned since the
//! close), which is streamed it.
//!
//! Batches travel as *chunk streams* and the chain is a pipeline: hop
//! `i + 1` is decrypting while hop `i` is still emitting, so the per-hop
//! serial cost is the shuffle + proof, not the whole transfer.  (A
//! batch of one chunk is the degenerate pipeline: nothing to overlap,
//! nothing lost.)  The coordinator carries the chunks: each hop answers
//! it, and it relays the reply to the next hop byte for byte as it
//! arrives.  What it keeps of a hop is what §6.3 proves: a statement
//! over products of DH keys, never ciphertexts — so the audit, the
//! cross-server checks ([`Frame::VerifyHopKeys`], one per verifier) and
//! a dispute all read key columns, and whether they chain from hop to
//! hop is the pass's to check.
//!
//! Every other exchange goes through one fan-out, `ask`, so a chain's
//! daemons work side by side — the §6.4 blame trace too, one daemon per
//! wave, since each reveal it asks for depends on the last.

use std::collections::HashSet;
use std::iter::repeat;
use std::net::SocketAddr;
use std::time::Duration;

use xrd_crypto::scalar::Scalar;
use xrd_mixnet::blame::{Accusation, BlameReveal};
use xrd_mixnet::chain_keys::{apply_rotation_shares, ChainPublicKeys, RotationShare};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::MixEntry;
use xrd_mixnet::pass::dispute_claim;
use xrd_mixnet::pass::Evidence;
use xrd_mixnet::server::{verify_hops_batched, CrossCheck, DhColumn, HopAttestation, WindowDigest};
use xrd_mixnet::{ChainParty, ChainPass, ChainRoundOutcome, MixWave};
pub use xrd_mixnet::{MixPhase, PendingChainRound};

use crate::codec::{error_code, ChunkedBatch, Frame, STREAM_CHUNK};
use crate::conn::{expect_ok, Conn, ConnTimeouts, HopReply, NetError};

/// Bounded retry-with-backoff for chain exchanges that fail for
/// *transport* reasons (see [`NetError::retryable`]): the coordinator
/// reconnects and repeats the exchange instead of writing the chain
/// off over one dropped frame.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per exchange (1 = no retry).
    pub attempts: u32,
    /// Backoff before attempt `n+1`: `base_backoff << n`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// Policy for supervised deployments ([`crate::launcher`] with a
    /// `restart` budget): a refused connection is a daemon being
    /// respawned from its journal, not a dead peer.  More attempts and
    /// a longer base backoff ride out the supervisor's respawn backoff
    /// plus the daemon's recovery and re-announcement.
    pub fn crash_recovery() -> RetryPolicy {
        RetryPolicy {
            attempts: 8,
            base_backoff: Duration::from_millis(50),
        }
    }

    pub(crate) fn sleep(&self, attempt: u32) {
        std::thread::sleep(self.base_backoff * 2u32.saturating_pow(attempt.min(8)));
    }
}

/// No retry: one attempt per exchange.
pub(crate) const NO_RETRY: RetryPolicy = RetryPolicy {
    attempts: 1,
    base_backoff: Duration::ZERO,
};

/// The coordinator's one way to ask its daemons: `requests[c]`, if any,
/// is the encoded request for `conns[c]`, and its reply comes back at
/// index `c`.  Every request is written before any reply is read, so the
/// daemons work side by side.  [`Frame::Error`] comes back as
/// [`NetError::Remote`], as from [`Conn::request`].  A connection whose
/// exchange fails for a retryable reason is redialed and asked again on
/// its own, under `retry` — so only for idempotent requests, which every
/// coordinator-side exchange is (a shard deduplicates deliveries).
pub(crate) fn ask<'w>(
    conns: &mut [Conn],
    requests: impl IntoIterator<Item = Option<&'w [u8]>>,
    retry: RetryPolicy,
) -> Vec<Option<Result<Frame, NetError>>> {
    xrd_obs::counter!("net.coordinator.waves").incr();
    let sent: Vec<_> = conns
        .iter_mut()
        .zip(requests)
        .map(|(conn, wire)| wire.map(|wire| (wire, conn.send_encoded(wire))))
        .collect();
    let replies = conns.iter_mut().zip(sent).map(|(conn, sent)| {
        let (wire, sent) = sent?;
        let mut reply = sent.and_then(|()| conn.recv_reply());
        for attempt in 1..retry.attempts {
            match &reply {
                Err(e) if e.retryable() => xrd_obs::debug!(
                    "retrying {} to {} after: {e}",
                    Frame::tag_name(wire[4]).unwrap_or("?"),
                    conn.peer()
                ),
                _ => break,
            }
            retry.sleep(attempt);
            xrd_obs::counter!("chain.reconnects").incr();
            let _ = conn.reconnect();
            reply = conn.send_encoded(wire).and_then(|()| conn.recv_reply());
        }
        Some(reply)
    });
    replies.collect()
}

/// The DH keys of `entries`, in order — the only part of a batch §6.3
/// proves anything about — beside the encodings they crossed the wire
/// as.
fn dh_column(entries: &[MixEntry], encoded: Vec<[u8; 32]>) -> DhColumn {
    DhColumn::with_encodings(entries.iter().map(|e| e.dh).collect(), encoded)
}

/// A chain's input agreement for one round (§6.3): the digests a strict
/// majority of its daemons fixed their window under, and which daemons
/// those are ([`ChainClient::close_and_agree`]).  It holds no
/// submission: hop 0 mixes its own window
/// ([`ChainClient::mix_round_deferred`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Agreement {
    round: u64,
    digest: WindowDigest,
    count: usize,
    /// The positions whose window is the majority's, in hop order.
    holders: Vec<usize>,
}

impl Agreement {
    /// Submissions agreed on.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the window closed empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The agreed batch as the coordinator's party reaches it, across one
/// round's passes.
struct Input<'a> {
    agreement: &'a Agreement,
    /// Hop 0 is asked to mix its own window: as far as the coordinator
    /// knows, it holds the agreed one.
    at_hop0: bool,
    /// The batch, once fetched.
    fetched: Option<Vec<Submission>>,
}

impl<'a> Input<'a> {
    fn new(agreement: &'a Agreement) -> Input<'a> {
        Input {
            agreement,
            at_hop0: agreement.holders.contains(&0),
            fetched: None,
        }
    }

    /// The agreed batch, fetched the first time it is needed
    /// ([`fetch`]).
    fn batch(&mut self, conns: &mut [Conn], retry: RetryPolicy) -> Result<&[Submission], NetError> {
        let fetched = match &mut self.fetched {
            Some(fetched) => fetched,
            empty => empty.insert(fetch(conns, self.agreement, retry)?),
        };
        Ok(fetched)
    }
}

/// The agreed batch, fetched from the daemons whose window is the
/// agreed one — each in turn, until one answers with it (a daemon
/// respawned since its digest keeps no window) — put in canonical order
/// and checked against both agreed digests: one server's transcript is
/// never trusted blindly.  The one place the batch is fetched: for
/// blame, and for a hop 0 that holds no window.
fn fetch(
    conns: &mut [Conn],
    agreement: &Agreement,
    retry: RetryPolicy,
) -> Result<Vec<Submission>, NetError> {
    let round = agreement.round;
    let get = Frame::GetBatch { round };
    let mut failure = None;
    for &source in &agreement.holders {
        let why = match ask_one(conns, source, &get, retry) {
            Ok(Frame::SubmissionBatch {
                round: r,
                mut submissions,
            }) if r == round => {
                submissions.sort_unstable();
                submissions.dedup();
                if WindowDigest::of(&submissions) == agreement.digest {
                    return Ok(submissions);
                }
                NetError::Protocol(format!(
                    "server {source} returned a batch that does not match the agreed digest"
                ))
            }
            Ok(other) => unexpected("SubmissionBatch", other),
            Err(e) => e,
        };
        xrd_obs::info!(
            "round {round}: the agreed batch could not be fetched from server {source}: {why}"
        );
        failure = Some(why);
    }
    Err(failure.expect("a strict majority holds the agreed batch"))
}

/// Coordinator-side handle for one chain: persistent connections to its
/// `k` mix daemons plus the active/pending key bundles.
pub struct ChainClient {
    conns: Vec<Conn>,
    public: ChainPublicKeys,
    pending: Option<ChainPublicKeys>,
    retry: RetryPolicy,
    /// Positions whose input-agreement digest dissented from the
    /// majority since the last [`ChainClient::take_suspects`] —
    /// suspects, not convictions (a dropped `Submit` frame produces
    /// the same divergence as byzantine equivocation).
    suspected: Vec<usize>,
    /// Verifiers convicted of a false verdict: no longer asked to verify
    /// or to witness ([`ChainPass::excluded`]).
    excluded: HashSet<usize>,
}

impl ChainClient {
    /// Connect to a chain's daemons (hop order) with its active bundle
    /// and the default deadlines/retry policy.
    pub fn connect(addrs: &[SocketAddr], public: ChainPublicKeys) -> Result<ChainClient, NetError> {
        ChainClient::connect_with(
            addrs,
            public,
            ConnTimeouts::default(),
            RetryPolicy::default(),
        )
    }

    /// Connect with explicit per-connection deadlines and retry policy.
    pub fn connect_with(
        addrs: &[SocketAddr],
        public: ChainPublicKeys,
        timeouts: ConnTimeouts,
        retry: RetryPolicy,
    ) -> Result<ChainClient, NetError> {
        assert_eq!(addrs.len(), public.len(), "one daemon per hop");
        let conns = addrs
            .iter()
            .map(|&a| Conn::connect_with(a, timeouts))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChainClient {
            conns,
            public,
            pending: None,
            retry,
            suspected: Vec::new(),
            excluded: HashSet::new(),
        })
    }

    /// Drain the positions suspected (digest dissent) since the last
    /// call, in the order they fell — a position can repeat.  The round
    /// driver folds these into the round report beside the convictions,
    /// which it reads off the chain's outcome.
    pub fn take_suspects(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.suspected)
    }

    /// Re-dial every daemon connection (same peers, same deadlines).
    /// The recovery move after a transport failure mid-pass: streamed
    /// sessions keyed by the old connections die with them and the
    /// pass restarts clean.
    fn reconnect_all(&mut self) -> Result<(), NetError> {
        for conn in &mut self.conns {
            xrd_obs::counter!("chain.reconnects").incr();
            conn.reconnect()?;
        }
        Ok(())
    }

    /// Chain length `k`.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if the chain has no servers (never in practice).
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The active public bundle.
    pub fn public(&self) -> &ChainPublicKeys {
        &self.public
    }

    /// Total bytes exchanged with this chain's daemons so far.
    pub fn bytes_on_wire(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.bytes_sent() + c.bytes_received())
            .sum()
    }

    /// Open the submission window for `round` on every server.
    pub fn open_round(&mut self, round: u64) -> Result<(), NetError> {
        let replies = self.ask_all(&Frame::OpenRound { round }, self.retry);
        replies.into_iter().try_for_each(expect_ok)
    }

    /// Ask every daemon of the chain `frame` at once (see [`ask`]);
    /// one reply per position, in hop order.
    fn ask_all(&mut self, frame: &Frame, retry: RetryPolicy) -> Vec<Result<Frame, NetError>> {
        let wire = frame.encode();
        let replies = ask(&mut self.conns, repeat(Some(&wire[..])), retry);
        replies.into_iter().flatten().collect()
    }

    /// Close the window and run input agreement: every server reports
    /// the digests of its canonical batch and of that batch's key column
    /// ([`WindowDigest`]) and the *majority* wins.  A dissenting server
    /// is recorded as suspected (equivocation and a dropped `Submit`
    /// frame are indistinguishable from here, so this never convicts)
    /// and announced to the chain as an un-upheld
    /// [`Frame::DisputeVerdict`].  Nothing is fetched: hop 0 mixes its
    /// own window.  Fails only when no strict majority exists.
    pub fn close_and_agree(&mut self, round: u64) -> Result<Agreement, NetError> {
        let digests = self
            .ask_all(&Frame::CloseSubmissions { round }, self.retry)
            .into_iter()
            .map(|reply| match reply? {
                Frame::BatchDigest {
                    round: r,
                    digest,
                    column,
                    count,
                } if r == round => Ok((
                    WindowDigest {
                        batch: digest,
                        column,
                    },
                    count,
                )),
                other => Err(unexpected("BatchDigest", other)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Majority digest: the most common value, needing > k/2 votes.
        let majority = digests
            .iter()
            .max_by_key(|d| digests.iter().filter(|e| e == d).count())
            .copied()
            .expect("chain has at least one server");
        let votes = digests.iter().filter(|d| **d == majority).count();
        if votes * 2 <= digests.len() {
            return Err(NetError::Protocol(
                "input agreement failed: no majority batch digest".into(),
            ));
        }
        for pos in (0..digests.len()).filter(|&i| digests[i] != majority) {
            xrd_obs::counter!("dispute.digest_dissent").incr();
            xrd_obs::info!(
                "round {round}: server {pos} dissented from the majority input digest (suspect)"
            );
            self.suspected.push(pos);
            // Tell the chain who dissented — suspicion, not conviction,
            // so the verdict is announced as not upheld.
            let claim = dispute_claim::EQUIVOCATION;
            self.pass(round, None)
                .party
                .announce(round, pos, claim, false, votes as u32);
        }
        let (digest, count) = majority;
        Ok(Agreement {
            round,
            digest,
            count: count as usize,
            holders: (0..digests.len())
                .filter(|&i| digests[i] == majority)
                .collect(),
        })
    }

    /// Drive the chain pass for the agreed batch and return the outcome
    /// (delivered messages still need mailbox delivery, which is
    /// deployment-level): [`ChainClient::mix_round_deferred`], the
    /// chain's own audit of its `k` proofs, then
    /// [`ChainClient::conclude_audited`].  A deployment driving several
    /// chains defers instead and folds *all* chains' proofs into a single
    /// multiscalar mul
    /// ([`verify_hops_batched_multi`](xrd_mixnet::verify_hops_batched_multi))
    /// before concluding each chain.
    pub fn mix_round(
        &mut self,
        round: u64,
        agreement: &Agreement,
    ) -> Result<ChainRoundOutcome, NetError> {
        match self.mix_round_deferred(round, agreement)? {
            MixPhase::Done(outcome) => Ok(outcome),
            MixPhase::AwaitingAudit(pending) => {
                let ok = verify_hops_batched(&self.public, round, &pending.records());
                self.conclude_audited(round, pending, ok)
            }
        }
    }

    /// The pass's mix phase ([`ChainPass::mix`]) over this chain's
    /// daemons: a final outcome (a server was convicted mid-mix) or a
    /// [`PendingChainRound`] holding the clean pass's attestations,
    /// which the caller audits — typically across every chain of the
    /// round at once — before [`ChainClient::conclude_audited`] reveals.
    /// `agreement` is what input agreement fixed.
    ///
    /// A pass that fails for a transport reason is run again on fresh
    /// connections, within the retry policy.
    pub fn mix_round_deferred(
        &mut self,
        round: u64,
        agreement: &Agreement,
    ) -> Result<MixPhase, NetError> {
        let mut input = Input::new(agreement);
        let mut attempt = 0;
        loop {
            let (column, active) = (agreement.digest.column, (0..agreement.count).collect());
            match self.pass(round, Some(&mut input)).mix(column, active) {
                Err(e) if e.retryable() && attempt + 1 < self.retry.attempts => {
                    attempt += 1;
                    xrd_obs::counter!("chain.mix_retries").incr();
                    xrd_obs::info!(
                        "round {round}: mix pass failed ({e}), reconnecting for attempt {}",
                        attempt + 1
                    );
                    self.retry.sleep(attempt);
                    // A fresh pass needs fresh connections: streamed
                    // sessions and in-flight responses on the old ones
                    // die with them.  A refused re-dial
                    // is a daemon mid-reincarnation under supervision —
                    // burn the remaining retry attempts waiting for it
                    // to come back instead of aborting the pass.
                    while let Err(e) = self.reconnect_all() {
                        attempt += 1;
                        if !e.retryable() || attempt + 1 >= self.retry.attempts {
                            return Err(e);
                        }
                        xrd_obs::info!(
                            "round {round}: re-dial failed ({e}), waiting for \
                             daemon restart (attempt {})",
                            attempt + 1
                        );
                        self.retry.sleep(attempt);
                    }
                }
                result => return result,
            }
        }
    }

    /// Conclude a clean pass after its attestations have been audited
    /// ([`ChainPass::conclude`]): on a failed audit this chain's hops
    /// are re-checked one by one and a refuted one is convicted through
    /// a dispute; then the inner keys are revealed and the envelopes
    /// opened.  `audit_ok` is the verdict of a batched verification
    /// that *included* this chain's records — this chain alone
    /// ([`ChainClient::mix_round`]) or every chain of the deployment
    /// round.  A failed combined audit only proves *some* statement in
    /// the batch was bad: a chain whose proofs all verify on their own
    /// proceeds to the reveal.
    pub fn conclude_audited(
        &mut self,
        round: u64,
        pending: PendingChainRound,
        audit_ok: bool,
    ) -> Result<ChainRoundOutcome, NetError> {
        self.pass(round, None).conclude(pending, audit_ok)
    }

    /// The chain pass for `round` with this chain's daemons as its
    /// party, mixing `input` (`None`: a pass asked no mix wave).
    fn pass<'s, 'b>(
        &'s mut self,
        round: u64,
        input: Option<&'s mut Input<'b>>,
    ) -> ChainPass<'s, Wire<'s, 'b>> {
        ChainPass {
            party: Wire {
                conns: &mut self.conns,
                retry: self.retry,
                input,
            },
            public: &self.public,
            round,
            excluded: &mut self.excluded,
        }
    }

    /// Prepare the inner-key rotation for `inner_epoch`: every server
    /// generates a fresh key and the assembled, verified bundle becomes
    /// this chain's pending bundle (what covers are sealed against).
    pub fn prepare_rotation(&mut self, inner_epoch: u64) -> Result<ChainPublicKeys, NetError> {
        let shares = self
            .ask_all(&Frame::PrepareRotation { inner_epoch }, self.retry)
            .into_iter()
            .enumerate()
            .map(|(pos, reply)| match reply? {
                Frame::RotationShare {
                    inner_epoch: e,
                    share,
                } if e == inner_epoch && share.position == pos => Ok(share),
                other => Err(NetError::Protocol(format!(
                    "bad rotation share from position {pos}: {other:?}"
                ))),
            })
            .collect::<Result<Vec<RotationShare>, _>>()?;
        let mut next = self.public.clone();
        if !apply_rotation_shares(&mut next, inner_epoch, &shares) {
            return Err(NetError::Protocol(
                "rotation shares failed verification".into(),
            ));
        }
        self.pending = Some(next.clone());
        Ok(next)
    }

    /// Activate the pending rotation on every server and switch the
    /// coordinator's active bundle.
    pub fn activate_rotation(&mut self) -> Result<(), NetError> {
        let next = self.pending.take().ok_or_else(|| {
            NetError::Protocol("activate_rotation without prepare_rotation".into())
        })?;
        let activate = Frame::ActivateRotation { keys: next.clone() };
        let replies = self.ask_all(&activate, self.retry);
        replies.into_iter().try_for_each(expect_ok)?;
        self.public = next;
        Ok(())
    }
}

/// A chain's daemons as the pass asks them: each wave one [`ask`] of
/// the daemons it concerns, except the mix wave, which is one pipelined
/// pass of the batch through the hops.
struct Wire<'a, 'b> {
    conns: &'a mut [Conn],
    retry: RetryPolicy,
    /// The batch a mix wave mixes.
    input: Option<&'a mut Input<'b>>,
}

impl ChainParty for Wire<'_, '_> {
    type Error = NetError;

    /// Hop 0 mixes its own window, less the users outside `active`, and
    /// names the column it consumed, `c_0` ([`Frame::MixWindow`]); to a
    /// hop 0 that holds no window for the round the coordinator streams
    /// the agreed batch instead.  It collects one reply per hop in chain
    /// order, each relayed on to hop `pos + 1` **byte for byte** as it
    /// arrives (the reply's stream is the next hop's request), so the
    /// next hop's crypto overlaps this hop's emission.  A
    /// [`Frame::HopFailure`] ends the wave, whichever hop sent it.
    fn mix(&mut self, round: u64, active: &[usize]) -> Result<MixWave, NetError> {
        let k = self.conns.len();
        let input = self.input.as_deref_mut().expect("a mix wave has a batch");
        // Open the pipeline: hop 0 mixes its window, or is streamed the
        // batch if it holds none.
        let mut c0 = None;
        if input.at_hop0 {
            let removed = (0..input.agreement.count)
                .filter(|i| active.binary_search(i).is_err())
                .map(|i| i as u64)
                .collect();
            self.conns[0].send_encoded(&Frame::MixWindow { round, removed }.encode())?;
            match self.conns[0].recv_window_column(round) {
                Err(NetError::Remote {
                    code: error_code::UNKNOWN_ROUND,
                    ..
                }) => input.at_hop0 = false,
                column => c0 = Some(column?),
            }
        }
        let c0 = match c0 {
            Some(c0) => c0,
            // The fallback: hop 0 dissented, or holds no window (it was
            // respawned since the close).  Its request stream is written
            // from the bytes the fetched submissions carry.
            None => {
                let batch = input.batch(self.conns, self.retry)?;
                let streamed: Vec<Submission> = active.iter().map(|&i| batch[i].clone()).collect();
                for bytes in ChunkedBatch::build(round, &streamed, STREAM_CHUNK).frames() {
                    self.conns[0].send_encoded(bytes)?;
                }
                DhColumn::with_encodings(
                    streamed.iter().map(Submission::dh).collect(),
                    streamed.iter().map(|s| *s.encoded_dh()).collect(),
                )
            }
        };
        let mut hops: Vec<HopAttestation> = Vec::with_capacity(k);
        let mut last = None;
        for pos in 0..k {
            // Hop spans overlap under the pipeline: hop `i+1`'s clock
            // starts while `i` is still emitting.  Each span measures
            // receipt of that hop's full reply.
            let _span = xrd_obs::span_timer(format!("coord.hop{pos}"), round);
            // Each reply goes on to the next hop before this one has
            // delivered a single chunk.
            let (upto, after) = self.conns.split_at_mut(pos + 1);
            let (reply, encoded) = upto[pos].recv_hop_output(round, c0.len(), after.first_mut())?;
            let hop = match reply {
                HopReply::Output {
                    position,
                    outputs,
                    proof,
                } if position as usize == pos => {
                    // What entered this hop: the column hop 0 named, or
                    // what the hop before it attested.
                    let entered = hops.last().map(|h| &h.output_dhs);
                    let input_dhs = entered.unwrap_or(&c0).clone();
                    let output_dhs = dh_column(last.insert(outputs), encoded);
                    HopAttestation {
                        round,
                        position: pos,
                        input_dhs,
                        output_dhs,
                        proof,
                    }
                }
                // A failure names the slots that failed.
                HopReply::Failure { position, failed }
                    if position as usize == pos && !failed.is_empty() =>
                {
                    let failed = failed.into_iter().map(|slot| slot as usize).collect();
                    return Ok((hops, Err(failed)));
                }
                _ => {
                    return Err(NetError::Protocol(format!(
                        "hop {pos} replied as another position or naming no slot"
                    )))
                }
            };
            hops.push(hop);
        }
        let outputs = last.expect("every hop answers with its output");
        Ok((hops, Ok(outputs)))
    }

    fn batch(&mut self, _round: u64) -> Result<Vec<Submission>, NetError> {
        let input = self.input.as_deref_mut().expect("blame follows a mix wave");
        Ok(input.batch(self.conns, self.retry)?.to_vec())
    }

    /// One [`Frame::VerifyHopKeys`] per verifier, its columns written as
    /// the bytes they carry; the frames go with the wave.
    fn verify(
        &mut self,
        round: u64,
        hops: &[HopAttestation],
        verifiers: &[bool],
    ) -> Result<Vec<Option<Vec<bool>>>, NetError> {
        let frame = |v| Frame::VerifyHopKeys {
            check: CrossCheck::of(round, hops, v),
        };
        let frames: Vec<Option<Vec<u8>>> = (verifiers.iter().enumerate())
            .map(|(v, &asked)| asked.then(|| frame(v).encode()))
            .collect();
        let verdicts = |reply: Result<Frame, NetError>| match reply? {
            Frame::VerifyResult { verdicts } if verdicts.len() + 1 == hops.len() => Ok(verdicts),
            other => Err(unexpected("a VerifyResult for every other hop", other)),
        };
        let replies = ask(self.conns, frames.iter().map(Option::as_deref), NO_RETRY);
        (replies.into_iter())
            .map(|reply| reply.map(verdicts).transpose())
            .collect()
    }

    /// Witness transport failures count as abstentions: a dispute never
    /// turns into a round failure.
    fn dispute(&mut self, hop: &HopAttestation, witnesses: &[bool]) -> Vec<Option<Evidence>> {
        let (round, accused) = (hop.round, hop.position);
        let open = Frame::DisputeOpen {
            attestation: hop.clone(),
        }
        .encode();
        let asked = witnesses.iter().map(|&asked| asked.then_some(&open[..]));
        let replies = ask(self.conns, asked, NO_RETRY).into_iter().enumerate();
        let evidence = |(witness, reply): (usize, Option<Result<Frame, NetError>>)| match reply? {
            Ok(Frame::DisputeEvidence {
                round: r,
                position,
                accused: a,
                upheld,
                sig,
            }) if (r, position as usize, a as usize) == (round, witness, accused) => {
                Some((upheld, sig))
            }
            Ok(_) => None,
            Err(e) => {
                xrd_obs::debug!("round {round}: witness {witness} abstained from dispute: {e}");
                None
            }
        };
        replies.map(evidence).collect()
    }

    fn announce(&mut self, round: u64, accused: usize, claim: u8, upheld: bool, votes: u32) {
        let verdict = Frame::DisputeVerdict {
            round,
            accused: accused as u32,
            claim,
            upheld,
            votes,
        }
        .encode();
        let told = (0..self.conns.len()).map(|pos| (pos != accused).then_some(&verdict[..]));
        ask(self.conns, told, NO_RETRY);
    }

    /// Refusing to accuse ([`Frame::Error`]) convicts the accuser.
    fn accuse(
        &mut self,
        round: u64,
        at: usize,
        slot: usize,
    ) -> Result<Option<Accusation>, NetError> {
        let accuse = Frame::Accuse {
            round,
            input_index: slot as u64,
        };
        match ask_one(self.conns, at, &accuse, NO_RETRY) {
            Ok(Frame::Accusation { accusation }) => Ok(Some(accusation)),
            Ok(other) => Err(unexpected("Accusation", other)),
            Err(NetError::Remote { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Refusing to reveal, in any form, convicts the server.
    fn reveal(
        &mut self,
        round: u64,
        at: usize,
        slot: usize,
    ) -> Result<Option<BlameReveal>, NetError> {
        let reveal = Frame::RevealSlot {
            round,
            output_index: slot as u64,
        };
        match ask_one(self.conns, at, &reveal, NO_RETRY) {
            Ok(Frame::SlotReveal { reveal }) => Ok(reveal.map(|r| *r)),
            Ok(_) | Err(NetError::Remote { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn reveal_inner_keys(&mut self, round: u64) -> Result<Vec<(usize, Scalar)>, NetError> {
        let _span = xrd_obs::span_timer("coord.reveal", round);
        let reveal = Frame::RevealInnerKey { round }.encode();
        let replies = ask(self.conns, repeat(Some(&reveal[..])), self.retry);
        let key = |reply: Result<Frame, NetError>| match reply? {
            Frame::InnerKeyReveal { position, isk } => Ok((position as usize, isk)),
            other => Err(unexpected("InnerKeyReveal", other)),
        };
        replies.into_iter().flatten().map(key).collect()
    }
}

/// Ask the daemon at `position` alone (see [`ask`]).
fn ask_one(
    conns: &mut [Conn],
    position: usize,
    frame: &Frame,
    retry: RetryPolicy,
) -> Result<Frame, NetError> {
    let wire = frame.encode();
    let mut reply = ask(&mut conns[position..=position], [Some(&wire[..])], retry);
    reply.pop().flatten().expect("one daemon asked")
}

/// A reply that is not the `expected` frame: a protocol violation.
fn unexpected(expected: &str, got: Frame) -> NetError {
    NetError::Protocol(format!("expected {expected}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::error_code;
    use crate::{DaemonHandle, MixServerDaemon};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};

    /// The coordinator's party over three honest daemons: in the one
    /// verification wave every verifier asked vouches for every other
    /// hop, and a daemon refuses a request out of shape or for a round
    /// it holds no hop of.
    #[test]
    fn honest_daemons_vouch_for_every_other_hop_in_one_wave() {
        let (k, round) = (3, 0);
        let mut rng = StdRng::seed_from_u64(43);
        let (mut secrets, mut public) = generate_chain_keys(&mut rng, k, 0);
        rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
        let daemons: Vec<DaemonHandle> = (secrets.into_iter())
            .map(|s| MixServerDaemon::spawn("127.0.0.1:0", s, public.clone(), rng.next_u64()))
            .collect::<Result<_, _>>()
            .expect("daemons spawn");
        let addrs: Vec<SocketAddr> = daemons.iter().map(DaemonHandle::addr).collect();
        let mut client = ChainClient::connect(&addrs, public.clone()).expect("connects");
        client.open_round(round).expect("window opens");
        let mut conns: Vec<Conn> = (addrs.iter())
            .map(|&addr| Conn::connect(addr).expect("connects"))
            .collect();
        for submission in crate::swarm::sealed_submissions(&mut rng, &public, round, 5) {
            let submit = Frame::Submit { round, submission }.encode();
            let replies = ask(&mut conns, repeat(Some(&submit[..])), NO_RETRY);
            replies
                .into_iter()
                .flatten()
                .try_for_each(expect_ok)
                .expect("accepted");
        }
        let agreement = client.close_and_agree(round).expect("agreement");
        let mut input = Input::new(&agreement);
        let mut pass = client.pass(round, Some(&mut input));
        let (hops, end) = pass.party.mix(round, &[0, 1, 2, 3, 4]).expect("mixes");
        assert!(end.is_ok(), "a clean pass");
        let verdicts = pass.party.verify(round, &hops, &[true, false, true]);
        let all_true = Some(vec![true; k - 1]);
        assert_eq!(verdicts.ok(), Some(vec![all_true.clone(), None, all_true]));

        let check = CrossCheck::of(round, &hops, 1);
        let mut holds = check.clone();
        holds.columns[1] = Some(hops[0].output_dhs.clone());
        let another_round = CrossCheck {
            round: round + 1,
            ..check
        };
        let mut refusal =
            |check| match ask_one(&mut conns, 1, &Frame::VerifyHopKeys { check }, NO_RETRY) {
                Err(NetError::Remote { code, .. }) => code,
                other => panic!("expected a refusal, got {other:?}"),
            };
        assert_eq!(refusal(holds), error_code::BAD_STATE);
        assert_eq!(refusal(another_round), error_code::UNKNOWN_ROUND);
    }
}
