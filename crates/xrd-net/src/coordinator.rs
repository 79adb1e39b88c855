//! The round coordinator for one networked mix chain.
//!
//! Drives the chain's `k` daemons through the round state machine over
//! the wire — the networked equivalent of
//! [`ChainRunner::run_round`](xrd_mixnet::ChainRunner::run_round):
//!
//! 1. **submission window** — open the window on every server, let
//!    clients submit (to *all* servers of the chain, per the paper's
//!    input-agreement step), close it, and check that every server
//!    fixed the same canonical batch (digest comparison, §6.3);
//! 2. **k hops** — each server mixes in turn and sends its output on,
//!    through the coordinator or straight to its successor
//!    ([`Transport`]); at end of chain every *other* server verifies
//!    each hop's aggregate attestation (cross-server proof verification
//!    over the wire);
//! 3. **blame** (§6.4, only on decryption failure) — fetch the
//!    accusation, trace reveals upstream server by server, convict the
//!    user or server, and restart the hops with convicted users
//!    removed;
//! 4. **reveal** — collect and verify every server's inner key, then
//!    open the inner envelopes.
//!
//! The coordinator holds no key material beyond the public bundle; in a
//! real deployment this role is played by the servers gossiping among
//! themselves, and any party can replay the coordinator's checks.
//!
//! # The mix pass
//!
//! Batches travel as *chunk streams* and the chain is a pipeline: hop
//! `i + 1` is decrypting while hop `i` is still emitting, whoever carries
//! the chunks between them, so the per-hop serial cost is the shuffle +
//! proof, not the whole transfer.  (A batch of one chunk is the
//! degenerate pipeline: nothing to overlap, nothing lost.)  The pass is
//! written once, with the successor as its parameter, and what it keeps
//! of a hop is what §6.3 proves: a statement over products of DH keys,
//! never ciphertexts — so the audit, the cross-server checks
//! ([`Frame::VerifyHopKeys`]) and a dispute all read key columns.
//! Nothing is revealed or delivered until every hop has verified: inner
//! keys stay sealed unless the whole chain checks out.
//!
//! Every other exchange goes through one fan-out, `ask`, so a chain's
//! daemons work side by side; only the §6.4 blame trace walks them one
//! by one, since each reveal it asks for depends on the last.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;
use xrd_mixnet::blame::{trace_blame, BlameVerdict};
use xrd_mixnet::chain_keys::{apply_rotation_shares, ChainPublicKeys, RotationShare};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::MixEntry;
use xrd_mixnet::server::{
    input_digest, open_revealed, verify_hops_batched, HopAttestation, HopRecord,
};
use xrd_mixnet::{resolve_blame, BlameResolution, ChainRoundOutcome};

use crate::codec::{dispute_claim, dispute_context, ChunkedBatch, Frame, STREAM_CHUNK};
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

/// Coordinator metric handles, resolved once per process.
fn coord_metrics() -> &'static CoordMetrics {
    static METRICS: std::sync::OnceLock<CoordMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CoordMetrics {
        disputes_opened: xrd_obs::counter("dispute.opened"),
        disputes_convicted: xrd_obs::counter("dispute.convicted"),
        digest_dissent: xrd_obs::counter("dispute.digest_dissent"),
        mix_retries: xrd_obs::counter("chain.mix_retries"),
        reconnects: xrd_obs::counter("chain.reconnects"),
    })
}

struct CoordMetrics {
    /// Disputes opened over rejected attestations.
    disputes_opened: &'static xrd_obs::Counter,
    /// Disputes that ended in a conviction (either party).
    disputes_convicted: &'static xrd_obs::Counter,
    /// Input-agreement digests that dissented from the majority.
    digest_dissent: &'static xrd_obs::Counter,
    /// Whole mix passes retried after a transport failure.
    mix_retries: &'static xrd_obs::Counter,
    /// Daemon connections re-dialed after a transport failure.
    reconnects: &'static xrd_obs::Counter,
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
            coord_metrics().reconnects.incr();
            let _ = conn.reconnect();
            reply = conn.send_encoded(wire).and_then(|()| conn.recv_reply());
        }
        Some(reply)
    });
    replies.collect()
}

/// Where a hop sends its output: the one parameter of the mix pass.
/// Either way the batch moves in [`STREAM_CHUNK`]-entry chunks and the
/// chain is audited, blamed and retried alike — §6.3 proves a statement
/// over DH-key columns, so who carried the ciphertexts is routing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// To the coordinator, which relays it to the next hop chunk by
    /// chunk as it arrives (the default).
    #[default]
    Streamed,
    /// To its successor daemon (configured at daemon spawn, typically
    /// from the deployment manifest), as the paper's servers do: the
    /// coordinator streams the batch to hop 0 only and receives one
    /// keys-only [`Frame::HopForwarded`] per intermediate hop plus the
    /// last hop's output — intermediate batches never cross its wire.
    /// A pass that fails is retried as [`Transport::Streamed`] on fresh
    /// connections.
    Forwarded,
}

/// The DH keys of a batch, in order: the only part of it §6.3 proves
/// anything about.
fn dh_column(entries: &[MixEntry]) -> Vec<GroupElement> {
    entries.iter().map(|e| e.dh).collect()
}

/// Coordinator-side handle for one chain: persistent connections to its
/// `k` mix daemons plus the active/pending key bundles.
pub struct ChainClient {
    conns: Vec<Conn>,
    public: ChainPublicKeys,
    pending: Option<ChainPublicKeys>,
    transport: Transport,
    retry: RetryPolicy,
    /// Positions convicted by the dispute/blame machinery since the
    /// last [`ChainClient::take_round_verdicts`].
    convicted: Vec<usize>,
    /// Positions whose input-agreement digest dissented from the
    /// majority since the last [`ChainClient::take_round_verdicts`] —
    /// suspects, not convictions (a dropped `Submit` frame produces
    /// the same divergence as byzantine equivocation).
    suspected: Vec<usize>,
    /// Verifiers convicted of a false verdict: their future rejections
    /// are ignored (the round continues without them).
    excluded: HashSet<usize>,
}

/// Outcome of one gossip dispute: the coordinator's own ground-truth
/// re-check plus the tally of signed witness evidence.
struct DisputeOutcome {
    /// The accused attestation really is invalid (local re-check).
    proof_invalid: bool,
    /// Witnesses whose signed evidence upheld the accusation.
    votes_upheld: u32,
    /// Witnesses that returned verifiable evidence at all.
    votes_cast: u32,
    /// Positions whose *signed* evidence upheld the accusation — a
    /// rejecting verifier is only convicted of a false verdict if it
    /// doubled down here, so a wire-corrupted `VerifyResult` (which an
    /// honest verifier recants under oath) never convicts anyone.
    upholders: Vec<usize>,
}

/// Result of the mixing/blame phases when the audit is deferred to the
/// caller ([`ChainClient::mix_round_deferred`]).
pub enum MixPhase {
    /// The chain's outcome is already final (abort or conviction
    /// mid-mix); no attestations to audit, nothing will be revealed.
    Done(ChainRoundOutcome),
    /// A clean pass: the hop attestations await the caller's audit
    /// verdict before [`ChainClient::conclude_audited`] reveals keys.
    AwaitingAudit(PendingChainRound),
}

/// A clean mixing pass whose attestations have not been audited yet:
/// everything [`ChainClient::conclude_audited`] needs to finish the
/// round once the caller has folded this chain's proofs into its
/// (possibly deployment-wide) batched verification.  It holds what the
/// proofs are about — key columns — and the final batch; no
/// intermediate ciphertext batch outlives its hop.
pub struct PendingChainRound {
    /// Hop `i`'s attestation at index `i`: each input column is the
    /// previous hop's output column.
    hops: Vec<HopAttestation>,
    /// The chain's final mixed batch.
    final_entries: Vec<MixEntry>,
    /// The round's ledger through the mix phase: users convicted by
    /// blame during earlier (retried) passes, verifiers convicted of
    /// lying, statistics.  Nothing delivered yet.
    outcome: ChainRoundOutcome,
}

impl PendingChainRound {
    /// Borrow the clean pass's attestations as [`HopRecord`]s, the form
    /// [`verify_hops_batched_multi`](xrd_mixnet::verify_hops_batched_multi) consumes.
    pub fn records(&self) -> Vec<HopRecord<'_>> {
        self.hops.iter().map(HopAttestation::record).collect()
    }
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
            transport: Transport::default(),
            retry,
            convicted: Vec::new(),
            suspected: Vec::new(),
            excluded: HashSet::new(),
        })
    }

    /// Drain the verdicts accumulated since the last call: positions
    /// convicted (dispute or blame) and positions suspected (digest
    /// dissent), in the order they fell — a position can repeat.  The
    /// round driver folds these into the round report.
    pub fn take_round_verdicts(&mut self) -> (Vec<usize>, Vec<usize>) {
        (
            std::mem::take(&mut self.convicted),
            std::mem::take(&mut self.suspected),
        )
    }

    /// Re-dial every daemon connection (same peers, same deadlines).
    /// The recovery move after a transport failure mid-pass: streamed
    /// sessions keyed by the old connections die with them and the
    /// pass restarts clean.
    fn reconnect_all(&mut self) -> Result<(), NetError> {
        for conn in &mut self.conns {
            coord_metrics().reconnects.incr();
            conn.reconnect()?;
        }
        Ok(())
    }

    /// Select where this chain's hops send their output (default
    /// [`Transport::Streamed`]: to the coordinator).
    pub fn set_transport(&mut self, transport: Transport) {
        self.transport = transport;
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
        let replies = ask(&mut self.conns, std::iter::repeat(Some(&wire[..])), retry);
        replies.into_iter().flatten().collect()
    }

    /// Close the window and run input agreement: every server reports
    /// its canonical-batch digest and the *majority* digest wins.  A
    /// dissenting server is recorded as suspected (equivocation and a
    /// dropped `Submit` frame are indistinguishable from here, so this
    /// never convicts) and announced to the chain as an un-upheld
    /// [`Frame::DisputeVerdict`].  Returns the agreed batch, fetched
    /// from a majority server and re-hashed locally.  Fails only when
    /// no strict majority exists.
    pub fn close_and_agree(&mut self, round: u64) -> Result<Vec<Submission>, NetError> {
        let digests = self
            .ask_all(&Frame::CloseSubmissions { round }, self.retry)
            .into_iter()
            .map(|reply| match reply? {
                Frame::BatchDigest {
                    round: r, digest, ..
                } if r == round => Ok(digest),
                other => Err(NetError::Protocol(format!(
                    "expected BatchDigest, got {other:?}"
                ))),
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
            coord_metrics().digest_dissent.incr();
            xrd_obs::info!(
                "round {round}: server {pos} dissented from the majority input digest (suspect)"
            );
            self.suspected.push(pos);
            // Tell the chain who dissented — suspicion, not conviction,
            // so the verdict is announced as not upheld.
            self.announce_verdict(round, pos, dispute_claim::EQUIVOCATION, false, votes as u32);
        }
        let source = digests
            .iter()
            .position(|d| *d == majority)
            .expect("majority digest came from some server");
        let get = Frame::GetBatch { round }.encode();
        let fetched = ask(
            &mut self.conns[source..=source],
            [Some(&get[..])],
            self.retry,
        );
        let batch = match fetched.into_iter().flatten().next().expect("asked")? {
            Frame::SubmissionBatch {
                round: r,
                submissions,
            } if r == round => submissions,
            other => {
                return Err(NetError::Protocol(format!(
                    "expected SubmissionBatch, got {other:?}"
                )))
            }
        };
        // Never trust one server's transcript blindly: re-derive the
        // digest locally and compare against the agreed one.
        let entries: Vec<MixEntry> = batch.iter().map(|s| s.to_entry()).collect();
        if input_digest(&entries) != majority {
            return Err(NetError::Protocol(format!(
                "server {source} returned a batch that does not match the agreed digest"
            )));
        }
        Ok(batch)
    }

    /// Drive the mixing/blame/reveal phases for an agreed batch and
    /// return the outcome (delivered messages still need mailbox
    /// delivery, which is deployment-level).  Ships batches per the
    /// configured [`Transport`].
    ///
    /// The coordinator's own end-of-chain audit runs here as one
    /// batched DLEQ verification over this chain's `k` proofs.  A
    /// deployment driving several chains should use
    /// [`ChainClient::mix_round_deferred`] instead and fold *all*
    /// chains' proofs into a single multiscalar mul
    /// ([`verify_hops_batched_multi`](xrd_mixnet::verify_hops_batched_multi)) before concluding each chain.
    pub fn mix_round(
        &mut self,
        round: u64,
        submissions: &[Submission],
    ) -> Result<ChainRoundOutcome, NetError> {
        match self.mix_round_deferred(round, submissions)? {
            MixPhase::Done(outcome) => Ok(outcome),
            MixPhase::AwaitingAudit(pending) => {
                let ok = verify_hops_batched(&self.public, round, &pending.records());
                self.conclude_audited(round, pending, ok)
            }
        }
    }

    /// The mixing/blame phases only: returns either a final outcome
    /// (the chain aborted or convicted someone mid-mix) or a
    /// [`PendingChainRound`] holding the clean pass's attestations.
    /// The caller audits those — typically across every chain of the
    /// round at once — and then calls
    /// [`ChainClient::conclude_audited`] to reveal and open.
    pub fn mix_round_deferred(
        &mut self,
        round: u64,
        submissions: &[Submission],
    ) -> Result<MixPhase, NetError> {
        let mut attempt = 0;
        let mut transport = self.transport;
        loop {
            let forwarded = transport == Transport::Forwarded;
            match self.mix_pass(round, submissions, transport) {
                // A forwarded pass that fails always downgrades: whatever
                // broke (a dead successor link, a column seam), every hop
                // answers the coordinator directly when it relays.
                Err(e) if (e.retryable() || forwarded) && attempt + 1 < self.retry.attempts => {
                    attempt += 1;
                    coord_metrics().mix_retries.incr();
                    transport = Transport::Streamed;
                    xrd_obs::info!(
                        "round {round}: mix pass failed ({e}), reconnecting for relayed attempt {}",
                        attempt + 1
                    );
                    self.retry.sleep(attempt);
                    // A fresh pass needs fresh connections: streamed
                    // sessions, forwarded marks and in-flight responses
                    // on the old ones die with them.  A refused re-dial
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
                other => return other,
            }
        }
    }

    /// One mix pass over the agreed batch (§6.3), blame included (§6.4).
    ///
    /// The coordinator streams the batch to hop 0 and collects one reply
    /// per hop in chain order.  `transport` decides only where hop `pos`
    /// sent its output: back here — and, relaying, on to hop `pos + 1`
    /// **byte for byte** as it arrives (the reply's stream is the next
    /// hop's request), so the next hop's crypto overlaps this hop's
    /// emission — or straight to its successor, in which case only its
    /// [`HopAttestation`] comes back.  Either reply yields the hop's
    /// attestation, checked against the *running* column (the keys the
    /// previous hop emitted), so a daemon that mixed another batch than
    /// its predecessor's fails the pass at its seam.
    ///
    /// A [`Frame::HopFailure`] is blamed in place, whichever hop sent it
    /// and whoever carried its batch — blame needs the submissions and
    /// the servers' reveals, never the intermediate batches — and the
    /// pass repeats without the convicted users.  A clean pass is
    /// cross-verified at end of chain (per hop it would re-serialize the
    /// pipeline) over key columns only, and returned for the caller's
    /// audit: nothing is revealed before that.
    fn mix_pass(
        &mut self,
        round: u64,
        submissions: &[Submission],
        transport: Transport,
    ) -> Result<MixPhase, NetError> {
        let k = self.conns.len();
        let forwarded = transport == Transport::Forwarded;
        let mut outcome = ChainRoundOutcome::default();
        let mut active: Vec<usize> = (0..submissions.len()).collect();

        // Mixing with blame-retry: repeat until a clean pass (§6.4).
        let (hops, final_entries) = 'retry: loop {
            let mut current: Vec<MixEntry> =
                active.iter().map(|&i| submissions[i].to_entry()).collect();
            if forwarded {
                // Mark the round on every hop; each daemon records this
                // very connection as the round's report channel.
                let marks = self.ask_all(&Frame::MixForward { round }, NO_RETRY);
                marks.into_iter().try_for_each(expect_ok)?;
            }
            // Open the pipeline: hop 0's request stream, encoded once.
            for bytes in ChunkedBatch::build(round, &current, STREAM_CHUNK).frames() {
                self.conns[0].send_encoded(bytes)?;
            }

            // The running column: the keys entering hop `pos`.
            let mut running = dh_column(&current);
            let mut hops: Vec<HopAttestation> = Vec::with_capacity(k);
            for pos in 0..k {
                // Hop spans overlap under the pipeline: hop `i+1`'s
                // clock starts while `i` is still emitting.  Each span
                // measures receipt of that hop's full reply.
                let _span = xrd_obs::span_timer(format!("coord.hop{pos}"), round);
                // The last hop always answers with its output; the
                // others do when relaying, and it goes on to the next
                // hop before this one has delivered a single chunk.
                let attests = forwarded && pos + 1 < k;
                let (upto, after) = self.conns.split_at_mut(pos + 1);
                let next = if forwarded { None } else { after.first_mut() };
                let hop = match upto[pos].recv_hop_reply(round, running.len(), next)? {
                    HopReply::Output {
                        position,
                        outputs,
                        proof,
                    } if position as usize == pos && !attests => {
                        current = outputs;
                        HopAttestation {
                            round,
                            position: pos,
                            input_dhs: running,
                            output_dhs: dh_column(&current),
                            proof,
                        }
                    }
                    HopReply::Attested(hop) if hop.position == pos && attests => {
                        // The coordinator did not carry this batch: the
                        // hop must have consumed what the one before it
                        // emitted (hop 0: what the chain agreed on).
                        if hop.input_dhs != running {
                            return Err(NetError::Protocol(format!(
                                "column seam mismatch entering hop {pos}"
                            )));
                        }
                        if hop.output_dhs.len() != running.len() {
                            return Err(NetError::Protocol(format!(
                                "hop {pos} attested mismatched column lengths"
                            )));
                        }
                        hop
                    }
                    HopReply::Failure { position, failed } if position as usize == pos => {
                        // A failure names the slots that failed; one
                        // that names none gives blame nothing to trace.
                        if failed.is_empty() {
                            return Err(NetError::Protocol(
                                "blame identified no party for a failed slot".into(),
                            ));
                        }
                        let active_subs: Vec<Submission> =
                            active.iter().map(|&i| submissions[i].clone()).collect();
                        let failed = failed.into_iter().map(|idx| idx as usize);
                        let blame = |idx| -> Result<BlameVerdict, NetError> {
                            let verdict =
                                self.run_blame_over_wire(round, pos, idx, &active_subs)?;
                            if let BlameVerdict::ServerMisbehaved { position } = verdict {
                                self.convicted.push(position);
                            }
                            Ok(verdict)
                        };
                        match resolve_blame(&mut outcome, &mut active, failed, blame)? {
                            // A malicious server: halt with nothing
                            // delivered (§6.4).
                            BlameResolution::Abort => return Ok(MixPhase::Done(outcome)),
                            BlameResolution::Retry => continue 'retry,
                        }
                    }
                    _ => {
                        return Err(NetError::Protocol(format!(
                            "hop {pos} replied as another position or in another mode"
                        )))
                    }
                };
                outcome.stats.proofs_generated += 1;
                running = hop.output_dhs.clone();
                hops.push(hop);
            }
            break (hops, current);
        };

        let _span = xrd_obs::span_timer("coord.verify_chain", round);
        if !self.cross_verify(&hops, &mut outcome)? {
            return Ok(MixPhase::Done(outcome));
        }
        Ok(MixPhase::AwaitingAudit(PendingChainRound {
            hops,
            final_entries,
            outcome,
        }))
    }

    /// End-of-chain cross-server verification, keys only: each hop's
    /// attestation is encoded once as a [`Frame::VerifyHopKeys`] and
    /// checked by the other `k-1` servers, in `k-1` waves of [`ask`] —
    /// in each, every verifier checks one hop, all side by side.
    ///
    /// Each rejected attestation becomes a dispute rather than an
    /// abort.  `Ok(false)`: the dispute convicted a *prover* (bad proof
    /// — recorded in `outcome.misbehaving_servers`; the chain must halt
    /// with nothing delivered).  `Ok(true)`: every attestation stands — any
    /// verifier that rejected a valid one and upheld the rejection
    /// under oath is convicted and excluded, and the round continues
    /// without it.
    fn cross_verify(
        &mut self,
        hops: &[HopAttestation],
        outcome: &mut ChainRoundOutcome,
    ) -> Result<bool, NetError> {
        let wires: Vec<Vec<u8>> = hops
            .iter()
            .cloned()
            .map(|attestation| Frame::VerifyHopKeys { attestation }.encode())
            .collect();
        let mut rejections: Vec<(usize, usize)> = Vec::new(); // (prover, verifier)
        for wave in 1..hops.len() {
            // The hop `verifier` checks in this wave; verifiers already
            // convicted of lying are out.
            let proving = |verifier: usize| {
                let mut others = (0..hops.len()).filter(move |&p| p != verifier);
                others
                    .nth(wave - 1)
                    .filter(|_| !self.excluded.contains(&verifier))
            };
            let requests = (0..hops.len()).map(|v| proving(v).map(|p| &wires[p][..]));
            let replies = ask(&mut self.conns, requests, NO_RETRY);
            for (verifier, reply) in replies.into_iter().enumerate() {
                let (Some(prover), Some(reply)) = (proving(verifier), reply) else {
                    continue;
                };
                outcome.stats.proofs_verified += 1;
                match reply? {
                    Frame::VerifyResult { ok: true } => {}
                    Frame::VerifyResult { ok: false } => rejections.push((prover, verifier)),
                    other => {
                        return Err(NetError::Protocol(format!(
                            "expected VerifyResult, got {other:?}"
                        )))
                    }
                }
            }
        }
        let mut disputed_provers: Vec<usize> = rejections.iter().map(|&(p, _)| p).collect();
        disputed_provers.sort_unstable();
        disputed_provers.dedup();
        for prover in disputed_provers {
            let round = hops[prover].round;
            let dispute = self.run_dispute(&hops[prover]);
            if dispute.proof_invalid {
                self.announce_verdict(
                    round,
                    prover,
                    dispute_claim::BAD_PROOF,
                    true,
                    dispute.votes_upheld,
                );
                self.convicted.push(prover);
                outcome.misbehaving_servers.push(prover);
                return Ok(false);
            }
            // The proof holds: a rejecting verifier that *signed* an
            // upholding affidavit committed perjury — convict and
            // exclude it; one that recanted under oath is forgiven (its
            // rejection is attributed to transport).  Either way the
            // hop stands.
            for &(_, verifier) in rejections.iter().filter(|&&(p, _)| p == prover) {
                if !dispute.upholders.contains(&verifier) {
                    xrd_obs::info!(
                        "round {round}: verifier {verifier} rejected hop {prover} \
                         but did not uphold under oath; no conviction"
                    );
                    continue;
                }
                if !self.excluded.insert(verifier) {
                    continue; // already convicted against another hop
                }
                xrd_obs::info!(
                    "round {round}: verifier {verifier} rejected a valid attestation \
                     for hop {prover}; convicted and excluded"
                );
                self.announce_verdict(
                    round,
                    verifier,
                    dispute_claim::FALSE_VERDICT,
                    true,
                    dispute.votes_cast - dispute.votes_upheld,
                );
                self.convicted.push(verifier);
                outcome.misbehaving_servers.push(verifier);
            }
        }
        Ok(true)
    }

    /// Conclude a clean mixing pass after its attestations have been
    /// audited: on a failed audit, re-verify this chain's hops
    /// individually to pin (or clear) an offender; then reveal the
    /// inner keys and open the envelopes.
    ///
    /// `audit_ok` is the verdict of a batched verification that
    /// *included* this chain's records — either this chain alone
    /// ([`ChainClient::mix_round`]) or every chain of the deployment
    /// round folded into one multiscalar mul
    /// ([`verify_hops_batched_multi`](xrd_mixnet::verify_hops_batched_multi)).  A failed combined audit only
    /// proves *some* statement in the batch was bad, so each chain
    /// re-checks its own hops; a chain whose proofs all verify
    /// individually proceeds to the reveal (the offender is in another
    /// chain).
    pub fn conclude_audited(
        &mut self,
        round: u64,
        pending: PendingChainRound,
        audit_ok: bool,
    ) -> Result<ChainRoundOutcome, NetError> {
        let k = self.conns.len();
        let PendingChainRound {
            hops,
            final_entries,
            mut outcome,
        } = pending;

        // The audit (batched, possibly deployment-wide) covered this
        // chain's k statements: count them here, once, whatever the
        // verdict — the per-hop re-checks below localize rather than
        // re-audit.
        outcome.stats.proofs_verified += hops.len();
        let mut refuted = false;
        if !audit_ok {
            for hop in &hops {
                if hop.verify(&self.public) {
                    continue;
                }
                // A locally-refuted attestation is put through the
                // dispute protocol so the conviction rests on gossiped,
                // signed evidence rather than this coordinator's word.
                let pos = hop.position;
                let dispute = self.run_dispute(hop);
                self.announce_verdict(
                    round,
                    pos,
                    dispute_claim::BAD_PROOF,
                    true,
                    dispute.votes_upheld,
                );
                self.convicted.push(pos);
                outcome.misbehaving_servers.push(pos);
                refuted = true;
            }
        }
        // Only a *prover* conviction from the failed audit blocks the
        // reveal; verifiers convicted of lying earlier in the pass are
        // already excluded and must not cost the honest users their
        // round.
        if refuted {
            return Ok(outcome);
        }
        // On a failed combined audit with every hop of *this* chain
        // verifying individually, the offender is in another chain:
        // proceed to the reveal.

        // Inner-key reveal + verification, then open the envelopes.
        let _span = xrd_obs::span_timer("coord.reveal", round);
        let mut inner_keys: Vec<Scalar> = Vec::with_capacity(k);
        let reveals = self.ask_all(&Frame::RevealInnerKey { round }, self.retry);
        for (pos, reply) in reveals.into_iter().enumerate() {
            match reply? {
                Frame::InnerKeyReveal { position, isk } if position as usize == pos => {
                    inner_keys.push(isk);
                }
                // Answering as another position is as good as a key
                // that does not verify.
                Frame::InnerKeyReveal { .. } => break,
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected InnerKeyReveal, got {other:?}"
                    )))
                }
            }
        }
        let opened = match inner_keys.len() {
            mislabelled if mislabelled < k => Err(mislabelled),
            _ => open_revealed(&self.public, round, &inner_keys, &final_entries),
        };
        match opened {
            Ok(delivered) => outcome.delivered = delivered,
            Err(liar) => {
                outcome.misbehaving_servers.push(liar);
                self.convicted.push(liar);
            }
        }
        Ok(outcome)
    }

    /// Run the gossip dispute protocol over one rejected hop
    /// attestation: broadcast [`Frame::DisputeOpen`] to every server
    /// except the accused, collect their signed
    /// [`Frame::DisputeEvidence`], verify each signature against the
    /// witness's mix public key, and tally.  The coordinator's own
    /// re-check of the statement is the ground truth for the verdict;
    /// the gossiped evidence makes the conviction transferable (any
    /// party can replay the signatures) and is what the chaos harness
    /// asserts on.  Witness transport failures count as abstentions —
    /// a dispute never turns into a round failure.
    fn run_dispute(&mut self, hop: &HopAttestation) -> DisputeOutcome {
        let (round, accused) = (hop.round, hop.position);
        coord_metrics().disputes_opened.incr();
        xrd_obs::info!("round {round}: dispute opened against server {accused}");
        let proof_invalid = !hop.verify(&self.public);
        let open = Frame::DisputeOpen {
            attestation: hop.clone(),
        }
        .encode();
        let witnesses = (0..self.conns.len())
            .map(|w| (w != accused && !self.excluded.contains(&w)).then_some(&open[..]));
        let replies = ask(&mut self.conns, witnesses, NO_RETRY);
        let mut votes_upheld = 0;
        let mut votes_cast = 0;
        let mut upholders: Vec<usize> = Vec::new();
        for (witness, reply) in replies.into_iter().enumerate() {
            let Some(reply) = reply else { continue };
            let evidence = match reply {
                Ok(Frame::DisputeEvidence {
                    round: r,
                    position,
                    accused: a,
                    upheld,
                    sig,
                }) if r == round && position as usize == witness && a as usize == accused => {
                    Some((upheld, sig))
                }
                Ok(_) => None,
                Err(e) => {
                    xrd_obs::debug!("round {round}: witness {witness} abstained from dispute: {e}");
                    None
                }
            };
            if let Some((upheld, sig)) = evidence {
                let ctx = dispute_context(hop, upheld);
                // `mpk_i = bpk_i^msk`: verify over the witness's
                // chained blinding base, not the group generator.
                let mpk = &self.public.mpks[witness];
                if sig.verify(&ctx, &self.public.bpks[witness], mpk) {
                    votes_cast += 1;
                    if upheld {
                        votes_upheld += 1;
                        upholders.push(witness);
                    }
                } else {
                    xrd_obs::debug!(
                        "round {round}: witness {witness} returned an unverifiable \
                         dispute signature; ignoring"
                    );
                }
            }
        }
        DisputeOutcome {
            proof_invalid,
            votes_upheld,
            votes_cast,
            upholders,
        }
    }

    /// Broadcast a [`Frame::DisputeVerdict`] to every server except the
    /// accused.  Best-effort: a server that cannot be told does not
    /// change the verdict.
    fn announce_verdict(
        &mut self,
        round: u64,
        accused: usize,
        claim: u8,
        upheld: bool,
        votes: u32,
    ) {
        if upheld {
            coord_metrics().disputes_convicted.incr();
            xrd_obs::info!(
                "round {round}: server {accused} convicted (claim {claim}, {votes} votes)"
            );
        }
        let verdict = Frame::DisputeVerdict {
            round,
            accused: accused as u32,
            claim,
            upheld,
            votes,
        }
        .encode();
        let told = (0..self.conns.len()).map(|pos| (pos != accused).then_some(&verdict[..]));
        ask(&mut self.conns, told, NO_RETRY);
    }

    /// The §6.4 trace, with each reveal fetched over the wire.
    fn run_blame_over_wire(
        &mut self,
        round: u64,
        accuser_position: usize,
        input_index: usize,
        active_subs: &[Submission],
    ) -> Result<BlameVerdict, NetError> {
        let accusation = match self.conns[accuser_position].request(&Frame::Accuse {
            round,
            input_index: input_index as u64,
        }) {
            Ok(Frame::Accusation { accusation }) => accusation,
            Ok(other) => {
                return Err(NetError::Protocol(format!(
                    "expected Accusation, got {other:?}"
                )))
            }
            Err(NetError::Remote { .. }) => {
                // Refusing to accuse convicts the accuser.
                return Ok(BlameVerdict::ServerMisbehaved {
                    position: accuser_position,
                });
            }
            Err(e) => return Err(e),
        };
        if accusation.position != accuser_position {
            return Ok(BlameVerdict::ServerMisbehaved {
                position: accuser_position,
            });
        }

        // trace_blame's fetcher cannot return wire errors, so capture
        // them on the side and rethrow after.
        let mut wire_error: Option<NetError> = None;
        let conns = &mut self.conns;
        let verdict = trace_blame(
            &self.public,
            active_subs,
            round,
            &accusation,
            |position, output_index| {
                if wire_error.is_some() {
                    return None;
                }
                match conns[position].request(&Frame::RevealSlot {
                    round,
                    output_index: output_index as u64,
                }) {
                    Ok(Frame::SlotReveal { reveal }) => reveal.map(|r| *r),
                    Ok(_) | Err(NetError::Remote { .. }) => None, // convicts the server
                    Err(e) => {
                        wire_error = Some(e);
                        None
                    }
                }
            },
        );
        match wire_error {
            Some(e) => Err(e),
            None => Ok(verdict),
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
