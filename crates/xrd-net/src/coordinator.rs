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
//! 2. **k hops** — each server mixes in turn, its output relayed to
//!    the next as it is emitted; at end of chain every *other* server
//!    verifies each hop's aggregate attestation (cross-server proof
//!    verification over the wire);
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
//! # The hop pipeline
//!
//! Batches travel as *chunk streams* ([`Transport`]): the coordinator
//! cuts the hop-0 batch into `MixBatchChunk`s, and as each hop's output
//! chunks come back it forwards them to the next hop **verbatim** (a
//! one-byte tag rewrite, no re-encode) before the producing hop has
//! finished emitting — the chain is a pipeline whose per-hop serial
//! cost is the shuffle + proof, not the whole transfer.  (A batch of
//! one chunk is the degenerate pipeline: nothing to overlap, nothing
//! lost.)  Cross-server attestation checks run at the end of the chain
//! (per hop they would re-serialize the pipeline) and ship only the
//! DH-key columns ([`Frame::VerifyHopKeys`]) — the §6.3 statement is
//! over products of DH keys, never ciphertexts.  Nothing is revealed or
//! delivered until every hop has verified: inner keys stay sealed
//! unless the whole chain checks out.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

use xrd_crypto::nizk::DleqProof;
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;
use xrd_mixnet::blame::{trace_blame, BlameVerdict};
use xrd_mixnet::chain_keys::{apply_rotation_shares, ChainPublicKeys, RotationShare};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::MixEntry;
use xrd_mixnet::server::{
    input_digest, open_revealed, verify_hop, verify_hop_keys, verify_hops_batched, HopRecord,
};
use xrd_mixnet::{resolve_blame, BlameResolution, ChainRoundOutcome};

use crate::codec::{dispute_claim, dispute_context, ChunkedBatch, Frame, STREAM_CHUNK};
use crate::conn::{Conn, ConnTimeouts, HopReply, NetError};

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

/// One request/response exchange with bounded retry: on a retryable
/// failure the connection is re-dialed and the request repeated.
/// Only safe for idempotent requests (every coordinator-side exchange
/// is: window control, digest queries, reveals, rotation shares — and
/// the mailbox exchanges, which are idempotent by construction:
/// batch-deduped delivery, non-destructive paging, watermark acks).
pub(crate) fn request_retry(
    conn: &mut Conn,
    frame: &Frame,
    retry: RetryPolicy,
) -> Result<Frame, NetError> {
    let mut attempt = 0;
    loop {
        match conn.request(frame) {
            Err(e) if e.retryable() && attempt + 1 < retry.attempts => {
                xrd_obs::debug!(
                    "retrying {} to {} after: {e}",
                    Frame::tag_name(frame.tag()).unwrap_or("?"),
                    conn.peer()
                );
                attempt += 1;
                retry.sleep(attempt);
                coord_metrics().reconnects.incr();
                let _ = conn.reconnect();
            }
            other => return other,
        }
    }
}

/// How the coordinator ships batches hop to hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Relay: every hop's output streams back to the coordinator, which
    /// forwards it to the next hop chunk by chunk (the default, at
    /// [`STREAM_CHUNK`] entries per chunk; clamped to ≥ 1).
    Streamed {
        /// Entries per [`Frame::MixBatchChunk`].
        chunk: usize,
    },
    /// Daemon-to-daemon forwarding: the coordinator streams the batch
    /// to hop 0 only, and each hop pushes its output straight to its
    /// successor (configured at daemon spawn, typically from the
    /// deployment manifest).  The coordinator receives one keys-only
    /// [`Frame::HopForwarded`] attestation per intermediate hop and
    /// the final hop's full output stream — intermediate batches never
    /// cross the coordinator's wire at all.  Requires daemons spawned
    /// with successors; a failed pass falls back to
    /// [`Transport::Streamed`] on retry.
    Forwarded {
        /// Entries per [`Frame::MixBatchChunk`] on the hop-0 leg.
        chunk: usize,
    },
}

impl Default for Transport {
    fn default() -> Transport {
        Transport::Streamed {
            chunk: STREAM_CHUNK,
        }
    }
}

/// One hop's attested statement as DH-key columns: the keys of its
/// inputs in arrival order, of its outputs in emission order, and the
/// aggregate proof binding them (§6.3 never involves ciphertexts).
type HopColumns = (Vec<GroupElement>, Vec<GroupElement>, DleqProof);

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
/// (possibly deployment-wide) batched verification.
pub struct PendingChainRound {
    /// Per-hop `(position, inputs, outputs, proof)` of the clean pass.
    hop_audit: Vec<(usize, Vec<MixEntry>, Vec<MixEntry>, DleqProof)>,
    /// The chain's final mixed batch.
    final_entries: Vec<MixEntry>,
    /// The round's ledger through the mix phase: users convicted by
    /// blame during earlier (retried) passes, verifiers convicted of
    /// lying, statistics.  Nothing delivered yet.
    outcome: ChainRoundOutcome,
}

impl PendingChainRound {
    /// Borrow the clean pass's attestations as [`HopRecord`]s, the
    /// form [`verify_hops_batched_multi`](xrd_mixnet::verify_hops_batched_multi) consumes.
    pub fn records(&self) -> Vec<HopRecord<'_>> {
        self.hop_audit
            .iter()
            .map(|(pos, inputs, outputs, proof)| HopRecord {
                position: *pos,
                inputs,
                outputs,
                proof: *proof,
            })
            .collect()
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

    /// Select how this chain ships batches hop to hop (default
    /// [`Transport::default`]: relayed, [`STREAM_CHUNK`]-entry chunks).
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

    /// The prepared next-round bundle, if any.
    pub fn pending_public(&self) -> Option<&ChainPublicKeys> {
        self.pending.as_ref()
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
        let retry = self.retry;
        for conn in &mut self.conns {
            match request_retry(conn, &Frame::OpenRound { round }, retry)? {
                Frame::Ok => {}
                other => {
                    return Err(NetError::Protocol(format!("expected Ok, got {other:?}")));
                }
            }
        }
        Ok(())
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
        let retry = self.retry;
        let mut digests = Vec::with_capacity(self.conns.len());
        for conn in &mut self.conns {
            match request_retry(conn, &Frame::CloseSubmissions { round }, retry)? {
                Frame::BatchDigest {
                    round: r, digest, ..
                } if r == round => digests.push(digest),
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected BatchDigest, got {other:?}"
                    )))
                }
            }
        }
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
        let dissenters: Vec<usize> = (0..digests.len())
            .filter(|&i| digests[i] != majority)
            .collect();
        for &pos in &dissenters {
            coord_metrics().digest_dissent.incr();
            xrd_obs::info!(
                "round {round}: server {pos} dissented from the majority input digest (suspect)"
            );
            self.suspected.push(pos);
        }
        if !dissenters.is_empty() {
            // Tell the chain who dissented — suspicion, not conviction,
            // so the verdict is announced as not upheld.
            for &pos in &dissenters {
                self.announce_verdict(round, pos, dispute_claim::EQUIVOCATION, false, votes as u32);
            }
        }
        let source = digests
            .iter()
            .position(|d| *d == majority)
            .expect("majority digest came from some server");
        let batch = match request_retry(&mut self.conns[source], &Frame::GetBatch { round }, retry)?
        {
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
            let forwarded = matches!(transport, Transport::Forwarded { .. });
            let result = match transport {
                Transport::Streamed { chunk } => self.mix_round_streamed(round, submissions, chunk),
                Transport::Forwarded { chunk } => {
                    self.mix_round_forwarded(round, submissions, chunk)
                }
            };
            match result {
                // Forwarded-mode failures always downgrade: whatever
                // broke (a dead successor link, a decrypt failure the
                // blame machinery must localize), the relayed pipeline
                // can handle it — per-hop errors reach the coordinator
                // directly there instead of cascading through daemons.
                Err(e) if (e.retryable() || forwarded) && attempt + 1 < self.retry.attempts => {
                    attempt += 1;
                    coord_metrics().mix_retries.incr();
                    if forwarded {
                        transport = Transport::default();
                        xrd_obs::info!(
                            "round {round}: forwarded mix pass failed ({e}), \
                             falling back to relayed streaming for attempt {}",
                            attempt + 1
                        );
                    } else {
                        xrd_obs::info!(
                            "round {round}: mix pass failed on transport ({e}), \
                             reconnecting for attempt {}",
                            attempt + 1
                        );
                    }
                    self.retry.sleep(attempt);
                    // A fresh pass needs fresh connections: streamed
                    // sessions and in-flight responses on the old ones
                    // are unsalvageable.  A refused re-dial is a
                    // daemon mid-reincarnation under supervision —
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

    /// [`ChainClient::mix_round`] as a chunked pipeline: hop `i+1`
    /// receives (and starts decrypting) hop `i`'s output chunks while
    /// hop `i` is still emitting later ones.  Output chunks are
    /// forwarded *verbatim* (one-byte tag rewrite) — the relay decodes
    /// each chunk once for its own audit but never re-encodes it.
    /// Cross-server verification runs at end of chain over DH-key
    /// columns only ([`Frame::VerifyHopKeys`]); the reveal still
    /// happens only after every check passes.
    fn mix_round_streamed(
        &mut self,
        round: u64,
        submissions: &[Submission],
        chunk: usize,
    ) -> Result<MixPhase, NetError> {
        let k = self.conns.len();
        let mut outcome = ChainRoundOutcome::default();
        let mut active: Vec<usize> = (0..submissions.len()).collect();
        let mut hop_audit: Vec<(usize, Vec<MixEntry>, Vec<MixEntry>, DleqProof)> = Vec::new();

        // Mixing with blame-retry: repeat until a clean pass (§6.4).
        let final_entries: Vec<MixEntry> = 'retry: loop {
            hop_audit.clear();
            let entries: Vec<MixEntry> =
                active.iter().map(|&i| submissions[i].to_entry()).collect();

            // Open the pipeline: hop 0's request stream, encoded once.
            let stream = ChunkedBatch::build(round, &entries, chunk);
            for bytes in stream.frames() {
                self.conns[0].send_encoded(bytes)?;
            }

            // `current` is the batch entering the hop being received.
            let mut current = entries;
            for pos in 0..k {
                // Hop spans overlap under the pipeline: hop `i+1`'s
                // clock starts while `i` is still emitting.  Each span
                // measures receipt of that hop's full output.
                let _span = xrd_obs::span_timer(format!("coord.hop{pos}"), round);
                // The next hop's stream opens before this one has
                // delivered a single chunk: the pipeline.
                let (upto, after) = self.conns.split_at_mut(pos + 1);
                match upto[pos].recv_hop_reply(round, current.len(), after.first_mut())? {
                    HopReply::Output {
                        position,
                        outputs,
                        proof,
                    } if position as usize == pos => {
                        outcome.stats.proofs_generated += 1;
                        let inputs = std::mem::replace(&mut current, outputs);
                        hop_audit.push((pos, inputs, current.clone(), proof));
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
                            "hop {pos} replied as another position"
                        )))
                    }
                }
            }
            break current;
        };

        let _span = xrd_obs::span_timer("coord.verify_chain", round);
        let columns = |pos: usize| -> HopColumns {
            let (_, inputs, outputs, proof) = &hop_audit[pos];
            let dhs = |entries: &[MixEntry]| entries.iter().map(|e| e.dh).collect();
            (dhs(inputs), dhs(outputs), *proof)
        };
        if !self.cross_verify(round, columns, &mut outcome)? {
            return Ok(MixPhase::Done(outcome));
        }

        Ok(MixPhase::AwaitingAudit(PendingChainRound {
            hop_audit,
            final_entries,
            outcome,
        }))
    }

    /// End-of-chain cross-server verification, keys only: hop `i`'s
    /// attestation (`columns(i)`, materialized one hop at a time) is
    /// encoded once as a [`Frame::VerifyHopKeys`] and broadcast to the
    /// other `k-1` servers, all requests pipelined before any verdict
    /// is collected (responses are one byte and cannot clog).
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
        round: u64,
        columns: impl Fn(usize) -> HopColumns,
        outcome: &mut ChainRoundOutcome,
    ) -> Result<bool, NetError> {
        let mut expected: Vec<(usize, usize)> = Vec::new(); // (verifier, prover)
        for prover in 0..self.conns.len() {
            let (input_dhs, output_dhs, proof) = columns(prover);
            let wire = Frame::VerifyHopKeys {
                round,
                position: prover as u32,
                input_dhs,
                output_dhs,
                proof,
            }
            .encode();
            for (verifier, conn) in self.conns.iter_mut().enumerate() {
                // Verifiers already convicted of lying are out.
                if verifier != prover && !self.excluded.contains(&verifier) {
                    conn.send_encoded(&wire)?;
                    expected.push((verifier, prover));
                }
            }
        }
        let mut rejections: Vec<(usize, usize)> = Vec::new(); // (prover, verifier)
        for (verifier, prover) in expected {
            outcome.stats.proofs_verified += 1;
            match self.conns[verifier].recv()? {
                Frame::VerifyResult { ok: true } => {}
                Frame::VerifyResult { ok: false } => rejections.push((prover, verifier)),
                Frame::Error { code, message } => return Err(NetError::Remote { code, message }),
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected VerifyResult, got {other:?}"
                    )))
                }
            }
        }
        let mut disputed_provers: Vec<usize> = rejections.iter().map(|&(p, _)| p).collect();
        disputed_provers.sort_unstable();
        disputed_provers.dedup();
        for prover in disputed_provers {
            let (input_dhs, output_dhs, proof) = columns(prover);
            let dispute = self.run_dispute(round, prover, &input_dhs, &output_dhs, &proof);
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

    /// [`ChainClient::mix_round`] with daemon-to-daemon forwarding:
    /// the coordinator streams the agreed batch to hop 0 once, each
    /// hop pushes its output straight to its successor, and only
    /// keys-only [`Frame::HopForwarded`] attestations plus the final
    /// mixed batch come back — intermediate ciphertext batches never
    /// cross the coordinator's wire.
    ///
    /// The chain is audited from DH-key columns alone: the §6.3
    /// statement a hop proves involves only its input/output key
    /// columns against the bundle's blinding bases, never the
    /// ciphertexts, so the attested columns — stitched end to end by
    /// continuity checks against the agreed batch and the final
    /// stream — carry exactly the information every verification
    /// needs.  The coordinator checks each hop locally, broadcasts the
    /// columns for cross-server verification, and reveals inner keys
    /// only after every check passes, the same bar as the relayed
    /// paths.
    ///
    /// Blame needs full batches, so any failure here (a dead
    /// successor link, a decrypt failure cascading up as an error, a
    /// column seam mismatch) surfaces as an error for
    /// [`ChainClient::mix_round_deferred`] to retry over relayed
    /// streaming, where per-hop machinery has everything it needs.
    fn mix_round_forwarded(
        &mut self,
        round: u64,
        submissions: &[Submission],
        chunk: usize,
    ) -> Result<MixPhase, NetError> {
        let k = self.conns.len();
        let mut outcome = ChainRoundOutcome::default();
        let entries: Vec<MixEntry> = submissions.iter().map(|s| s.to_entry()).collect();

        // Mark the round forwarded on every hop; each daemon records
        // this very connection as the round's report channel.
        for conn in &mut self.conns {
            match conn.request(&Frame::MixForward { round })? {
                Frame::Ok => {}
                Frame::Error { code, message } => return Err(NetError::Remote { code, message }),
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected Ok for MixForward, got {other:?}"
                    )))
                }
            }
        }

        // Stream the agreed batch to hop 0 — the only batch transfer
        // the coordinator performs in this mode.
        let stream = ChunkedBatch::build(round, &entries, chunk);
        for bytes in stream.frames() {
            self.conns[0].send_encoded(bytes)?;
        }

        // Collect attestations.  Hops `0..k-1` each deliver one
        // `HopForwarded` on their own connection — hop 0's doubles as
        // the ack that the entire downstream cascade landed, since
        // every hop's forward blocks on its successor's ack.
        let mut columns: Vec<HopColumns> = Vec::with_capacity(k);
        for pos in 0..k.saturating_sub(1) {
            let _span = xrd_obs::span_timer(format!("coord.hop{pos}"), round);
            match self.conns[pos].recv()? {
                Frame::HopForwarded {
                    round: r,
                    position,
                    input_dhs,
                    output_dhs,
                    proof,
                } if r == round && position as usize == pos => {
                    if input_dhs.len() != output_dhs.len() {
                        return Err(NetError::Protocol(format!(
                            "hop {pos} attested mismatched column lengths"
                        )));
                    }
                    outcome.stats.proofs_generated += 1;
                    columns.push((input_dhs, output_dhs, proof));
                }
                Frame::Error { code, message } => return Err(NetError::Remote { code, message }),
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected HopForwarded from hop {pos}, got {other:?}"
                    )))
                }
            }
        }

        // The last hop pushes its full output stream; its End frame
        // carries the chain-final attestation.
        let last = k - 1;
        let (final_entries, last_proof) = {
            let _span = xrd_obs::span_timer(format!("coord.hop{last}"), round);
            match self.conns[last].recv_hop_reply(round, entries.len(), None)? {
                HopReply::Output {
                    position,
                    outputs,
                    proof,
                } if position as usize == last => (outputs, proof),
                HopReply::Output { position, .. } => {
                    return Err(NetError::Protocol(format!(
                        "hop {last} replied as position {position}"
                    )))
                }
                // Blame needs full batches: leave it to the relayed retry.
                HopReply::Failure { .. } => {
                    return Err(NetError::Protocol(format!(
                        "hop {last} halted on a decrypt failure"
                    )))
                }
            }
        };
        outcome.stats.proofs_generated += 1;

        // Stitch the columns end to end: hop 0 must have consumed the
        // agreed batch, and every seam must match — a mismatch means
        // some daemon mixed a batch other than the one its predecessor
        // emitted, which column auditing cannot localize; fail the
        // pass and let the relayed retry sort it out.
        let input_col: Vec<GroupElement> = entries.iter().map(|e| e.dh).collect();
        let final_col: Vec<GroupElement> = final_entries.iter().map(|e| e.dh).collect();
        let last_inputs = columns
            .last()
            .map(|(_, outputs, _)| outputs.clone())
            .unwrap_or_else(|| input_col.clone());
        columns.push((last_inputs, final_col, last_proof));
        if columns[0].0 != input_col {
            return Err(NetError::Protocol(
                "hop 0 attested a different batch than the chain agreed on".into(),
            ));
        }
        for pos in 1..k {
            if columns[pos].0 != columns[pos - 1].1 {
                return Err(NetError::Protocol(format!(
                    "column seam mismatch between hops {} and {pos}",
                    pos - 1
                )));
            }
        }

        // The coordinator's own audit, per hop over the key columns.
        // A refuted attestation goes through the dispute protocol so
        // the conviction rests on gossiped, signed evidence.
        let _span = xrd_obs::span_timer("coord.verify_chain", round);
        for (pos, column) in columns.iter().enumerate().take(k) {
            let (input_dhs, output_dhs, proof) = column.clone();
            outcome.stats.proofs_verified += 1;
            if !verify_hop_keys(
                &self.public,
                pos,
                round,
                input_dhs.iter(),
                output_dhs.iter(),
                &proof,
            ) {
                let dispute = self.run_dispute(round, pos, &input_dhs, &output_dhs, &proof);
                self.announce_verdict(
                    round,
                    pos,
                    dispute_claim::BAD_PROOF,
                    true,
                    dispute.votes_upheld,
                );
                self.convicted.push(pos);
                outcome.misbehaving_servers.push(pos);
                return Ok(MixPhase::Done(outcome));
            }
        }

        // Cross-server verification over the same columns.
        let column = |pos: usize| columns[pos].clone();
        if !self.cross_verify(round, column, &mut outcome)? {
            return Ok(MixPhase::Done(outcome));
        }

        // Audited locally and cross-server: go straight to the reveal
        // (the empty audit record makes `conclude_audited` skip the
        // re-check and reveal immediately).
        let pending = PendingChainRound {
            hop_audit: Vec::new(),
            final_entries,
            outcome,
        };
        self.conclude_audited(round, pending, true)
            .map(MixPhase::Done)
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
        mut pending: PendingChainRound,
        audit_ok: bool,
    ) -> Result<ChainRoundOutcome, NetError> {
        let k = self.conns.len();

        // The audit (batched, possibly deployment-wide) covered this
        // chain's k statements: count them here, once, whatever the
        // verdict — the per-hop re-checks below localize rather than
        // re-audit (matching the pre-deferred accounting).
        pending.outcome.stats.proofs_verified += pending.hop_audit.len();
        let mut audit_convicted: Vec<usize> = Vec::new();
        if !audit_ok {
            for r in &pending.records() {
                if !verify_hop(
                    &self.public,
                    r.position,
                    round,
                    r.inputs,
                    r.outputs,
                    &r.proof,
                ) {
                    audit_convicted.push(r.position);
                }
            }
            // Each locally-refuted attestation is put through the
            // dispute protocol so the conviction rests on gossiped,
            // signed evidence rather than this coordinator's word.
            for &pos in &audit_convicted {
                let (_, inputs, outputs, proof) = &pending.hop_audit[pos];
                let input_dhs: Vec<GroupElement> = inputs.iter().map(|e| e.dh).collect();
                let output_dhs: Vec<GroupElement> = outputs.iter().map(|e| e.dh).collect();
                let proof = *proof;
                let dispute = self.run_dispute(round, pos, &input_dhs, &output_dhs, &proof);
                self.announce_verdict(
                    round,
                    pos,
                    dispute_claim::BAD_PROOF,
                    true,
                    dispute.votes_upheld,
                );
                self.convicted.push(pos);
            }
        }
        let PendingChainRound {
            hop_audit: _,
            final_entries,
            mut outcome,
        } = pending;
        // Only a *prover* conviction from the failed audit blocks the
        // reveal; verifiers convicted of lying earlier in the pass are
        // already excluded and must not cost the honest users their
        // round.
        if !audit_convicted.is_empty() {
            outcome.misbehaving_servers.extend(audit_convicted);
            return Ok(outcome);
        }
        // On a failed combined audit with every hop of *this* chain
        // verifying individually, the offender is in another chain:
        // proceed to the reveal.

        // Inner-key reveal + verification, then open the envelopes.
        let _span = xrd_obs::span_timer("coord.reveal", round);
        let retry = self.retry;
        let mut inner_keys: Vec<Scalar> = Vec::with_capacity(k);
        let mut mislabelled: Option<usize> = None;
        for pos in 0..k {
            match request_retry(
                &mut self.conns[pos],
                &Frame::RevealInnerKey { round },
                retry,
            )? {
                Frame::InnerKeyReveal { position, isk } if position as usize == pos => {
                    inner_keys.push(isk);
                }
                // Answering as another position is as good as a key
                // that does not verify.
                Frame::InnerKeyReveal { .. } => {
                    mislabelled = Some(pos);
                    break;
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected InnerKeyReveal, got {other:?}"
                    )))
                }
            }
        }
        let opened = mislabelled.map_or_else(
            || open_revealed(&self.public, round, &inner_keys, &final_entries),
            Err,
        );
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
    fn run_dispute(
        &mut self,
        round: u64,
        accused: usize,
        input_dhs: &[GroupElement],
        output_dhs: &[GroupElement],
        proof: &DleqProof,
    ) -> DisputeOutcome {
        coord_metrics().disputes_opened.incr();
        xrd_obs::info!("round {round}: dispute opened against server {accused}");
        let proof_invalid = !verify_hop_keys(
            &self.public,
            accused,
            round,
            input_dhs.iter(),
            output_dhs.iter(),
            proof,
        );
        let open = Frame::DisputeOpen {
            round,
            accused: accused as u32,
            input_dhs: input_dhs.to_vec(),
            output_dhs: output_dhs.to_vec(),
            proof: *proof,
        };
        let mut votes_upheld = 0;
        let mut votes_cast = 0;
        let mut upholders: Vec<usize> = Vec::new();
        for witness in 0..self.conns.len() {
            if witness == accused || self.excluded.contains(&witness) {
                continue;
            }
            let evidence = match self.conns[witness].request(&open) {
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
                let ctx =
                    dispute_context(round, accused as u32, upheld, input_dhs, output_dhs, proof);
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
        };
        for (pos, conn) in self.conns.iter_mut().enumerate() {
            if pos != accused {
                let _ = conn.request_ok(&verdict);
            }
        }
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
        let retry = self.retry;
        let mut shares: Vec<RotationShare> = Vec::with_capacity(self.conns.len());
        for (pos, conn) in self.conns.iter_mut().enumerate() {
            match request_retry(conn, &Frame::PrepareRotation { inner_epoch }, retry)? {
                Frame::RotationShare {
                    inner_epoch: e,
                    share,
                } if e == inner_epoch && share.position == pos => shares.push(share),
                other => {
                    return Err(NetError::Protocol(format!(
                        "bad rotation share from position {pos}: {other:?}"
                    )))
                }
            }
        }
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
        let retry = self.retry;
        let next = self.pending.take().ok_or_else(|| {
            NetError::Protocol("activate_rotation without prepare_rotation".into())
        })?;
        for conn in &mut self.conns {
            match request_retry(conn, &Frame::ActivateRotation { keys: next.clone() }, retry)? {
                Frame::Ok => {}
                other => {
                    return Err(NetError::Protocol(format!("expected Ok, got {other:?}")));
                }
            }
        }
        self.public = next;
        Ok(())
    }
}
