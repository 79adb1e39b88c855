//! The XRD server daemons: long-lived TCP services speaking the wire
//! protocol of [`crate::codec`].
//!
//! * [`MixServerDaemon`] — one hop position of one mix chain: accepts
//!   user submissions during the round window (their proofs of
//!   knowledge checked a reactor tick at a time, in one batched
//!   verification per tick), fixes the canonical batch, runs AHS hops,
//!   verifies other servers' hop attestations, answers blame requests,
//!   reveals inner keys and rotates them.
//! * [`MailboxDaemon`] — one mailbox shard: accepts (idempotent,
//!   batch-deduped) deliveries from the mix layer and serves clients
//!   paginated, ack-driven fetches over a pluggable
//!   [`MailboxStore`] — in-memory or log-structured persistent.
//!
//! Both make data durable by one rule: a handler appends and holds its
//! `Ok` ([`Outcome::ReplyAfterCommit`]); the service's
//! [`Service::commit`], run once per reactor loop iteration, is the
//! only place that syncs, so one sync covers every ack, delivery and
//! control record the iteration served.  A failed commit latches the
//! reactor (see [`crate::reactor`]): the daemon refuses everything
//! after it until it is restarted and replays its disk.
//!
//! Both daemons are event-driven: all connections of a daemon are
//! served by **one** reactor thread (see [`crate::reactor`]) running a
//! readiness loop over nonblocking sockets — no async runtime, no
//! per-connection threads, no external crates.  One daemon holds
//! thousands of concurrent submitter connections at a constant thread
//! count.
//!
//! Batch-boundary crypto never runs on the reactor thread: hops
//! (`MixBatchStart/Chunk/End` sessions), `VerifyHopKeys` attestation
//! checks and dispute re-checks are **deferred** to the reactor's
//! small fixed-size worker pool (the connection's pending response
//! slot holds its place), so the event loop keeps accepting and
//! verifying submissions while a hop's crypto is in flight.  A hop's
//! chunks are dispatched to the pool *as they arrive* — its compute
//! overlaps the remainder of its own transfer.  The hop answers with a
//! `HopProof` followed by its output in the batch format it was sent
//! in, so the reply's stream is, byte for byte, the next hop's request;
//! a hop forwarding to its successor sends that same stream there and
//! reports to the coordinator instead — its attestation, or a
//! `HopFailure` for the coordinator to blame, wherever in the chain the
//! hop stands.  A [`DaemonHandle`] owns the reactor thread and shuts the
//! daemon down when asked (or on drop).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::mailbox::{
    shard_of, LogMailboxStore, LogStoreConfig, MailboxError, MailboxHub, MailboxStore,
};
use xrd_core::RecordLog;
use xrd_crypto::nizk::{DleqProof, SchnorrProof};
use xrd_crypto::ristretto::GroupElement;
use xrd_mixnet::chain_keys::{rotation_share, ChainPublicKeys, ServerSecrets};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::{outer_ct_len, MailboxMessage, MixEntry};
use xrd_mixnet::server::{input_digest, ChunkKernel, HopAttestation, MixError, MixServer};

use crate::codec::{
    decode_server_config, dispute_context, encode_hop_output_stream, encode_server_config,
    error_code, Frame, FrameDecoder, StreamDigest, StreamError, STREAM_CHUNK,
};
use crate::conn::{Conn, NetError};
use crate::reactor::{ConnId, Outcome, Reactor, ReactorHandle, Service, WorkerPool};

// ---------------------------------------------------------------------
// Generic daemon plumbing
// ---------------------------------------------------------------------

/// A running daemon: its bound address plus shutdown control.  The
/// daemon itself is one reactor thread serving every connection.
pub struct DaemonHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address (useful with `port 0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the daemon stops of its own accord (a peer sent
    /// [`Frame::Shutdown`]).
    pub fn wait(&mut self) {
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }

    /// Stop the reactor (closing every open connection) and join it.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // The reactor re-checks the flag at its next wakeup; a
            // throwaway connect makes that wakeup immediate.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `service` on `addr` from one reactor thread.  The service maps
/// each request frame to a response; [`Frame::Shutdown`] (handled
/// by the reactor itself) additionally stops the whole daemon.
pub(crate) fn spawn_daemon<A: ToSocketAddrs>(
    addr: A,
    service: Arc<dyn Service>,
) -> std::io::Result<DaemonHandle> {
    let reactor = Reactor::bind(addr, service)?;
    let addr = reactor.local_addr();
    let stop = reactor.stop_flag();
    let reactor_thread = std::thread::spawn(move || reactor.run());
    Ok(DaemonHandle {
        addr,
        stop,
        reactor_thread: Some(reactor_thread),
    })
}

/// Hop-job metric handles, resolved once per process (the jobs run as
/// move closures on the worker pool, so they cannot borrow handles
/// from the service).
fn hop_job_metrics() -> &'static HopJobMetrics {
    static METRICS: std::sync::OnceLock<HopJobMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| HopJobMetrics {
        wait_chunks_us: xrd_obs::hist("hop.wait_chunks_us"),
        encode_us: xrd_obs::hist("hop.encode_us"),
    })
}

struct HopJobMetrics {
    /// How long a streamed hop's End job waited for the session's chunk
    /// jobs to land (tail of the decrypt/blind phase still in flight
    /// when the End frame arrived).
    wait_chunks_us: &'static xrd_obs::Histogram,
    /// Output-encoding latency per completed hop.
    encode_us: &'static xrd_obs::Histogram,
}

pub(crate) fn err(code: u16, message: impl Into<String>) -> Frame {
    let mut message = message.into();
    // Error detail is advisory; keep it far below the codec's byte-string
    // cap no matter what (e.g. a Debug-printed jumbo frame).
    if message.len() > 512 {
        let cut = (0..=512).rev().find(|&i| message.is_char_boundary(i));
        message.truncate(cut.unwrap_or(0));
        message.push('…');
    }
    Frame::Error { code, message }
}

// ---------------------------------------------------------------------
// Mix-server daemon
// ---------------------------------------------------------------------

/// Submission-window abuse limits for one mix daemon.
///
/// Submissions are anonymous by design, so "per user" can only mean
/// "per connection" at this layer: one client pumping one connection
/// cannot fill the window past `max_per_conn`, and the window as a
/// whole is capped at `max_pending` regardless of connection count —
/// a flooding client costs bounded daemon memory and cannot starve
/// the round.  Violations are rejected with
/// [`error_code::QUOTA_EXCEEDED`] and counted under
/// `submit.rejected.quota`.
#[derive(Clone, Copy, Debug)]
pub struct SubmissionPolicy {
    /// Submissions accepted from one connection per window.
    pub max_per_conn: u32,
    /// Total submissions held for the open window.
    pub max_pending: usize,
}

impl Default for SubmissionPolicy {
    fn default() -> SubmissionPolicy {
        SubmissionPolicy {
            // A load driver may fan many users' submissions through
            // one connection, so the per-connection cap is generous;
            // the window cap is the codec's batch bound.
            max_per_conn: 4096,
            max_pending: crate::codec::MAX_BATCH,
        }
    }
}

/// Mix-daemon metric handles, resolved once per process.
fn mix_metrics() -> &'static MixMetrics {
    static METRICS: std::sync::OnceLock<MixMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| MixMetrics {
        rejected_quota: xrd_obs::counter("submit.rejected.quota"),
        screen_batch: xrd_obs::hist("submit.screen_batch"),
        screen_us: xrd_obs::hist("submit.screen_us"),
        screen_fallbacks: xrd_obs::counter("submit.screen_fallbacks"),
        evidence_served: xrd_obs::counter("dispute.evidence.served"),
        verdicts_heard: xrd_obs::counter("dispute.verdicts.heard"),
    })
}

struct MixMetrics {
    /// Submissions rejected by [`SubmissionPolicy`].
    rejected_quota: &'static xrd_obs::Counter,
    /// Submissions per screening — how many proofs of knowledge shared
    /// one batched check (sums to the submissions received).
    screen_batch: &'static xrd_obs::Histogram,
    /// Latency of one screening, µs.
    screen_us: &'static xrd_obs::Histogram,
    /// Screenings whose batch rejected and fell back to per-proof
    /// checks to name the offenders (0 on an honest window).
    screen_fallbacks: &'static xrd_obs::Counter,
    /// [`Frame::DisputeOpen`]s answered with signed evidence.
    evidence_served: &'static xrd_obs::Counter,
    /// [`Frame::DisputeVerdict`]s received and recorded.
    verdicts_heard: &'static xrd_obs::Counter,
}

/// Mutable state of one mix-server daemon.
struct MixState {
    /// Long-term secrets (bsk/msk survive rotations; isk is per-round).
    secrets: ServerSecrets,
    /// The server executing hops under the *active* key bundle.
    server: MixServer,
    /// Prepared-but-inactive inner key: `(inner_epoch, isk)`.
    pending_isk: Option<(u64, xrd_crypto::Scalar)>,
    /// Round currently accepting submissions.
    open_round: Option<u64>,
    /// Round of the last window this daemon opened — its open window
    /// or its newest closed batch; after a respawn, the journal's last
    /// `JREC_OPEN_ROUND`.  The only round whose inner key it reveals.
    last_opened: Option<u64>,
    /// Submissions admitted to the open round (arrival order).
    pending_subs: Vec<Submission>,
    /// Submissions of the open round that passed the inline checks but
    /// whose proof of knowledge is not yet checked, with the connection
    /// each `Ok` is held on.  [`MixState::screen`] empties it once per
    /// reactor tick, and before anything that reads or resets the
    /// window.
    unscreened: Vec<(ConnId, Submission)>,
    /// Verdicts of screened-out submissions, for the tick's commit to
    /// put in place of their held `Ok`.
    rejections: Vec<(ConnId, Frame)>,
    /// Canonical (sorted) batches per closed round.
    batches: HashMap<u64, Vec<Submission>>,
    /// In-flight streamed hop sessions, one per connection.
    streams: HashMap<ConnId, HopStreamSession>,
    /// Submission-window abuse limits.
    policy: SubmissionPolicy,
    /// Submissions accepted per connection for the open window.
    submitted: HashMap<ConnId, u32>,
    /// Rounds the coordinator marked for daemon-to-daemon forwarding
    /// ([`Frame::MixForward`]), mapped to the *report* connection —
    /// the coordinator's own connection, where this hop's
    /// [`Frame::HopForwarded`] attestation (or, for the last hop, the
    /// full output stream) is pushed.
    forward_reports: HashMap<u64, ConnId>,
    /// Daemon-local randomness (shuffles, proofs).
    rng: StdRng,
    /// Durable control state (rotation epoch + shares, open window):
    /// what a respawned process must recover to rejoin its chain with
    /// the keys its peers expect.  `None` = this daemon is disposable
    /// only in the "whole deployment restarts" sense.  Handlers append;
    /// [`Service::commit`] makes the tick's records durable.
    journal: Option<RecordLog>,
    /// Records appended since the last commit.
    unsynced: bool,
    /// A rotation activated since the last commit, which therefore
    /// compacts the journal to [`MixState::snapshot`] instead of
    /// syncing it.
    activated: bool,
}

/// The journal file's magic.
const JOURNAL_MAGIC: &[u8; 8] = b"XRDJRNL1";

// The journal's record kinds: one byte of kind followed by the
// payload; unknown kinds are skipped on restore (forward compatibility
// for rolling restarts).
/// `[kind][round:u64]` — a submission window opened.
const JREC_OPEN_ROUND: u8 = 1;
/// `[kind][inner_epoch:u64][isk:32]` — a rotation share was prepared
/// (and promised to the coordinator) for this epoch.
const JREC_PREPARE: u8 = 2;
/// `[kind][server config]` — a rotation activated; the payload is the
/// full [`encode_server_config`] bundle (secrets + active public keys),
/// replacing launch-time state wholesale on restore.
const JREC_ACTIVATE: u8 = 3;

fn open_round_record(round: u64) -> Vec<u8> {
    [&[JREC_OPEN_ROUND][..], &round.to_le_bytes()].concat()
}

fn prepare_record(inner_epoch: u64, isk: &xrd_crypto::Scalar) -> Vec<u8> {
    [
        &[JREC_PREPARE][..],
        &inner_epoch.to_le_bytes(),
        &isk.to_bytes(),
    ]
    .concat()
}

/// State-journal metric handles, resolved once per process.
fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: std::sync::OnceLock<JournalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| JournalMetrics {
        appends: xrd_obs::counter("daemon.journal.appends"),
        rewrites: xrd_obs::counter("daemon.journal.rewrites"),
        recovered: xrd_obs::counter("daemon.journal.records_recovered"),
        torn_tails: xrd_obs::counter("daemon.journal.torn_tails"),
    })
}

struct JournalMetrics {
    /// Records appended (made durable by the tick's commit).
    appends: &'static xrd_obs::Counter,
    /// Whole-journal compactions, one per committed activation.
    rewrites: &'static xrd_obs::Counter,
    /// Intact records replayed on open.
    recovered: &'static xrd_obs::Counter,
    /// Torn tails (or torn headers) cut off on open.
    torn_tails: &'static xrd_obs::Counter,
}

/// Open (or create) the journal at `path`: the log, plus the records
/// it recovered in append order.
fn open_journal(path: impl Into<std::path::PathBuf>) -> std::io::Result<(RecordLog, Vec<Vec<u8>>)> {
    let (log, replay) = RecordLog::open(path, JOURNAL_MAGIC)?;
    let records: Vec<Vec<u8>> = replay.records().map(|(_, rec)| rec.to_vec()).collect();
    if replay.torn {
        journal_metrics().torn_tails.incr();
    }
    journal_metrics().recovered.add(records.len() as u64);
    Ok((log, records))
}

fn storage_err(e: std::io::Error) -> Frame {
    err(error_code::STORAGE, format!("state journal: {e}"))
}

/// One connection's in-flight streamed hop.  The session itself holds
/// only bookkeeping — every chunk's entries are *moved* into its
/// worker job (no copy on the reactor thread) and handed back through
/// the [`ChunkWork`] latch alongside the computed slots.
struct HopStreamSession {
    /// Entries the Start frame declared.
    total: usize,
    /// Entries received across chunks so far (overrun enforcement).
    received: usize,
    kernel: ChunkKernel,
    work: Arc<ChunkWork>,
    /// Chunk jobs dispatched so far (what the End job's latch waits
    /// for).
    jobs: usize,
}

/// Results of a session's chunk jobs: `(entry offset, entries, slots)`
/// pieces plus a completion latch.  The End job is enqueued on the
/// pool's FIFO *after* every chunk job of its session, so by the time
/// it runs, each of them has at least started — `wait_collect` can
/// only block on jobs already running on other workers, never on
/// queued ones (no deadlock at any pool size).
#[derive(Default)]
struct ChunkWork {
    #[allow(clippy::type_complexity)] // (offset, entries, slots) triples
    done: Mutex<Vec<(usize, Vec<MixEntry>, Vec<Option<MixEntry>>)>>,
    cv: Condvar,
}

impl ChunkWork {
    fn push(&self, start: usize, entries: Vec<MixEntry>, slots: Vec<Option<MixEntry>>) {
        self.done
            .lock()
            .expect("chunk work poisoned")
            .push((start, entries, slots));
        self.cv.notify_all();
    }

    /// Block until `jobs` pieces have landed, then reassemble the
    /// batch and its per-entry slots into stream order.
    fn wait_collect(&self, jobs: usize) -> (Vec<MixEntry>, Vec<Option<MixEntry>>) {
        let mut done = self.done.lock().expect("chunk work poisoned");
        while done.len() < jobs {
            done = self.cv.wait(done).expect("chunk work poisoned");
        }
        let mut pieces = std::mem::take(&mut *done);
        drop(done);
        pieces.sort_by_key(|(start, _, _)| *start);
        let mut inputs = Vec::new();
        let mut slots = Vec::new();
        for (_, entries, chunk_slots) in pieces {
            inputs.extend(entries);
            slots.extend(chunk_slots);
        }
        (inputs, slots)
    }
}

/// Forwarding metric handles, resolved once per process.
fn forward_metrics() -> &'static ForwardMetrics {
    static METRICS: std::sync::OnceLock<ForwardMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ForwardMetrics {
        batches: xrd_obs::counter("forward.batches"),
        failures: xrd_obs::counter("forward.failures"),
    })
}

struct ForwardMetrics {
    /// Output batches streamed straight to the next hop.
    batches: &'static xrd_obs::Counter,
    /// Forward attempts that failed (the coordinator falls back to
    /// relayed streaming).
    failures: &'static xrd_obs::Counter,
}

/// Everything a forwarded hop's End job needs to route its output
/// onward and its report back.
struct ForwardCtx {
    /// Connection the batch arrived on — the coordinator for hop 0,
    /// the predecessor daemon otherwise.  The job's reply goes here,
    /// and the predecessor's own forward blocks on it, so acks (and
    /// forwarding failures) cascade back up the chain.
    inbound: ConnId,
    /// The coordinator's connection (where [`Frame::MixForward`]
    /// arrived); the hop's report — attestation, output or
    /// [`Frame::HopFailure`] — is pushed onto it.
    report: ConnId,
    /// Next hop of the chain (`None` on the last hop).
    successor: Option<SocketAddr>,
    /// Cached blocking link to the successor.
    link: Arc<Mutex<Option<Conn>>>,
    /// Push handle onto this daemon's own reactor.
    handle: Option<ReactorHandle>,
}

/// Stream `outputs` to the successor as a normal
/// `MixBatchStart/Chunk/End` round and await its single ack frame.  The
/// cached link is checked *before* anything is sent: one the successor
/// hung up (or wrote to unasked) while it idled between rounds is
/// replaced by a fresh dial.  Once the batch has gone out it is never
/// sent again — a successor that read it may be mixing it — so any
/// failure after that goes upstream, and the coordinator's relayed
/// retry heals the round.
fn forward_batch(
    link: &Mutex<Option<Conn>>,
    successor: SocketAddr,
    round: u64,
    outputs: &[MixEntry],
) -> Result<(), NetError> {
    let mut guard = link.lock().expect("forward link poisoned");
    let mut conn = match guard.take() {
        Some(conn) if conn.is_at_rest() => conn,
        _ => Conn::connect(successor)?,
    };
    conn.send_batch(round, outputs, STREAM_CHUNK)?;
    match conn.recv()? {
        Frame::Ok => {
            *guard = Some(conn);
            Ok(())
        }
        Frame::Error { code, message } => Err(NetError::Remote { code, message }),
        other => Err(NetError::Protocol(format!(
            "expected Ok from next hop, got {other:?}"
        ))),
    }
}

impl ForwardCtx {
    /// Hand the coordinator this hop's `report` and return the bytes to
    /// answer on the inbound connection.  On hop 0 the coordinator is
    /// awaiting this very reply, so the report *is* the reply (a
    /// `HopForwarded` there doubles as the signal that the whole
    /// downstream cascade acked).  Deeper, it is pushed onto the report
    /// connection and the predecessor is answered `Ok`: the
    /// predecessor's forward landed, whatever this hop made of it.
    fn report(&self, report: Vec<u8>) -> Vec<u8> {
        if self.report == self.inbound {
            return report;
        }
        let Some(handle) = &self.handle else {
            forward_metrics().failures.incr();
            return err(
                error_code::BAD_STATE,
                "no reactor handle for forwarded report",
            )
            .encode();
        };
        handle.push(self.report, report);
        Frame::Ok.encode()
    }
}

/// Route one forwarded hop's completed output.  Non-last hops stream
/// it straight to the successor and report a keys-only
/// [`Frame::HopForwarded`] attestation (the §6.3 statement involves
/// only DH key columns, so the coordinator audits the chain without
/// ever seeing the intermediate ciphertexts); the last hop reports its
/// whole reply — [`Frame::HopProof`] and the output stream.  Returns
/// the bytes to reply on the inbound connection.
fn forward_hop_output(
    fwd: &ForwardCtx,
    round: u64,
    position: usize,
    input_dhs: Vec<GroupElement>,
    outputs: &[MixEntry],
    proof: DleqProof,
) -> Vec<u8> {
    let Some(successor) = fwd.successor else {
        forward_metrics().batches.incr();
        let reply = encode_hop_output_stream(round, position as u32, outputs, &proof, STREAM_CHUNK);
        return fwd.report(reply);
    };
    if let Err(e) = forward_batch(&fwd.link, successor, round, outputs) {
        forward_metrics().failures.incr();
        return err(
            error_code::BAD_STATE,
            format!("forward to next hop {successor} failed: {e}"),
        )
        .encode();
    }
    forward_metrics().batches.incr();
    let attestation = HopAttestation {
        round,
        position,
        input_dhs,
        output_dhs: outputs.iter().map(|e| e.dh).collect(),
        proof,
    };
    fwd.report(Frame::HopForwarded { attestation }.encode())
}

impl MixState {
    fn public(&self) -> &ChainPublicKeys {
        self.server.public()
    }

    /// Append one control record before the state change it describes
    /// is made; the tick's commit makes it durable before the reply
    /// leaves.  A failed append is final for the log, so the commit
    /// fails too and the reactor refuses everything after it.
    fn append_record(&mut self, record: &[u8]) -> std::io::Result<()> {
        let Some(log) = &mut self.journal else {
            return Ok(());
        };
        self.unsynced = true;
        log.append(&[record])?;
        journal_metrics().appends.incr();
        Ok(())
    }

    /// The journal compacted to this state: the active bundle, then the
    /// prepared share and the open window if there are any — what
    /// [`MixServerDaemon::restore`] folds back into exactly this state.
    fn snapshot(&self) -> Vec<Vec<u8>> {
        let config = encode_server_config(&self.secrets, self.public());
        let mut records = vec![[&[JREC_ACTIVATE][..], &config].concat()];
        records.extend(
            self.pending_isk
                .map(|(epoch, isk)| prepare_record(epoch, &isk)),
        );
        records.extend(self.open_round.map(open_round_record));
        records
    }

    /// `Submit`: the cheap checks — window, quotas, onion size — then
    /// queue the submission for the tick's screening.  Returns the
    /// refusal if a check failed; `None` means the submission is queued
    /// and its `Ok` is to be held for the commit, which may still turn
    /// it into a rejection — the proof of knowledge is not checked
    /// here.  Queued submissions count against the window cap as if
    /// admitted, so the cap is never overshot (a connection has at most
    /// one queued — its pending slot is taken — so its own quota needs
    /// no such allowance).
    fn queue_submission(
        &mut self,
        conn: ConnId,
        round: u64,
        submission: Submission,
    ) -> Option<Frame> {
        if self.open_round != Some(round) {
            return Some(err(error_code::UNKNOWN_ROUND, "no submission window open"));
        }
        if self.pending_subs.len() + self.unscreened.len() >= self.policy.max_pending {
            mix_metrics().rejected_quota.incr();
            return Some(err(error_code::QUOTA_EXCEEDED, "submission window full"));
        }
        if self.submitted.get(&conn).copied().unwrap_or(0) >= self.policy.max_per_conn {
            mix_metrics().rejected_quota.incr();
            return Some(err(
                error_code::QUOTA_EXCEEDED,
                "per-connection quota exhausted",
            ));
        }
        if submission.ct.len() != outer_ct_len(self.public().len()) {
            return Some(err(error_code::REJECTED_SUBMISSION, "wrong onion size"));
        }
        self.unscreened.push((conn, submission));
        None
    }

    /// Check the proof of knowledge of everything queued since the last
    /// screening in **one** batched verification
    /// ([`Submission::verify_poks`]: one multiscalar multiplication; a
    /// rejecting batch falls back to per-proof checks, so exactly the
    /// proofs a single check refuses are refused).  Passers are
    /// admitted to the window in arrival order; each offender's
    /// rejection waits in `rejections` for the tick's commit.
    fn screen(&mut self) {
        if self.unscreened.is_empty() {
            return;
        }
        let round = self
            .open_round
            .expect("submissions queue only for the open window, which screens before it changes");
        let started = std::time::Instant::now();
        let (conns, submissions): (Vec<ConnId>, Vec<Submission>) =
            std::mem::take(&mut self.unscreened).into_iter().unzip();
        let verdicts = Submission::verify_poks(round, &submissions);
        let metrics = mix_metrics();
        metrics.screen_batch.record(submissions.len() as u64);
        if verdicts.contains(&false) {
            metrics.screen_fallbacks.incr();
        }
        for ((conn, submission), valid) in conns.into_iter().zip(submissions).zip(verdicts) {
            if valid {
                *self.submitted.entry(conn).or_insert(0) += 1;
                self.pending_subs.push(submission);
            } else {
                let refusal = err(error_code::REJECTED_SUBMISSION, "invalid PoK");
                self.rejections.push((conn, refusal));
            }
        }
        metrics.screen_us.record_duration(started.elapsed());
    }

    fn handle(&mut self, frame: Frame) -> Frame {
        match frame {
            Frame::Ping => Frame::Pong,
            Frame::OpenRound { round } => {
                // Idempotent for the coordinator's retry path: a
                // re-sent open for the already-open round must not
                // discard submissions accepted in between.
                if self.open_round != Some(round) {
                    // What the old window still has queued gets its
                    // verdict before the window goes.
                    self.screen();
                    if let Err(e) = self.append_record(&open_round_record(round)) {
                        return storage_err(e);
                    }
                    self.open_round = Some(round);
                    self.last_opened = Some(round);
                    self.pending_subs.clear();
                    self.submitted.clear();
                }
                Frame::Ok
            }
            Frame::CloseSubmissions { round } => {
                if self.open_round != Some(round) {
                    // Idempotent for the coordinator's retry path: a
                    // window already fixed re-answers its digest (the
                    // first response may have been lost in flight).
                    if let Some(batch) = self.batches.get(&round) {
                        let entries: Vec<_> = batch.iter().map(|s| s.to_entry()).collect();
                        return Frame::BatchDigest {
                            round,
                            digest: input_digest(&entries),
                            count: batch.len() as u64,
                        };
                    }
                    return err(error_code::UNKNOWN_ROUND, "window not open for round");
                }
                // The batch a digest fixes never depends on where a
                // tick boundary fell: whatever this tick queued ahead
                // of the close is screened into it first.
                self.screen();
                self.open_round = None;
                // Canonical order: sort by serialized bytes, so every
                // server that received the same set fixes the same batch.
                let mut batch = std::mem::take(&mut self.pending_subs);
                batch.sort_by_cached_key(Submission::to_bytes);
                batch.dedup();
                let entries: Vec<_> = batch.iter().map(|s| s.to_entry()).collect();
                let digest = input_digest(&entries);
                let count = batch.len() as u64;
                self.batches.insert(round, batch);
                // Only the current and previous rounds are ever fetched
                // or blamed; pruning older batches bounds daemon memory
                // over a long-lived deployment.
                self.batches.retain(|&r, _| r + 1 >= round);
                Frame::BatchDigest {
                    round,
                    digest,
                    count,
                }
            }
            Frame::GetBatch { round } => match self.batches.get(&round) {
                Some(batch) => Frame::SubmissionBatch {
                    round,
                    submissions: batch.clone(),
                },
                None => err(error_code::UNKNOWN_ROUND, "no batch for round"),
            },
            Frame::RevealInnerKey { round } if self.last_opened != Some(round) => {
                err(error_code::UNKNOWN_ROUND, "no window opened for round")
            }
            Frame::RevealInnerKey { .. } => Frame::InnerKeyReveal {
                position: self.secrets.position as u32,
                isk: self.server.reveal_inner_key(),
            },
            Frame::PrepareRotation { inner_epoch } => {
                let (isk, share) =
                    rotation_share(&mut self.rng, self.secrets.position, inner_epoch);
                // The share is a promise to the coordinator: if this
                // process dies before activation, its replacement must
                // still hold the isk the assembled bundle will carry.
                if let Err(e) = self.append_record(&prepare_record(inner_epoch, &isk)) {
                    return storage_err(e);
                }
                self.pending_isk = Some((inner_epoch, isk));
                Frame::RotationShare { inner_epoch, share }
            }
            Frame::ActivateRotation { keys } => {
                if self.server.public() == &keys {
                    // Already running this bundle: a retry of an
                    // activation whose Ok was lost, or a respawned
                    // process that restored it from its journal.
                    return Frame::Ok;
                }
                // The prepared share stays armed unless the activation
                // is made: a refusal below leaves this hop where it was.
                let Some((epoch, isk)) = self.pending_isk else {
                    return err(error_code::BAD_ROTATION, "no rotation prepared");
                };
                if keys.inner_epoch != epoch {
                    return err(error_code::BAD_ROTATION, "epoch mismatch");
                }
                let position = self.secrets.position;
                if keys.len() != self.public().len()
                    || keys.ipks[position] != xrd_crypto::GroupElement::base_mul(&isk)
                {
                    return err(error_code::BAD_ROTATION, "bundle does not carry my share");
                }
                if !keys.verify() {
                    return err(error_code::BAD_ROTATION, "bundle fails verification");
                }
                let mut secrets = self.secrets.clone();
                secrets.isk = isk;
                self.pending_isk = None;
                self.server = MixServer::new(secrets.clone(), keys);
                self.secrets = secrets;
                // Activation obsoletes every earlier record: its record
                // is the journal compacted to the new bundle, which the
                // tick's commit writes.
                self.activated = true;
                Frame::Ok
            }
            // A blame request is answered for its own round only.
            Frame::Accuse { round, .. } | Frame::RevealSlot { round, .. }
                if self.server.state().map(|st| st.round) != Some(round) =>
            {
                err(error_code::NO_BLAME_STATE, "no retained state for round")
            }
            Frame::Accuse { input_index, .. } => {
                match self.server.accuse(&mut self.rng, input_index as usize) {
                    Some(accusation) => Frame::Accusation { accusation },
                    None => err(error_code::NO_BLAME_STATE, "no retained state for slot"),
                }
            }
            Frame::RevealSlot { output_index, .. } => Frame::SlotReveal {
                reveal: self
                    .server
                    .blame_reveal(&mut self.rng, output_index as usize)
                    .map(Box::new),
            },
            Frame::DisputeVerdict {
                round,
                accused,
                claim,
                upheld,
                votes: _,
            } => {
                mix_metrics().verdicts_heard.incr();
                if upheld {
                    xrd_obs::info!(
                        "dispute verdict: round {round} server {accused} convicted (claim {claim})"
                    );
                }
                Frame::Ok
            }
            other => err(
                error_code::UNSUPPORTED,
                format!("mix daemon cannot serve {other:?}"),
            ),
        }
    }
}

/// The mix daemon's [`Service`]: cheap frames (window control, key
/// management, blame) are answered inline off [`MixState::handle`]; a
/// submission passes its cheap checks inline and has its proof of
/// knowledge checked with the rest of its tick's in [`Service::commit`],
/// its `Ok` held until then; hop crypto and attestation verification
/// are deferred to the worker pool so the reactor thread stays free to
/// serve submissions while a hop is in flight.
struct MixService {
    state: Arc<Mutex<MixState>>,
    /// Next hop of this daemon's chain, when deployed for
    /// daemon-to-daemon forwarding (static per process — the manifest
    /// places chains, so a hop's successor never changes while it
    /// runs).  `None` on the last hop and in relay-only deployments.
    successor: Option<SocketAddr>,
    /// Cached client connection to the successor, used only from
    /// worker jobs (never the reactor thread).  Reconnected on demand.
    forward_link: Arc<Mutex<Option<Conn>>>,
    /// Handle for pushing unsolicited frames (forwarded-mode
    /// attestations) to the coordinator's connection; installed by the
    /// reactor at bind time.
    handle: Mutex<Option<ReactorHandle>>,
}

impl MixService {
    fn new(state: Arc<Mutex<MixState>>, successor: Option<SocketAddr>) -> MixService {
        MixService {
            state,
            successor,
            forward_link: Arc::new(Mutex::new(None)),
            handle: Mutex::new(None),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MixState> {
        self.state.lock().expect("mix state poisoned")
    }

    /// `MixBatchStart`: open a streamed hop session for this
    /// connection.  A second Start on the same connection aborts and
    /// replaces the previous incomplete session (self-healing after a
    /// coordinator that gave up mid-stream).
    fn stream_start(&self, conn: ConnId, round: u64, total: u32) -> Outcome {
        let total = total as usize;
        if total > crate::codec::MAX_BATCH {
            return Outcome::reply(err(
                error_code::BAD_STATE,
                format!(
                    "stream rejected: {}",
                    StreamError::TooLarge { declared: total }
                ),
            ));
        }
        let mut state = self.lock();
        let kernel = state.server.chunk_kernel(round);
        state.streams.insert(
            conn,
            HopStreamSession {
                total,
                received: 0,
                kernel,
                work: Arc::new(ChunkWork::default()),
                jobs: 0,
            },
        );
        Outcome::Reply(Vec::new())
    }

    /// `MixBatchChunk`: dispatch the chunk's decrypt-and-blind to the
    /// pool immediately — compute overlaps the rest of the transfer.
    /// The entries move into the job (the reactor thread does only the
    /// overrun bookkeeping) and come back through the session latch
    /// for the End job to reassemble; the stream digest is likewise
    /// verified there, off this thread.
    fn stream_chunk(
        &self,
        conn: ConnId,
        entries: Vec<MixEntry>,
        workers: &Arc<WorkerPool>,
    ) -> Outcome {
        let mut state = self.lock();
        let Some(session) = state.streams.get_mut(&conn) else {
            return Outcome::reply(err(error_code::BAD_STATE, "chunk without MixBatchStart"));
        };
        if session.received + entries.len() > session.total {
            let e = StreamError::Overrun {
                received: session.received + entries.len(),
                total: session.total,
            };
            state.streams.remove(&conn);
            return Outcome::reply(err(error_code::BAD_STATE, format!("stream rejected: {e}")));
        }
        let start = session.received;
        session.received += entries.len();
        session.jobs += 1;
        let kernel = session.kernel.clone();
        let work = Arc::clone(&session.work);
        workers.spawn_job(move || {
            // A panicking kernel must still release the End job's
            // latch: empty slots make the hop report a malformed batch
            // (never blame) instead of wedging the session.
            let slots =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel.process(&entries)))
                    .unwrap_or_default();
            work.push(start, entries, slots);
        });
        Outcome::Reply(Vec::new())
    }

    /// `MixBatchEnd`: defer the hop's assembly — the job waits for the
    /// session's chunk jobs, checks the stream digest, shuffles,
    /// proves, and either streams the output back to the sender or —
    /// in forwarded mode — pushes it straight to the chain's next hop,
    /// reporting only the keys-only attestation to the coordinator.
    fn stream_end(&self, conn: ConnId, digest: [u8; 32]) -> Outcome {
        let Some(session) = self.lock().streams.remove(&conn) else {
            return Outcome::reply(err(error_code::BAD_STATE, "end without MixBatchStart"));
        };
        let HopStreamSession {
            total,
            kernel,
            work,
            jobs,
            ..
        } = session;
        // Forwarded round?  Claim the report connection now (on the
        // reactor thread, under the state lock) so a duplicate End
        // cannot double-forward.
        let forward = self
            .lock()
            .forward_reports
            .remove(&kernel.round())
            .map(|report| ForwardCtx {
                inbound: conn,
                report,
                successor: self.successor,
                link: Arc::clone(&self.forward_link),
                handle: self.handle.lock().expect("handle poisoned").clone(),
            });
        let state = Arc::clone(&self.state);
        Outcome::Defer(Box::new(move || {
            let _span = xrd_obs::span_timer("hop.stream", kernel.round());
            let waited = std::time::Instant::now();
            let (inputs, slots) = work.wait_collect(jobs);
            hop_job_metrics()
                .wait_chunks_us
                .record_duration(waited.elapsed());
            if inputs.len() != total {
                let e = StreamError::Incomplete {
                    received: inputs.len(),
                    total,
                };
                return err(error_code::BAD_STATE, format!("stream rejected: {e}")).encode();
            }
            let mut computed = StreamDigest::new();
            computed.absorb_entries(&inputs);
            if computed.finalize() != digest {
                let e = StreamError::DigestMismatch;
                return err(error_code::BAD_STATE, format!("stream rejected: {e}")).encode();
            }
            let round = kernel.round();
            // Forwarded mode attests over key columns only (§6.3 —
            // the statement never involves ciphertexts), so the input
            // DH column is the one thing to save before the batch
            // moves into `finish_round`.
            let input_dhs: Option<Vec<GroupElement>> = forward
                .as_ref()
                .map(|_| inputs.iter().map(|e| e.dh).collect());
            let mut guard = state.lock().expect("mix state poisoned");
            let st = &mut *guard;
            let position = st.secrets.position;
            match st.server.finish_round(&mut st.rng, round, inputs, slots) {
                Ok(result) => {
                    // The proof and shuffle are done; release the lock
                    // before the output encoding pass.
                    drop(guard);
                    if let Some(fwd) = forward {
                        return forward_hop_output(
                            &fwd,
                            round,
                            position,
                            input_dhs.unwrap_or_default(),
                            &result.outputs,
                            result.proof,
                        );
                    }
                    let encoding = std::time::Instant::now();
                    let bytes = encode_hop_output_stream(
                        round,
                        position as u32,
                        &result.outputs,
                        &result.proof,
                        STREAM_CHUNK,
                    );
                    hop_job_metrics()
                        .encode_us
                        .record_duration(encoding.elapsed());
                    bytes
                }
                Err(MixError::DecryptFailure(failed)) => {
                    let failure = Frame::HopFailure {
                        round,
                        position: position as u32,
                        failed: failed.into_iter().map(|i| i as u64).collect(),
                    }
                    .encode();
                    // A forwarded hop's failure is the coordinator's to
                    // blame, wherever the hop stands in the chain.
                    match forward {
                        Some(fwd) => fwd.report(failure),
                        None => failure,
                    }
                }
                Err(MixError::Malformed) => err(error_code::BAD_STATE, "malformed batch").encode(),
            }
        }))
    }

    /// `DisputeOpen`: re-check the disputed attestation against this
    /// server's copy of the public bundle and answer with signed
    /// evidence.  The verification is pure public-data work off a
    /// bundle snapshot; the state lock is taken only for the signing
    /// nonce at the end.  `force_upheld` is the byzantine hook: a
    /// lying witness signs a fixed verdict instead of its honest
    /// re-check — producing transferable evidence of its own lie.
    fn defer_dispute(&self, attestation: HopAttestation, force_upheld: Option<bool>) -> Outcome {
        let public = self.lock().server.public().clone();
        let state = Arc::clone(&self.state);
        Outcome::Defer(Box::new(move || {
            let upheld = force_upheld.unwrap_or_else(|| !attestation.verify(&public));
            let ctx = dispute_context(&attestation, upheld);
            let mut guard = state.lock().expect("mix state poisoned");
            let st = &mut *guard;
            let position = st.secrets.position as u32;
            // `mpk_i = bpk_i^msk` — the mix key lives over the chained
            // blinding base for this position, not the group generator.
            let mpk = st.server.public().mpks[st.secrets.position];
            let base = st.server.public().bpks[st.secrets.position];
            let sig = SchnorrProof::prove(&mut st.rng, &ctx, &base, &mpk, &st.secrets.msk);
            drop(guard);
            mix_metrics().evidence_served.incr();
            Frame::DisputeEvidence {
                round: attestation.round,
                position,
                accused: attestation.position as u32,
                upheld,
                sig,
            }
            .encode()
        }))
    }

    /// `VerifyHopKeys`: pure public-data work off a snapshot of the
    /// bundle — no state lock held in the job at all.
    fn defer_verify(&self, attestation: HopAttestation) -> Outcome {
        let public = self.lock().server.public().clone();
        Outcome::Defer(Box::new(move || {
            let ok = attestation.verify(&public);
            Frame::VerifyResult { ok }.encode()
        }))
    }
}

impl Service for MixService {
    fn attach(&self, handle: ReactorHandle) {
        *self.handle.lock().expect("handle poisoned") = Some(handle);
    }

    fn handle(&self, conn: ConnId, frame: Frame, workers: &Arc<WorkerPool>) -> Outcome {
        match frame {
            Frame::MixForward { round } => {
                // The coordinator marks the round as forwarded; this
                // connection becomes the round's report channel for
                // the hop's attestation (or, last hop, its output).
                let mut state = self.lock();
                state.forward_reports.insert(round, conn);
                // Only the current and previous rounds are live.
                state.forward_reports.retain(|&r, _| r + 1 >= round);
                Outcome::reply(Frame::Ok)
            }
            // The `Ok` waits for the tick's screening: every submission
            // gets its verdict before its acknowledgement.
            Frame::Submit { round, submission } => {
                match self.lock().queue_submission(conn, round, submission) {
                    None => Outcome::ReplyAfterCommit(vec![Frame::Ok]),
                    Some(refusal) => Outcome::reply(refusal),
                }
            }
            Frame::MixBatchStart { round, total } => self.stream_start(conn, round, total),
            Frame::MixBatchChunk { entries } => self.stream_chunk(conn, entries, workers),
            Frame::MixBatchEnd { digest } => self.stream_end(conn, digest),
            Frame::VerifyHopKeys { attestation } => self.defer_verify(attestation),
            Frame::DisputeOpen { attestation } => self.defer_dispute(attestation, None),
            // Window and key control: the reply waits for the commit
            // that makes its record durable — a repeat's too, as the
            // record it repeats may be waiting for that very commit.
            frame @ (Frame::OpenRound { .. }
            | Frame::PrepareRotation { .. }
            | Frame::ActivateRotation { .. }) => {
                Outcome::ReplyAfterCommit(vec![self.lock().handle(frame)])
            }
            other => Outcome::reply(self.lock().handle(other)),
        }
    }

    fn on_close(&self, conn: ConnId) {
        // Drop any half-assembled stream; its already-dispatched chunk
        // jobs finish into an orphaned latch and are freed with it.
        let mut state = self.lock();
        state.streams.remove(&conn);
        state.submitted.remove(&conn);
        // A forwarded mark dies with its report connection: a pass the
        // coordinator gave up on must not have a later relayed stream
        // answered as forwarded.
        state.forward_reports.retain(|_, report| *report != conn);
    }

    /// The tick's one commit point: one batched proof check over every
    /// submission the iteration queued (the offenders' held `Ok`s
    /// become their rejections), then one journal sync for the control
    /// records the iteration appended — or, if it activated a
    /// rotation, one rewrite compacting the journal to the state the
    /// activation left, which keeps the journal a few records long.
    fn commit(&self) -> Result<Vec<(ConnId, Frame)>, Frame> {
        let mut state = self.lock();
        state.screen();
        let rejections = std::mem::take(&mut state.rejections);
        let snapshot = std::mem::take(&mut state.activated).then(|| state.snapshot());
        let unsynced = std::mem::take(&mut state.unsynced);
        let Some(log) = &mut state.journal else {
            return Ok(rejections);
        };
        match snapshot {
            Some(records) => {
                let records: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
                log.rewrite(&records).map_err(storage_err)?;
                journal_metrics().rewrites.incr();
            }
            None if unsynced => log.sync().map_err(storage_err)?,
            None => {}
        }
        Ok(rejections)
    }
}

/// How a byzantine mix daemon misbehaves (see `docs/FAULTS.md`).
///
/// Each mode is one concrete lie the dispute machinery must localize:
/// the daemon otherwise runs the full honest protocol, so the lie is
/// the *only* divergence a test observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineMode {
    /// Answer every attestation check with `ok: false`, and uphold
    /// every dispute regardless of the evidence — a verifier trying
    /// to frame honest provers.
    LieVerify,
    /// Corrupt the daemon's input-agreement digest, simulating a
    /// server that equivocates about the batch it fixed.
    EquivocateDigest,
    /// Tamper with the daemon's own hop output after proving, so its
    /// emitted key column no longer matches its attestation.
    CorruptHop,
}

impl std::str::FromStr for ByzantineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ByzantineMode, String> {
        match s {
            "lie-verify" => Ok(ByzantineMode::LieVerify),
            "equivocate-digest" => Ok(ByzantineMode::EquivocateDigest),
            "corrupt-hop" => Ok(ByzantineMode::CorruptHop),
            other => Err(format!(
                "unknown byzantine mode {other:?} \
                 (expected lie-verify, equivocate-digest or corrupt-hop)"
            )),
        }
    }
}

/// A [`MixService`] wrapper that injects one [`ByzantineMode`]'s lie
/// and delegates everything else — the honest protocol with exactly
/// one strategic deviation.
struct ByzantineService {
    inner: MixService,
    mode: ByzantineMode,
}

impl ByzantineService {
    /// Lies told so far (`byzantine.lies` counter).
    fn metrics() -> &'static xrd_obs::Counter {
        static LIES: std::sync::OnceLock<&'static xrd_obs::Counter> = std::sync::OnceLock::new();
        LIES.get_or_init(|| xrd_obs::counter("byzantine.lies"))
    }
}

impl Service for ByzantineService {
    fn attach(&self, handle: ReactorHandle) {
        self.inner.attach(handle);
    }

    fn handle(&self, conn: ConnId, frame: Frame, workers: &Arc<WorkerPool>) -> Outcome {
        match (self.mode, frame) {
            // A framing verifier: every attestation is "invalid".
            (ByzantineMode::LieVerify, Frame::VerifyHopKeys { .. }) => {
                Self::metrics().incr();
                Outcome::reply(Frame::VerifyResult { ok: false })
            }
            // ... and it perjures itself in disputes, signing `upheld`
            // over statements it knows verify — transferable evidence
            // of the lie.
            (ByzantineMode::LieVerify, Frame::DisputeOpen { attestation }) => {
                Self::metrics().incr();
                self.inner.defer_dispute(attestation, Some(true))
            }
            // An equivocator: its digest never matches the honest
            // majority's.
            (ByzantineMode::EquivocateDigest, frame @ Frame::CloseSubmissions { .. }) => {
                match self.inner.handle(conn, frame, workers) {
                    Outcome::Reply(mut frames) => {
                        for f in &mut frames {
                            if let Frame::BatchDigest { digest, .. } = f {
                                Self::metrics().incr();
                                digest[0] ^= 0xFF;
                            }
                        }
                        Outcome::Reply(frames)
                    }
                    other => other,
                }
            }
            // A tampering prover: its emitted key column diverges from
            // the column it proved over.  The lie rides the hop's own
            // reply stream, so a downstream hop decrypts garbage (blame
            // then traces the mismatch to this server) and, on the last
            // hop, every honest verifier rejects the attestation.
            (ByzantineMode::CorruptHop, frame @ Frame::MixBatchEnd { .. }) => {
                match self.inner.handle(conn, frame, workers) {
                    Outcome::Defer(job) => Outcome::Defer(Box::new(move || {
                        let bytes = job();
                        match corrupt_hop_output(&bytes) {
                            Some(tampered) => {
                                Self::metrics().incr();
                                tampered
                            }
                            None => bytes,
                        }
                    })),
                    other => other,
                }
            }
            (_, frame) => self.inner.handle(conn, frame, workers),
        }
    }

    fn on_close(&self, conn: ConnId) {
        self.inner.on_close(conn);
    }

    fn commit(&self) -> Result<Vec<(ConnId, Frame)>, Frame> {
        self.inner.commit()
    }
}

/// [`ByzantineMode::CorruptHop`]'s lie: if `reply` is a hop's
/// `HopProof` and output stream of at least two entries, the same
/// reply with the first output's DH key overwritten by the second's
/// (its ciphertext left alone).  Every element still parses, but the
/// entry no longer decrypts downstream and the key column's product no
/// longer matches the attestation — a swap would not do: §6.3 proves a
/// relation between *products*, which a permutation preserves.
/// Re-encoded whole, so the stream digest is consistent and only the
/// content lies.
fn corrupt_hop_output(reply: &[u8]) -> Option<Vec<u8>> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(reply);
    let Some(Ok(Frame::HopProof {
        round,
        position,
        proof,
    })) = decoder.try_frame()
    else {
        return None;
    };
    let mut outputs: Vec<MixEntry> = Vec::new();
    loop {
        match decoder.try_frame()? {
            Ok(Frame::MixBatchStart { .. }) => {}
            Ok(Frame::MixBatchChunk { entries }) => outputs.extend(entries),
            Ok(Frame::MixBatchEnd { .. }) => break,
            _ => return None,
        }
    }
    if outputs.len() < 2 {
        return None;
    }
    outputs[0].dh = outputs[1].dh;
    Some(encode_hop_output_stream(
        round,
        position,
        &outputs,
        &proof,
        STREAM_CHUNK,
    ))
}

/// A running mix-server daemon for one `(chain, position)`.
pub struct MixServerDaemon;

impl MixServerDaemon {
    fn state(
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        rng_seed: u64,
        policy: SubmissionPolicy,
        journal: Option<(RecordLog, Vec<Vec<u8>>)>,
    ) -> Arc<Mutex<MixState>> {
        let (journal, records) = match journal {
            Some((j, records)) => (Some(j), records),
            None => (None, Vec::new()),
        };
        let (secrets, public, pending_isk, open_round) = Self::restore(secrets, public, &records);
        Arc::new(Mutex::new(MixState {
            server: MixServer::new(secrets.clone(), public),
            secrets,
            pending_isk,
            open_round,
            last_opened: open_round,
            pending_subs: Vec::new(),
            unscreened: Vec::new(),
            rejections: Vec::new(),
            batches: HashMap::new(),
            streams: HashMap::new(),
            policy,
            submitted: HashMap::new(),
            forward_reports: HashMap::new(),
            rng: StdRng::seed_from_u64(rng_seed),
            journal,
            unsynced: false,
            activated: false,
        }))
    }

    /// Fold recovered journal records over the launch-time config: the
    /// latest activation replaces the key bundle wholesale, a prepared
    /// share after it re-arms `pending_isk`, and the open window id is
    /// whatever was last opened.  Unknown kinds and short payloads are
    /// skipped (the checksum already proved they were written whole).
    fn restore(
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        records: &[Vec<u8>],
    ) -> (
        ServerSecrets,
        ChainPublicKeys,
        Option<(u64, xrd_crypto::Scalar)>,
        Option<u64>,
    ) {
        let mut secrets = secrets;
        let mut public = public;
        let mut pending_isk = None;
        let mut open_round = None;
        for rec in records {
            match rec.first() {
                Some(&JREC_OPEN_ROUND) if rec.len() == 9 => {
                    open_round = Some(u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes")));
                }
                Some(&JREC_PREPARE) if rec.len() == 41 => {
                    let epoch = u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes"));
                    let isk = xrd_crypto::Scalar::from_bytes_mod_order(
                        &rec[9..41].try_into().expect("32 bytes"),
                    );
                    pending_isk = Some((epoch, isk));
                }
                Some(&JREC_ACTIVATE) => {
                    if let Ok((s, p)) = decode_server_config(&rec[1..]) {
                        secrets = s;
                        public = p;
                        pending_isk = None;
                    }
                }
                _ => {}
            }
        }
        (secrets, public, pending_isk, open_round)
    }

    /// Spawn a daemon serving hop `secrets.position` of a chain whose
    /// active public bundle is `public`, listening on `addr` (use
    /// `127.0.0.1:0` for an OS-assigned port).
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        rng_seed: u64,
    ) -> std::io::Result<DaemonHandle> {
        Self::spawn_with_policy(addr, secrets, public, rng_seed, SubmissionPolicy::default())
    }

    /// Spawn with explicit submission-window limits.
    pub fn spawn_with_policy<A: ToSocketAddrs>(
        addr: A,
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        rng_seed: u64,
        policy: SubmissionPolicy,
    ) -> std::io::Result<DaemonHandle> {
        let state = Self::state(secrets, public, rng_seed, policy, None);
        spawn_daemon(addr, Arc::new(MixService::new(state, None)))
    }

    /// Spawn with a chain successor for daemon-to-daemon forwarding:
    /// when the coordinator marks a round forwarded
    /// ([`Frame::MixForward`]), this hop streams its output straight
    /// to `successor` instead of back to the sender, reporting only
    /// its keys-only attestation.  Pass `None` on the last hop.
    pub fn spawn_with_successor<A: ToSocketAddrs>(
        addr: A,
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        rng_seed: u64,
        successor: Option<SocketAddr>,
    ) -> std::io::Result<DaemonHandle> {
        let state = Self::state(secrets, public, rng_seed, SubmissionPolicy::default(), None);
        spawn_daemon(addr, Arc::new(MixService::new(state, successor)))
    }

    /// Spawn with a durable state journal at `journal` (created if
    /// absent, replayed if populated): rotation epochs/shares and the
    /// open submission window survive `kill -9`, so a supervisor can
    /// respawn this daemon from its on-disk config + journal and it
    /// rejoins the chain with the keys its peers expect.
    pub fn spawn_with_journal<A: ToSocketAddrs>(
        addr: A,
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        rng_seed: u64,
        successor: Option<SocketAddr>,
        journal: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<DaemonHandle> {
        let (journal, records) = open_journal(journal)?;
        let state = Self::state(
            secrets,
            public,
            rng_seed,
            SubmissionPolicy::default(),
            Some((journal, records)),
        );
        spawn_daemon(addr, Arc::new(MixService::new(state, successor)))
    }

    /// Spawn a *byzantine* daemon: the honest protocol with exactly
    /// one strategic lie injected (fault harness; see
    /// [`ByzantineMode`] and `docs/FAULTS.md`).
    pub fn spawn_byzantine<A: ToSocketAddrs>(
        addr: A,
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        rng_seed: u64,
        mode: ByzantineMode,
    ) -> std::io::Result<DaemonHandle> {
        let state = Self::state(secrets, public, rng_seed, SubmissionPolicy::default(), None);
        spawn_daemon(
            addr,
            Arc::new(ByzantineService {
                inner: MixService::new(state, None),
                mode,
            }),
        )
    }
}

// ---------------------------------------------------------------------
// Mailbox daemon
// ---------------------------------------------------------------------

/// Mailbox-daemon metric handles, resolved once per process.  (The
/// store itself counts `mailbox.puts/pages/acks`; these cover the wire
/// layer in front of it.)
fn mailbox_metrics() -> &'static MailboxMetrics {
    static METRICS: std::sync::OnceLock<MailboxMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| MailboxMetrics {
        batches: xrd_obs::counter("mailbox.deliver.batches"),
        duplicates: xrd_obs::counter("mailbox.deliver.duplicates"),
    })
}

struct MailboxMetrics {
    /// Deliver batches stored.
    batches: &'static xrd_obs::Counter,
    /// Deliver batches answered from the dedup window (a retry whose
    /// original reply was lost).
    duplicates: &'static xrd_obs::Counter,
}

/// Map a store refusal onto the wire's error vocabulary.
fn mailbox_err(e: MailboxError) -> Frame {
    let code = match e {
        MailboxError::UnknownMailbox { .. } => error_code::UNKNOWN_MAILBOX,
        MailboxError::ShardFull { .. } => error_code::MAILBOX_FULL,
        MailboxError::Storage { .. } => error_code::STORAGE,
        // A wrong-shard put or an out-of-range cursor is a peer bug,
        // not a store condition the peer can act on.
        MailboxError::WrongShard { .. } | MailboxError::BadCursor { .. } => error_code::BAD_STATE,
    };
    err(code, e.to_string())
}

/// One mailbox shard as a reactor [`Service`].
///
/// Durability rule (the [module](self)'s): a handler appends (`ack`, or
/// `begin_batch`/`put`/`commit_batch`) and returns its `Ok` as
/// [`Outcome::ReplyAfterCommit`]; [`Service::commit`] is the daemon's
/// only [`MailboxStore::flush`].  So an `Ok` for a `FetchAck` or a
/// `Deliver` reaches a socket only after a sync that began after its
/// record was appended has returned — and every connection served in
/// that iteration shares the one sync.
struct MailboxService {
    state: Mutex<MailboxState>,
}

struct MailboxState {
    /// This daemon's shard index and the deployment's shard count, used
    /// to reject deliveries that belong elsewhere.
    shard: usize,
    n_shards: usize,
    store: Box<dyn MailboxStore + Send>,
}

impl MailboxState {
    fn handle(&mut self, frame: Frame) -> Outcome {
        match frame {
            Frame::Deliver {
                round,
                batch,
                messages,
            } => match self.deliver(round, batch, messages) {
                // Held even for a duplicate: the batch it repeats may
                // be waiting for this very commit.
                Ok(()) => Outcome::ReplyAfterCommit(vec![Frame::Ok]),
                Err(e) => Outcome::reply(mailbox_err(e)),
            },
            Frame::FetchPage {
                mailbox,
                cursor,
                max,
            } => Outcome::reply(
                match self.store.fetch_page(&mailbox, cursor, max as usize) {
                    Ok(page) => Frame::MailboxPage {
                        sealed: page
                            .entries
                            .into_iter()
                            .map(|e| (e.round, e.sealed))
                            .collect(),
                        next_cursor: page.next_cursor,
                        remaining: page.remaining,
                    },
                    Err(e) => mailbox_err(e),
                },
            ),
            // Held so acked retention survives a crash: a recovered
            // shard must not resurrect retired entries for a client
            // that was told they are gone.
            Frame::FetchAck { mailbox, upto } => match self.store.ack(&mailbox, upto) {
                Ok(_) => Outcome::ReplyAfterCommit(vec![Frame::Ok]),
                Err(e) => Outcome::reply(mailbox_err(e)),
            },
            other => Outcome::reply(err(
                error_code::UNSUPPORTED,
                format!("mailbox daemon cannot serve {other:?}"),
            )),
        }
    }

    /// Append one delivery batch (or recognise a retry of one), leaving
    /// durability to the commit its `Ok` is held for — the sender won't
    /// retry a batch it was told landed.
    fn deliver(
        &mut self,
        round: u64,
        batch: u64,
        messages: Vec<MailboxMessage>,
    ) -> Result<(), MailboxError> {
        for m in &messages {
            let shard = shard_of(&m.mailbox, self.n_shards);
            if shard != self.shard {
                return Err(MailboxError::WrongShard {
                    shard,
                    expected: self.shard,
                });
            }
        }
        // Open a delivery bracket.  The store answers `false` for an id
        // in its dedup window: a retry of a batch whose Ok got lost (or,
        // for a persistent store, one committed before a restart).
        if !self.store.begin_batch(round, batch)? {
            mailbox_metrics().duplicates.incr();
            return Ok(());
        }
        for m in messages {
            if let Err(e) = self.store.put(round, m) {
                // Roll the partial batch back so recovery never applies
                // half a delivery; the sender retries the whole batch.
                let _ = self.store.abort_batch(round, batch);
                return Err(e);
            }
        }
        self.store.commit_batch(round, batch)?;
        mailbox_metrics().batches.incr();
        Ok(())
    }
}

impl Service for MailboxService {
    fn handle(&self, _conn: ConnId, frame: Frame, _workers: &Arc<WorkerPool>) -> Outcome {
        self.state
            .lock()
            .expect("mailbox state poisoned")
            .handle(frame)
    }

    fn commit(&self) -> Result<Vec<(ConnId, Frame)>, Frame> {
        let mut state = self.state.lock().expect("mailbox state poisoned");
        state.store.flush().map_err(mailbox_err)?;
        Ok(Vec::new())
    }
}

/// A running mailbox-shard daemon.
pub struct MailboxDaemon;

impl MailboxDaemon {
    /// Spawn the daemon owning `shard` of `n_shards`, listening on
    /// `addr`, with in-memory (non-persistent) storage.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        shard: usize,
        n_shards: usize,
    ) -> std::io::Result<DaemonHandle> {
        // The hub routes internally, so a single-shard hub is exactly
        // one shard's worth of storage; cross-shard routing is checked
        // at the daemon boundary above.
        Self::with_store(addr, shard, n_shards, Box::new(MailboxHub::new(1)))
    }

    /// Spawn the daemon with the log-structured persistent store in
    /// `dir` (created if absent, recovered if already populated).
    pub fn spawn_persistent<A: ToSocketAddrs>(
        addr: A,
        shard: usize,
        n_shards: usize,
        dir: impl Into<std::path::PathBuf>,
        cfg: LogStoreConfig,
    ) -> std::io::Result<DaemonHandle> {
        let store = LogMailboxStore::open(dir, shard, n_shards, cfg)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Self::with_store(addr, shard, n_shards, Box::new(store))
    }

    /// Spawn the daemon over any [`MailboxStore`] backend.
    pub fn with_store<A: ToSocketAddrs>(
        addr: A,
        shard: usize,
        n_shards: usize,
        store: Box<dyn MailboxStore + Send>,
    ) -> std::io::Result<DaemonHandle> {
        assert!(shard < n_shards);
        let state = Mutex::new(MailboxState {
            shard,
            n_shards,
            store,
        });
        spawn_daemon(addr, Arc::new(MailboxService { state }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};

    /// A hop-0 state with round 0's window open and four submissions
    /// queued unscreened on connections 10..14 — the one on connection
    /// 12 with a proof bound to another round.
    fn state_with_queued_submissions() -> Arc<Mutex<MixState>> {
        let mut rng = StdRng::seed_from_u64(41);
        let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
        rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
        let mut submissions = crate::swarm::sealed_submissions(&mut rng, &public, 0, 4);
        submissions[2] = crate::swarm::sealed_submissions(&mut rng, &public, 9, 1).remove(0);
        let policy = SubmissionPolicy::default();
        let state = MixServerDaemon::state(secrets.remove(0), public, 7, policy, None);
        {
            let mut st = state.lock().unwrap();
            assert_eq!(st.handle(Frame::OpenRound { round: 0 }), Frame::Ok);
            for (conn, submission) in (10..).zip(submissions) {
                assert_eq!(st.queue_submission(conn, 0, submission), None);
            }
            assert!(st.pending_subs.is_empty(), "nothing is admitted unscreened");
        }
        state
    }

    /// The one offender's rejection, as the commit will hand it over.
    fn assert_only_conn_12_rejected(st: &MixState) {
        assert!(st.unscreened.is_empty());
        match &st.rejections[..] {
            [(12, Frame::Error { code, .. })] => {
                assert_eq!(*code, error_code::REJECTED_SUBMISSION)
            }
            other => panic!("expected connection 12's rejection alone, got {other:?}"),
        }
    }

    /// A `CloseSubmissions` handled in the same tick as queued
    /// submissions — before that tick's commit — screens them first:
    /// the digest covers exactly the valid ones, wherever the tick
    /// boundary fell.
    #[test]
    fn closing_the_window_screens_what_is_queued() {
        let state = state_with_queued_submissions();
        let mut st = state.lock().unwrap();
        match st.handle(Frame::CloseSubmissions { round: 0 }) {
            Frame::BatchDigest { count, .. } => assert_eq!(count, 3),
            other => panic!("expected BatchDigest, got {other:?}"),
        }
        assert_only_conn_12_rejected(&st);
        assert_eq!(st.batches[&0].len(), 3);
    }

    /// Opening the next window does the same before it resets the old
    /// one: the queued submissions' held replies still get their
    /// verdicts, and none of them leaks into the new window.
    #[test]
    fn opening_the_next_window_screens_what_is_queued() {
        let state = state_with_queued_submissions();
        let mut st = state.lock().unwrap();
        assert_eq!(st.handle(Frame::OpenRound { round: 1 }), Frame::Ok);
        assert_only_conn_12_rejected(&st);
        assert!(st.pending_subs.is_empty() && st.submitted.is_empty());
    }

    /// A fresh journal path for one test, with no temp-file squatter.
    fn journal_path(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("xrd-{name}-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(squatter(&path));
        path
    }

    /// The path a compaction writes before its rename; a directory
    /// there makes the compaction fail, with no seam.
    fn squatter(path: &std::path::Path) -> std::path::PathBuf {
        format!("{}.tmp", path.display()).into()
    }

    /// Hop 0 of a three-hop chain, journaled at `path`: its launch-time
    /// secrets and bundle, and its service.
    fn journaled_hop(path: &std::path::Path) -> (ServerSecrets, ChainPublicKeys, MixService) {
        let mut rng = StdRng::seed_from_u64(43);
        let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
        rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
        let secrets = secrets.remove(0);
        let journal = open_journal(path).expect("journal opens");
        let policy = SubmissionPolicy::default();
        let state =
            MixServerDaemon::state(secrets.clone(), public.clone(), 7, policy, Some(journal));
        (secrets, public, MixService::new(state, None))
    }

    /// Handle `frame`, demanding the reply be held for the commit.
    fn held(service: &MixService, frame: Frame) -> Frame {
        match service.handle(1, frame, &WorkerPool::new(1)) {
            Outcome::ReplyAfterCommit(mut frames) if frames.len() == 1 => frames.remove(0),
            _ => panic!("expected one reply held for the commit"),
        }
    }

    /// The epoch-1 bundle carrying the share hop 0 answered with.
    fn bundle_with(public: &ChainPublicKeys, share: Frame) -> ChainPublicKeys {
        use xrd_mixnet::chain_keys::apply_rotation_shares;
        let Frame::RotationShare { share, .. } = share else {
            panic!("expected RotationShare, got {share:?}");
        };
        let mut rng = StdRng::seed_from_u64(44);
        let shares = [
            share,
            rotation_share(&mut rng, 1, 1).1,
            rotation_share(&mut rng, 2, 1).1,
        ];
        let mut keys = public.clone();
        assert!(apply_rotation_shares(&mut keys, 1, &shares));
        keys
    }

    /// Every reply to window and key control — refusals and idempotent
    /// repeats included — waits for the commit, and the commit that
    /// follows an activation compacts the journal to it.
    #[test]
    fn control_replies_wait_for_the_commit() {
        let path = journal_path("held-control");
        let (secrets, public, service) = journaled_hop(&path);
        let activate_running = Frame::ActivateRotation {
            keys: public.clone(),
        };
        assert_eq!(
            held(&service, activate_running),
            Frame::Ok,
            "already running it"
        );
        assert_eq!(held(&service, Frame::OpenRound { round: 4 }), Frame::Ok);
        assert_eq!(
            held(&service, Frame::OpenRound { round: 4 }),
            Frame::Ok,
            "repeat"
        );
        let keys = bundle_with(
            &public,
            held(&service, Frame::PrepareRotation { inner_epoch: 1 }),
        );
        let mut wrong_epoch = keys.clone();
        wrong_epoch.inner_epoch = 2;
        match held(&service, Frame::ActivateRotation { keys: wrong_epoch }) {
            Frame::Error { code, .. } => assert_eq!(code, error_code::BAD_ROTATION),
            other => panic!("expected BAD_ROTATION, got {other:?}"),
        }
        let activate = Frame::ActivateRotation { keys: keys.clone() };
        assert_eq!(held(&service, activate.clone()), Frame::Ok);
        assert_eq!(held(&service, activate), Frame::Ok, "repeat");
        assert_eq!(service.commit(), Ok(Vec::new()));

        let (_, records) = open_journal(&path).expect("reopen");
        assert_eq!(
            records.len(),
            2,
            "compacted to the bundle and the open window"
        );
        let (_, restored, pending_isk, open_round) =
            MixServerDaemon::restore(secrets, public, &records);
        assert_eq!(restored, keys, "the respawn rejoins under the new bundle");
        assert!(pending_isk.is_none());
        assert_eq!(open_round, Some(4));
        let _ = std::fs::remove_file(&path);
    }

    /// A compaction that fails — here a directory squatting on the
    /// journal's temp path — fails the commit with `STORAGE`, and the
    /// disk still holds the hop before the activation: the old bundle
    /// with the prepared share armed.  So a restart takes the
    /// coordinator's retried activation.
    #[test]
    fn a_failed_compaction_leaves_the_activation_to_a_restart() {
        let path = journal_path("failed-compaction");
        let (secrets, public, service) = journaled_hop(&path);
        assert_eq!(held(&service, Frame::OpenRound { round: 4 }), Frame::Ok);
        let keys = bundle_with(
            &public,
            held(&service, Frame::PrepareRotation { inner_epoch: 1 }),
        );
        assert_eq!(service.commit(), Ok(Vec::new()));

        std::fs::create_dir(squatter(&path)).expect("squat on the temp path");
        let activate = Frame::ActivateRotation { keys: keys.clone() };
        assert_eq!(held(&service, activate.clone()), Frame::Ok);
        match service.commit() {
            Err(Frame::Error { code, .. }) => assert_eq!(code, error_code::STORAGE),
            other => panic!("expected STORAGE, got {other:?}"),
        }
        drop(service);

        let (log, records) = open_journal(&path).expect("reopen");
        let (_, restored, pending_isk, open_round) =
            MixServerDaemon::restore(secrets.clone(), public.clone(), &records);
        assert_eq!(restored, public, "the activation is not on disk");
        let (epoch, isk) = pending_isk.expect("the prepared share is still armed");
        assert_eq!(epoch, 1);
        assert_eq!(keys.ipks[0], xrd_crypto::GroupElement::base_mul(&isk));
        assert_eq!(open_round, Some(4));

        std::fs::remove_dir(squatter(&path)).expect("unsquat");
        let policy = SubmissionPolicy::default();
        let state = MixServerDaemon::state(secrets, public, 7, policy, Some((log, records)));
        let restarted = MixService::new(state, None);
        assert_eq!(held(&restarted, activate), Frame::Ok, "the retry is taken");
        assert_eq!(restarted.commit(), Ok(Vec::new()));
        assert_eq!(restarted.lock().public(), &keys);
        let _ = std::fs::remove_file(&path);
    }
}
