//! The XRD server daemons: long-lived TCP services speaking the wire
//! protocol of [`crate::codec`].
//!
//! * [`MixServerDaemon`] — one hop position of one mix chain: accepts
//!   user submissions during the round window (their proofs of
//!   knowledge checked a reactor tick at a time, in one batched
//!   verification per tick), fixes the canonical batch, runs AHS hops
//!   (hop 0 over the batch its own window fixed),
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
//! (`MixBatchStart/Chunk/End` sessions), the `VerifyHopKeys` check of
//! the chain's other hops against this hop's own two key columns, and
//! dispute re-checks are **deferred** to the reactor's
//! small fixed-size worker pool (the connection's pending response
//! slot holds its place), so the event loop keeps accepting and
//! verifying submissions while a hop's crypto is in flight.  A hop's
//! chunks are dispatched to the pool *as they arrive* — its compute
//! overlaps the remainder of its own transfer.  The hop answers with a
//! `HopProof` followed by its output in the batch format it was sent
//! in, so the reply's stream is, byte for byte, the next hop's request,
//! which the coordinator relays.  A [`DaemonHandle`] owns the reactor
//! thread and shuts the daemon down when asked (or on drop).

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
use xrd_mixnet::chain_keys::{rotation_share, ChainPublicKeys, ServerSecrets};
use xrd_mixnet::client::Submission;
use xrd_mixnet::lie::{upheld, window_digest, window_submissions, Lie};
use xrd_mixnet::message::{outer_ct_len, MailboxMessage, MixEntry};
use xrd_mixnet::server::{ChunkKernel, CrossCheck, DhColumn, HopAttestation, MixError, MixServer};

use crate::codec::{
    count_decoded, decode_server_config, encode_hop_output_stream, encode_server_config,
    error_code, ChunkedBatch, CodecError, Frame, StreamDigest, StreamError, STREAM_CHUNK,
};
use crate::reactor::{ConnId, Outcome, Reactor, Service, Settled, WorkerPool};

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
    /// `Submit`s received since the last screening, as their frames
    /// carried them — the point still bytes — with the round each
    /// names and the connection its `Ok` is held on.
    /// [`MixState::screen`] empties it once per reactor tick, and before
    /// anything that reads or resets the window.
    unscreened: Vec<(ConnId, u64, Submission)>,
    /// Verdicts of screened-out submissions, for the tick's commit to
    /// settle their held `Ok` with.
    rejections: Vec<(ConnId, Settled)>,
    /// Canonical (sorted) batches per closed round.
    batches: HashMap<u64, Vec<Submission>>,
    /// In-flight streamed hop sessions, one per connection.
    streams: HashMap<ConnId, HopStreamSession>,
    /// Submission-window abuse limits.
    policy: SubmissionPolicy,
    /// Submissions accepted per connection for the open window.
    submitted: HashMap<ConnId, u32>,
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

/// Open (or create) the journal at `path`: the log, plus the records
/// it recovered in append order.
fn open_journal(path: impl Into<std::path::PathBuf>) -> std::io::Result<(RecordLog, Vec<Vec<u8>>)> {
    let (log, replay) = RecordLog::open(path, JOURNAL_MAGIC)?;
    let records: Vec<Vec<u8>> = replay.records().map(|(_, rec)| rec.to_vec()).collect();
    if replay.torn {
        xrd_obs::counter!("daemon.journal.torn_tails").incr();
    }
    xrd_obs::counter!("daemon.journal.records_recovered").add(records.len() as u64);
    Ok((log, records))
}

fn storage_err(e: std::io::Error) -> Frame {
    err(error_code::STORAGE, format!("state journal: {e}"))
}

/// One connection's in-flight streamed hop.  The session itself holds
/// only bookkeeping — every chunk's entries are *moved* into its
/// worker job (no copy on the reactor thread) and handed back through
/// the [`ChunkWork`] latch alongside the computed slots — and what it
/// reads off the chunks' wire bytes as they arrive: the stream digest
/// and the input keys' encodings.
struct HopStreamSession {
    /// Entries the Start frame declared.
    total: usize,
    /// Entries received across chunks so far (overrun enforcement).
    received: usize,
    /// Running digest over the chunk payloads, in arrival order.
    digest: StreamDigest,
    kernel: ChunkKernel,
    work: Arc<ChunkWork>,
    /// Chunk jobs dispatched so far (what the End job's latch waits
    /// for).
    jobs: usize,
}

impl HopStreamSession {
    /// A session for a hop of `total` entries under `kernel`.
    fn new(kernel: ChunkKernel, total: usize) -> HopStreamSession {
        HopStreamSession {
            total,
            received: 0,
            digest: StreamDigest::new(),
            kernel,
            work: Arc::new(ChunkWork::default()),
            jobs: 0,
        }
    }

    /// Hand the next chunk's decrypt-and-blind to the pool: the entries
    /// move into the job and come back through the session latch for
    /// the End job to reassemble.
    fn dispatch(&mut self, entries: Vec<MixEntry>, workers: &Arc<WorkerPool>) {
        let start = self.received;
        self.received += entries.len();
        self.jobs += 1;
        let kernel = self.kernel.clone();
        let work = Arc::clone(&self.work);
        workers.spawn_job(move || {
            // A panicking kernel must still release the End job's
            // latch: empty slots make the hop report a malformed batch
            // (never blame) instead of wedging the session.
            let slots =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel.process(&entries)))
                    .unwrap_or_default();
            work.push(start, entries, slots);
        });
    }
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
        xrd_obs::counter!("daemon.journal.appends").incr();
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

    /// `Submit`: queue the submission for the tick's screening, which
    /// decides it; its `Ok` is held for the commit meanwhile.
    fn queue_submission(&mut self, conn: ConnId, round: u64, submission: Submission) {
        self.unscreened.push((conn, round, submission));
    }

    /// The cheap checks of a submission whose point decoded — window,
    /// quotas, onion size — with `queued` submissions of this screening
    /// ahead of it already admitted to its proof check (they count
    /// against the window cap as if admitted, so the cap is never
    /// overshot; a connection has at most one queued — its pending slot
    /// is taken — so its own quota needs no such allowance).  The
    /// refusal, if a check fails.
    fn admission(
        &self,
        conn: ConnId,
        round: u64,
        submission: &Submission,
        queued: usize,
    ) -> Option<Frame> {
        if self.open_round != Some(round) {
            return Some(err(error_code::UNKNOWN_ROUND, "no submission window open"));
        }
        if self.pending_subs.len() + queued >= self.policy.max_pending {
            xrd_obs::counter!("submit.rejected.quota").incr();
            return Some(err(error_code::QUOTA_EXCEEDED, "submission window full"));
        }
        if self.submitted.get(&conn).copied().unwrap_or(0) >= self.policy.max_per_conn {
            xrd_obs::counter!("submit.rejected.quota").incr();
            return Some(err(
                error_code::QUOTA_EXCEEDED,
                "per-connection quota exhausted",
            ));
        }
        if submission.ct.len() != outer_ct_len(self.public().len()) {
            return Some(err(error_code::REJECTED_SUBMISSION, "wrong onion size"));
        }
        None
    }

    /// Decide everything queued since the last screening, in arrival
    /// order.  Its points are decoded first, all in **one**
    /// [`decode_all`](xrd_crypto::GroupElement::decode_all) ([`Submission::decode_points`]): one
    /// that is no point is refused as the frame that does not parse it
    /// was before any other check ([`Settled::Malformed`]).  The rest
    /// pass the cheap checks ([`MixState::admission`]) or are refused;
    /// what passes has its proof of knowledge checked in **one** batched
    /// verification ([`Submission::verify_poks`]: one multiscalar
    /// multiplication; a rejecting batch falls back to per-proof checks,
    /// so exactly the proofs a single check refuses are refused).
    /// Passers are admitted to the window in arrival order; each
    /// refusal waits in `rejections` for the tick's commit.
    fn screen(&mut self) {
        if self.unscreened.is_empty() {
            return;
        }
        let started = std::time::Instant::now();
        let (requests, mut submissions): (Vec<(ConnId, u64)>, Vec<Submission>) =
            (std::mem::take(&mut self.unscreened).into_iter())
                .map(|(conn, round, submission)| ((conn, round), submission))
                .unzip();
        // Every queued submission came off a `Submit` frame undecoded.
        count_decoded(submissions.len());
        let points = Submission::decode_points(&mut submissions);
        let mut candidates: Vec<(ConnId, Submission)> = Vec::with_capacity(submissions.len());
        for (((conn, round), submission), point) in
            requests.into_iter().zip(submissions).zip(points)
        {
            let refusal = match point {
                false => Some(Settled::Malformed(CodecError::InvalidGroupElement)),
                true => (self.admission(conn, round, &submission, candidates.len()))
                    .map(Settled::Instead),
            };
            match refusal {
                Some(refusal) => self.rejections.push((conn, refusal)),
                None => candidates.push((conn, submission)),
            }
        }
        let Some(round) = self.open_round.filter(|_| !candidates.is_empty()) else {
            return;
        };
        let (conns, submissions): (Vec<ConnId>, Vec<Submission>) = candidates.into_iter().unzip();
        let verdicts = Submission::verify_poks(round, &submissions);
        xrd_obs::hist!("submit.screen_batch").record(submissions.len() as u64);
        if verdicts.contains(&false) {
            xrd_obs::counter!("submit.screen_fallbacks").incr();
        }
        for ((conn, submission), valid) in conns.into_iter().zip(submissions).zip(verdicts) {
            if valid {
                *self.submitted.entry(conn).or_insert(0) += 1;
                self.pending_subs.push(submission);
            } else {
                let refusal = err(error_code::REJECTED_SUBMISSION, "invalid PoK");
                self.rejections.push((conn, Settled::Instead(refusal)));
            }
        }
        xrd_obs::hist!("submit.screen_us").record_duration(started.elapsed());
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
                        let digest = window_digest(self.server.lie(), batch);
                        return Frame::BatchDigest {
                            round,
                            digest: digest.batch,
                            column: digest.column,
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
                // Canonical order: sort by serialized bytes (a
                // submission's order), so every server that received the
                // same set fixes the same batch.
                let mut batch = std::mem::take(&mut self.pending_subs);
                batch.sort_unstable();
                batch.dedup();
                let digest = window_digest(self.server.lie(), &batch);
                let count = batch.len() as u64;
                self.batches.insert(round, batch);
                // Only the current and previous rounds are ever mixed,
                // fetched or blamed; pruning older batches bounds daemon
                // memory over a long-lived deployment.
                self.batches.retain(|&r, _| r + 1 >= round);
                Frame::BatchDigest {
                    round,
                    digest: digest.batch,
                    column: digest.column,
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
            Frame::RevealInnerKey { .. } => {
                let (position, isk) = self.server.inner_key_reveal();
                Frame::InnerKeyReveal {
                    position: position as u32,
                    isk,
                }
            }
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
                self.server.rekey(secrets.clone(), keys);
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
                xrd_obs::counter!("dispute.verdicts.heard").incr();
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
}

impl MixService {
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
        state
            .streams
            .insert(conn, HopStreamSession::new(kernel, total));
        Outcome::Reply(Vec::new())
    }

    /// `MixBatchChunk`: dispatch the chunk's decrypt-and-blind to the
    /// pool immediately — compute overlaps the rest of the transfer
    /// ([`HopStreamSession::dispatch`]).  The reactor thread does the
    /// overrun bookkeeping and absorbs the chunk's payload, as its
    /// `wire` bytes carried it, into the stream digest — so nothing
    /// here is encoded again.
    fn stream_chunk(
        &self,
        conn: ConnId,
        entries: Vec<MixEntry>,
        wire: &[u8],
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
        let payload = &wire[ChunkedBatch::CHUNK_PAYLOAD_OFFSET..];
        session.digest.absorb_chunk_payload(payload);
        session.dispatch(entries, workers);
        Outcome::Reply(Vec::new())
    }

    /// `MixWindow`: hop 0 mixes the batch its window fixed for `round`,
    /// less the `removed` users — submissions already screened, their
    /// points decoded once — through the same chunk jobs and the same
    /// End job as a streamed hop.  Its reply opens with the column it
    /// mixes ([`Frame::WindowColumn`]), written as the bytes the
    /// submissions came in.  A daemon that is not hop 0, or holds no
    /// window for the round, refuses.
    fn mix_window(&self, round: u64, removed: Vec<u64>, workers: &Arc<WorkerPool>) -> Outcome {
        let state = self.lock();
        if state.secrets.position != 0 {
            return Outcome::reply(err(error_code::BAD_STATE, "only hop 0 mixes its window"));
        }
        let Some(batch) = state.batches.get(&round) else {
            return Outcome::reply(err(error_code::UNKNOWN_ROUND, "no window for round"));
        };
        let mut removed = removed;
        removed.sort_unstable();
        if removed.last().is_some_and(|&i| i as usize >= batch.len()) {
            return Outcome::reply(err(error_code::BAD_STATE, "removes a user out of range"));
        }
        let active: Vec<usize> = (0..batch.len())
            .filter(|&i| removed.binary_search(&(i as u64)).is_err())
            .collect();
        let mixed = window_submissions(state.server.lie(), batch, &active);
        let column = DhColumn::with_encodings(
            mixed.iter().map(|s| s.dh()).collect(),
            mixed.iter().map(|s| *s.encoded_dh()).collect(),
        );
        let mut session = HopStreamSession::new(state.server.chunk_kernel(round), mixed.len());
        for chunk in mixed.chunks(STREAM_CHUNK) {
            session.dispatch(chunk.iter().map(|s| s.to_entry()).collect(), workers);
        }
        drop(state);
        let head = Frame::WindowColumn { round, column }.encode();
        self.finish(session, true, head)
    }

    /// `MixBatchEnd`: defer the hop's assembly — the job waits for the
    /// session's chunk jobs, checks the stream digest, shuffles, proves
    /// and streams the output back to the sender.
    fn stream_end(&self, conn: ConnId, digest: [u8; 32]) -> Outcome {
        let Some(mut session) = self.lock().streams.remove(&conn) else {
            return Outcome::reply(err(error_code::BAD_STATE, "end without MixBatchStart"));
        };
        let computed = std::mem::take(&mut session.digest);
        self.finish(session, computed.finalize() == digest, Vec::new())
    }

    /// The End job of a hop whose chunk jobs `session` dispatched: it
    /// waits for them, shuffles, proves and answers, its reply opened
    /// by `head`.
    fn finish(&self, session: HopStreamSession, digest_ok: bool, head: Vec<u8>) -> Outcome {
        let HopStreamSession {
            total,
            kernel,
            work,
            jobs,
            ..
        } = session;
        let state = Arc::clone(&self.state);
        let hop = move || {
            let _span = xrd_obs::span_timer("hop.stream", kernel.round());
            let waited = std::time::Instant::now();
            let (inputs, slots) = work.wait_collect(jobs);
            xrd_obs::hist!("hop.wait_chunks_us").record_duration(waited.elapsed());
            if inputs.len() != total {
                let e = StreamError::Incomplete {
                    received: inputs.len(),
                    total,
                };
                return err(error_code::BAD_STATE, format!("stream rejected: {e}")).encode();
            }
            if !digest_ok {
                let e = StreamError::DigestMismatch;
                return err(error_code::BAD_STATE, format!("stream rejected: {e}")).encode();
            }
            let round = kernel.round();
            let mut guard = state.lock().expect("mix state poisoned");
            let st = &mut *guard;
            let position = st.secrets.position;
            match st.server.finish_round(&mut st.rng, round, inputs, slots) {
                Ok(result) => {
                    // The proof and shuffle are done; release the lock
                    // before the output encoding pass.
                    drop(guard);
                    let encoding = std::time::Instant::now();
                    let bytes = encode_hop_output_stream(
                        round,
                        position as u32,
                        &result.outputs,
                        &result.proof,
                        STREAM_CHUNK,
                    );
                    xrd_obs::hist!("hop.encode_us").record_duration(encoding.elapsed());
                    bytes
                }
                Err(MixError::DecryptFailure(failed)) => Frame::HopFailure {
                    round,
                    position: position as u32,
                    failed: failed.into_iter().map(|i| i as u64).collect(),
                }
                .encode(),
                Err(MixError::Malformed) => err(error_code::BAD_STATE, "malformed batch").encode(),
            }
        };
        Outcome::Defer(Box::new(move || match head.is_empty() {
            true => hop(),
            false => [head, hop()].concat(),
        }))
    }

    /// `DisputeOpen`: re-check the disputed attestation against this
    /// server's copy of the public bundle and answer with signed
    /// evidence ([`upheld`], [`HopAttestation::sign_verdict`]).  The
    /// verification is pure public-data work off a snapshot of the
    /// bundle and the lie; the state lock is taken only to sign.
    fn defer_dispute(&self, attestation: HopAttestation) -> Outcome {
        let (public, lie) = {
            let state = self.lock();
            (state.server.public().clone(), state.server.lie())
        };
        let state = Arc::clone(&self.state);
        Outcome::Defer(Box::new(move || {
            let upheld = upheld(lie, &public, &attestation);
            let mut guard = state.lock().expect("mix state poisoned");
            let st = &mut *guard;
            let position = st.secrets.position as u32;
            let sig = attestation.sign_verdict(&mut st.rng, &st.server, upheld);
            drop(guard);
            xrd_obs::counter!("dispute.evidence.served").incr();
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

    /// `VerifyHopKeys`: the server's check of the other hops against
    /// its own hop of the round
    /// ([`Verifier::check`](xrd_mixnet::server::Verifier::check)).  The
    /// bundle, the lie and the hop's two columns are copied under the
    /// state lock; the check runs off it.
    fn defer_cross_check(&self, check: CrossCheck) -> Outcome {
        let Some(verifier) = self.lock().server.verifier(check.round) else {
            return Outcome::reply(err(error_code::UNKNOWN_ROUND, "no hop state for round"));
        };
        Outcome::Defer(Box::new(move || match verifier.check(&check) {
            Ok(verdicts) => Frame::VerifyResult { verdicts }.encode(),
            Err(why) => err(error_code::BAD_STATE, format!("check refused: {why}")).encode(),
        }))
    }
}

impl Service for MixService {
    fn handle(
        &self,
        conn: ConnId,
        frame: Frame,
        wire: &[u8],
        workers: &Arc<WorkerPool>,
    ) -> Outcome {
        match frame {
            // The `Ok` waits for the tick's screening: every submission
            // gets its verdict before its acknowledgement.
            Frame::Submit { round, submission } => {
                self.lock().queue_submission(conn, round, submission);
                Outcome::ReplyAfterCommit(vec![Frame::Ok])
            }
            Frame::MixBatchStart { round, total } => self.stream_start(conn, round, total),
            Frame::MixBatchChunk { entries } => self.stream_chunk(conn, entries, wire, workers),
            Frame::MixBatchEnd { digest } => self.stream_end(conn, digest),
            Frame::MixWindow { round, removed } => self.mix_window(round, removed, workers),
            Frame::VerifyHopKeys { check } => self.defer_cross_check(check),
            Frame::DisputeOpen { attestation } => self.defer_dispute(attestation),
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
    }

    /// The tick's one commit point: one screening of every submission
    /// the iteration queued (the offenders' held `Ok`s become their
    /// refusals), then one journal sync for the control
    /// records the iteration appended — or, if it activated a
    /// rotation, one rewrite compacting the journal to the state the
    /// activation left, which keeps the journal a few records long.
    fn commit(&self) -> Result<Vec<(ConnId, Settled)>, Frame> {
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
                xrd_obs::counter!("daemon.journal.rewrites").incr();
            }
            None if unsynced => log.sync().map_err(storage_err)?,
            None => {}
        }
        Ok(rejections)
    }
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
        lie: Option<Lie>,
    ) -> Arc<Mutex<MixState>> {
        let (journal, records) = match journal {
            Some((j, records)) => (Some(j), records),
            None => (None, Vec::new()),
        };
        let (secrets, public, pending_isk, open_round) = Self::restore(secrets, public, &records);
        let mut server = MixServer::new(secrets.clone(), public);
        server.set_lie(lie);
        Arc::new(Mutex::new(MixState {
            server,
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
        let state = Self::state(secrets, public, rng_seed, policy, None, None);
        spawn_daemon(addr, Arc::new(MixService { state }))
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
        journal: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<DaemonHandle> {
        let (journal, records) = open_journal(journal)?;
        let state = Self::state(
            secrets,
            public,
            rng_seed,
            SubmissionPolicy::default(),
            Some((journal, records)),
            None,
        );
        spawn_daemon(addr, Arc::new(MixService { state }))
    }

    /// Spawn a *byzantine* daemon: the honest protocol with exactly
    /// one [`Lie`], told by its server wherever that lie's wave asks it
    /// (see `docs/FAULTS.md` §2).
    pub fn spawn_byzantine<A: ToSocketAddrs>(
        addr: A,
        secrets: ServerSecrets,
        public: ChainPublicKeys,
        rng_seed: u64,
        lie: Lie,
    ) -> std::io::Result<DaemonHandle> {
        let policy = SubmissionPolicy::default();
        let state = Self::state(secrets, public, rng_seed, policy, None, Some(lie));
        spawn_daemon(addr, Arc::new(MixService { state }))
    }
}

// ---------------------------------------------------------------------
// Mailbox daemon
// ---------------------------------------------------------------------

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
            xrd_obs::counter!("mailbox.deliver.duplicates").incr();
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
        xrd_obs::counter!("mailbox.deliver.batches").incr();
        Ok(())
    }
}

impl Service for MailboxService {
    fn handle(
        &self,
        _conn: ConnId,
        frame: Frame,
        _wire: &[u8],
        _workers: &Arc<WorkerPool>,
    ) -> Outcome {
        self.state
            .lock()
            .expect("mailbox state poisoned")
            .handle(frame)
    }

    fn commit(&self) -> Result<Vec<(ConnId, Settled)>, Frame> {
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
        let state = MixServerDaemon::state(secrets.remove(0), public, 7, policy, None, None);
        {
            let mut st = state.lock().unwrap();
            assert_eq!(st.handle(Frame::OpenRound { round: 0 }), Frame::Ok);
            for (conn, submission) in (10..).zip(submissions) {
                st.queue_submission(conn, 0, submission);
            }
            assert!(st.pending_subs.is_empty(), "nothing is admitted unscreened");
        }
        state
    }

    /// The one offender's rejection, as the commit will hand it over.
    fn assert_only_conn_12_rejected(st: &MixState) {
        assert!(st.unscreened.is_empty());
        match &st.rejections[..] {
            [(12, Settled::Instead(Frame::Error { code, .. }))] => {
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
        let state = MixServerDaemon::state(
            secrets.clone(),
            public.clone(),
            7,
            policy,
            Some(journal),
            None,
        );
        (secrets, public, MixService { state })
    }

    /// Handle `frame`, demanding the reply be held for the commit.
    fn held(service: &MixService, frame: Frame) -> Frame {
        match service.handle(1, frame, &[], &WorkerPool::new(1)) {
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

    /// A byzantine hop keeps its lie across a key rotation: the
    /// activation re-keys its server, and the next round's reveal still
    /// answers as another position.
    #[test]
    fn a_lie_survives_the_rotation() {
        let mut rng = StdRng::seed_from_u64(45);
        let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
        rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
        let (policy, lie) = (SubmissionPolicy::default(), Some(Lie::KeyAsAnother));
        let state = MixServerDaemon::state(secrets.remove(0), public.clone(), 7, policy, None, lie);
        let mut st = state.lock().unwrap();
        let share = st.handle(Frame::PrepareRotation { inner_epoch: 1 });
        let keys = bundle_with(&public, share);
        assert_eq!(st.handle(Frame::ActivateRotation { keys }), Frame::Ok);
        assert_eq!(st.handle(Frame::OpenRound { round: 1 }), Frame::Ok);
        match st.handle(Frame::RevealInnerKey { round: 1 }) {
            Frame::InnerKeyReveal { position, .. } => assert_eq!(position, 1, "told as hop 1"),
            other => panic!("expected InnerKeyReveal, got {other:?}"),
        }
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
        let state = MixServerDaemon::state(secrets, public, 7, policy, Some((log, records)), None);
        let restarted = MixService { state };
        assert_eq!(held(&restarted, activate), Frame::Ok, "the retry is taken");
        assert_eq!(restarted.commit(), Ok(Vec::new()));
        assert_eq!(restarted.lock().public(), &keys);
        let _ = std::fs::remove_file(&path);
    }
}
