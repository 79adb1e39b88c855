//! The mailbox daemon's durability rule, pinned against a store double
//! that logs every call: an `Ok` for a `FetchAck` or a `Deliver` is
//! written to a socket only after a sync that **began after** its
//! record was appended has returned; the replies of one reactor tick
//! share one sync; a lone request pays exactly one and waits for
//! nothing; and a failed sync refuses everything it covered and
//! everything after it.
//!
//! The double's `flush` can be gated (each call waits for a permit), so
//! a test can park the reactor inside one sync, queue frames on several
//! connections, and know they are all served by the very next tick.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xrd_core::mailbox::{MailboxError, MailboxHub, MailboxStore, Page};
use xrd_mixnet::{MailboxMessage, MAILBOX_MSG_LEN};
use xrd_net::codec::{error_code, Frame};
use xrd_net::swarm::reactor::{
    drive_sessions, DriveConfig, FetchSession, SessionMachine, Step, FETCH_PAGE_MAX,
};
use xrd_net::{Conn, DaemonHandle, MailboxDaemon, NetError};

/// One store call, in the order the daemon made them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    /// `ack` applied for this mailbox.
    Ack([u8; 32]),
    /// `commit_batch(round, batch)` appended.
    CommitBatch(u64, u64),
    /// `fetch_page` served for this mailbox.
    Page([u8; 32]),
    /// `flush` entered.
    FlushStart,
    /// `flush` returned `Ok`.
    Flushed,
    /// `flush` returned `Err`.
    FlushFailed,
}

/// The test's window into the store double, shared with it.
#[derive(Default)]
struct Probe {
    log: Mutex<Vec<Call>>,
    /// While set, every `flush` waits for a permit.
    gated: AtomicBool,
    permits: Mutex<usize>,
    turn: Condvar,
    /// Fail the `flush` with this 1-based ordinal (0: none).
    fail_flush: AtomicUsize,
}

impl Probe {
    fn record(&self, call: Call) {
        self.log.lock().unwrap().push(call);
    }

    fn log(&self) -> Vec<Call> {
        self.log.lock().unwrap().clone()
    }

    fn count(&self, call: Call) -> usize {
        self.log().iter().filter(|&&c| c == call).count()
    }

    fn position(&self, call: Call) -> Option<usize> {
        self.log().iter().position(|&c| c == call)
    }

    /// The invariant, for one record: it is in the log, a `flush` began
    /// after it, and that `flush` has returned `Ok`.
    fn synced_after(&self, record: Call) -> bool {
        let log = self.log();
        let Some(appended) = log.iter().position(|&c| c == record) else {
            return false;
        };
        let Some(began) = log[appended..].iter().position(|&c| c == Call::FlushStart) else {
            return false;
        };
        log[appended + began..].contains(&Call::Flushed)
    }

    fn gate(&self) {
        self.gated.store(true, Ordering::SeqCst);
    }

    /// Let `n` gated flushes through.
    fn permit(&self, n: usize) {
        *self.permits.lock().unwrap() += n;
        self.turn.notify_all();
    }

    fn ungate(&self) {
        self.gated.store(false, Ordering::SeqCst);
        self.turn.notify_all();
    }
}

/// The in-memory hub behind a call log, with a `flush` that takes as
/// long as a small `fdatasync`, can be held shut, and can fail.
struct ProbedStore {
    hub: MailboxHub,
    probe: Arc<Probe>,
}

impl MailboxStore for ProbedStore {
    fn put(&mut self, round: u64, msg: MailboxMessage) -> Result<u64, MailboxError> {
        self.hub.put(round, msg)
    }

    fn fetch_page(
        &mut self,
        mailbox: &[u8; 32],
        cursor: u64,
        max: usize,
    ) -> Result<Page, MailboxError> {
        self.probe.record(Call::Page(*mailbox));
        self.hub.fetch_page(mailbox, cursor, max)
    }

    fn ack(&mut self, mailbox: &[u8; 32], upto: u64) -> Result<u64, MailboxError> {
        let retired = self.hub.ack(mailbox, upto)?;
        self.probe.record(Call::Ack(*mailbox));
        Ok(retired)
    }

    fn pending(&self, mailbox: &[u8; 32]) -> Result<u64, MailboxError> {
        self.hub.pending(mailbox)
    }

    fn flush(&mut self) -> Result<(), MailboxError> {
        self.probe.record(Call::FlushStart);
        let ordinal = self.probe.count(Call::FlushStart);
        let mut permits = self.probe.permits.lock().unwrap();
        while self.probe.gated.load(Ordering::SeqCst) && *permits == 0 {
            permits = self.probe.turn.wait(permits).unwrap();
        }
        *permits = permits.saturating_sub(1);
        drop(permits);
        std::thread::sleep(Duration::from_micros(200));
        if self.probe.fail_flush.load(Ordering::SeqCst) == ordinal {
            self.probe.record(Call::FlushFailed);
            return Err(MailboxError::Storage {
                message: "injected sync failure".into(),
            });
        }
        self.probe.record(Call::Flushed);
        Ok(())
    }

    fn begin_batch(&mut self, round: u64, batch: u64) -> Result<bool, MailboxError> {
        self.hub.begin_batch(round, batch)
    }

    fn commit_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError> {
        self.hub.commit_batch(round, batch)?;
        self.probe.record(Call::CommitBatch(round, batch));
        Ok(())
    }

    fn abort_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError> {
        self.hub.abort_batch(round, batch)
    }
}

/// A one-shard daemon over the double.  The guard opens the gate when
/// the test ends (or panics), so the reactor thread is never left
/// waiting inside a `flush` while `DaemonHandle::drop` joins it.
struct Shard {
    probe: Arc<Probe>,
    daemon: DaemonHandle,
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.probe.ungate();
    }
}

fn shard() -> Shard {
    let probe = Arc::new(Probe::default());
    let store = ProbedStore {
        hub: MailboxHub::new(1),
        probe: Arc::clone(&probe),
    };
    let daemon = MailboxDaemon::with_store("127.0.0.1:0", 0, 1, Box::new(store)).expect("spawns");
    Shard { probe, daemon }
}

fn mbox(i: usize) -> [u8; 32] {
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
    id
}

fn msg(mailbox: [u8; 32], fill: u8) -> MailboxMessage {
    MailboxMessage {
        mailbox,
        sealed: vec![fill; MAILBOX_MSG_LEN - 32],
    }
}

fn connect(addr: SocketAddr) -> Conn {
    Conn::connect(addr).expect("connects")
}

/// Deliver `per_box` entries to each of mailboxes `0..n`, `batch` ids
/// from 0, one mailbox per batch.
fn fill(addr: SocketAddr, n: usize, per_box: u8) {
    let mut conn = connect(addr);
    for i in 0..n {
        conn.request_ok(&Frame::Deliver {
            round: 1,
            batch: i as u64,
            messages: (0..per_box).map(|k| msg(mbox(i), k)).collect(),
        })
        .expect("delivery acknowledged");
    }
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn ack(mailbox: [u8; 32], upto: u64) -> Frame {
    Frame::FetchAck { mailbox, upto }
}

/// Park the reactor inside a gated sync — the one covering a first
/// client's ack of `mailbox` — so everything the test sends next is
/// readable by the time a permit lets that sync return, and is served
/// by the one tick that follows.  Returns the parked client.
fn park_reactor(shard: &Shard, mailbox: [u8; 32]) -> Conn {
    let started = shard.probe.count(Call::FlushStart);
    shard.probe.gate();
    let mut conn = connect(shard.daemon.addr());
    conn.send(&ack(mailbox, 1)).expect("sent");
    wait_for("the parking sync", || {
        shard.probe.count(Call::FlushStart) == started + 1
    });
    conn
}

/// Loopback delivery is synchronous with the sender's `write`, but give
/// the daemon's socket buffers a moment anyway before the reactor is
/// let go.
fn settle() {
    std::thread::sleep(Duration::from_millis(30));
}

/// A [`FetchSession`] that, the moment it reads an `Ok`, checks the
/// invariant for its own ack against the store's log.
struct CheckedFetch {
    inner: FetchSession,
    probe: Arc<Probe>,
    early: Arc<AtomicUsize>,
}

impl SessionMachine for CheckedFetch {
    fn target(&self) -> Option<SocketAddr> {
        self.inner.target()
    }

    fn on_connect(&mut self) -> Vec<Frame> {
        self.inner.on_connect()
    }

    fn on_frame(&mut self, frame: Frame) -> Step {
        if frame == Frame::Ok && !self.probe.synced_after(Call::Ack(self.inner.mailbox())) {
            self.early.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.on_frame(frame)
    }
}

/// (a) + (b, herd): 300 users fetch and ack at once.  Every `Ok` —
/// for each `Deliver` and each `FetchAck` — is read only after a sync
/// that began after its record, and the herd shares syncs.
#[test]
fn every_ok_follows_a_sync_that_began_after_its_record() {
    let shard = shard();
    let addr = shard.daemon.addr();
    let n = 300;

    let mut conn = connect(addr);
    for i in 0..n {
        conn.request_ok(&Frame::Deliver {
            round: 1,
            batch: i as u64,
            messages: vec![msg(mbox(i), 1), msg(mbox(i), 2)],
        })
        .expect("delivery acknowledged");
        assert!(
            shard.probe.synced_after(Call::CommitBatch(1, i as u64)),
            "Deliver {i} acknowledged before a sync covered its commit record"
        );
    }
    let delivery_syncs = shard.probe.count(Call::Flushed);
    assert_eq!(delivery_syncs, n, "a lone Deliver at a time: one sync each");

    let early = Arc::new(AtomicUsize::new(0));
    let sessions: Vec<CheckedFetch> = (0..n)
        .map(|i| CheckedFetch {
            inner: FetchSession::new(addr, mbox(i), FETCH_PAGE_MAX),
            probe: Arc::clone(&shard.probe),
            early: Arc::clone(&early),
        })
        .collect();
    let run = drive_sessions(sessions, &DriveConfig::default()).expect("drives");
    assert!(run.failed.is_empty(), "sessions failed: {:?}", run.failed);
    assert_eq!(run.completed, n);
    for (i, session) in run.sessions.into_iter().enumerate() {
        assert_eq!(session.inner.into_entries().len(), 2, "mailbox {i}");
    }
    assert_eq!(
        early.load(Ordering::SeqCst),
        0,
        "an Ok was read before a sync that began after its ack returned"
    );

    let acks = (0..n)
        .map(|i| shard.probe.count(Call::Ack(mbox(i))))
        .sum::<usize>();
    let ack_syncs = shard.probe.count(Call::Flushed) - delivery_syncs;
    assert_eq!(acks, n);
    assert!(
        ack_syncs < acks,
        "the herd must share syncs: {ack_syncs} syncs for {acks} acks"
    );
    assert!(ack_syncs >= 1);
}

/// (b, alone): one session's one ack costs exactly one sync, and its
/// `Ok` does not wait for company — no linger, no poll timeout (the
/// reactor's is 100 ms; twenty sessions in sequence would take two
/// seconds if each reply sat one out).
#[test]
fn a_lone_ack_pays_one_sync_and_waits_for_nothing() {
    let shard = shard();
    let addr = shard.daemon.addr();
    let n = 20;
    fill(addr, n, 3);

    let started = Instant::now();
    for i in 0..n {
        let before = shard.probe.count(Call::Flushed);
        let session = FetchSession::new(addr, mbox(i), FETCH_PAGE_MAX);
        let run = drive_sessions(vec![session], &DriveConfig::default()).expect("drives");
        assert_eq!(run.completed, 1);
        assert_eq!(shard.probe.count(Call::Ack(mbox(i))), 1);
        assert_eq!(
            shard.probe.count(Call::Flushed) - before,
            1,
            "one ack, one sync"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "lone acks waited for something: {:?}",
        started.elapsed()
    );
}

/// (c) `FetchAck, FetchPage` pipelined in one write: `Ok` then the
/// page, in order (PROTOCOL.md §6) — and the page was not even served
/// until the ack's sync had returned, because the held reply occupies
/// the connection's pending slot.
#[test]
fn pipelined_ack_then_page_is_answered_in_order() {
    let shard = shard();
    let addr = shard.daemon.addr();
    fill(addr, 1, 3);
    let m = mbox(0);

    let mut conn = connect(addr);
    let mut both = ack(m, 2).encode();
    both.extend_from_slice(
        &Frame::FetchPage {
            mailbox: m,
            cursor: 0,
            max: 16,
        }
        .encode(),
    );
    conn.send_encoded(&both).expect("sent");
    assert_eq!(conn.recv().expect("first reply"), Frame::Ok);
    match conn.recv().expect("second reply") {
        Frame::MailboxPage {
            sealed, remaining, ..
        } => {
            assert_eq!(sealed, vec![(1, msg(m, 2).sealed)], "two of three retired");
            assert_eq!(remaining, 0);
        }
        other => panic!("expected MailboxPage, got {other:?}"),
    }

    let log = shard.probe.log();
    let acked = shard.probe.position(Call::Ack(m)).expect("acked");
    let synced = acked
        + log[acked..]
            .iter()
            .position(|&c| c == Call::Flushed)
            .expect("synced");
    let paged = shard.probe.position(Call::Page(m)).expect("page served");
    assert!(synced < paged, "the page was served while the ack was held");
}

/// (d) A client that half-closes right after its `FetchAck` — while the
/// reply is held — still receives its `Ok`, then EOF.
#[test]
fn half_closing_client_still_gets_its_ok() {
    let shard = shard();
    let addr = shard.daemon.addr();
    fill(addr, 1, 2);
    let m = mbox(0);

    let syncs = shard.probe.count(Call::FlushStart);
    shard.probe.gate();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.write_all(&ack(m, 2).encode()).expect("sent");
    stream.shutdown(Shutdown::Write).expect("half-closes");
    wait_for("the ack's sync", || {
        shard.probe.count(Call::FlushStart) == syncs + 1
    });
    settle();
    shard.probe.permit(1);

    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("reads to EOF");
    assert_eq!(reply, Frame::Ok.encode());
    assert!(shard.probe.synced_after(Call::Ack(m)));
}

/// (e) Two replies held by one tick; one client hangs up before the
/// sync returns.  The other still gets its `Ok`, and the ack of the one
/// that left is applied and synced all the same.
#[test]
fn hangup_while_held_disturbs_nobody() {
    let shard = shard();
    let addr = shard.daemon.addr();
    fill(addr, 3, 2);
    let (parked, leaver, stayer) = (mbox(0), mbox(1), mbox(2));

    let mut first = park_reactor(&shard, parked);
    let parking_sync = shard.probe.count(Call::FlushStart);
    let mut a = connect(addr);
    let mut b = connect(addr);
    a.send(&ack(leaver, 2)).expect("sent");
    b.send(&ack(stayer, 2)).expect("sent");
    settle();
    shard.probe.permit(1);
    assert_eq!(first.recv().expect("parked client's reply"), Frame::Ok);

    // Both acks applied, then the one sync that covers both begins —
    // and waits at the gate with both replies held.
    wait_for("the shared sync", || {
        shard.probe.count(Call::FlushStart) == parking_sync + 1
    });
    let log = shard.probe.log();
    let second_sync = log.iter().rposition(|&c| c == Call::FlushStart).unwrap();
    assert!(shard.probe.position(Call::Ack(leaver)).expect("applied") < second_sync);
    assert!(shard.probe.position(Call::Ack(stayer)).expect("applied") < second_sync);

    drop(a);
    settle();
    shard.probe.ungate();
    assert_eq!(b.recv().expect("the stayer's reply"), Frame::Ok);
    assert!(shard.probe.synced_after(Call::Ack(leaver)));
    assert_eq!(
        shard.probe.count(Call::FlushStart),
        parking_sync + 1,
        "one sync for both"
    );

    // The leaver's ack took: her mailbox reads empty, not unknown.
    match connect(addr)
        .request(&Frame::FetchPage {
            mailbox: leaver,
            cursor: 0,
            max: 16,
        })
        .expect("answered")
    {
        Frame::MailboxPage {
            sealed, remaining, ..
        } => assert!(sealed.is_empty() && remaining == 0),
        other => panic!("expected MailboxPage, got {other:?}"),
    }
}

/// (f) `Shutdown` served by the same tick that holds a reply: the held
/// record is synced and its `Ok` released before the daemon stops.
#[test]
fn shutdown_commits_and_releases_what_the_tick_held() {
    let mut shard = shard();
    let addr = shard.daemon.addr();
    fill(addr, 2, 2);
    let (parked, held) = (mbox(0), mbox(1));

    let mut first = park_reactor(&shard, parked);
    let mut a = connect(addr);
    let mut stopper = connect(addr);
    // The poller reports sockets in the order they turned readable:
    // the ack is held first, then the shutdown ends the event pass.
    a.send(&ack(held, 2)).expect("sent");
    settle();
    stopper.send(&Frame::Shutdown).expect("sent");
    settle();
    shard.probe.ungate();

    assert_eq!(first.recv().expect("parked client's reply"), Frame::Ok);
    assert_eq!(stopper.recv().expect("shutdown acknowledged"), Frame::Ok);
    assert_eq!(a.recv().expect("held reply released"), Frame::Ok);
    shard.daemon.wait();
    assert!(shard.probe.synced_after(Call::Ack(held)));
    assert!(matches!(a.recv(), Err(NetError::Disconnected)));
}

/// A failed sync: every `Ok` that tick held becomes `STORAGE`, and the
/// retried `Deliver` and `FetchAck` are refused — not answered from the
/// dedup window or the ack watermark that ran ahead of the disk.
#[test]
fn failed_sync_refuses_the_tick_and_every_retry() {
    let shard = shard();
    let addr = shard.daemon.addr();
    fill(addr, 3, 2);
    let (parked, ma, md) = (mbox(0), mbox(1), mbox(2));
    let deliver = Frame::Deliver {
        round: 5,
        batch: 1,
        messages: vec![msg(ma, 9)],
    };
    let storage = |reply: Result<Frame, NetError>, what: &str| match reply {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::STORAGE, "{what}"),
        other => panic!("{what}: expected STORAGE, got {other:?}"),
    };

    let mut first = park_reactor(&shard, parked);
    let failing = shard.probe.count(Call::FlushStart) + 1;
    shard.probe.fail_flush.store(failing, Ordering::SeqCst);
    let mut a = connect(addr);
    let mut b = connect(addr);
    let mut d = connect(addr);
    a.send(&ack(ma, 2)).expect("sent");
    b.send(&deliver).expect("sent");
    d.send(&ack(md, 2)).expect("sent");
    settle();
    shard.probe.ungate();
    assert_eq!(first.recv().expect("parked client's reply"), Frame::Ok);

    // One tick applied all three; its one sync failed; all three hear it.
    for (conn, what) in [(&mut a, "ack a"), (&mut b, "deliver"), (&mut d, "ack d")] {
        match conn.recv().expect("answered") {
            Frame::Error { code, .. } => assert_eq!(code, error_code::STORAGE, "{what}"),
            other => panic!("{what}: expected STORAGE, got {other:?}"),
        }
    }
    let log = shard.probe.log();
    assert_eq!(shard.probe.count(Call::FlushStart), failing);
    let failed = shard.probe.position(Call::FlushFailed).expect("failed");
    for record in [Call::Ack(ma), Call::CommitBatch(5, 1), Call::Ack(md)] {
        assert!(shard.probe.position(record).expect("applied") < failed);
    }

    // Retries — same connections and a fresh one — are refused, and
    // the store is not consulted again: nothing after the failure can
    // be acknowledged from state the disk never saw.
    storage(b.request(&deliver), "retried deliver");
    storage(a.request(&ack(ma, 2)), "retried ack");
    storage(connect(addr).request(&ack(md, 2)), "retried ack, new conn");
    storage(
        connect(addr).request(&Frame::FetchPage {
            mailbox: ma,
            cursor: 0,
            max: 16,
        }),
        "page from a poisoned shard",
    );
    assert_eq!(shard.probe.log().len(), log.len(), "store left alone");
    assert_eq!(shard.probe.count(Call::Flushed), failing - 1);
}
