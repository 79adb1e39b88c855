//! Adversarial-peer and lifecycle tests for the reactor daemons: byte
//! dribblers, desynchronized streams, pipelined clients and graceful
//! shutdown with connections still open — all over real loopback TCP.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use xrd_net::codec::{error_code, Frame};
use xrd_net::reactor::{ConnId, Outcome, Reactor, Service, Settled, WorkerPool};
use xrd_net::{Conn, MailboxDaemon, NetError};

fn mailbox_message(byte: u8) -> xrd_mixnet::MailboxMessage {
    xrd_mixnet::MailboxMessage {
        mailbox: [byte; 32],
        sealed: vec![byte; xrd_mixnet::MAILBOX_MSG_LEN - 32],
    }
}

/// A peer that dribbles its frame one byte at a time must not stall
/// anyone else: between every byte of A's crawl, B completes a full
/// request/response round trip on the same daemon.  (The deterministic
/// interleaving is the point — under the old thread-per-connection
/// daemon this passed trivially, under a *blocking* single-thread loop
/// it would deadlock.)
#[test]
fn byte_dribbling_peer_does_not_stall_other_connections() {
    let daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let addr = daemon.addr();

    let mut dribbler = Conn::connect(addr).expect("dribbler connects");
    let mut fast = Conn::connect(addr).expect("fast client connects");

    let wire = Frame::FetchPage {
        mailbox: [5; 32],
        cursor: 0,
        max: 8,
    }
    .encode();
    let (head, last) = wire.split_at(wire.len() - 1);
    for &byte in head {
        dribbler.send_encoded(&[byte]).expect("dribble one byte");
        // While A is mid-frame, B's requests fly.
        fast.ping().expect("fast ping served");
    }

    // A's frame completes only now — and gets its answer (the mailbox
    // was never delivered to, which the shard reports as such).
    dribbler.send_encoded(last).expect("final byte");
    match dribbler.recv().expect("response readable") {
        Frame::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_MAILBOX),
        other => panic!("expected UNKNOWN_MAILBOX error, got {other:?}"),
    }
}

/// A connection's byte counts are exact: every byte it wrote and every
/// byte it read, length prefixes included — three pipelined pings, three
/// pongs.
#[test]
fn a_connection_counts_exactly_the_bytes_it_moved() {
    let daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let mut conn = Conn::connect(daemon.addr()).expect("connects");
    for _ in 0..3 {
        conn.send(&Frame::Ping).expect("ping sent");
    }
    for _ in 0..3 {
        assert_eq!(conn.recv().expect("answered"), Frame::Pong);
    }
    assert_eq!(conn.bytes_sent(), 3 * Frame::Ping.encode().len() as u64);
    assert_eq!(conn.bytes_received(), 3 * Frame::Pong.encode().len() as u64);
}

/// A well-framed but unparseable body is answered with [`Frame::Error`]
/// and the connection is closed (the stream may be desynchronized).
#[test]
fn malformed_frame_answered_with_error_then_close() {
    let daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let mut conn = Conn::connect(daemon.addr()).expect("connects");

    let mut wire = 3u32.to_le_bytes().to_vec();
    wire.extend_from_slice(&[0xEE, 1, 2]); // unknown tag, 2 payload bytes
    conn.send_encoded(&wire).expect("garbage sent");

    match conn.recv().expect("error frame readable") {
        Frame::Error { code, .. } => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(
        matches!(conn.recv(), Err(NetError::Disconnected)),
        "daemon must close after a malformed frame"
    );
}

/// A length prefix over the frame cap means the stream can never be
/// re-synchronized: the daemon reports and closes without reading the
/// declared mountain of bytes.
#[test]
fn oversized_length_prefix_answered_with_error_then_close() {
    let daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let mut conn = Conn::connect(daemon.addr()).expect("connects");

    conn.send_encoded(&u32::MAX.to_le_bytes())
        .expect("bogus prefix sent");
    match conn.recv().expect("error frame readable") {
        Frame::Error { code, .. } => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(matches!(conn.recv(), Err(NetError::Disconnected)));
}

/// Requests pipelined on one connection are answered in order: the
/// reactor processes a connection's next request only after the
/// previous response has fully drained, so the stream stays a strict
/// request/response sequence even when the client fires ahead.
#[test]
fn pipelined_requests_on_one_connection_answered_in_order() {
    let daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let mut conn = Conn::connect(daemon.addr()).expect("connects");

    let msg = mailbox_message(9);
    conn.send(&Frame::Deliver {
        round: 4,
        batch: 0,
        messages: vec![msg.clone()],
    })
    .expect("deliver fired");
    conn.send(&Frame::FetchPage {
        mailbox: msg.mailbox,
        cursor: 0,
        max: 8,
    })
    .expect("fetch fired");
    conn.send(&Frame::Ping).expect("ping fired");

    assert!(matches!(conn.recv().expect("ack 1"), Frame::Ok));
    match conn.recv().expect("ack 2") {
        Frame::MailboxPage { sealed, .. } => assert_eq!(sealed, vec![(4, msg.sealed)]),
        other => panic!("expected MailboxPage, got {other:?}"),
    }
    assert!(matches!(conn.recv().expect("ack 3"), Frame::Pong));
}

/// A peer that keeps hundreds of pipelined frames in flight (and
/// drains its responses, so backpressure never pauses it) must not
/// monopolize the single reactor thread: the per-visit frame budget
/// forces the reactor to yield back to the event loop, and another
/// connection's requests complete while the flood is in full swing.
#[test]
fn pipelined_flooder_does_not_monopolize_reactor() {
    let daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let addr = daemon.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let stop_flood = Arc::clone(&stop);
    let flooder = std::thread::spawn(move || {
        let mut conn = Conn::connect(addr).expect("flooder connects");
        let mut in_flight = 0usize;
        while !stop_flood.load(Ordering::Relaxed) {
            // Keep a deep pipeline: hundreds of buffered frames force
            // the reactor through its per-visit budget repeatedly.
            while in_flight < 256 {
                conn.send(&Frame::Ping).expect("flood ping");
                in_flight += 1;
            }
            while in_flight > 128 {
                assert!(matches!(conn.recv().expect("flood ack"), Frame::Pong));
                in_flight -= 1;
            }
        }
        while in_flight > 0 {
            let _ = conn.recv();
            in_flight -= 1;
        }
    });

    // Mid-flood, a second connection's requests all complete.
    let mut fast = Conn::connect(addr).expect("fast client connects");
    for _ in 0..50 {
        fast.ping().expect("fast ping served mid-flood");
    }
    stop.store(true, Ordering::Relaxed);
    flooder.join().expect("flooder exits cleanly");
}

/// [`Frame::Shutdown`] with other connections still open: the sender
/// gets its acknowledgement, the daemon's reactor exits of its own
/// accord, and every other connection sees EOF — no hang, no leak.
#[test]
fn shutdown_acknowledged_and_open_connections_see_eof() {
    let mut daemon = MailboxDaemon::spawn("127.0.0.1:0", 0, 1).expect("daemon spawns");
    let addr = daemon.addr();

    let mut idle: Vec<Conn> = (0..10)
        .map(|_| Conn::connect(addr).expect("idle conn"))
        .collect();
    // Prove they are live connections, not half-open sockets.
    for conn in &mut idle {
        conn.ping().expect("idle conn serves");
    }

    let mut closer = Conn::connect(addr).expect("closer connects");
    closer
        .request_ok(&Frame::Shutdown)
        .expect("shutdown acknowledged");
    daemon.wait(); // the reactor exits on its own — no external stop

    for (i, conn) in idle.iter_mut().enumerate() {
        match conn.recv() {
            Err(NetError::Disconnected) | Err(NetError::Io(_)) => {}
            other => panic!("idle conn {i} must see EOF after shutdown, got {other:?}"),
        }
    }
}

/// A service that holds every reply for the commit and refuses its
/// first commit, counting the frames it is handed.
#[derive(Default)]
struct FailsFirstCommit {
    handled: AtomicUsize,
    commits: AtomicUsize,
}

impl Service for FailsFirstCommit {
    fn handle(
        &self,
        _conn: ConnId,
        _frame: Frame,
        _wire: &[u8],
        _workers: &Arc<WorkerPool>,
    ) -> Outcome {
        self.handled.fetch_add(1, Ordering::SeqCst);
        Outcome::ReplyAfterCommit(vec![Frame::Ok])
    }

    fn commit(&self) -> Result<Vec<(ConnId, Settled)>, Frame> {
        match self.commits.fetch_add(1, Ordering::SeqCst) {
            0 => Err(Frame::Error {
                code: error_code::STORAGE,
                message: "injected sync failure".into(),
            }),
            _ => Ok(Vec::new()),
        }
    }
}

/// A refused commit latches the reactor: the held reply reads the
/// refusal, and so does every later request on any connection, without
/// the service being asked again — while `Ping`, `StatsRequest` and
/// `Shutdown` are still answered.
#[test]
fn a_failed_commit_refuses_every_later_request() {
    let service = Arc::new(FailsFirstCommit::default());
    let reactor = Reactor::bind("127.0.0.1:0", service.clone()).expect("binds");
    let addr = reactor.local_addr();
    let thread = std::thread::spawn(move || reactor.run());
    let refused = |reply: Result<Frame, NetError>, what: &str| match reply {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, error_code::STORAGE, "{what}");
            assert_eq!(message, "injected sync failure", "{what}");
        }
        other => panic!("{what}: expected the refusal, got {other:?}"),
    };

    let mut first = Conn::connect(addr).expect("connects");
    refused(first.request(&Frame::Ok), "the held reply");
    refused(first.request(&Frame::Ok), "a retry on the same connection");
    let mut second = Conn::connect(addr).expect("connects");
    refused(
        second.request(&Frame::Ok),
        "a request on a second connection",
    );
    assert_eq!(service.handled.load(Ordering::SeqCst), 1);
    assert_eq!(service.commits.load(Ordering::SeqCst), 1);

    second.ping().expect("a latched daemon answers Ping");
    match second
        .request(&Frame::StatsRequest)
        .expect("stats answered")
    {
        Frame::StatsReport { snapshot } => assert_eq!(snapshot.counter("reactor.err.commit"), 1),
        other => panic!("expected StatsReport, got {other:?}"),
    }
    first
        .request_ok(&Frame::Shutdown)
        .expect("a latched daemon answers Shutdown");
    thread.join().expect("the reactor exits");
}
