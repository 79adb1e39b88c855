//! Deterministic client-reactor state-machine tests against a
//! scripted in-process peer.
//!
//! The swarm tests exercise the reactor against real daemons at
//! volume; these tests pin down the per-connection byte-level
//! behaviors that volume hides: responses dribbled a byte at a time,
//! frames split mid length-prefix, connections dropped mid-exchange
//! (bounded retry, restartable fetch walks), malformed bytes (a typed
//! codec failure, never a retry), and a machine that panics taking
//! down its own session and nothing else — the regression that used to
//! deadlock the thread-pool submit storm.  And, for a reactor that
//! outlives one drive: which exchanges ride a kept connection, which
//! redial, at whose expense, and which connection goes when the budget
//! is full.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use xrd_net::codec::FrameDecoder;
use xrd_net::swarm::reactor::{
    drive_sessions, in_flight_cap, ClientReactor, DriveConfig, FetchSession, SessionMachine, Step,
    SubmitSession,
};
use xrd_net::{CodecError, Frame, NetError};

/// Serve each accepted connection with `script(conn_index, stream)`,
/// serially, on a background thread.  Returns the listen address and a
/// counter of accepted connections.
fn scripted_peer<F>(script: F) -> (SocketAddr, Arc<AtomicUsize>)
where
    F: Fn(usize, TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("peer binds");
    let addr = listener.local_addr().expect("peer addr");
    let conns = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&conns);
    std::thread::spawn(move || {
        for (n, stream) in listener.incoming().enumerate() {
            let Ok(stream) = stream else { break };
            counter.fetch_add(1, Ordering::SeqCst);
            script(n, stream);
        }
    });
    (addr, conns)
}

/// A wire-legal sealed mailbox payload (the codec enforces the exact
/// sealed length), distinguishable by its fill byte.
fn sealed(fill: u8) -> Vec<u8> {
    vec![fill; xrd_mixnet::MAILBOX_MSG_LEN - 32]
}

/// Read one complete frame off `stream` (blocking).
fn read_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Frame {
    read_frame_or_eof(stream, decoder).expect("client hung up mid-request")
}

/// Read one complete frame off `stream` (blocking); `None` if the
/// client hangs up first.
fn read_frame_or_eof(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Option<Frame> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(result) = decoder.try_frame() {
            return Some(result.expect("peer received a well-formed frame"));
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => decoder.feed(&buf[..n]),
        }
    }
}

/// Write `frame` one byte at a time with a scheduling gap between
/// bytes, so the client's decoder sees the worst possible framing.
fn dribble(stream: &mut TcpStream, frame: &Frame) {
    stream.set_nodelay(true).expect("nodelay");
    for byte in frame.encode() {
        stream.write_all(&[byte]).expect("dribbled byte");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// A full mailbox walk: two pages then the ack, every response byte
/// dribbled individually — the client must reassemble frames from
/// arbitrarily small reads.
#[test]
fn dribbled_responses_reassemble_into_a_complete_fetch() {
    let mailbox = [7u8; 32];
    let (addr, conns) = scripted_peer(move |_, mut stream| {
        let mut decoder = FrameDecoder::new();
        match read_frame(&mut stream, &mut decoder) {
            Frame::FetchPage {
                cursor: 0, max: 2, ..
            } => {}
            other => panic!("expected opening FetchPage, got {other:?}"),
        }
        dribble(
            &mut stream,
            &Frame::MailboxPage {
                sealed: vec![(3, sealed(0xA1)), (4, sealed(0xB2))],
                next_cursor: 2,
                remaining: 1,
            },
        );
        match read_frame(&mut stream, &mut decoder) {
            Frame::FetchPage { cursor: 2, .. } => {}
            other => panic!("expected continuation FetchPage, got {other:?}"),
        }
        dribble(
            &mut stream,
            &Frame::MailboxPage {
                sealed: vec![(5, sealed(0xC3))],
                next_cursor: 3,
                remaining: 0,
            },
        );
        match read_frame(&mut stream, &mut decoder) {
            Frame::FetchAck { upto: 3, .. } => {}
            other => panic!("expected FetchAck, got {other:?}"),
        }
        dribble(&mut stream, &Frame::Ok);
    });

    let outcome = drive_sessions(
        vec![FetchSession::new(addr, mailbox, 2)],
        &DriveConfig::default(),
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    let entries = outcome.sessions.into_iter().next().unwrap().into_entries();
    assert_eq!(
        entries,
        vec![(3, sealed(0xA1)), (4, sealed(0xB2)), (5, sealed(0xC3)),]
    );
    assert_eq!(conns.load(Ordering::SeqCst), 1);
}

/// A response split in the middle of its 4-byte length prefix, with a
/// real delay between the halves: the decoder must hold the partial
/// prefix across reads.
#[test]
fn response_split_mid_length_prefix_still_decodes() {
    let (addr, _) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        stream.set_nodelay(true).expect("nodelay");
        let bytes = Frame::Ok.encode();
        stream.write_all(&bytes[..2]).expect("first half");
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(&bytes[2..]).expect("second half");
    });

    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig::default(),
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    assert_eq!(outcome.sessions[0].acknowledged(), 1);
}

/// A peer that eats the request and hangs up twice before serving:
/// the session retries within its budget and completes — and the
/// retry re-sends the exchange's opening request from scratch.
#[test]
fn mid_exchange_disconnect_is_retried_within_budget() {
    let (addr, conns) = scripted_peer(|n, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        if n < 2 {
            return; // drop with the exchange mid-flight
        }
        stream.write_all(&Frame::Ok.encode()).expect("ack");
    });

    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig::default(),
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    assert_eq!(
        conns.load(Ordering::SeqCst),
        3,
        "two dropped attempts plus the served one"
    );
}

/// A peer that always hangs up: the session fails with a transport
/// error after exactly `max_retries` reconnects — never an unbounded
/// retry loop.
#[test]
fn disconnects_past_the_retry_budget_fail_the_session() {
    let (addr, conns) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        // drop: every exchange dies mid-flight
    });

    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig {
            max_retries: 2,
            ..Default::default()
        },
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 0);
    assert_eq!(outcome.failed.len(), 1);
    let (i, err) = &outcome.failed[0];
    assert_eq!(*i, 0);
    assert!(
        matches!(err, NetError::Disconnected | NetError::Io(_)),
        "expected a transport error, got {err:?}"
    );
    assert_eq!(
        conns.load(Ordering::SeqCst),
        3,
        "initial attempt plus max_retries reconnects, then stop"
    );
}

/// A loopback address nothing is listening on (bound once to reserve
/// the port, then released).
fn unbound_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("port reserved");
    listener.local_addr().expect("reserved addr")
}

/// A daemon that is down when first dialed and back 150 ms later — a
/// supervised respawn — is met by a redial, not by a retry budget burnt
/// in one loop tick: refused dials back off 25, 50, 100 ms, so the
/// third redial (175 ms in) finds the listener, with retries to spare.
#[test]
fn refused_dial_backs_off_until_the_listener_is_up() {
    let addr = unbound_addr();
    let late_peer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let listener = TcpListener::bind(addr).expect("late peer binds");
        let (mut stream, _) = listener.accept().expect("late peer accepts");
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        stream.write_all(&Frame::Ok.encode()).expect("ack");
    });

    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig {
            max_retries: 5,
            ..Default::default()
        },
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    late_peer
        .join()
        .expect("late peer served exactly one session");
    assert!(
        outcome.drive_elapsed >= Duration::from_millis(25 + 50 + 100),
        "the listener came up 150 ms in, which only the third redial's \
         backoff reaches; the drive took {:?}",
        outcome.drive_elapsed
    );
    // Five retries would have waited 25 + … + 400 = 775 ms in all.
    assert!(
        outcome.drive_elapsed < Duration::from_millis(175 + 200),
        "redials past the third were spent: {:?}",
        outcome.drive_elapsed
    );
}

/// A peer that never listens still fails its session — typed, after
/// exactly `max_retries` backed-off redials, in bounded time.
#[test]
fn peer_that_never_listens_fails_typed_after_the_backoff() {
    let addr = unbound_addr();
    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig::default(),
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 0);
    assert_eq!(outcome.failed.len(), 1);
    match &outcome.failed[0] {
        (0, NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused),
        other => panic!("expected the refused dial itself, got {other:?}"),
    }
    let waited = Duration::from_millis(25 + 50 + 100);
    assert!(
        outcome.drive_elapsed >= waited && outcome.drive_elapsed < waited + Duration::from_secs(1),
        "three redials back off {waited:?} in all; the drive took {:?}",
        outcome.drive_elapsed
    );
}

/// A response dropped in transit — the peer eats the request and goes
/// silent *without closing the socket* (what a lossy network or a
/// frame-dropping middlebox looks like).  No readiness event will ever
/// fire, so only the idle sweep can save the session: past the
/// exchange timeout it must redial and the retry completes.  This
/// was a real regression: before the sweep, such a session pinned the
/// whole run until the 300 s drive deadline failed it outright.
#[test]
fn dropped_response_heals_through_the_idle_timeout() {
    let (addr, conns) = scripted_peer(|n, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        if n == 0 {
            // Swallow the request, hold the socket open and silent
            // past the client's idle ceiling — but not so long that
            // the redialed attempt (parked in the accept backlog
            // until this script returns) idles out too.
            std::thread::sleep(Duration::from_millis(500));
            return;
        }
        stream.write_all(&Frame::Ok.encode()).expect("ack");
    });

    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig {
            exchange_timeout: Duration::from_millis(300),
            ..Default::default()
        },
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    assert_eq!(outcome.sessions[0].acknowledged(), 1);
    assert_eq!(
        conns.load(Ordering::SeqCst),
        2,
        "the silent attempt plus the redialed one"
    );
}

/// A peer that is silent on every connection exhausts the retry budget
/// and fails with a *typed* idle timeout — bounded by
/// `(max_retries + 1) × exchange_timeout`, never the whole-run
/// deadline.
#[test]
fn silence_past_the_retry_budget_is_a_typed_idle_timeout() {
    let (addr, conns) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        std::thread::sleep(Duration::from_millis(600));
    });

    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig {
            max_retries: 1,
            exchange_timeout: Duration::from_millis(200),
            ..Default::default()
        },
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 0);
    assert_eq!(outcome.failed.len(), 1);
    let (i, err) = &outcome.failed[0];
    assert_eq!(*i, 0);
    assert!(
        matches!(
            err,
            NetError::Timeout {
                op: "client exchange idle"
            }
        ),
        "expected the idle timeout, got {err:?}"
    );
    // The redialed connection sits in the accept backlog until the
    // first script's hold expires; give the serial accept loop time to
    // count it before asserting the attempt total.
    std::thread::sleep(Duration::from_millis(1500));
    assert_eq!(
        conns.load(Ordering::SeqCst),
        2,
        "initial attempt plus max_retries reconnects, then stop"
    );
}

/// A fetch walk whose connection dies between pages restarts from
/// cursor 0 on the retry (nothing was acked) — and the final entry set
/// has no duplicates from the abandoned first walk.
#[test]
fn fetch_walk_restarts_from_scratch_after_disconnect() {
    let mailbox = [9u8; 32];
    let (addr, conns) = scripted_peer(move |n, mut stream| {
        let mut decoder = FrameDecoder::new();
        match read_frame(&mut stream, &mut decoder) {
            Frame::FetchPage { cursor, .. } => {
                assert_eq!(cursor, 0, "every (re)start must page from the watermark")
            }
            other => panic!("expected FetchPage, got {other:?}"),
        }
        stream
            .write_all(
                &Frame::MailboxPage {
                    sealed: vec![(3, sealed(0xA1))],
                    next_cursor: 1,
                    remaining: 1,
                }
                .encode(),
            )
            .expect("first page");
        if n == 0 {
            return; // die mid-walk, page 2 never sent
        }
        match read_frame(&mut stream, &mut decoder) {
            Frame::FetchPage { cursor: 1, .. } => {}
            other => panic!("expected continuation, got {other:?}"),
        }
        stream
            .write_all(
                &Frame::MailboxPage {
                    sealed: vec![(3, sealed(0xB2))],
                    next_cursor: 2,
                    remaining: 0,
                }
                .encode(),
            )
            .expect("second page");
        match read_frame(&mut stream, &mut decoder) {
            Frame::FetchAck { upto: 2, .. } => {}
            other => panic!("expected FetchAck, got {other:?}"),
        }
        stream.write_all(&Frame::Ok.encode()).expect("ack ok");
    });

    let outcome = drive_sessions(
        vec![FetchSession::new(addr, mailbox, 1)],
        &DriveConfig::default(),
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    let entries = outcome.sessions.into_iter().next().unwrap().into_entries();
    assert_eq!(
        entries,
        vec![(3, sealed(0xA1)), (3, sealed(0xB2))],
        "the abandoned first walk must not leave duplicate entries"
    );
    assert_eq!(conns.load(Ordering::SeqCst), 2);
}

/// The fetch walk's three refusals-or-not, each against its own
/// scripted shard: a mailbox the shard has never heard of is *empty*
/// (typed `UNKNOWN_MAILBOX` completes the session with no entries and
/// no ack); a cursor that goes backwards and a frame that is no fetch
/// response at all are each a typed failure of that session alone —
/// never entries attributed on a desynchronized stream.
#[test]
fn fetch_session_accepts_unknown_mailbox_and_refuses_desynced_replies() {
    use xrd_net::codec::error_code;
    let (unknown, _) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        let reply = Frame::Error {
            code: error_code::UNKNOWN_MAILBOX,
            message: "never delivered to".into(),
        };
        stream.write_all(&reply.encode()).expect("error frame");
        std::thread::sleep(Duration::from_millis(200));
    });
    let (backwards, _) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        let first = Frame::MailboxPage {
            sealed: vec![(1, sealed(0x11))],
            next_cursor: 5,
            remaining: 1,
        };
        stream.write_all(&first.encode()).expect("first page");
        let _ = read_frame(&mut stream, &mut decoder);
        let second = Frame::MailboxPage {
            sealed: vec![(1, sealed(0x22))],
            next_cursor: 3,
            remaining: 0,
        };
        stream.write_all(&second.encode()).expect("second page");
        std::thread::sleep(Duration::from_millis(200));
    });
    let (stray, _) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        stream
            .write_all(&Frame::Pong.encode())
            .expect("stray frame");
        std::thread::sleep(Duration::from_millis(200));
    });

    let outcome = drive_sessions(
        vec![
            FetchSession::new(unknown, [1u8; 32], 4),
            FetchSession::new(backwards, [2u8; 32], 4),
            FetchSession::new(stray, [3u8; 32], 4),
        ],
        &DriveConfig::default(),
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    let mut failed: Vec<(usize, String)> = outcome
        .failed
        .iter()
        .map(|(i, e)| match e {
            NetError::Protocol(msg) => (*i, msg.clone()),
            other => panic!("session {i}: expected a protocol failure, got {other:?}"),
        })
        .collect();
    failed.sort();
    assert_eq!(failed.len(), 2);
    assert_eq!(failed[0].0, 1);
    assert!(failed[0].1.contains("out of sequence"), "{failed:?}");
    assert_eq!(failed[1].0, 2);
    assert!(
        failed[1].1.contains("unexpected fetch response"),
        "{failed:?}"
    );
    let entries: Vec<_> = outcome
        .sessions
        .into_iter()
        .map(|s| s.into_entries())
        .collect();
    assert!(entries[0].is_empty(), "an unknown mailbox is an empty one");
}

/// Bytes that do not parse as any frame are a typed
/// [`NetError::Codec`] failure — immediately, with no retry: a peer
/// speaking a different protocol will not get retried into.
#[test]
fn malformed_frame_is_a_typed_codec_error_not_a_retry() {
    let (addr, conns) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        // Length 1, tag 0xEE: well-framed, meaningless.
        stream.write_all(&[1, 0, 0, 0, 0xEE]).expect("garbage");
        // Hold the socket open so the failure is the bytes, not EOF.
        std::thread::sleep(Duration::from_millis(200));
    });

    let outcome = drive_sessions(
        vec![SubmitSession::new(vec![(addr, Frame::Ping)])],
        &DriveConfig::default(),
    )
    .expect("reactor runs");
    assert_eq!(outcome.completed, 0);
    assert_eq!(outcome.failed.len(), 1);
    match &outcome.failed[0] {
        (0, NetError::Codec(CodecError::UnknownTag(0xEE))) => {}
        other => panic!("expected UnknownTag(0xEE), got {other:?}"),
    }
    assert_eq!(
        conns.load(Ordering::SeqCst),
        1,
        "a codec failure must not be retried"
    );
}

/// A storm machine for the panic-regression test: honest sessions run
/// one Ping→Ok exchange; the bomb panics on its first response.
enum StormMachine {
    Honest { addr: SocketAddr, done: bool },
    Bomb { addr: SocketAddr },
}

impl SessionMachine for StormMachine {
    fn target(&self) -> Option<SocketAddr> {
        match self {
            StormMachine::Honest { done: true, .. } => None,
            StormMachine::Honest { addr, .. } | StormMachine::Bomb { addr } => Some(*addr),
        }
    }

    fn on_connect(&mut self) -> Vec<Frame> {
        vec![Frame::Ping]
    }

    fn on_frame(&mut self, frame: Frame) -> Step {
        match self {
            StormMachine::Honest { done, .. } => match frame {
                Frame::Ok => {
                    *done = true;
                    Step::NextTarget
                }
                other => Step::Fail(NetError::Protocol(format!("expected Ok, got {other:?}"))),
            },
            StormMachine::Bomb { .. } => panic!("deliberate state-machine bug"),
        }
    }
}

/// The submit-storm regression: one machine with a bug that panics
/// fails *its own* session and nothing else — the rest of the storm
/// completes and the run returns.  The old thread-pool storm sized a
/// completion barrier by worker count; a panicking worker left the
/// barrier short and every other worker deadlocked behind it.
#[test]
fn panicking_machine_fails_alone_and_the_storm_completes() {
    let (addr, _) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        let _ = stream.write_all(&Frame::Ok.encode());
    });

    const BOMB: usize = 4;
    let sessions: Vec<StormMachine> = (0..9)
        .map(|i| {
            if i == BOMB {
                StormMachine::Bomb { addr }
            } else {
                StormMachine::Honest { addr, done: false }
            }
        })
        .collect();

    let outcome = drive_sessions(sessions, &DriveConfig::default()).expect("reactor runs");
    assert_eq!(outcome.completed, 8, "failures: {:?}", outcome.failed);
    assert_eq!(outcome.failed.len(), 1);
    let (i, err) = &outcome.failed[0];
    assert_eq!(*i, BOMB);
    match err {
        NetError::Protocol(msg) => assert!(msg.contains("panicked"), "got: {msg}"),
        other => panic!("expected the panic converted to a Protocol error, got {other:?}"),
    }
}

/// A peer for kept connections: every accepted connection is served on
/// a thread of its own — `Ok` to each frame until the client hangs up —
/// so any number of them can sit parked at once.  Returns the listen
/// address and, per connection in accept order, the exchanges served.
fn keepalive_peer() -> (SocketAddr, Arc<Mutex<Vec<usize>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("peer binds");
    let addr = listener.local_addr().expect("peer addr");
    let served = Arc::new(Mutex::new(Vec::new()));
    let ledger = Arc::clone(&served);
    std::thread::spawn(move || {
        for (n, stream) in listener.incoming().enumerate() {
            let Ok(mut stream) = stream else { break };
            ledger.lock().unwrap().push(0);
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || {
                let mut decoder = FrameDecoder::new();
                while read_frame_or_eof(&mut stream, &mut decoder).is_some() {
                    ledger.lock().unwrap()[n] += 1;
                    if stream.write_all(&Frame::Ok.encode()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    (addr, served)
}

/// A one-exchange session: `Ping` to `addr`.
fn ping(addr: SocketAddr) -> SubmitSession {
    SubmitSession::new(vec![(addr, Frame::Ping)])
}

/// A session with nothing to do — it holds its lane's place in a drive.
fn idle() -> SubmitSession {
    SubmitSession::new(Vec::new())
}

/// Drive `sessions` on `reactor` and demand every one completed.
fn drive_all(reactor: &mut ClientReactor, sessions: Vec<SubmitSession>, config: &DriveConfig) {
    let n = sessions.len();
    let outcome = reactor.drive(sessions, config).expect("reactor runs");
    assert_eq!(outcome.completed, n, "failures: {:?}", outcome.failed);
}

/// Two drives on one reactor: the second drive's exchange rides the
/// connection the first one parked — the peer accepts once and serves
/// twice.
#[test]
fn second_drive_rides_the_connection_the_first_parked() {
    let (addr, served) = keepalive_peer();
    let mut reactor = ClientReactor::new().expect("reactor builds");
    let config = DriveConfig::default();
    drive_all(&mut reactor, vec![ping(addr)], &config);
    assert_eq!(reactor.parked(), 1, "the finished exchange parked its wire");
    drive_all(&mut reactor, vec![ping(addr)], &config);
    assert_eq!(
        *served.lock().unwrap(),
        vec![2],
        "one accept, two exchanges"
    );
    assert_eq!(reactor.parked(), 1);
}

/// The one-shot entry point keeps nothing: each of two calls dials, and
/// the peer sees each connection hang up.
#[test]
fn drive_sessions_closes_what_it_dialed() {
    let (addr, served) = keepalive_peer();
    for _ in 0..2 {
        let outcome = drive_sessions(vec![ping(addr)], &DriveConfig::default()).expect("runs");
        assert_eq!(outcome.completed, 1, "failures: {:?}", outcome.failed);
    }
    assert_eq!(*served.lock().unwrap(), vec![1, 1]);
}

/// A peer that closes a parked connection between drives (a daemon
/// restarted, a proxy dropped it): the next drive replaces it with a
/// fresh dial **at no charge** — the session has no retries at all and
/// still completes.
#[test]
fn connection_that_died_parked_is_redialed_without_charging_a_retry() {
    let (closed_tx, closed_rx) = std::sync::mpsc::channel();
    let closed_tx = Mutex::new(closed_tx);
    let (addr, conns) = scripted_peer(move |n, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        stream.write_all(&Frame::Ok.encode()).expect("ack");
        if n == 0 {
            // Served once, then gone while the client has it parked.
            drop(stream);
            closed_tx.lock().unwrap().send(()).expect("test listens");
        } else {
            let _ = read_frame_or_eof(&mut stream, &mut decoder);
        }
    });
    let no_retries = DriveConfig {
        max_retries: 0,
        ..Default::default()
    };
    let mut reactor = ClientReactor::new().expect("reactor builds");
    drive_all(&mut reactor, vec![ping(addr)], &no_retries);
    closed_rx.recv().expect("peer closed the parked connection");
    drive_all(&mut reactor, vec![ping(addr)], &no_retries);
    assert_eq!(
        conns.load(Ordering::SeqCst),
        2,
        "the dead connection was replaced by exactly one fresh dial"
    );
}

/// A parked connection the peer wrote to unasked: its hang-up-only
/// registration never reports the bytes, so only the socket can tell.
/// Ridden, the stray `Ok` would answer the next exchange's request (the
/// answer the peer really gives on that connection is an `Error`).  The
/// pick-up finds it not at rest and dials afresh **at no charge**.
#[test]
fn parked_connection_holding_unread_bytes_is_redialed_without_charging_a_retry() {
    let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
    let (stray_tx, stray_rx) = std::sync::mpsc::channel();
    let (parked_rx, stray_tx) = (Mutex::new(parked_rx), Mutex::new(stray_tx));
    let (addr, conns) = scripted_peer(move |n, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        stream.write_all(&Frame::Ok.encode()).expect("ack");
        if n == 0 {
            parked_rx.lock().unwrap().recv().expect("test parks");
            stream.write_all(&Frame::Ok.encode()).expect("stray");
            stray_tx.lock().unwrap().send(()).expect("test listens");
            if read_frame_or_eof(&mut stream, &mut decoder).is_some() {
                let refusal = Frame::Error {
                    code: 1,
                    message: "the real answer".into(),
                };
                let _ = stream.write_all(&refusal.encode());
            }
        }
        let _ = read_frame_or_eof(&mut stream, &mut decoder);
    });
    let no_retries = DriveConfig {
        max_retries: 0,
        ..Default::default()
    };
    let mut reactor = ClientReactor::new().expect("reactor builds");
    drive_all(&mut reactor, vec![ping(addr)], &no_retries);
    parked_tx.send(()).expect("peer listens");
    stray_rx.recv().expect("peer wrote the stray frame");
    std::thread::sleep(Duration::from_millis(50));
    drive_all(&mut reactor, vec![ping(addr)], &no_retries);
    assert_eq!(
        conns.load(Ordering::SeqCst),
        2,
        "the connection holding a stray frame was replaced by one fresh dial"
    );
}

/// The other side of that rule: a kept connection that dies *after* the
/// first byte of the exchange's answer died in the exchange, and is
/// charged like any lost connection — with no retries, the session
/// fails.
#[test]
fn kept_connection_dying_mid_answer_is_charged_as_a_lost_connection() {
    let (addr, conns) = scripted_peer(|_, mut stream| {
        let mut decoder = FrameDecoder::new();
        let _ = read_frame(&mut stream, &mut decoder);
        stream.write_all(&Frame::Ok.encode()).expect("first ack");
        let _ = read_frame(&mut stream, &mut decoder);
        stream
            .write_all(&Frame::Ok.encode()[..2])
            .expect("half an ack");
    });
    let no_retries = DriveConfig {
        max_retries: 0,
        ..Default::default()
    };
    let mut reactor = ClientReactor::new().expect("reactor builds");
    drive_all(&mut reactor, vec![ping(addr)], &no_retries);
    let outcome = reactor
        .drive(vec![ping(addr)], &no_retries)
        .expect("reactor runs");
    assert_eq!(outcome.completed, 0);
    assert!(
        matches!(
            outcome.failed[..],
            [(0, NetError::Disconnected | NetError::Io(_))]
        ),
        "expected the lost connection itself, got {:?}",
        outcome.failed
    );
    assert_eq!(conns.load(Ordering::SeqCst), 1, "no budget, no redial");
}

/// Two lanes wanting the same address never share a socket: a lane
/// rides only what *it* parked, so a lane with nothing parked dials even
/// while other lanes' connections to that very address sit idle.
#[test]
fn lanes_never_share_a_socket() {
    let (addr, served) = keepalive_peer();
    let mut reactor = ClientReactor::new().expect("reactor builds");
    let config = DriveConfig::default();
    drive_all(&mut reactor, vec![ping(addr), ping(addr)], &config);
    assert_eq!(*served.lock().unwrap(), vec![1, 1]);
    // Lane 1 alone: it rides its own connection, not lane 0's.
    drive_all(&mut reactor, vec![idle(), ping(addr)], &config);
    assert_eq!(*served.lock().unwrap(), vec![1, 2]);
    // Lane 2 has never run: two parked connections to `addr`, neither
    // of them its own.
    drive_all(&mut reactor, vec![idle(), idle(), ping(addr)], &config);
    assert_eq!(*served.lock().unwrap(), vec![1, 2, 1]);
    assert_eq!(reactor.parked(), 3);
}

/// The connection budget covers parked and live connections together,
/// and the least recently parked one makes room: one lane visiting
/// three peers on a budget of two.
#[test]
fn least_recently_parked_connection_is_evicted_at_the_cap() {
    let (a, served_a) = keepalive_peer();
    let (b, served_b) = keepalive_peer();
    let (c, served_c) = keepalive_peer();
    let visit = |order: [SocketAddr; 3]| {
        SubmitSession::new(order.iter().map(|&addr| (addr, Frame::Ping)).collect())
    };
    let mut reactor = ClientReactor::with_conn_cap(2).expect("reactor builds");
    let config = DriveConfig::default();

    // a, b park; dialing c evicts a (parked first).
    drive_all(&mut reactor, vec![visit([a, b, c])], &config);
    assert_eq!(reactor.parked(), 2);
    // c and b are ridden and parked again, in that order; a was
    // evicted, so it is dialed anew — evicting c, now the oldest.
    drive_all(&mut reactor, vec![visit([c, b, a])], &config);
    assert_eq!(reactor.parked(), 2);
    assert_eq!(
        *served_a.lock().unwrap(),
        vec![1, 1],
        "a: evicted, redialed"
    );
    assert_eq!(*served_b.lock().unwrap(), vec![2], "b: kept throughout");
    assert_eq!(*served_c.lock().unwrap(), vec![2], "c: kept until the end");
    // b and a are what is parked now: riding them dials nothing.
    drive_all(&mut reactor, vec![visit([b, a, b])], &config);
    assert_eq!(*served_a.lock().unwrap(), vec![1, 2]);
    assert_eq!(*served_b.lock().unwrap(), vec![4]);
    assert_eq!(*served_c.lock().unwrap(), vec![2]);
}

/// The fd rule, on the one function that computes it: a session in
/// flight is budgeted two descriptors (its socket, and the accepted end
/// a same-process daemon holds) under a 256-descriptor reserve, never
/// fewer than 64 sessions, and the default cap once the limit stops
/// binding.  The 100k mailbox storm in CI is the end-to-end check.
#[test]
fn in_flight_cap_budgets_two_descriptors_per_session() {
    let default_cap = DriveConfig::default().max_in_flight;
    for limit in [0u64, 256, 383, 384, 1024, 4096, 20_000, 65_536, u64::MAX] {
        let cap = in_flight_cap(limit);
        let budget = limit.saturating_sub(256) / 2;
        assert!((64..=default_cap).contains(&cap), "limit {limit}: {cap}");
        assert!(
            budget < 64 || cap as u64 <= budget,
            "limit {limit}: {cap} sessions overdraw {budget}"
        );
    }
    assert_eq!(in_flight_cap(20_000), 9_872);
    assert_eq!(in_flight_cap(2 * default_cap as u64 + 255), default_cap - 1);
    assert_eq!(in_flight_cap(2 * default_cap as u64 + 256), default_cap);
    assert_eq!(in_flight_cap(u64::MAX), default_cap);
}
