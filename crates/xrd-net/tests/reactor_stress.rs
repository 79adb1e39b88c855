//! Connection-scalability acceptance tests for the event-driven
//! reactors, daemon side and client side: one `MixServerDaemon`
//! holding ≥1000 concurrent submitter connections on O(1) I/O threads,
//! connection churn that leaves the daemon's thread count flat, and a
//! 10 000-user client swarm driven from a single calling thread.
//!
//! These tests live alone in this binary on purpose: they assert on
//! `/proc/self/status` thread counts, and sibling tests spawning
//! daemons of their own would perturb the accounting.  A shared lock
//! additionally serializes them against each other.

use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};
use xrd_net::codec::{Frame, FrameDecoder, STREAM_CHUNK};
use xrd_net::swarm::reactor::{raise_nofile_limit, ClientReactor, DriveConfig, SubmitSession};
use xrd_net::swarm::sealed_submissions;
use xrd_net::{Conn, MixServerDaemon};

/// Serializes the thread-count-sensitive tests.
static THREAD_ACCOUNTING: Mutex<()> = Mutex::new(());

/// Take [`THREAD_ACCOUNTING`].  A test that panics holding it poisons
/// it; the others take the guard back anyway, so a failure is reported
/// once, by the test that failed.
fn thread_accounting() -> MutexGuard<'static, ()> {
    THREAD_ACCOUNTING
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Threads in this process right now (`None` off Linux).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Read a hop's reply off `socket` — its `HopProof`, then the output
/// stream — and return how many entries the stream carried.
fn hop_output_entries(socket: &mut TcpStream) -> usize {
    use std::io::Read;
    let mut decoder = FrameDecoder::new();
    let mut entries = 0;
    let mut buf = [0u8; 16 * 1024];
    loop {
        while let Some(frame) = decoder.try_frame() {
            match frame.expect("the reply's frames decode") {
                Frame::HopProof { .. } | Frame::MixBatchStart { .. } => {}
                Frame::MixBatchChunk { entries: chunk } => entries += chunk.len(),
                Frame::MixBatchEnd { .. } => return entries,
                other => panic!("expected the hop's output, got {other:?}"),
            }
        }
        let n = socket.read(&mut buf).expect("reply reads");
        assert!(n > 0, "the daemon hung up mid-reply");
        decoder.feed(&buf[..n]);
    }
}

/// Test-thread scheduling in the harness can add a couple of parked
/// threads between two samples; what we rule out is O(clients).
const THREAD_SLACK: usize = 8;

/// The acceptance bar: one mix daemon, 1000 submitter connections all
/// open (and then all with a request in flight) at once, every
/// submission verified and accepted — without the daemon's thread
/// count moving.  The pre-reactor daemon spawned one thread per
/// connection and sat near 1000 extra threads at this point.
#[test]
fn one_daemon_serves_1000_concurrent_submitters_on_o1_io_threads() {
    let _guard = thread_accounting();
    const N: usize = 1000;
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(17);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 7)
        .expect("daemon spawns");
    let addr = daemon.addr();

    let mut control = Conn::connect(addr).expect("control connects");
    control
        .request_ok(&Frame::OpenRound { round })
        .expect("window opens");

    let submissions = sealed_submissions(&mut rng, &public, round, N);
    let baseline = process_threads();

    // Open every connection before any submission: the whole
    // population is concurrently connected.
    let mut conns: Vec<Conn> = (0..N)
        .map(|_| Conn::connect(addr).expect("submitter connects"))
        .collect();
    let with_conns_open = process_threads();

    // Pipeline one submission per connection: fire them all, then
    // collect every acknowledgement — all 1000 connections have a
    // request in flight at once.
    for (conn, submission) in conns.iter_mut().zip(&submissions) {
        conn.send(&Frame::Submit {
            round,
            submission: submission.clone(),
        })
        .expect("submit sends");
    }
    let with_requests_in_flight = process_threads();
    for (i, conn) in conns.iter_mut().enumerate() {
        match conn.recv().expect("ack arrives") {
            Frame::Ok => {}
            other => panic!("submission {i} not accepted: {other:?}"),
        }
    }

    // The daemon's own statement: all 1000 distinct submissions landed
    // in the canonical batch.
    match control
        .request(&Frame::CloseSubmissions { round })
        .expect("window closes")
    {
        Frame::BatchDigest { count, .. } => assert_eq!(count, N as u64),
        other => panic!("expected BatchDigest, got {other:?}"),
    }

    if let (Some(b), Some(o), Some(f)) = (baseline, with_conns_open, with_requests_in_flight) {
        assert!(
            o <= b + THREAD_SLACK,
            "opening {N} connections grew threads {b} -> {o}: I/O threading is O(clients)"
        );
        assert!(
            f <= b + THREAD_SLACK,
            "{N} in-flight requests grew threads {b} -> {f}: I/O threading is O(clients)"
        );
    }
}

/// The client-side counterpart of the acceptance bar above, at §8
/// scale: ten thousand emulated users — every one a real verified
/// submission over its own TCP connection — driven to completion by a
/// [`ClientReactor`] on the *calling* thread, with the process's thread
/// count flat.  The reactor keeps what it dials, so when the drive
/// ends the whole population is parked and open: the daemon's own
/// `reactor.conns_open` gauge, scraped over the wire, counts all ten
/// thousand on its one reactor thread.  The pre-reactor swarm needed a
/// worker thread per concurrent submitter.
///
/// The daemon runs as a real `xrd-netd` child process: the load
/// generator is measured alone (one descriptor and zero threads per
/// user on the client side), exactly as it would face a remote
/// deployment.
#[test]
fn ten_thousand_user_reactor_runs_on_the_calling_thread() {
    let _guard = thread_accounting();
    const N: usize = 10_000;
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(21);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);

    let config_dir =
        std::env::temp_dir().join(format!("xrd-reactor-stress-{}", std::process::id()));
    std::fs::create_dir_all(&config_dir).expect("scratch dir");
    let config_path = config_dir.join("hop.cfg");
    std::fs::write(
        &config_path,
        xrd_net::codec::encode_server_config(&secrets.remove(0), &public),
    )
    .expect("config writes");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_xrd-netd"))
        .arg("mix")
        .arg("--config")
        .arg(&config_path)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("xrd-netd child spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr: std::net::SocketAddr = loop {
        let line = lines
            .next()
            .expect("daemon announces before exiting")
            .expect("announcement reads");
        if let Some(rest) = line.strip_prefix("LISTENING ") {
            break rest.trim().parse().expect("announced address parses");
        }
    };
    std::thread::spawn(move || for _line in lines {});

    let mut control = Conn::connect(addr).expect("control connects");
    control
        .request_ok(&Frame::OpenRound { round })
        .expect("window opens");

    let submissions = sealed_submissions(&mut rng, &public, round, N);
    let sessions: Vec<SubmitSession> = submissions
        .into_iter()
        .map(|submission| SubmitSession::new(vec![(addr, Frame::Submit { round, submission })]))
        .collect();

    let got = raise_nofile_limit(N as u64 + 512);
    assert!(
        got >= N as u64 + 64,
        "cannot hold {N} concurrent connections (RLIMIT_NOFILE {got})"
    );
    let baseline = process_threads();
    // The peer is another process: one descriptor per connection here.
    let mut reactor = ClientReactor::with_conn_cap(N).expect("poller opens");
    let outcome = reactor
        .drive(sessions, &DriveConfig::default())
        .expect("reactor runs");
    let after = process_threads();

    assert_eq!(
        outcome.completed,
        N,
        "first failures: {:?}",
        &outcome.failed[..outcome.failed.len().min(3)]
    );
    assert!(outcome.sessions.iter().all(|s| s.acknowledged() == 1));
    assert_eq!(reactor.parked(), N, "every connection is kept");
    if let (Some(b), Some(a)) = (baseline, after) {
        assert!(
            a <= b + THREAD_SLACK,
            "client reactor spawned threads: {b} -> {a} — the swarm must \
             drive all {N} users from the calling thread"
        );
    }

    // The daemon's statement: all 10k connections are open on it at
    // once…
    let open = match control
        .request(&Frame::StatsRequest)
        .expect("scrape answered")
    {
        Frame::StatsReport { snapshot } => snapshot.gauge("reactor.conns_open").unwrap_or(0),
        other => panic!("expected StatsReport, got {other:?}"),
    };
    assert!(open >= N as i64, "the daemon holds {open} connections");
    // …and every one of the 10k submissions was verified into the
    // canonical batch.
    match control
        .request(&Frame::CloseSubmissions { round })
        .expect("window closes")
    {
        Frame::BatchDigest { count, .. } => assert_eq!(count, N as u64),
        other => panic!("expected BatchDigest, got {other:?}"),
    }

    let _ = control.send(&Frame::Shutdown);
    child.wait().expect("daemon child exits");
    let _ = std::fs::remove_dir_all(&config_dir);
}

/// §"connection churn": clients that connect, dribble half a
/// submission frame and vanish — wave after wave — must leave the
/// daemon serving, and its thread count flat.  A reconnecting client
/// then completes the round's window normally.
#[test]
fn churned_connections_leave_daemon_serving_and_thread_count_flat() {
    let _guard = thread_accounting();
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(18);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 9)
        .expect("daemon spawns");
    let addr = daemon.addr();

    let mut control = Conn::connect(addr).expect("control connects");
    control
        .request_ok(&Frame::OpenRound { round })
        .expect("window opens");

    let subs = sealed_submissions(&mut rng, &public, round, 2);
    let partial = Frame::Submit {
        round,
        submission: subs[0].clone(),
    }
    .encode();
    let baseline = process_threads();

    // Three waves of 100 connections that each die mid-frame.
    for wave in 0..3 {
        let mut doomed = Vec::with_capacity(100);
        for i in 0..100 {
            let mut stream = TcpStream::connect(addr).expect("churn client connects");
            stream
                .write_all(&partial[..partial.len() / 2])
                .unwrap_or_else(|e| panic!("wave {wave} client {i} write: {e}"));
            doomed.push(stream);
        }
        drop(doomed); // every socket closes with a frame half-sent
    }

    // The daemon is still serving: a well-behaved reconnect completes.
    let mut survivor = Conn::connect(addr).expect("reconnect after churn");
    survivor
        .request_ok(&Frame::Submit {
            round,
            submission: subs[1].clone(),
        })
        .expect("post-churn submission accepted");

    // Only the completed submission is in the batch; the 300 dribbled
    // half-frames left nothing behind.
    match control
        .request(&Frame::CloseSubmissions { round })
        .expect("window closes")
    {
        Frame::BatchDigest { count, .. } => assert_eq!(count, 1),
        other => panic!("expected BatchDigest, got {other:?}"),
    }

    if let (Some(b), Some(after)) = (baseline, process_threads()) {
        assert!(
            after <= b + THREAD_SLACK,
            "300 churned connections grew threads {b} -> {after}"
        );
    }
}

/// The handler-offload acceptance bar: while a large hop's crypto is
/// in flight on the daemon's worker pool, the reactor thread keeps
/// serving — a submission fired mid-hop on another connection is
/// verified and acknowledged while the hop's reply has not yet come
/// back, an ordering read off the hop's socket (nothing readable on it
/// when the submission's `Ok` arrives), not off a clock.  A daemon
/// running hop crypto inline on the reactor thread would make the
/// submission wait out the whole hop.
///
/// The O(1)-thread assertion allows for the offload: the daemon holds
/// its fixed-size worker pool (≤ 4 threads, spawned lazily at the first
/// hop) — still O(1) in the number of clients.
#[test]
fn submissions_served_while_hop_crypto_in_flight() {
    let _guard = thread_accounting();
    const N: usize = 1000;
    let mut rng = StdRng::seed_from_u64(19);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 13)
        .expect("daemon spawns");
    let addr = daemon.addr();
    let baseline = process_threads();

    // Fill round 0's batch.
    let mut control = Conn::connect(addr).expect("control connects");
    control
        .request_ok(&Frame::OpenRound { round: 0 })
        .expect("window opens");
    let submissions = sealed_submissions(&mut rng, &public, 0, N);
    // Sealed for round 1: what the mid-hop submitters send (the PoK
    // binds the round number).
    let extra = sealed_submissions(&mut rng, &public, 1, 2);
    for submission in &submissions[..N] {
        control
            .request_ok(&Frame::Submit {
                round: 0,
                submission: submission.clone(),
            })
            .expect("submission accepted");
    }
    let batch = match control
        .request(&Frame::CloseSubmissions { round: 0 })
        .and_then(|_| control.request(&Frame::GetBatch { round: 0 }))
        .expect("batch fetched")
    {
        Frame::SubmissionBatch { submissions, .. } => submissions,
        other => panic!("expected SubmissionBatch, got {other:?}"),
    };
    let entries: Vec<_> = batch.iter().map(|s| s.to_entry()).collect();

    // Open round 1's window so a submission can land *during* the hop.
    control
        .request_ok(&Frame::OpenRound { round: 1 })
        .expect("window reopens");

    // Fire the hop on a socket of its own without reading its
    // response…
    let stream = xrd_net::codec::ChunkedBatch::build(0, &entries, STREAM_CHUNK);
    let mut hop = TcpStream::connect(addr).expect("hop connects");
    for bytes in stream.frames() {
        hop.write_all(bytes).expect("hop fires");
    }

    // …and submit on another connection while the hop is in flight:
    // its `Ok` is back while the hop's reply — sent whole once the hop
    // is done — has not reached the hop's socket.
    let mut submitter = Conn::connect(addr).expect("submitter connects");
    submitter
        .request_ok(&Frame::Submit {
            round: 1,
            submission: extra[0].clone(),
        })
        .expect("mid-hop submission accepted");
    hop.set_nonblocking(true).expect("nonblocking peek");
    match hop.peek(&mut [0u8; 1]) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!(
            "the hop's reply came back before the mid-hop submission's Ok ({other:?}) \
             — hop crypto is blocking the reactor thread"
        ),
    }

    let threads_mid_hop = process_threads();

    // Collect the hop.
    hop.set_nonblocking(false).expect("blocking reads");
    assert_eq!(hop_output_entries(&mut hop), N);

    if let (Some(b), Some(mid)) = (baseline, threads_mid_hop) {
        // Worker pool (≤ 4), never O(clients).
        assert!(
            mid <= b + 4 + THREAD_SLACK,
            "hop offload grew threads {b} -> {mid} (pool should be fixed-size)"
        );
    }

    // Submissions interleave with the chunk stream itself, too: a
    // fresh one lands between two chunks of the *next* hop's batch.
    let (head, tail) = stream.frames().split_at(stream.frames().len() / 2);
    for bytes in head {
        control.send_encoded(bytes).expect("chunk sends");
    }
    let submit_start = std::time::Instant::now();
    submitter
        .request_ok(&Frame::Submit {
            round: 1,
            submission: extra[1].clone(),
        })
        .expect("mid-stream submission accepted");
    let mid_stream_submit = submit_start.elapsed();
    for bytes in tail {
        control.send_encoded(bytes).expect("chunk sends");
    }
    control.recv_hop_reply(0, N, None).expect("stream response");
    assert!(
        mid_stream_submit < std::time::Duration::from_secs(2),
        "mid-stream submission stalled: {mid_stream_submit:?}"
    );
}
