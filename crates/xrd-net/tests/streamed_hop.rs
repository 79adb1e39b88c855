//! End-to-end tests for the hop pipeline: chunking-invariance against
//! the in-process reference, full chain rounds over multi-chunk batches
//! under both transports (including blame), the daemon's handling of
//! malformed streams, and a forwarding hop's link to its successor.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::sync::mpsc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::{DeploymentConfig, User};
use xrd_crypto::nizk::DleqProof;
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};
use xrd_mixnet::message::MixEntry;
use xrd_mixnet::server::{verify_hop, MixServer};
use xrd_net::codec::{
    encode_hop_output_stream, error_code, ChunkedBatch, Frame, FrameDecoder, StreamDigest,
    STREAM_CHUNK,
};
use xrd_net::{
    launch_local, launch_local_faulty_with, run_swarm, Conn, ConnTimeouts, DaemonHandle, FaultPlan,
    HopReply, MixServerDaemon, NetError, RetryPolicy, SwarmConfig, Transport,
};
use xrd_topology::ChainId;

/// A completed hop's outputs and attestation.
fn hop_output(reply: HopReply) -> (Vec<MixEntry>, DleqProof) {
    match reply {
        HopReply::Output { outputs, proof, .. } => (outputs, proof),
        other => panic!("expected the hop's output, got {other:?}"),
    }
}

/// A hop's result does not depend on how its batch was cut: same-seed
/// daemons fed the same batch in 1-entry chunks, in 64-entry chunks and
/// as one n-entry chunk return byte-identical outputs and proofs — the
/// very ones `MixServer::process_round` computes in process from the
/// same seed (the kernel draws no randomness; a daemon's seeded rng
/// feeds only the shuffle and the proof, in that order).
#[test]
fn hop_output_is_invariant_under_chunking() {
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(11);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let secrets = secrets.remove(0);

    let n = 2 * STREAM_CHUNK + 9;
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, n);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let reference = MixServer::new(secrets.clone(), public.clone())
        .process_round(&mut StdRng::seed_from_u64(42), round, entries.clone())
        .expect("reference hop runs");
    assert!(verify_hop(
        &public,
        0,
        round,
        &entries,
        &reference.outputs,
        &reference.proof
    ));

    for chunk in [1, STREAM_CHUNK, n] {
        let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.clone(), public.clone(), 42)
            .expect("daemon spawns");
        let mut conn = Conn::connect(daemon.addr()).expect("connects");
        let (outputs, proof) =
            hop_output(conn.stream_hop(round, &entries, chunk).expect("hop runs"));
        assert_eq!(outputs, reference.outputs, "outputs at chunk size {chunk}");
        assert_eq!(proof, reference.proof, "proof at chunk size {chunk}");
    }
}

/// A daemon answers the §6.4 blame requests only for the round its
/// retained hop state belongs to: after mixing round 0, `Accuse` and
/// `RevealSlot` naming round 1 are refused with `NO_BLAME_STATE`, and
/// the same requests naming round 0 are answered.
#[test]
fn blame_requests_are_answered_for_the_retained_round_only() {
    let mut rng = StdRng::seed_from_u64(13);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, 0, 4);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
    let daemon =
        MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public, 7).expect("daemon spawns");
    let mut conn = Conn::connect(daemon.addr()).expect("connects");
    let mixed = conn.stream_hop(0, &entries, STREAM_CHUNK);
    hop_output(mixed.expect("hop runs"));

    let accuse = |round| Frame::Accuse {
        round,
        input_index: 0,
    };
    let reveal = |round| Frame::RevealSlot {
        round,
        output_index: 0,
    };
    for stale in [accuse(1), reveal(1)] {
        match conn.request(&stale) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::NO_BLAME_STATE),
            other => panic!("expected NO_BLAME_STATE for {stale:?}, got {other:?}"),
        }
    }
    match conn.request(&accuse(0)) {
        Ok(Frame::Accusation { accusation }) => assert_eq!(accusation.input_index, 0),
        other => panic!("expected an accusation, got {other:?}"),
    }
    match conn.request(&reveal(0)) {
        Ok(Frame::SlotReveal { reveal: Some(_) }) => {}
        other => panic!("expected a slot reveal, got {other:?}"),
    }
}

/// A daemon hands out its inner key only for the round of the last
/// window it opened: after opening, closing and mixing round 5, a bare
/// connection asking `RevealInnerKey` for round 6 or 4242 is refused
/// with `UNKNOWN_ROUND`, and round 5 gets the active key as before.
#[test]
fn inner_key_is_revealed_for_the_last_opened_round_only() {
    let round = 5u64;
    let mut rng = StdRng::seed_from_u64(17);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let secrets = secrets.remove(0);
    let isk = secrets.isk;
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 4);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets, public, 7).expect("daemon spawns");
    let mut conn = Conn::connect(daemon.addr()).expect("connects");
    assert_eq!(
        conn.request(&Frame::OpenRound { round }).ok(),
        Some(Frame::Ok)
    );
    match conn.request(&Frame::CloseSubmissions { round }) {
        Ok(Frame::BatchDigest { count: 0, .. }) => {}
        other => panic!("expected an empty batch digest, got {other:?}"),
    }
    hop_output(
        conn.stream_hop(round, &entries, STREAM_CHUNK)
            .expect("hop runs"),
    );

    for other in [round + 1, 4242] {
        match conn.request(&Frame::RevealInnerKey { round: other }) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::UNKNOWN_ROUND),
            reply => panic!("expected UNKNOWN_ROUND for round {other}, got {reply:?}"),
        }
    }
    match conn.request(&Frame::RevealInnerKey { round }) {
        Ok(Frame::InnerKeyReveal {
            position: 0,
            isk: revealed,
        }) => assert_eq!(revealed, isk),
        reply => panic!("expected the inner key for round {round}, got {reply:?}"),
    }
}

/// Rounds of `n_users` swarm users over a 4-chain, 3-hop loopback
/// deployment under `transport`: every round (mix, cross-verify, audit,
/// reveal, delivery, rotation) completes and every chat lands.  The
/// population is sized so that some chain's batch spans several chunks.
fn swarm_rounds_deliver(seed: u64, transport: Transport) {
    const N_USERS: usize = 96;
    let mut rng = StdRng::seed_from_u64(seed);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    deployment.set_transport(transport);
    let n_chains = deployment.topology().n_chains();

    let report = run_swarm(
        &mut rng,
        &mut deployment,
        &SwarmConfig {
            n_users: N_USERS,
            rounds: 2,
            conversing_fraction: 0.5,
        },
    )
    .expect("swarm round failed");
    assert_eq!(report.rounds.len(), 2);
    for round in &report.rounds {
        assert!(
            round.messages_mixed > n_chains * STREAM_CHUNK,
            "round {}: no chain's batch exceeds one {STREAM_CHUNK}-entry chunk",
            round.round
        );
        assert_eq!(
            round.delivered, round.messages_mixed,
            "round {} lost messages",
            round.round
        );
    }
    cluster.shutdown();
}

/// The relayed pass over multi-chunk batches: hop `i + 1` receives hop
/// `i`'s chunks from the coordinator as they are emitted.
#[test]
fn streamed_chain_rounds_deliver() {
    swarm_rounds_deliver(23, Transport::Streamed);
}

/// Daemon-to-daemon forwarding is the same pass with another successor:
/// the coordinator streams the batch to hop 0 once, hops forward output
/// chunks directly to their successors, and only keys-only attestations
/// plus the last hop's stream come back — yet every round completes and
/// every chat lands, across rotations.
#[test]
fn forwarded_chain_rounds_deliver() {
    swarm_rounds_deliver(29, Transport::Forwarded);
}

/// One bad *user* onion never costs a forwarded chain its round,
/// whichever layer it breaks at.  The failing hop reports its
/// `HopFailure` to the coordinator — hop 0 as its reply, a deeper hop
/// on its report connection, acking its predecessor `Ok` — so the §6.4
/// trace convicts the injected submission in place and the pass repeats
/// forwarded without it.  No relayed retry is needed: with a single
/// attempt the round still delivers and `chain.mix_retries` does not
/// move.
#[test]
fn forwarded_chain_survives_a_bad_onion_at_any_layer() {
    let config = DeploymentConfig::small(4, 3);
    for (attempts, layer) in [(2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (1, 2)] {
        let retry = RetryPolicy {
            attempts,
            ..RetryPolicy::default()
        };
        let mix_retries = xrd_obs::counter("chain.mix_retries");
        let retries_before = mix_retries.get();
        let mut rng = StdRng::seed_from_u64(37 + layer as u64);
        let (mut cluster, _proxies, mut deployment) = launch_local_faulty_with(
            &mut rng,
            &config,
            &FaultPlan::new(0),
            ConnTimeouts::default(),
            retry,
        )
        .expect("cluster launches");
        deployment.set_transport(Transport::Forwarded);
        let ell = deployment.topology().ell();
        assert_eq!(deployment.topology().chain_len(), 3);

        let mut users: Vec<User> = (0..5).map(|_| User::new(&mut rng)).collect();
        let bad = xrd_mixnet::testutil::malicious_submission(
            &mut rng,
            &deployment.chain_keys()[0],
            0,
            layer,
        );
        deployment.inject_submission(ChainId(0), bad);

        let (report, fetched) = deployment
            .run_round(&mut rng, &mut users)
            .expect("round failed");
        assert!(
            report.failed_chains.is_empty(),
            "layer {layer}: chain lost: {report:?}"
        );
        assert!(report.aborted_chains.is_empty(), "no server is at fault");
        assert_eq!(
            report.malicious_by_chain.get(&0),
            Some(&1),
            "layer {layer}: the injected submission is convicted"
        );
        assert_eq!(
            report.delivered,
            5 * ell,
            "layer {layer}: honest messages all survive"
        );
        for user in &users {
            assert_eq!(fetched[&user.mailbox_id()].len(), ell);
        }
        if attempts == 1 {
            assert_eq!(
                mix_retries.get(),
                retries_before,
                "layer {layer}: the failure is blamed in place, not retried relayed"
            );
        }
        cluster.shutdown();
    }
}

/// Blame still works when the batch streams in several chunks: a
/// garbage onion triggers `HopFailure` out of a streamed session, the
/// §6.4 trace convicts the injected submission, and the retried
/// (streamed) pass delivers every honest message.
#[test]
fn streamed_blame_removes_malicious_submission() {
    const N_USERS: usize = 100;
    let mut rng = StdRng::seed_from_u64(4);
    let config = DeploymentConfig::small(4, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = deployment.topology().ell();

    let mut users: Vec<User> = (0..N_USERS).map(|_| User::new(&mut rng)).collect();
    let on_chain_0: usize = users
        .iter()
        .flat_map(|u| deployment.topology().chains_of_user(&u.mailbox_id()))
        .filter(|&&chain| chain == ChainId(0))
        .count();
    assert!(
        on_chain_0 > STREAM_CHUNK,
        "chain 0's batch ({on_chain_0}) must span several chunks"
    );
    let bad = xrd_mixnet::testutil::malicious_submission(
        &mut rng,
        &deployment.chain_keys()[0],
        0,
        deployment.topology().chain_len() - 1,
    );
    deployment.inject_submission(ChainId(0), bad);

    let (report, fetched) = deployment
        .run_round(&mut rng, &mut users)
        .expect("round failed");
    assert!(report.aborted_chains.is_empty(), "no server is at fault");
    assert_eq!(
        report.malicious_by_chain.get(&0),
        Some(&1),
        "the injected submission is convicted"
    );
    assert_eq!(
        report.delivered,
        N_USERS * ell,
        "honest messages all survive"
    );
    for user in &users {
        assert_eq!(fetched[&user.mailbox_id()].len(), ell);
    }
    cluster.shutdown();
}

/// Malformed streams are answered with `Error` frames and leave the
/// daemon serving: chunks without a Start, overrunning the declared
/// total, and a wrong closing digest.
#[test]
fn malformed_streams_rejected_cleanly() {
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(31);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 7)
        .expect("daemon spawns");

    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 6);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let mut conn = Conn::connect(daemon.addr()).expect("connects");

    // 1. A chunk with no session open.
    match conn.request(&Frame::MixBatchChunk {
        entries: entries.clone(),
    }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("chunk without start not rejected: {other:?}"),
    }

    // 2. An End with no session open.
    match conn.request(&Frame::MixBatchEnd { digest: [0; 32] }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("end without start not rejected: {other:?}"),
    }

    // 3. Overrun: declare 2 entries, ship 6.
    conn.send(&Frame::MixBatchStart { round, total: 2 })
        .expect("start sends");
    match conn.request(&Frame::MixBatchChunk {
        entries: entries.clone(),
    }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("overrun not rejected: {other:?}"),
    }

    // 4. Digest mismatch: correct count, wrong closing digest.
    conn.send(&Frame::MixBatchStart {
        round,
        total: entries.len() as u32,
    })
    .expect("start sends");
    conn.send(&Frame::MixBatchChunk {
        entries: entries.clone(),
    })
    .expect("chunk sends");
    match conn.request(&Frame::MixBatchEnd { digest: [9; 32] }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("digest mismatch not rejected: {other:?}"),
    }

    // 5. A fresh Start replaces any aborted session, and the daemon
    // still runs a clean streamed hop on this same connection.
    let (outputs, proof) = hop_output(conn.stream_hop(round, &entries, 2).expect("clean hop"));
    assert_eq!(outputs.len(), entries.len());
    assert!(verify_hop(&public, 0, round, &entries, &outputs, &proof));
}

/// The stream digest really is what the daemon checks: a relay that
/// recomputes it from decoded entries gets the same value the builder
/// derived from its encoded payloads.
#[test]
fn builder_and_reencoded_digests_agree() {
    let mut rng = StdRng::seed_from_u64(55);
    let (_, public) = generate_chain_keys(&mut rng, 1, 0);
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, 0, 9);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let built = ChunkedBatch::build(0, &entries, 4);
    let mut digest = StreamDigest::new();
    digest.absorb_entries(&entries);
    assert_eq!(built.digest(), digest.finalize());
}

/// A client that fires a hop and vanishes mid-computation must not
/// wedge (or spin) the daemon: the orphaned job's response is
/// discarded and other connections keep being served immediately.
#[test]
fn disconnect_while_hop_pending_leaves_daemon_serving() {
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(77);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 3)
        .expect("daemon spawns");

    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 200);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    // Fire a ~15ms hop and hang up without reading the response.
    let mut doomed = Conn::connect(daemon.addr()).expect("doomed connects");
    for bytes in ChunkedBatch::build(round, &entries, STREAM_CHUNK).frames() {
        doomed.send_encoded(bytes).expect("hop fires");
    }
    drop(doomed);

    // While (and after) the orphaned job runs, the daemon serves.
    let mut conn = Conn::connect(daemon.addr()).expect("reconnect");
    let start = std::time::Instant::now();
    for _ in 0..20 {
        conn.ping().expect("ping served");
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "daemon unresponsive after mid-hop disconnect"
    );
    // And a full hop still completes on the surviving connection.
    let (outputs, proof) = hop_output(conn.stream_hop(round, &entries, 50).expect("clean hop"));
    assert!(verify_hop(&public, 0, round, &entries, &outputs, &proof));
}

/// A request/response client that half-closes (shutdown write) right
/// after firing a hop must still receive the deferred response — EOF
/// on the daemon's read is not a disconnect while the peer's read
/// half lives.  The reply is, byte for byte, the encoding of the hop
/// `MixServer::process_round` computes in process from the daemon's
/// seed.
#[test]
fn half_closing_client_still_receives_deferred_response() {
    use std::io::Read;
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(91);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let secrets = secrets.remove(0);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.clone(), public.clone(), 5)
        .expect("daemon spawns");

    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 60);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();

    let mut stream = std::net::TcpStream::connect(daemon.addr()).expect("connects");
    for bytes in ChunkedBatch::build(round, &entries, STREAM_CHUNK).frames() {
        stream.write_all(bytes).expect("hop fires");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let reference = MixServer::new(secrets, public)
        .process_round(&mut StdRng::seed_from_u64(5), round, entries)
        .expect("reference hop runs");
    let expected =
        encode_hop_output_stream(round, 0, &reference.outputs, &reference.proof, STREAM_CHUNK);
    let mut reply = vec![0u8; expected.len()];
    stream
        .read_exact(&mut reply)
        .expect("response readable after half-close");
    assert!(reply == expected, "reply differs from the reference hop");
}

/// A relay passes a hop's reply on to the next hop byte for byte: the
/// next hop receives exactly the reply minus its opening `HopProof` —
/// the batch stream, as the hop emitted it — and the relay itself gets
/// back the hop `MixServer::process_round` computes in process.
#[test]
fn a_relayed_reply_reaches_the_next_hop_byte_for_byte() {
    use std::io::Read;
    let round = 0u64;
    let mut rng = StdRng::seed_from_u64(19);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 20);
    let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
    let reference = MixServer::new(secrets.remove(0), public)
        .process_round(&mut StdRng::seed_from_u64(3), round, entries)
        .expect("reference hop runs");
    let reply = encode_hop_output_stream(round, 0, &reference.outputs, &reference.proof, 6);

    // The hop: a peer that answers with the scripted reply.
    let hop = TcpListener::bind("127.0.0.1:0").expect("binds");
    let hop_addr = hop.local_addr().expect("bound");
    let scripted = reply.clone();
    std::thread::spawn(move || {
        let (mut stream, _) = hop.accept().expect("relay dials the hop");
        stream.write_all(&scripted).expect("reply sent");
        let _ = stream.read_to_end(&mut Vec::new());
    });
    // The next hop: a peer that keeps every byte it is sent.
    let next_hop = TcpListener::bind("127.0.0.1:0").expect("binds");
    let next_addr = next_hop.local_addr().expect("bound");
    let (captured, relayed) = mpsc::channel();
    std::thread::spawn(move || {
        let (mut stream, _) = next_hop.accept().expect("relay dials the next hop");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("reads to EOF");
        captured.send(bytes).expect("test awaits the bytes");
    });

    let mut conn = Conn::connect(hop_addr).expect("connects to the hop");
    let mut next = Conn::connect(next_addr).expect("connects to the next hop");
    let got = conn
        .recv_hop_reply(round, reference.outputs.len(), Some(&mut next))
        .expect("reply received");
    drop(next);
    let proof_frame = 4 + u32::from_le_bytes(reply[..4].try_into().unwrap()) as usize;
    let relayed = relayed
        .recv_timeout(Duration::from_secs(10))
        .expect("next hop saw EOF");
    assert!(relayed == reply[proof_frame..], "relayed bytes differ");
    assert_eq!(
        got,
        HopReply::Output {
            position: 0,
            outputs: reference.outputs,
            proof: reference.proof,
        }
    );
}

/// What a [`fake_successor`] does once a whole stream has arrived.
#[derive(Clone, Copy)]
enum Then {
    Ack,
    AckAndHangUp,
    HangUp,
}

/// A scripted successor for a forwarding hop: it serves one connection
/// at a time, reads `MixBatchStart…End` streams off it, and after each
/// does `script(round)`.  It reports every stream it read
/// (`Some(round)`, before acting on it) and every connection it closed
/// (`None`), in order.  Its thread ends with the process; a panic in it
/// drops the sender, which the test's reads of the events show.
fn fake_successor(script: fn(u64) -> Then) -> (SocketAddr, mpsc::Receiver<Option<u64>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("bound");
    let (events, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let (mut decoder, mut buf) = (FrameDecoder::new(), [0u8; 8192]);
            let mut round = None;
            loop {
                let frame = match decoder.try_frame() {
                    Some(Ok(frame)) => frame,
                    Some(Err(_)) => break,
                    None => match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            decoder.feed(&buf[..n]);
                            continue;
                        }
                    },
                };
                match frame {
                    Frame::MixBatchStart { round: r, .. } => round = Some(r),
                    Frame::MixBatchEnd { .. } => {
                        let r = round.take().expect("Start before End");
                        if events.send(Some(r)).is_err() {
                            return;
                        }
                        let then = script(r);
                        if matches!(then, Then::Ack | Then::AckAndHangUp) {
                            stream.write_all(&Frame::Ok.encode()).expect("acks");
                        }
                        if !matches!(then, Then::Ack) {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let _ = stream.shutdown(Shutdown::Both);
            if events.send(None).is_err() {
                return;
            }
        }
    });
    (addr, rx)
}

/// Hop 0 of a two-hop chain forwarding to `successor`, the
/// coordinator's connection to it, and a batch for each of rounds 0
/// and 1.
fn forwarding_hop(successor: SocketAddr) -> (DaemonHandle, Conn, [Vec<MixEntry>; 2]) {
    let mut rng = StdRng::seed_from_u64(61);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 2, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
    let batches = [0, 1].map(|round| {
        let subs = xrd_net::swarm::sealed_submissions(&mut rng, &public, round, 4);
        subs.iter().map(|s| s.to_entry()).collect()
    });
    let daemon = MixServerDaemon::spawn_with_successor(
        "127.0.0.1:0",
        secrets.remove(0),
        public,
        7,
        Some(successor),
    )
    .expect("daemon spawns");
    let conn = Conn::connect(daemon.addr()).expect("connects");
    (daemon, conn, batches)
}

/// One forwarded hop of `round`, driven as the coordinator drives it.
fn forward(conn: &mut Conn, round: u64, batch: &[MixEntry]) -> Result<HopReply, NetError> {
    conn.request_ok(&Frame::MixForward { round })?;
    conn.stream_hop(round, batch, STREAM_CHUNK)
}

/// A batch that has gone out to the successor is never sent again.
/// The successor acks round 0 on the cached link, then reads round 1's
/// whole stream and hangs up without a word — a successor that crashed
/// mid-hop, or whose ack was lost.  It may already be mixing the batch,
/// so the hop must not stream it again on a fresh dial: it answers the
/// coordinator an error (the relayed retry heals the round there), and
/// the successor has seen round 1 once.
#[test]
fn a_forwarded_batch_is_sent_once() {
    let (successor, events) = fake_successor(|round| match round {
        0 => Then::Ack,
        _ => Then::HangUp,
    });
    let (_daemon, mut conn, batches) = forwarding_hop(successor);
    let first = forward(&mut conn, 0, &batches[0]);
    assert!(matches!(first, Ok(HopReply::Attested(_))), "{first:?}");
    match forward(&mut conn, 1, &batches[1]) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_STATE),
        other => panic!("expected the forward's failure, got {other:?}"),
    }
    let streams: Vec<u64> = events.try_iter().flatten().collect();
    assert_eq!(streams, [0, 1], "a batch reached the successor twice");
}

/// The other half of the rule: a cached link the successor closed while
/// it idled between rounds is found dead *before* the send and replaced
/// by a fresh dial, so the next round's forward succeeds.
#[test]
fn a_forward_link_closed_while_idle_is_redialed() {
    let (successor, events) = fake_successor(|round| match round {
        0 => Then::AckAndHangUp,
        _ => Then::Ack,
    });
    let (_daemon, mut conn, batches) = forwarding_hop(successor);
    let first = forward(&mut conn, 0, &batches[0]);
    assert!(matches!(first, Ok(HopReply::Attested(_))), "{first:?}");
    let wait = Duration::from_secs(10);
    assert_eq!(events.recv_timeout(wait), Ok(Some(0)));
    assert_eq!(events.recv_timeout(wait), Ok(None), "the link is closed");
    let second = forward(&mut conn, 1, &batches[1]);
    assert!(matches!(second, Ok(HopReply::Attested(_))), "{second:?}");
    assert_eq!(events.recv_timeout(wait), Ok(Some(1)));
}
