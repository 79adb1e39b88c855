//! Ristretto point work, read off the `codec.points_decoded` /
//! `codec.points_encoded` counters: a point that arrives as bytes is
//! decoded once, where the group law needs it, and never encoded again;
//! the only points encoded are the ones a hop computes, once each.
//!
//! A networked round counts every process that does point work: three
//! mix daemons as child processes (each registry its own) and the
//! coordinator in this one.  The tests of this binary take
//! [`COUNTERS`], so what this process counts during one is that test's.

mod common;

use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_crypto::ristretto::GroupElement;
use xrd_mixnet::chain_keys::{
    generate_chain_keys, rotate_inner_keys, ChainPublicKeys, ServerSecrets,
};
use xrd_mixnet::client::{seal_ahs, ChainSealer, SealRandomness, Submission};
use xrd_mixnet::message::{MailboxMessage, MixEntry, MAILBOX_MSG_LEN};
use xrd_mixnet::server::{CrossCheck, DhColumn};
use xrd_net::codec::{ChunkedBatch, Frame};
use xrd_net::swarm::sealed_submissions;
use xrd_net::{ChainClient, Conn};

/// Held by every test of this binary: the counters are the process's.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters() -> std::sync::MutexGuard<'static, ()> {
    COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const K: usize = 3;
const N: u64 = 24;

/// A mix daemon as a child process.
struct ChildDaemon {
    child: Child,
    addr: std::net::SocketAddr,
}

impl ChildDaemon {
    fn spawn(
        dir: &std::path::Path,
        secrets: &ServerSecrets,
        public: &ChainPublicKeys,
    ) -> ChildDaemon {
        use std::io::BufRead;
        let config = dir.join(format!("hop-{}.cfg", secrets.position));
        std::fs::write(
            &config,
            xrd_net::codec::encode_server_config(secrets, public),
        )
        .expect("config writes");
        let mut command = Command::new(env!("CARGO_BIN_EXE_xrd-netd"));
        command.args(["mix", "--listen", "127.0.0.1:0", "--config"]);
        command.arg(&config);
        let mut child = command
            .stdout(Stdio::piped())
            .spawn()
            .expect("xrd-netd child spawns");
        let mut lines = std::io::BufReader::new(child.stdout.take().expect("stdout piped")).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon announces before exiting")
                .expect("announcement reads");
            if let Some(rest) = line.strip_prefix("LISTENING ") {
                break rest.trim().parse().expect("announced address parses");
            }
        };
        std::thread::spawn(move || for _line in lines {});
        ChildDaemon { child, addr }
    }
}

impl Drop for ChildDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `(decoded, encoded)` so far, from a scrape of `snapshot`.
fn point_work(snapshot: &xrd_obs::Snapshot) -> (u64, u64) {
    (
        snapshot.counter("codec.points_decoded"),
        snapshot.counter("codec.points_encoded"),
    )
}

fn scrape(addr: std::net::SocketAddr) -> xrd_obs::Snapshot {
    let mut conn = Conn::connect(addr).expect("scrape connects");
    match conn.request(&Frame::StatsRequest).expect("scrape") {
        Frame::StatsReport { snapshot } => *snapshot,
        other => panic!("expected StatsReport, got {other:?}"),
    }
}

fn daemon_work(addr: std::net::SocketAddr) -> (u64, u64) {
    point_work(&scrape(addr))
}

/// Every submission to every daemon, one connection each, all written
/// before any reply is read — so the daemons' ticks screen them in
/// groups.
fn submit_all(daemons: &[ChildDaemon], round: u64, submissions: &[Submission]) {
    let mut conns: Vec<Conn> = daemons
        .iter()
        .flat_map(|daemon| {
            submissions.iter().map(move |submission| {
                let mut conn = Conn::connect(daemon.addr).expect("submitter connects");
                let submit = Frame::Submit {
                    round,
                    submission: submission.clone(),
                };
                conn.send(&submit).expect("submit sends");
                conn
            })
        })
        .collect();
    for conn in &mut conns {
        assert_eq!(conn.recv().expect("verdict"), Frame::Ok);
    }
}

fn waves() -> u64 {
    xrd_obs::counter("net.coordinator.waves").get()
}

/// One clean round: per daemon and for the coordinator,
/// how many points it decoded and encoded; and how many waves the
/// coordinator asked.
fn round_work(
    rng: &mut StdRng,
    daemons: &[ChildDaemon],
    client: &mut ChainClient,
    round: u64,
) -> (Vec<(u64, u64)>, (u64, u64), u64) {
    let daemons_before: Vec<_> = daemons.iter().map(|d| daemon_work(d.addr)).collect();
    let coordinator_before = point_work(&xrd_obs::global().snapshot());
    let waves_before = waves();

    client.open_round(round).expect("window opens");
    let submissions = sealed_submissions(rng, client.public(), round, N as usize);
    submit_all(daemons, round, &submissions);
    let agreement = client.close_and_agree(round).expect("input agreement");
    assert_eq!(agreement.len() as u64, N);
    let outcome = client
        .mix_round(round, &agreement)
        .expect("the round mixes");
    assert_eq!(outcome.delivered.len() as u64, N);
    assert!(outcome.misbehaving_servers.is_empty());
    for daemon in daemons {
        let fetches = scrape(daemon.addr).counter("frames.in.GetBatch");
        assert_eq!(fetches, 0, "a clean round fetches no batch");
    }

    let waves = waves() - waves_before;
    let minus = |(d1, e1): (u64, u64), (d0, e0): (u64, u64)| (d1 - d0, e1 - e0);
    let daemons_after = daemons.iter().map(|d| daemon_work(d.addr));
    let per_daemon = daemons_after.zip(daemons_before).map(|(a, b)| minus(a, b));
    let coordinator = minus(
        point_work(&xrd_obs::global().snapshot()),
        coordinator_before,
    );
    (per_daemon.collect(), coordinator, waves)
}

/// The minimum, pinned.  A daemon decodes each submission's `g^x` once
/// (its screening, in batches), its hop input once (the chunks) unless
/// it is hop 0, which mixes its screened window, and the chain's k + 1
/// key columns but the two its own hop consumed and emitted, which it
/// checks the other hops against; it encodes exactly its hop's N
/// computed outputs — never a window entry or a hop input again.  The
/// coordinator decodes the column hop 0 names and what each hop sends
/// back, and encodes nothing: every attestation column goes out as the
/// bytes it came in.
///
/// It asks its daemons in four waves — open, close, the one
/// verification wave, reveal; the batch is never fetched.
#[test]
fn a_round_decodes_each_wire_point_once_and_encodes_only_computed_ones() {
    let _counters = counters();
    let mut rng = StdRng::seed_from_u64(40);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, K, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
    let dir = std::env::temp_dir().join(format!("xrd-point-work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("config dir");
    let daemons: Vec<ChildDaemon> = (secrets.iter())
        .map(|hop| ChildDaemon::spawn(&dir, hop, &public))
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.addr).collect();
    let mut client = ChainClient::connect(&addrs, public.clone()).expect("coordinator connects");

    let cross_checks = N * (K as u64 - 1);
    // Hop 0 decodes no hop input: its window was decoded at screening.
    let decoded = |pos: usize| N + if pos == 0 { 0 } else { N } + cross_checks;
    let (daemon_work, coordinator, waves) = round_work(&mut rng, &daemons, &mut client, 0);
    assert_eq!(waves, 4, "waves");
    for (pos, work) in daemon_work.into_iter().enumerate() {
        assert_eq!(work, (decoded(pos), N), "daemon {pos}");
    }
    assert_eq!(coordinator, (N + K as u64 * N, 0), "coordinator");
    let _ = std::fs::remove_dir_all(&dir);
}

fn points_encoded() -> u64 {
    xrd_obs::counter("codec.points_encoded").get()
}

/// The keys of `column`, encoded here (the reference).
fn encoded(points: &[GroupElement]) -> Vec<[u8; 32]> {
    points.iter().map(GroupElement::encode).collect()
}

fn message(i: usize) -> MailboxMessage {
    MailboxMessage {
        mailbox: [i as u8; 32],
        sealed: vec![7; MAILBOX_MSG_LEN - 32],
    }
}

/// `frame` decoded from its encoding and encoded again: the same bytes,
/// and how many points the second encode encoded.
fn reencoded(frame: &Frame) -> (Frame, u64) {
    let wire = frame.encode();
    let decoded = Frame::decode(&wire[4..]).expect("well-formed frame decodes");
    let before = points_encoded();
    assert_eq!(decoded.encode(), wire, "re-encoding reproduces the bytes");
    (decoded, points_encoded() - before)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wherever a point's bytes are made to travel beside it — the
    /// sealer, the codec (a `SubmissionBatch` row, a `Submit` screened,
    /// a decoded column), the coordinator's column builds (hop 0's
    /// stream from the submissions, a hop's reply read off its chunk
    /// payloads) — the bytes are the point encoded.
    #[test]
    fn carried_bytes_are_the_points_encoded(seed in any::<u64>(), n in 0usize..12) {
        let _counters = counters();
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, public) = generate_chain_keys(&mut rng, 2, 0);
        let sealer = ChainSealer::new(&public);
        let jobs = (0..n).map(|i| (SealRandomness::draw(&mut rng), message(i))).collect();
        let mut sealed = sealer.seal_all(0, jobs);
        sealed.push(seal_ahs(&mut rng, &public, 0, &message(n)));
        for s in &sealed {
            prop_assert_eq!(*s.encoded_dh(), s.dh().encode());
        }

        let batch = Frame::SubmissionBatch { round: 0, submissions: sealed.clone() };
        let Frame::SubmissionBatch { submissions, .. } = Frame::decode(&batch.encode()[4..]).unwrap()
        else { panic!("a SubmissionBatch decodes as one") };
        let mut screened: Vec<Submission> = sealed
            .iter()
            .map(|s| {
                let submit = Frame::Submit { round: 0, submission: s.clone() };
                match Frame::decode(&submit.encode()[4..]).unwrap() {
                    Frame::Submit { submission, .. } => submission,
                    other => panic!("a Submit decodes as one, not {other:?}"),
                }
            })
            .collect();
        prop_assert!(Submission::decode_points(&mut screened).iter().all(|&ok| ok));
        for s in submissions.iter().chain(&screened) {
            prop_assert_eq!(*s.encoded_dh(), s.dh().encode());
        }

        // Hop 0's stream, written from the submissions' bytes, and a
        // hop's output stream, its keys encoded: the encodings each
        // reports, and what a receiver reads off the chunk payloads.
        let entries: Vec<MixEntry> = sealed.iter().map(Submission::to_entry).collect();
        let dhs: Vec<GroupElement> = entries.iter().map(|e| e.dh).collect();
        for stream in [ChunkedBatch::build(0, &sealed, 3), ChunkedBatch::build(0, &entries, 3)] {
            prop_assert_eq!(stream.dh_encodings(), &encoded(&dhs)[..]);
            let mut read = Vec::new();
            for bytes in &stream.frames()[1..stream.frames().len() - 1] {
                let Frame::MixBatchChunk { entries } = Frame::decode(&bytes[4..]).unwrap()
                else { panic!("a chunk decodes as one") };
                let payload = &bytes[ChunkedBatch::CHUNK_PAYLOAD_OFFSET..];
                read.extend(ChunkedBatch::payload_dhs(&entries, payload));
            }
            prop_assert_eq!(read, encoded(&dhs));
        }

        // A column off the wire carries its keys' encodings.
        let check = CrossCheck {
            round: 0,
            proofs: vec![common::dleq(&mut rng)],
            columns: vec![Some(DhColumn::from(dhs.clone())), None, Some(dhs.iter().rev().copied().collect())],
        };
        let (Frame::VerifyHopKeys { check: got }, _) = reencoded(&Frame::VerifyHopKeys { check })
        else { panic!("VerifyHopKeys decodes as one") };
        for column in got.columns.iter().flatten() {
            prop_assert_eq!(column.encodings(), Some(&encoded(column)[..]));
        }
    }

    /// A frame decoded off the wire goes out again as the bytes it came
    /// in, and — but for a `MixBatchChunk`, whose entries carry no
    /// encodings — without encoding a point.  (A chunk is never
    /// re-encoded: a relay passes its bytes on, and a hop's outputs are
    /// encoded once, when they are made.)
    #[test]
    fn a_decoded_frame_reencodes_to_its_bytes_without_encoding_a_point(seed in any::<u64>()) {
        let _counters = counters();
        let mut rng = StdRng::seed_from_u64(seed);
        for tag in [0x11, 0x15, 0x2B, 0x44] {
            let frame = common::arb_frame(&mut rng, tag).expect("a generator arm");
            let (_, encodes) = reencoded(&frame);
            prop_assert_eq!(encodes, 0, "tag {:#04x}", tag);
        }
        let Some(chunk @ Frame::MixBatchChunk { .. }) = common::arb_frame(&mut rng, 0x26) else {
            panic!("a MixBatchChunk generator arm");
        };
        let Frame::MixBatchChunk { entries } = &chunk else { unreachable!() };
        let (_, encodes) = reencoded(&chunk);
        prop_assert_eq!(encodes, entries.len() as u64);
    }
}
