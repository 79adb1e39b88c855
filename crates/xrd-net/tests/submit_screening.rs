//! The mix daemon screens proofs of knowledge once per reactor tick,
//! not once per `Submit` — with the verdicts a per-frame check gives:
//! a bad proof is answered `REJECTED_SUBMISSION` on its own connection
//! and never enters a batch, every daemon of a chain fixes the same
//! digest, and the submission quotas are exact at their boundaries.

use std::process::{Child, Command, Stdio};

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_mixnet::chain_keys::{
    generate_chain_keys, rotate_inner_keys, ChainPublicKeys, ServerSecrets,
};
use xrd_mixnet::client::Submission;
use xrd_mixnet::Lie;
use xrd_net::codec::{error_code, Frame};
use xrd_net::swarm::sealed_submissions;
use xrd_net::{Conn, MixServerDaemon, NetError, SubmissionPolicy};

/// A k = 3 chain's keys, inner keys rotated to round 0.
fn chain_keys(rng: &mut StdRng) -> (Vec<ServerSecrets>, ChainPublicKeys) {
    let (mut secrets, mut public) = generate_chain_keys(rng, 3, 0);
    rotate_inner_keys(rng, &mut secrets, &mut public, 0);
    (secrets, public)
}

/// `n` valid round-0 submissions, except that `bad` (if any) carries a
/// proof of knowledge bound to another round.
fn submissions_with_offender(
    rng: &mut StdRng,
    public: &ChainPublicKeys,
    n: usize,
    bad: Option<usize>,
) -> Vec<Submission> {
    let mut submissions = sealed_submissions(rng, public, 0, n);
    if let Some(bad) = bad {
        submissions[bad] = sealed_submissions(rng, public, 99, 1).remove(0);
    }
    submissions
}

fn submit(submission: &Submission) -> Frame {
    Frame::Submit {
        round: 0,
        submission: submission.clone(),
    }
}

/// The reply to a submission: `None` for `Ok`, the error code otherwise.
fn verdict(reply: Result<Frame, NetError>) -> Option<u16> {
    match reply {
        Ok(Frame::Ok) => None,
        Ok(Frame::Error { code, .. }) | Err(NetError::Remote { code, .. }) => Some(code),
        other => panic!("expected Ok or an error frame, got {other:?}"),
    }
}

/// Close round 0's window on `control` and return `(digest, count)`.
fn close(control: &mut Conn) -> ([u8; 32], u64) {
    match control
        .request(&Frame::CloseSubmissions { round: 0 })
        .expect("window closes")
    {
        Frame::BatchDigest { digest, count, .. } => (digest, count),
        other => panic!("expected BatchDigest, got {other:?}"),
    }
}

/// A mix daemon as a child process (so its registry is its own), which
/// the test can freeze and thaw.
struct ChildDaemon {
    child: Child,
    addr: std::net::SocketAddr,
    config_dir: std::path::PathBuf,
}

impl ChildDaemon {
    fn spawn(secrets: &ServerSecrets, public: &ChainPublicKeys) -> ChildDaemon {
        use std::io::BufRead;
        let config_dir =
            std::env::temp_dir().join(format!("xrd-submit-screening-{}", std::process::id()));
        std::fs::create_dir_all(&config_dir).expect("scratch dir");
        let config_path = config_dir.join("hop.cfg");
        std::fs::write(
            &config_path,
            xrd_net::codec::encode_server_config(secrets, public),
        )
        .expect("config writes");
        let mut child = Command::new(env!("CARGO_BIN_EXE_xrd-netd"))
            .args(["mix", "--listen", "127.0.0.1:0", "--config"])
            .arg(&config_path)
            .stdout(Stdio::piped())
            .spawn()
            .expect("xrd-netd child spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
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
        ChildDaemon {
            child,
            addr,
            config_dir,
        }
    }

    fn signal(&self, signal: &str) {
        let status = Command::new("kill")
            .args([signal, &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill {signal}");
    }

    /// `SIGSTOP` the daemon and wait until every one of its threads has
    /// stopped (the signal is delivered asynchronously; the reactor is
    /// not the main thread).  While it is frozen the kernel still
    /// completes handshakes into its accept queue and buffers what is
    /// written, so everything sent meanwhile is waiting for the
    /// reactor's first wake-up after the thaw.
    fn freeze(&self) {
        self.signal("-STOP");
        let tasks = format!("/proc/{}/task", self.child.id());
        let all_stopped = || {
            std::fs::read_dir(&tasks)
                .expect("child is alive")
                .all(|task| {
                    let stat =
                        std::fs::read_to_string(task.expect("task entry").path().join("stat"))
                            .unwrap_or_default();
                    // "pid (comm) state ...": the state follows the last ')'.
                    stat.rsplit(')')
                        .next()
                        .unwrap_or("")
                        .trim_start()
                        .starts_with('T')
                })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !all_stopped() {
            assert!(std::time::Instant::now() < deadline, "daemon never stopped");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// `SIGCONT` the daemon.
    fn thaw(&self) {
        self.signal("-CONT");
    }
}

impl Drop for ChildDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.config_dir);
    }
}

/// N `Submit`s, each on its own connection, all written while the
/// daemon is frozen — so its reactor finds them in one poller wait and
/// screens them as **one** group: the daemon's own histogram says one
/// group of N.  One of them carries a proof for the wrong round:
/// exactly that connection reads `REJECTED_SUBMISSION`, the others
/// `Ok`, and the batch the window fixes has N − 1 entries.
#[test]
fn one_tick_is_one_screening_and_only_the_offender_is_rejected() {
    const N: usize = 40;
    const BAD: usize = 17;
    let mut rng = StdRng::seed_from_u64(31);
    let (secrets, public) = chain_keys(&mut rng);
    let daemon = ChildDaemon::spawn(&secrets[0], &public);
    let mut control = Conn::connect(daemon.addr).expect("control connects");
    control
        .request_ok(&Frame::OpenRound { round: 0 })
        .expect("window opens");
    let submissions = submissions_with_offender(&mut rng, &public, N, Some(BAD));

    daemon.freeze();
    let mut conns: Vec<Conn> = submissions
        .iter()
        .map(|submission| {
            let mut conn = Conn::connect(daemon.addr).expect("the backlog takes the connect");
            conn.send(&submit(submission)).expect("the kernel buffers");
            conn
        })
        .collect();
    daemon.thaw();

    for (i, conn) in conns.iter_mut().enumerate() {
        let expected = (i == BAD).then_some(error_code::REJECTED_SUBMISSION);
        assert_eq!(verdict(conn.recv()), expected, "submission {i}");
    }
    assert_eq!(close(&mut control).1, (N - 1) as u64);

    let stats = match control.request(&Frame::StatsRequest).expect("scrape") {
        Frame::StatsReport { snapshot } => *snapshot,
        other => panic!("expected StatsReport, got {other:?}"),
    };
    let groups = stats
        .hist("submit.screen_batch")
        .expect("the daemon screened");
    assert_eq!(
        (groups.count, groups.sum, groups.max),
        (1, N as u64, N as u64),
        "one poller wait's submissions are one screening"
    );
    assert_eq!(
        stats.counter("submit.screen_fallbacks"),
        1,
        "the offender made the one batch fall back to per-proof checks"
    );
}

/// Every daemon of a chain is sent the same submissions — over
/// different connection layouts, so their ticks group them differently
/// — and every one rejects the same offender and fixes the same digest.
#[test]
fn all_daemons_of_a_chain_fix_the_same_digest() {
    const N: usize = 24;
    const BAD: usize = 5;
    let mut rng = StdRng::seed_from_u64(32);
    let (secrets, public) = chain_keys(&mut rng);
    let submissions = submissions_with_offender(&mut rng, &public, N, Some(BAD));

    let mut digests = Vec::new();
    for (position, secrets) in secrets.into_iter().enumerate() {
        let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets, public.clone(), 7)
            .expect("daemon spawns");
        let mut control = Conn::connect(daemon.addr()).expect("control connects");
        control
            .request_ok(&Frame::OpenRound { round: 0 })
            .expect("window opens");
        // Hop 0: one connection, one submission at a time.  Hop 1: a
        // connection each, all in flight at once.  Hop 2: three
        // connections, eight pipelined on each.
        let per_conn = [N, 1, 8][position];
        let mut conns: Vec<Conn> = (0..N / per_conn)
            .map(|_| Conn::connect(daemon.addr()).expect("submitter connects"))
            .collect();
        for (i, submission) in submissions.iter().enumerate() {
            conns[i / per_conn]
                .send(&submit(submission))
                .expect("submit sends");
        }
        for i in 0..N {
            let expected = (i == BAD).then_some(error_code::REJECTED_SUBMISSION);
            assert_eq!(
                verdict(conns[i / per_conn].recv()),
                expected,
                "hop {position}, submission {i}"
            );
        }
        digests.push(close(&mut control));
    }
    assert_eq!(digests[0].1, (N - 1) as u64);
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "the chain's daemons disagree on the batch: {digests:?}"
    );
}

/// The quotas at their boundaries.  Window cap: N submitters at once
/// against a cap of N − 1 — however the ticks fall, exactly one is
/// refused and the batch has N − 1.  Per-connection cap of 2, one
/// connection: the third *admitted* submission is refused; a rejected
/// one in between used no quota.
#[test]
fn quotas_are_exact_at_the_boundary() {
    const N: usize = 32;
    let mut rng = StdRng::seed_from_u64(33);
    let (mut secrets, public) = chain_keys(&mut rng);
    let policy = SubmissionPolicy {
        max_per_conn: 2,
        max_pending: N - 1,
    };
    let daemon = MixServerDaemon::spawn_with_policy(
        "127.0.0.1:0",
        secrets.remove(0),
        public.clone(),
        7,
        policy,
    )
    .expect("daemon spawns");
    let mut control = Conn::connect(daemon.addr()).expect("control connects");
    control
        .request_ok(&Frame::OpenRound { round: 0 })
        .expect("window opens");

    let submissions = submissions_with_offender(&mut rng, &public, N, None);
    let mut conns: Vec<Conn> = submissions
        .iter()
        .map(|submission| {
            let mut conn = Conn::connect(daemon.addr()).expect("submitter connects");
            conn.send(&submit(submission)).expect("submit sends");
            conn
        })
        .collect();
    let refused: Vec<Option<u16>> = conns.iter_mut().map(|c| verdict(c.recv())).collect();
    assert_eq!(
        refused.iter().filter(|v| v.is_some()).count(),
        1,
        "a window of {} refuses exactly one of {N}: {refused:?}",
        N - 1
    );
    assert!(refused.contains(&Some(error_code::QUOTA_EXCEEDED)));
    assert_eq!(close(&mut control).1, (N - 1) as u64);

    control
        .request_ok(&Frame::OpenRound { round: 1 })
        .expect("next window opens");
    let next = sealed_submissions(&mut rng, &public, 1, 3);
    let stale = &submissions[0]; // its proof is bound to round 0
    let mut conn = Conn::connect(daemon.addr()).expect("submitter connects");
    let mut answer = |submission: &Submission| {
        verdict(conn.request(&Frame::Submit {
            round: 1,
            submission: submission.clone(),
        }))
    };
    assert_eq!(answer(&next[0]), None);
    assert_eq!(answer(stale), Some(error_code::REJECTED_SUBMISSION));
    assert_eq!(answer(&next[1]), None);
    assert_eq!(answer(&next[2]), Some(error_code::QUOTA_EXCEEDED));
}

/// A byzantine daemon lies about *attestations*; towards submitters it
/// runs the honest protocol, screening included — its server tells the
/// lie, and the service around it, once-per-tick commit and all, is the
/// honest one.
#[test]
fn lying_verifier_still_admits_and_rejects_submissions() {
    let mut rng = StdRng::seed_from_u64(34);
    let (mut secrets, public) = chain_keys(&mut rng);
    let daemon = MixServerDaemon::spawn_byzantine(
        "127.0.0.1:0",
        secrets.remove(0),
        public.clone(),
        7,
        Lie::RejectsAndUpholds,
    )
    .expect("daemon spawns");
    let mut conn = Conn::connect(daemon.addr()).expect("connects");
    conn.request_ok(&Frame::OpenRound { round: 0 })
        .expect("window opens");
    let submissions = submissions_with_offender(&mut rng, &public, 3, Some(1));
    let verdicts: Vec<Option<u16>> = submissions
        .iter()
        .map(|s| verdict(conn.request(&submit(s))))
        .collect();
    assert_eq!(
        verdicts,
        [None, Some(error_code::REJECTED_SUBMISSION), None]
    );
    assert_eq!(close(&mut conn).1, 2);
}

/// A submission off the wire carries its point's encoding as it came:
/// after a `Submit` and after a `SubmissionBatch` round trip (rows
/// around the lane width), the carried bytes are the point encoded, the
/// submission is the one sent, and its proof screens.
#[test]
fn a_decoded_submission_carries_its_encoding() {
    let mut rng = StdRng::seed_from_u64(14);
    let (_, public) = chain_keys(&mut rng);
    for n in [1usize, 2, 3, 8, 9, 17] {
        let sent = sealed_submissions(&mut rng, &public, 0, n);
        let batch = Frame::SubmissionBatch {
            round: 0,
            submissions: sent.clone(),
        };
        let Ok(Frame::SubmissionBatch { submissions, .. }) = Frame::decode(&batch.encode()[4..])
        else {
            panic!("a SubmissionBatch decodes as one");
        };
        let mut received = submissions;
        for submission in &sent {
            let Ok(Frame::Submit { submission, .. }) =
                Frame::decode(&submit(submission).encode()[4..])
            else {
                panic!("a Submit decodes as one");
            };
            received.push(submission);
        }
        assert_eq!(received, [&sent[..], &sent[..]].concat(), "n={n}");
        for submission in &received {
            assert_eq!(*submission.encoded_dh(), submission.dh().encode(), "n={n}");
        }
        assert_eq!(Submission::verify_poks(0, &received), vec![true; 2 * n]);
    }
}

/// A `Submit` whose `g^x` is no canonical encoding is answered as a
/// frame that does not parse — `BAD_STATE` "bad frame: invalid group
/// element encoding" — and its connection is closed, with or without a
/// window open for it.  The daemon keeps serving everyone else, and the
/// window fixes only the valid submission.
#[test]
fn an_invalid_point_is_refused_as_a_bad_frame_and_closes_its_connection() {
    let mut rng = StdRng::seed_from_u64(15);
    let (mut secrets, public) = chain_keys(&mut rng);
    let daemon = MixServerDaemon::spawn("127.0.0.1:0", secrets.remove(0), public.clone(), 3)
        .expect("daemon spawns");
    let valid = sealed_submissions(&mut rng, &public, 0, 2);
    // Length prefix, tag and round come before the point: 32 bytes of
    // 0xff are never a canonical encoding.
    let mut bad = submit(&valid[1]).encode();
    bad[13..45].fill(0xff);

    let mut control = Conn::connect(daemon.addr()).expect("control connects");
    for window_open in [false, true] {
        if window_open {
            control
                .request_ok(&Frame::OpenRound { round: 0 })
                .expect("window opens");
        }
        let mut conn = Conn::connect(daemon.addr()).expect("submitter connects");
        conn.send_encoded(&bad).expect("the bad frame sends");
        match conn.recv() {
            Ok(Frame::Error { code, message }) => assert_eq!(
                (code, message.as_str()),
                (
                    error_code::BAD_STATE,
                    "bad frame: invalid group element encoding"
                ),
                "window open: {window_open}"
            ),
            other => panic!("expected the bad-frame refusal, got {other:?}"),
        }
        match conn.recv() {
            Err(NetError::Disconnected) | Err(NetError::Io(_)) => {}
            other => panic!("expected EOF after the refusal, got {other:?}"),
        }
    }
    control
        .request_ok(&submit(&valid[0]))
        .expect("a valid submission is still accepted");
    assert_eq!(
        close(&mut control).1,
        1,
        "only the valid submission is batched"
    );
}
