//! Macro-benchmarks of the networked tiers: one chain's mix phase over
//! loopback and the mailbox tier's ack herd against one persistent
//! shard.  (Whole rounds, in-process and over TCP, are `xrd-perf`'s
//! `round_inproc` and `round_tcp` workloads.)

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::mailbox::LogStoreConfig;
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys};
use xrd_mixnet::{MailboxMessage, MAILBOX_MSG_LEN};
use xrd_net::swarm::reactor::{drive_sessions, DriveConfig, FetchSession, FETCH_PAGE_MAX};
use xrd_net::swarm::sealed_submissions;
use xrd_net::{ChainClient, Conn, Frame, MailboxDaemon, MixServerDaemon};

/// The hop-pipeline probe: one k=3 chain (three mix daemons on
/// loopback), one agreed window, the complete mix phase — k hops,
/// cross-server verification, the coordinator's batched audit,
/// inner-key reveal and envelope opening.  The coordinator forwards
/// output chunks to the next hop as they arrive, daemons start hop
/// crypto on arrived chunks, and cross-verification runs keys-only at
/// end of chain.
fn bench_hop_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("hop_pipeline");
    group.sample_size(10);
    const K: usize = 3;
    const N: usize = 384;
    group.throughput(Throughput::Elements(N as u64));

    let mut rng = StdRng::seed_from_u64(7);
    let round = 0u64;
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, K, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, round);
    let daemons: Vec<_> = secrets
        .into_iter()
        .map(|s| {
            MixServerDaemon::spawn("127.0.0.1:0", s, public.clone(), 5).expect("daemon spawns")
        })
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.addr()).collect();
    let submissions = sealed_submissions(&mut rng, &public, round, N);

    group.bench_function(BenchmarkId::new("streamed", N), |b| {
        let mut chain = ChainClient::connect(&addrs, public.clone()).expect("coordinator connects");
        // The window is set-up, not timed: every daemon holds the batch,
        // and hop 0 mixes its own window each iteration.
        chain.open_round(round).expect("window opens");
        for &addr in &addrs {
            let mut conn = Conn::connect(addr).expect("submitter connects");
            for submission in &submissions {
                let submission = submission.clone();
                conn.request_ok(&Frame::Submit { round, submission })
                    .expect("submission accepted");
            }
        }
        let agreement = chain.close_and_agree(round).expect("input agreement");
        b.iter(|| {
            let outcome = chain.mix_round(round, &agreement).expect("mix round runs");
            assert_eq!(outcome.delivered.len(), N);
            outcome
        });
    });
    group.finish();
    drop(daemons);
}

/// The end-of-round ack herd: 2 000 users each walk and ack her own
/// one-entry mailbox on one persistent shard (fsync on), all sessions
/// driven from one client thread.  Delivery is set-up, not timed; what
/// is timed is pages, acks and the syncs the acks' `Ok`s wait for —
/// one per reactor tick, shared by the tick's acks.
fn bench_mailbox_ack(c: &mut Criterion) {
    const N: usize = 2000;
    let mut group = c.benchmark_group("mailbox_ack");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    let dir = std::env::temp_dir().join(format!("xrd-bench-mailbox-ack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon =
        MailboxDaemon::spawn_persistent("127.0.0.1:0", 0, 1, &dir, LogStoreConfig::default())
            .expect("shard spawns");
    let addr = daemon.addr();
    let mailbox = |i: usize| {
        let mut id = [0u8; 32];
        id[..8].copy_from_slice(&(i as u64).to_le_bytes());
        id
    };
    let mut coordinator = Conn::connect(addr).expect("connects");
    let mut batch = 0u64;
    group.bench_function(BenchmarkId::new("persistent_shard", N), |b| {
        b.iter_batched(
            || {
                for chunk in (0..N).collect::<Vec<_>>().chunks(500) {
                    batch += 1;
                    coordinator
                        .request_ok(&Frame::Deliver {
                            round: 1,
                            batch,
                            messages: chunk
                                .iter()
                                .map(|&i| MailboxMessage {
                                    mailbox: mailbox(i),
                                    sealed: vec![7u8; MAILBOX_MSG_LEN - 32],
                                })
                                .collect(),
                        })
                        .expect("delivered");
                }
                (0..N)
                    .map(|i| FetchSession::new(addr, mailbox(i), FETCH_PAGE_MAX))
                    .collect::<Vec<_>>()
            },
            |sessions| {
                let run = drive_sessions(sessions, &DriveConfig::default()).expect("drives");
                assert_eq!(run.completed, N);
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_hop_pipeline, bench_mailbox_ack);
criterion_main!(benches);
