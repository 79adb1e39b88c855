//! Kernel rungs: the per-call cost of the functions a round is built
//! from, each timed on its own, bottom up — group arithmetic, then the
//! client's sealing, then one server hop, then its verification and
//! opening, then the codec around it, then the stores under the
//! mailbox tier.
//!
//! The inputs are a chain and a batch generated from the run's seed,
//! the batch sized like one chain's share of the workload's round
//! (capped, so a rung costs milliseconds), so a rung's per-entry cost
//! can be held against the same workload's staged spans.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;

use xrd_core::mailbox::{LogMailboxStore, LogStoreConfig, MailboxStore};
use xrd_crypto::{
    adec, aenc, round_nonce, DleqBatchEntry, DleqProof, GroupElement, GroupTable, Scalar,
};
use xrd_mixnet::message::outer_ct_len;
use xrd_mixnet::{
    open_batch, seal_ahs, verify_hop, ChainRunner, MailboxMessage, MixEntry, Submission,
    PAYLOAD_LEN,
};
use xrd_net::codec::STREAM_CHUNK;
use xrd_net::Frame;

use crate::inputs::{Mailboxes, ENTRIES_PER_ROUND};
use crate::stats::median;

/// Largest batch a rung runs on.
const MAX_RUNG_BATCH: usize = 256;
/// Chains × hops of the deployment shape: proofs in one round's audit.
const AUDIT_PROOFS: usize = 18;

/// Microseconds `f` takes, per item of `items`.
fn us_per<T>(items: usize, f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e6 / items.max(1) as f64
}

/// The crypto, mixnet and codec rungs, on a `batch`-entry batch
/// through a fresh k=3 chain.  Names are the per-layer metric names.
pub fn round_rungs(rng: &mut StdRng, batch: usize) -> Vec<(&'static str, f64)> {
    let batch = batch.clamp(1, MAX_RUNG_BATCH);
    let round = 0u64;
    let k = 3;
    let mut out = Vec::new();

    let mut chain = ChainRunner::new(rng, k, 0);
    chain.rotate_inner_keys(rng, round);
    let public = chain.public().clone();

    // mixnet.client — the proof of knowledge every server checks on
    // every submission (sealing itself is a span of the staged round).
    let messages: Vec<MailboxMessage> = (0..batch)
        .map(|i| MailboxMessage {
            mailbox: [i as u8; 32],
            sealed: vec![i as u8; PAYLOAD_LEN + xrd_crypto::TAG_LEN],
        })
        .collect();
    let submissions: Vec<Submission> = messages
        .iter()
        .map(|msg| seal_ahs(rng, &public, round, msg))
        .collect();
    out.push((
        "mixnet.client.verify_pok_us",
        us_per(batch, || {
            assert!(submissions.iter().all(|s| s.verify_pok(round)));
        }),
    ));

    // crypto — the two-scalar ladder under the hop kernel, one table
    // per entry built outside the timed region as the kernel does in
    // bulk; the AEAD open of one outer layer; the batched DLEQ check.
    let entries: Vec<MixEntry> = submissions.iter().map(Submission::to_entry).collect();
    let dhs: Vec<GroupElement> = entries.iter().map(|e| e.dh).collect();
    let tables = GroupTable::batch_new(&dhs);
    let (a, b) = (Scalar::random(rng), Scalar::random(rng));
    out.push((
        "crypto.scalar_mul_pair_us",
        us_per(batch, || {
            for table in &tables {
                black_box(table.mul_pair(&a, &b));
            }
        }),
    ));
    let key = [7u8; 32];
    let nonce = round_nonce(round, 0);
    let sealed = aenc(
        &key,
        &nonce,
        b"",
        &vec![0u8; outer_ct_len(k) - xrd_crypto::TAG_LEN],
    );
    out.push((
        "crypto.aead_open_us",
        us_per(batch, || {
            for _ in 0..batch {
                black_box(adec(&key, &nonce, b"", black_box(&sealed)).expect("opens"));
            }
        }),
    ));
    let statements: Vec<(
        GroupElement,
        GroupElement,
        GroupElement,
        GroupElement,
        DleqProof,
    )> = (0..AUDIT_PROOFS)
        .map(|_| {
            let x = Scalar::random(rng);
            let base1 = GroupElement::base_mul(&Scalar::random(rng));
            let base2 = GroupElement::base_mul(&Scalar::random(rng));
            let (public1, public2) = (base1.mul(&x), base2.mul(&x));
            let proof = DleqProof::prove(rng, b"rung", &base1, &public1, &base2, &public2, &x);
            (base1, public1, base2, public2, proof)
        })
        .collect();
    let batch_entries: Vec<DleqBatchEntry> = statements
        .iter()
        .map(|(base1, public1, base2, public2, proof)| DleqBatchEntry {
            context: b"rung",
            base1: *base1,
            public1: *public1,
            base2: *base2,
            public2: *public2,
            proof: *proof,
        })
        .collect();
    out.push((
        "crypto.dleq_batch_verify_us_per_proof",
        us_per(AUDIT_PROOFS, || {
            assert!(DleqProof::batch_verify(&batch_entries));
        }),
    ));

    // mixnet.server — all k hops of the batch, one hop's verification,
    // and the final opening.
    let mut hop_us = 0.0;
    let mut verify_us = 0.0;
    let mut current = entries.clone();
    for pos in 0..k {
        let inputs = current.clone();
        let start = Instant::now();
        let result = chain.servers_mut()[pos]
            .process_round(rng, round, current)
            .expect("honest batch mixes");
        hop_us += start.elapsed().as_secs_f64() * 1e6;
        if pos == 0 {
            verify_us = us_per(batch, || {
                assert!(verify_hop(
                    &public,
                    pos,
                    round,
                    &inputs,
                    &result.outputs,
                    &result.proof
                ));
            });
        }
        current = result.outputs;
    }
    out.push((
        "mixnet.server.hop_us_per_entry",
        hop_us / (k * batch) as f64,
    ));
    out.push(("mixnet.server.verify_hop_us_per_entry", verify_us));
    let inner_keys: Vec<Scalar> = chain
        .servers_mut()
        .iter()
        .map(|s| s.reveal_inner_key())
        .collect();
    out.push((
        "mixnet.server.open_batch_us_per_entry",
        us_per(batch, || {
            let opened = open_batch(&inner_keys, round, &current);
            assert!(opened.iter().all(Option::is_some));
        }),
    ));

    // net.codec — one stream chunk of entries out and back in, and the
    // size of the frame a client submits.
    let chunk: Vec<MixEntry> = entries.iter().cycle().take(STREAM_CHUNK).cloned().collect();
    let frame = Frame::MixBatchChunk { entries: chunk };
    let reps = 16;
    let mut encoded = Vec::new();
    out.push((
        "net.codec.encode_us_per_entry",
        us_per(reps * STREAM_CHUNK, || {
            for _ in 0..reps {
                encoded = black_box(&frame).encode();
            }
        }),
    ));
    out.push((
        "net.codec.decode_us_per_entry",
        us_per(reps * STREAM_CHUNK, || {
            for _ in 0..reps {
                // The body follows the 4-byte length prefix.
                black_box(Frame::decode(black_box(&encoded[4..])).expect("decodes"));
            }
        }),
    ));
    let submit = Frame::Submit {
        round,
        submission: submissions[0].clone(),
    };
    out.push(("net.codec.submit_frame_bytes", submit.encode().len() as f64));
    out
}

/// The `LogMailboxStore` rungs: the store under a persistent mailbox
/// daemon, called directly on the workload's own entries, in the order
/// the daemon calls it — a delivery bracket per round, then a page
/// read and an ack (each flushed) per mailbox.
pub fn log_store_rungs(dir: &std::path::Path, boxes: &Mailboxes) -> Vec<(&'static str, f64)> {
    const ROUNDS: u64 = 2;
    let mut store = LogMailboxStore::open(dir, 0, 1, LogStoreConfig::default())
        .expect("log store opens in the run's temp dir");
    let mut put_us = Vec::new();
    let mut flush_us = Vec::new();
    let mut page_us = Vec::new();
    let mut ack_us = Vec::new();
    let mut timed_flush = |store: &mut LogMailboxStore| {
        let start = Instant::now();
        store.flush().expect("flush");
        flush_us.push(start.elapsed().as_secs_f64() * 1e6);
    };
    let entries_per_round = boxes.ids.len() * ENTRIES_PER_ROUND;
    for round in 0..ROUNDS {
        let messages = boxes.round_messages(round);
        let start = Instant::now();
        assert!(store.begin_batch(round, 0).expect("begin"));
        for msg in messages {
            store.put(round, msg).expect("put");
        }
        store.commit_batch(round, 0).expect("commit");
        put_us.push(start.elapsed().as_secs_f64() * 1e6 / entries_per_round as f64);
        timed_flush(&mut store);

        for mailbox in &boxes.ids {
            let start = Instant::now();
            let page = store.fetch_page(mailbox, 0, 256).expect("page");
            page_us.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(page.entries.len(), ENTRIES_PER_ROUND);
            let start = Instant::now();
            store.ack(mailbox, page.next_cursor).expect("ack");
            ack_us.push(start.elapsed().as_secs_f64() * 1e6);
            timed_flush(&mut store);
        }
    }
    let flushes_per_round = flush_us.len() as f64 / ROUNDS as f64;
    drop(store);
    let bytes: u64 = std::fs::read_dir(dir)
        .expect("store dir lists")
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    vec![
        ("core.mailbox.log_put_us_per_entry", median(&put_us)),
        ("core.mailbox.log_flush_us", median(&flush_us)),
        ("core.mailbox.log_flushes", flushes_per_round),
        ("core.mailbox.log_fetch_page_us", median(&page_us)),
        ("core.mailbox.log_ack_us", median(&ack_us)),
        (
            "core.mailbox.log_bytes_per_entry",
            bytes as f64 / (ROUNDS as usize * entries_per_round) as f64,
        ),
    ]
}
