//! Benchmarks of the batch/amortized crypto fast paths introduced for
//! the hop kernel and batched proof verification, each against the
//! naive per-element path it replaces.  `BENCH_crypto.json` at the
//! repo root records the measured before/after trajectory.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_crypto::field::FieldElement;
use xrd_crypto::nizk::{DleqBatchEntry, DleqProof, SchnorrBatchEntry, SchnorrProof};
use xrd_crypto::ristretto::{FixedGroupTable, GroupElement, GroupTable};
use xrd_crypto::scalar::Scalar;
use xrd_mixnet::chain_keys::generate_chain_keys;
use xrd_mixnet::client::{seal_ahs, ChainSealer, SealRandomness};
use xrd_mixnet::message::{MailboxMessage, MixEntry, PAYLOAD_LEN};
use xrd_mixnet::MixServer;

const BATCH: usize = 64;

/// The §6.3 two-scalar hop kernel: per entry, raise the same DH key to
/// both `msk` (decrypt) and `bsk` (blind).
fn bench_hop_kernel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let msk = Scalar::random(&mut rng);
    let bsk = Scalar::random(&mut rng);
    let points: Vec<GroupElement> = (0..BATCH).map(|_| GroupElement::random(&mut rng)).collect();

    let mut group = c.benchmark_group("hop_kernel");
    // The pre-PR path: two from-scratch ladders per entry, using the
    // retained reference implementation of the old `scalar_mul`.
    group.bench_function("naive_two_muls_per_entry", |b| {
        b.iter(|| {
            let mut acc = GroupElement::identity();
            for p in &points {
                let (pm, pb) = p.naive_two_muls_reference(&msk, &bsk);
                acc = acc.add(&pm).add(&pb);
            }
            acc
        })
    });
    // The shared-table kernel: batch-built affine tables (one shared
    // field inversion), both exponentiations off each table.
    group.bench_function("shared_table_per_entry", |b| {
        b.iter(|| {
            let tables = GroupTable::batch_new(&points);
            let mut acc = GroupElement::identity();
            for table in &tables {
                let (pm, pb) = table.mul_pair(&msk, &bsk);
                acc = acc.add(&pm).add(&pb);
            }
            acc
        })
    });
    group.finish();
}

/// The hop's two per-entry kernels over one 32-entry worker chunk
/// (`par::ENTRY_CHUNK`), scalar against the batch entry points that
/// run eight entries per field-lane vector: `batch_new` + `mul_pair`
/// vs `batch_mul_pair` (decrypt-and-blind, secret exponents) and
/// `vartime_mul` vs `batch_vartime_mul` (the batch open, revealed
/// exponent); the rate column is entries per second.  Without the
/// lane kernel the batch entry points *are* the scalar rows, so the
/// group says so and stops.
fn bench_lanes(c: &mut Criterion) {
    use xrd_crypto::field::FIELD_BACKEND;
    const CHUNK: usize = 32;

    println!("field backend: {FIELD_BACKEND}");
    if !FIELD_BACKEND.ends_with("+ifma8") {
        println!(
            "lanes: skipped — backend {FIELD_BACKEND} has no lane kernel (needs avx512f + \
             avx512ifma at compile time)"
        );
        return;
    }
    let mut rng = StdRng::seed_from_u64(8);
    let msk = Scalar::random(&mut rng);
    let bsk = Scalar::random(&mut rng);
    let points: Vec<GroupElement> = (0..CHUNK).map(|_| GroupElement::random(&mut rng)).collect();

    let mut group = c.benchmark_group("lanes");
    group.throughput(criterion::Throughput::Elements(CHUNK as u64));
    group.bench_function("mul_pair_x32/scalar", |b| {
        b.iter(|| {
            GroupTable::batch_new(&points)
                .iter()
                .map(|table| table.mul_pair(&msk, &bsk))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("mul_pair_x32/batch", |b| {
        b.iter(|| GroupElement::batch_mul_pair(&points, &msk, &bsk))
    });
    group.bench_function("vartime_mul_x32/scalar", |b| {
        b.iter(|| {
            points
                .iter()
                .map(|p| p.vartime_mul(&msk))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("vartime_mul_x32/batch", |b| {
        b.iter(|| GroupElement::batch_vartime_mul(&points, &msk))
    });
    group.finish();
}

/// Fixed-base tables: what one costs to build, what a multiplication
/// off it saves against a from-scratch ladder, and where bulk sealing
/// (`ChainSealer`: k + 1 tables built up front) overtakes one-off
/// sealing (`seal_ahs`: k + 1 ladders per seal) on a k = 3 chain — the
/// break-even seal count is the first `n` whose `sealer_build_and_seal`
/// row beats its `seal_ahs` row.
fn bench_fixed_base(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let point = GroupElement::random(&mut rng);
    let x = Scalar::random(&mut rng);
    let table = FixedGroupTable::new(&point);

    let mut group = c.benchmark_group("fixed_base");
    group.bench_function("table_build", |b| b.iter(|| FixedGroupTable::new(&point)));
    group.bench_function("table_mul", |b| b.iter(|| table.mul(&x)));
    let xs: Vec<Scalar> = (0..8).map(|_| Scalar::random(&mut rng)).collect();
    group.bench_function("table_mul_x8/per_scalar", |b| {
        b.iter(|| xs.iter().map(|x| table.mul(x)).collect::<Vec<_>>())
    });
    group.bench_function("table_mul_x8/mul_all", |b| b.iter(|| table.mul_all(&xs)));
    group.bench_function("ladder_mul", |b| b.iter(|| point.mul(&x)));

    let round = 1;
    let (_, public) = generate_chain_keys(&mut rng, 3, round);
    let msg = MailboxMessage {
        mailbox: [7u8; 32],
        sealed: vec![0u8; PAYLOAD_LEN + xrd_crypto::TAG_LEN],
    };
    for n in [1usize, 2, 4, 8] {
        group.bench_function(format!("seal_ahs_x{n}"), |b| {
            b.iter(|| {
                for _ in 0..n {
                    criterion::black_box(seal_ahs(&mut rng, &public, round, &msg));
                }
            })
        });
        group.bench_function(format!("sealer_build_and_seal_x{n}"), |b| {
            b.iter(|| {
                let sealer = ChainSealer::new(&public);
                for _ in 0..n {
                    criterion::black_box(sealer.seal(&mut rng, round, &msg));
                }
            })
        });
    }
    group.finish();

    // Eight messages for one chain, three ways: one-off ladders, a
    // built sealer one message at a time, and the sealer's batch — the
    // same submissions, the public-key work shared eight to a table
    // walk and to an inverse square root where the lane kernel is
    // compiled in.
    let sealer = ChainSealer::new(&public);
    let mut group = c.benchmark_group("client_seal");
    group.bench_function("seal_ahs_x8", |b| {
        b.iter(|| {
            for _ in 0..8 {
                criterion::black_box(seal_ahs(&mut rng, &public, round, &msg));
            }
        })
    });
    group.bench_function("sealer_seal_x8", |b| {
        b.iter(|| {
            for _ in 0..8 {
                criterion::black_box(sealer.seal(&mut rng, round, &msg));
            }
        })
    });
    group.bench_function("sealer_seal_all_x8", |b| {
        b.iter(|| {
            let jobs = (0..8)
                .map(|_| (SealRandomness::draw(&mut rng), msg.clone()))
                .collect();
            sealer.seal_all(round, jobs)
        })
    });
    group.finish();
}

/// Montgomery batch inversion vs one inversion per element.
fn bench_batch_invert(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let elements: Vec<FieldElement> = (0..256)
        .map(|_| FieldElement::from_bytes(&Scalar::random(&mut rng).to_bytes()))
        .collect();

    let mut group = c.benchmark_group("batch_invert_256");
    group.bench_function("serial", |b| {
        b.iter(|| {
            elements
                .iter()
                .map(|e| e.invert())
                .fold(FieldElement::ZERO, |acc, e| acc.add(&e))
        })
    });
    group.bench_function("batch", |b| {
        b.iter_batched(
            || elements.clone(),
            |mut es| {
                FieldElement::batch_invert(&mut es);
                es
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Ristretto encoding of a 256-point batch: `encode_all` against the
/// per-point map it equals byte for byte.  Each encoding is one inverse
/// square root — nothing Montgomery's trick can share (PR 2's
/// shared-inversion variant measured 0.98× and was removed) — but a
/// fixed schedule of squarings, which the lane kernel runs for eight
/// points at once; on a build without it the two rows are the same
/// code and read the same.
fn bench_encode_all(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let points: Vec<GroupElement> = (0..256).map(|_| GroupElement::random(&mut rng)).collect();
    let mut group = c.benchmark_group("encode_256");
    group.bench_function("per_point", |b| {
        b.iter(|| points.iter().map(|p| p.encode()).collect::<Vec<_>>())
    });
    group.bench_function("encode_all", |b| {
        b.iter(|| GroupElement::encode_all(&points))
    });
    group.finish();
}

/// Ristretto decoding of 256 wire encodings, one in sixteen corrupted
/// (a negative `s`): `decode_all` against the per-element map it
/// equals result for result — the same inverse square root per element
/// as the encode, eight per lane group where the kernel is compiled in.
fn bench_decode_all(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let points: Vec<GroupElement> = (0..256).map(|_| GroupElement::random(&mut rng)).collect();
    let mut encodings = GroupElement::encode_all(&points);
    for encoding in encodings.iter_mut().step_by(16) {
        encoding[0] |= 1;
    }
    let per_point: Vec<_> = encodings.iter().map(GroupElement::decode).collect();
    assert_eq!(GroupElement::decode_all(&encodings), per_point);
    let mut group = c.benchmark_group("decode_256");
    group.bench_function("per_point", |b| {
        b.iter(|| {
            encodings
                .iter()
                .map(GroupElement::decode)
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("decode_all", |b| {
        b.iter(|| GroupElement::decode_all(&encodings))
    });
    group.finish();
}

/// Batched NIZK verification (one multiscalar mul) vs a verify loop.
fn bench_batch_verify(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);

    let dleqs: Vec<_> = (0..BATCH)
        .map(|_| {
            let x = Scalar::random(&mut rng);
            let b1 = GroupElement::random(&mut rng);
            let b2 = GroupElement::random(&mut rng);
            let p1 = b1.mul(&x);
            let p2 = b2.mul(&x);
            let proof = DleqProof::prove(&mut rng, b"bench", &b1, &p1, &b2, &p2, &x);
            (b1, p1, b2, p2, proof)
        })
        .collect();
    let dleq_entries: Vec<DleqBatchEntry> = dleqs
        .iter()
        .map(|(b1, p1, b2, p2, proof)| DleqBatchEntry {
            context: b"bench",
            base1: *b1,
            public1: *p1,
            base2: *b2,
            public2: *p2,
            proof: *proof,
        })
        .collect();

    let mut group = c.benchmark_group("dleq_verify_64");
    group.sample_size(10);
    group.bench_function("loop", |b| {
        b.iter(|| {
            dleqs
                .iter()
                .all(|(b1, p1, b2, p2, proof)| proof.verify(b"bench", b1, p1, b2, p2))
        })
    });
    group.bench_function("batch", |b| {
        b.iter(|| DleqProof::batch_verify(&dleq_entries))
    });
    group.finish();

    let schnorrs: Vec<_> = (0..BATCH)
        .map(|_| {
            let base = GroupElement::random(&mut rng);
            let x = Scalar::random(&mut rng);
            let public = base.mul(&x);
            let proof = SchnorrProof::prove(&mut rng, b"bench", &base, &public, &x);
            (base, public, proof)
        })
        .collect();
    let schnorr_entries: Vec<SchnorrBatchEntry> = schnorrs
        .iter()
        .map(|(base, public, proof)| SchnorrBatchEntry {
            context: b"bench",
            base: *base,
            public: *public,
            proof: *proof,
        })
        .collect();
    let mut group = c.benchmark_group("schnorr_verify_64");
    group.sample_size(10);
    group.bench_function("loop", |b| {
        b.iter(|| {
            schnorrs
                .iter()
                .all(|(base, public, proof)| proof.verify(b"bench", base, public))
        })
    });
    group.bench_function("batch", |b| {
        b.iter(|| SchnorrProof::batch_verify(&schnorr_entries))
    });
    group.finish();
}

/// Screening's shape: proofs of knowledge of `x` over the base `g`, as
/// `prove_base_all` seals them, checked as a batch the way a mix daemon
/// checks a tick's submissions — each public arriving with the encoding
/// its submission carries.  Throughput is counted in proofs.
fn bench_submission_pok(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let g = GroupElement::generator();
    let mut group = c.benchmark_group("submission_pok");
    group.sample_size(20);
    for n in [1usize, 8, 32, 192] {
        let xs: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        let nonces = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        let proven = SchnorrProof::prove_base_all(b"bench", &xs, nonces);
        let statements: Vec<SchnorrBatchEntry> = proven
            .iter()
            .map(|(public, _, proof)| SchnorrBatchEntry {
                context: b"bench",
                base: g,
                public: *public,
                proof: *proof,
            })
            .collect();
        let encoded: Vec<[u8; 32]> = proven.iter().map(|(_, encoded, _)| *encoded).collect();
        group.throughput(criterion::Throughput::Elements(n as u64));
        group.bench_function(format!("batch_{n}"), |b| {
            b.iter(|| assert!(SchnorrProof::batch_verify_encoded(&statements, &encoded)))
        });
    }
    group.finish();
}

/// The hop kernel end to end: a full `MixServer::process_round` over a
/// sealed batch (tables + AEAD + shuffle + aggregate proof).
fn bench_hop_end_to_end(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let round = 1;
    let (secrets, public) = generate_chain_keys(&mut rng, 1, round);
    let entries: Vec<MixEntry> = (0..BATCH)
        .map(|i| {
            let msg = MailboxMessage {
                mailbox: [i as u8; 32],
                sealed: vec![i as u8; PAYLOAD_LEN + xrd_crypto::TAG_LEN],
            };
            seal_ahs(&mut rng, &public, round, &msg).to_entry()
        })
        .collect();
    let secrets = secrets.into_iter().next().unwrap();

    let mut group = c.benchmark_group("hop_e2e_64");
    group.sample_size(10);
    group.bench_function("process_round", |b| {
        b.iter_batched(
            || {
                (
                    MixServer::new(secrets.clone(), public.clone()),
                    entries.clone(),
                )
            },
            |(mut server, batch)| server.process_round(&mut rng, round, batch).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hop_kernel,
    bench_lanes,
    bench_fixed_base,
    bench_batch_invert,
    bench_encode_all,
    bench_decode_all,
    bench_batch_verify,
    bench_submission_pok,
    bench_hop_end_to_end
);
criterion_main!(benches);
