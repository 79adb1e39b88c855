//! Property tests for the batch/amortized fast paths: every batched
//! API must agree exactly with its per-element counterpart, and batched
//! verification must accept all-valid batches while rejecting any
//! single tampered proof.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_crypto::field::FieldElement;
use xrd_crypto::nizk::{DleqBatchEntry, SchnorrBatchEntry};
use xrd_crypto::ristretto::{GroupElement, GroupTable};
use xrd_crypto::scalar::Scalar;
use xrd_crypto::{DleqProof, SchnorrProof};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `batch_invert` agrees with per-element `invert`, including
    /// zeros mixed into the batch (which must stay zero, matching the
    /// serial convention).
    #[test]
    fn batch_invert_matches_serial(seed in any::<u64>(), n in 0usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut elements: Vec<FieldElement> = (0..n)
            .map(|i| {
                if i % 5 == 3 {
                    FieldElement::ZERO
                } else {
                    // random-ish nonzero element
                    let s = Scalar::random(&mut rng);
                    FieldElement::from_bytes(&s.to_bytes())
                }
            })
            .collect();
        let expected: Vec<FieldElement> = elements.iter().map(|e| e.invert()).collect();
        FieldElement::batch_invert(&mut elements);
        for (i, (got, want)) in elements.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got.to_bytes(), want.to_bytes(), "index {}", i);
        }
    }

    /// `encode_all` agrees with per-point `encode`.
    #[test]
    fn encode_all_matches_serial(seed in any::<u64>(), n in 0usize..16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points: Vec<GroupElement> =
            (0..n).map(|_| GroupElement::random(&mut rng)).collect();
        points.push(GroupElement::identity());
        let batch = GroupElement::encode_all(&points);
        prop_assert_eq!(batch.len(), points.len());
        for (p, enc) in points.iter().zip(&batch) {
            prop_assert_eq!(*enc, p.encode());
        }
    }

    /// `vartime_multiscalar_mul` agrees with the naive sum of
    /// per-point multiplications.
    #[test]
    fn multiscalar_matches_naive(seed in any::<u64>(), n in 0usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        let points: Vec<GroupElement> = (0..n).map(|_| GroupElement::random(&mut rng)).collect();
        let naive = scalars
            .iter()
            .zip(&points)
            .fold(GroupElement::identity(), |acc, (s, p)| acc.add(&p.mul(s)));
        prop_assert_eq!(GroupElement::vartime_multiscalar_mul(&scalars, &points), naive);
    }

    /// Precomputed tables agree with direct exponentiation, for both
    /// the single- and pair-exponent paths.
    #[test]
    fn group_table_matches_mul(seed in any::<u64>(), n in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<GroupElement> = (0..n).map(|_| GroupElement::random(&mut rng)).collect();
        let tables = GroupTable::batch_new(&points);
        for (p, table) in points.iter().zip(&tables) {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let (pa, pb) = table.mul_pair(&a, &b);
            prop_assert_eq!(pa, p.mul(&a));
            prop_assert_eq!(pb, p.mul(&b));
        }
    }

    /// Schnorr batch verification accepts n valid proofs and rejects
    /// the batch when any single proof is tampered.
    #[test]
    fn schnorr_batch_accepts_valid_rejects_tampered(
        seed in any::<u64>(),
        n in 1usize..10,
        tamper in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stmts: Vec<(GroupElement, GroupElement, SchnorrProof)> = (0..n)
            .map(|_| {
                let base = GroupElement::random(&mut rng);
                let x = Scalar::random(&mut rng);
                let public = base.mul(&x);
                let proof = SchnorrProof::prove(&mut rng, b"prop", &base, &public, &x);
                (base, public, proof)
            })
            .collect();
        if tamper {
            let idx = (seed as usize) % n;
            stmts[idx].2.response = stmts[idx].2.response.add(&Scalar::ONE);
        }
        let entries: Vec<SchnorrBatchEntry> = stmts
            .iter()
            .map(|(base, public, proof)| SchnorrBatchEntry {
                context: b"prop",
                base: *base,
                public: *public,
                proof: *proof,
            })
            .collect();
        prop_assert_eq!(SchnorrProof::batch_verify(&entries), !tamper);
    }

    /// DLEQ batch verification accepts n valid proofs and rejects the
    /// batch when any single proof is tampered.
    #[test]
    fn dleq_batch_accepts_valid_rejects_tampered(
        seed in any::<u64>(),
        n in 1usize..8,
        tamper in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stmts: Vec<(GroupElement, GroupElement, GroupElement, GroupElement, DleqProof)> =
            (0..n)
                .map(|_| {
                    let x = Scalar::random(&mut rng);
                    let b1 = GroupElement::random(&mut rng);
                    let b2 = GroupElement::random(&mut rng);
                    let p1 = b1.mul(&x);
                    let p2 = b2.mul(&x);
                    let proof = DleqProof::prove(&mut rng, b"prop", &b1, &p1, &b2, &p2, &x);
                    (b1, p1, b2, p2, proof)
                })
                .collect();
        if tamper {
            let idx = (seed as usize) % n;
            stmts[idx].4.response = stmts[idx].4.response.add(&Scalar::ONE);
        }
        let entries: Vec<DleqBatchEntry> = stmts
            .iter()
            .map(|(b1, p1, b2, p2, proof)| DleqBatchEntry {
                context: b"prop",
                base1: *b1,
                public1: *p1,
                base2: *b2,
                public2: *p2,
                proof: *proof,
            })
            .collect();
        prop_assert_eq!(DleqProof::batch_verify(&entries), !tamper);

        // Every batch member also passes/fails individually the same way.
        let individual = stmts
            .iter()
            .all(|(b1, p1, b2, p2, proof)| proof.verify(b"prop", b1, p1, b2, p2));
        prop_assert_eq!(individual, !tamper);
    }
}

/// The two batch entry points agree with the per-point scalar ladders
/// — one test body for every build: eight points per field-lane vector
/// where the lane kernel is compiled in (`FIELD_BACKEND` ends in
/// `+ifma8`), `GroupTable`/`vartime_mul` per point elsewhere.  Lengths
/// straddle the lane width and the hop's chunk size; the points put the
/// identity, a point beside its negation and equal points in
/// neighbouring lanes; the scalars sit at the edges of both recodings.
#[test]
fn batch_entry_points_match_the_scalar_ladders() {
    let mut rng = StdRng::seed_from_u64(0x1a7e5);
    let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
    let mut bytes = [0u8; 32];
    bytes[31] = 0x10;
    let two_252 = Scalar::from_bytes_mod_order(&bytes);
    // Top nibble 8 (a reduced scalar's highest): it recodes to -8
    // under a carried 1, so the ladder's first two windows take the
    // table's last entry negated and its first.
    bytes[31] = 0x08;
    bytes[0] = 0x5a;
    let top_digit_8 = Scalar::from_bytes_mod_order(&bytes);
    assert_eq!(top_digit_8.to_radix_16()[62..], [-8, 1]);
    let scalars = [
        Scalar::ZERO,
        Scalar::ONE,
        l_minus_1,
        two_252,
        two_252.sub(&Scalar::ONE),
        top_digit_8,
        Scalar::random(&mut rng),
    ];

    for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 64] {
        let mut points: Vec<GroupElement> =
            (0..n).map(|_| GroupElement::random(&mut rng)).collect();
        // Lanes 1..=5 of the first vector: identity, P, -P, P, P.
        if n >= 7 {
            points[1] = GroupElement::identity();
            points[3] = points[2].neg();
            points[4] = points[2];
            points[5] = points[2];
        }
        // Two scalar pairs per length keeps the debug run short while
        // every scalar meets every length class over the sweep.
        for k in 0..2 {
            let a = scalars[(n + k) % scalars.len()];
            let b = scalars[(n + 3 * k + 1) % scalars.len()];
            let pairs = GroupElement::batch_mul_pair(&points, &a, &b);
            let opened = GroupElement::batch_vartime_mul(&points, &a);
            assert_eq!(pairs.len(), n);
            assert_eq!(opened.len(), n);
            for (i, p) in points.iter().enumerate() {
                assert_eq!(pairs[i].0, p.mul(&a), "n={n} i={i} a={a:?}");
                assert_eq!(pairs[i].1, p.mul(&b), "n={n} i={i} b={b:?}");
                assert_eq!(opened[i], p.mul(&a), "n={n} i={i} x={a:?}");
                assert_eq!(pairs[i].0.encode(), p.mul(&a).encode());
            }
        }
    }
    // Every edge scalar against one full vector.
    let points: Vec<GroupElement> = (0..8).map(|_| GroupElement::random(&mut rng)).collect();
    for a in &scalars {
        let pairs = GroupElement::batch_mul_pair(&points, a, &l_minus_1);
        let opened = GroupElement::batch_vartime_mul(&points, a);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(pairs[i].0, p.mul(a), "i={i} a={a:?}");
            assert_eq!(pairs[i].1, p.neg(), "i={i}");
            assert_eq!(opened[i], p.mul(a), "i={i} x={a:?}");
        }
    }
}
