//! Differential tests driving BOTH field backends from one workspace
//! build (they are always compiled; the feature flags only choose
//! which one the `FieldElement` alias points at — see
//! `src/field/mod.rs`): random op sequences must agree limb for limb
//! after canonical encoding, known-answer vectors around `p`, and the
//! `sqrt_ratio` edge cases must match on both representations.  The
//! sat64 backend's asm kernels are additionally diffed against its
//! portable carry chains.

use proptest::prelude::*;

use xrd_crypto::field::{fiat51, sat64};

/// A pair of elements, one per backend, constructed from the same
/// canonical bytes and kept in lockstep through every operation.
#[derive(Clone, Copy, Debug)]
struct Pair {
    a: fiat51::FieldElement,
    b: sat64::FieldElement,
}

impl Pair {
    fn from_bytes(bytes: &[u8; 32]) -> Pair {
        Pair {
            a: fiat51::FieldElement::from_bytes(bytes),
            b: sat64::FieldElement::from_bytes(bytes),
        }
    }

    fn from_u64(x: u64) -> Pair {
        Pair {
            a: fiat51::FieldElement::from_u64(x),
            b: sat64::FieldElement::from_u64(x),
        }
    }

    /// Both representations must canonicalize identically.
    fn assert_agree(&self, what: &str) -> [u8; 32] {
        let ea = self.a.to_bytes();
        let eb = self.b.to_bytes();
        assert_eq!(ea, eb, "backends disagree after {what}");
        ea
    }
}

/// The ops a random differential sequence draws from.
#[derive(Clone, Copy, Debug)]
enum Op {
    Add(usize),
    Sub(usize),
    Mul(usize),
    Square,
    Square2,
    Neg,
    Invert,
    Abs,
    CondNegate(bool),
}

/// Decode one sampled byte into an op — selector in the low bits,
/// operand index and flag from the high bits (the vendored proptest
/// shim has neither `prop_oneof!` nor tuple strategies).
fn decode_op(sel: u8) -> Op {
    let j = ((sel >> 4) % 4) as usize;
    let flag = sel & 0x80 != 0;
    match sel % 9 {
        0 => Op::Add(j),
        1 => Op::Sub(j),
        2 => Op::Mul(j),
        3 => Op::Square,
        4 => Op::Square2,
        5 => Op::Neg,
        6 => Op::Invert,
        7 => Op::Abs,
        _ => Op::CondNegate(flag),
    }
}

proptest! {
    /// Random op sequences over random inputs: the two backends must
    /// stay byte-identical at every step, not just at the end (an
    /// intermediate divergence that later cancels would hide a bug).
    #[test]
    fn random_op_sequences_agree(
        inputs in prop::collection::vec(prop::array::uniform32(any::<u8>()), 1..5),
        raw_ops in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let ops: Vec<Op> = raw_ops.iter().map(|&sel| decode_op(sel)).collect();
        let pairs: Vec<Pair> = inputs.iter().map(Pair::from_bytes).collect();
        let mut acc = pairs[0];
        for (i, op) in ops.iter().enumerate() {
            let rhs = |j: usize| pairs[j % pairs.len()];
            acc = match *op {
                Op::Add(j) => Pair { a: acc.a.add(&rhs(j).a), b: acc.b.add(&rhs(j).b) },
                Op::Sub(j) => Pair { a: acc.a.sub(&rhs(j).a), b: acc.b.sub(&rhs(j).b) },
                Op::Mul(j) => Pair { a: acc.a.mul(&rhs(j).a), b: acc.b.mul(&rhs(j).b) },
                Op::Square => Pair { a: acc.a.square(), b: acc.b.square() },
                Op::Square2 => Pair { a: acc.a.square2(), b: acc.b.square2() },
                Op::Neg => Pair { a: acc.a.neg(), b: acc.b.neg() },
                Op::Invert => Pair { a: acc.a.invert(), b: acc.b.invert() },
                Op::Abs => Pair { a: acc.a.abs(), b: acc.b.abs() },
                Op::CondNegate(c) => Pair {
                    a: acc.a.conditional_negate(c as u64),
                    b: acc.b.conditional_negate(c as u64),
                },
            };
            acc.assert_agree(&format!("step {i}: {op:?}"));
            prop_assert_eq!(acc.a.is_negative(), acc.b.is_negative());
            prop_assert_eq!(acc.a.is_zero(), acc.b.is_zero());
        }
    }

    /// `sqrt_ratio_i` must agree on both the square/non-square verdict
    /// and the (canonicalized) root for random ratios.
    #[test]
    fn sqrt_ratio_agrees(
        u in prop::array::uniform32(any::<u8>()),
        v in prop::array::uniform32(any::<u8>()),
    ) {
        let pu = Pair::from_bytes(&u);
        let pv = Pair::from_bytes(&v);
        let (ok_a, r_a) = fiat51::FieldElement::sqrt_ratio_i(&pu.a, &pv.a);
        let (ok_b, r_b) = sat64::FieldElement::sqrt_ratio_i(&pu.b, &pv.b);
        prop_assert_eq!(ok_a, ok_b);
        prop_assert_eq!(r_a.to_bytes(), r_b.to_bytes());
    }

    /// The sat64 asm kernels vs the portable u128 carry chains on
    /// arbitrary (not just canonical) limb patterns — `from_bytes`
    /// never produces a limb-3 top bit, so drive the representation's
    /// full `value < 2^256` input domain through multiplication first.
    #[test]
    fn sat64_asm_matches_portable(
        x in prop::array::uniform32(any::<u8>()),
        y in prop::array::uniform32(any::<u8>()),
    ) {
        // Products of parsed values roam the full representation range.
        let a = sat64::FieldElement::from_bytes(&x).mul(&sat64::FieldElement::from_bytes(&y));
        let b = sat64::FieldElement::from_bytes(&y).square();
        prop_assert_eq!(a.mul(&b).to_bytes(), a.mul_portable_ref(&b).to_bytes());
        prop_assert_eq!(a.square().to_bytes(), a.mul_portable_ref(&a).to_bytes());
        prop_assert_eq!(
            a.square2().to_bytes(),
            a.mul_portable_ref(&a).add(&a.mul_portable_ref(&a)).to_bytes()
        );
    }

    /// Batch inversion agrees across backends (zeros included).
    #[test]
    fn batch_invert_agrees(
        inputs in prop::collection::vec(prop::array::uniform32(any::<u8>()), 0..12),
        zero_at in any::<prop::sample::Index>(),
    ) {
        let mut va: Vec<fiat51::FieldElement> =
            inputs.iter().map(fiat51::FieldElement::from_bytes).collect();
        let mut vb: Vec<sat64::FieldElement> =
            inputs.iter().map(sat64::FieldElement::from_bytes).collect();
        if !va.is_empty() {
            let i = zero_at.index(va.len());
            va[i] = fiat51::FieldElement::ZERO;
            vb[i] = sat64::FieldElement::ZERO;
        }
        fiat51::FieldElement::batch_invert(&mut va);
        sat64::FieldElement::batch_invert(&mut vb);
        for (a, b) in va.iter().zip(&vb) {
            prop_assert_eq!(a.to_bytes(), b.to_bytes());
        }
    }

    /// The full curve pipeline instantiated over each backend: a
    /// decompress → scalar ladder → compress round trip must be
    /// byte-identical (this exercises lazy-reduction behavior the
    /// field-level sequences cannot reach, since `edwards.rs` is the
    /// only caller of the lazy entry points).
    #[test]
    fn point_ladders_agree(seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use xrd_crypto::edwards::{EdwardsPoint, PointTable};
        use xrd_crypto::Scalar;

        let mut rng = StdRng::seed_from_u64(seed);
        let base = EdwardsPoint::base_mul(&Scalar::random(&mut rng)).compress();
        let s = Scalar::random(&mut rng);
        let t = Scalar::random(&mut rng);

        let p51: EdwardsPoint<fiat51::FieldElement> =
            EdwardsPoint::decompress(&base).expect("valid");
        let p64: EdwardsPoint<sat64::FieldElement> =
            EdwardsPoint::decompress(&base).expect("valid");
        prop_assert_eq!(p51.scalar_mul(&s).compress(), p64.scalar_mul(&s).compress());

        let t51 = PointTable::new(&p51);
        let t64 = PointTable::new(&p64);
        let (a51, b51) = t51.scalar_mul_pair(&s, &t);
        let (a64, b64) = t64.scalar_mul_pair(&s, &t);
        prop_assert_eq!(a51.compress(), a64.compress());
        prop_assert_eq!(b51.compress(), b64.compress());
    }
}

/// Known-answer vectors around the modulus: `p ± {0, 1, 2}` and the
/// `2^255 - 19` aliases that `from_bytes`'s top-bit masking admits.
/// Every encodable alias of a small value must canonicalize to that
/// value on both backends.
#[test]
fn known_answer_vectors_around_p() {
    // p = 2^255 - 19, little-endian.
    let mut p = [0xffu8; 32];
    p[0] = 0xed;
    p[31] = 0x7f;

    let add_small = |base: &[u8; 32], delta: u8| {
        let mut out = *base;
        let (v, carry) = out[0].overflowing_add(delta);
        out[0] = v;
        assert!(!carry, "vector construction stays within a byte");
        out
    };
    let sub_small = |base: &[u8; 32], delta: u8| {
        let mut out = *base;
        let (v, borrow) = out[0].overflowing_sub(delta);
        out[0] = v;
        assert!(!borrow, "vector construction stays within a byte");
        out
    };

    // (encoding, canonical value as small integer) pairs.
    let vectors: Vec<([u8; 32], Pair, &str)> = vec![
        (p, Pair::from_u64(0), "p ≡ 0"),
        (add_small(&p, 1), Pair::from_u64(1), "p + 1 ≡ 1"),
        (add_small(&p, 2), Pair::from_u64(2), "p + 2 ≡ 2"),
        (
            sub_small(&p, 1),
            Pair::from_u64(0).sub_pair(&Pair::from_u64(1)),
            "p - 1 ≡ -1",
        ),
        (
            sub_small(&p, 2),
            Pair::from_u64(0).sub_pair(&Pair::from_u64(2)),
            "p - 2 ≡ -2",
        ),
        (
            {
                let mut all = [0xffu8; 32];
                all[31] = 0x7f; // 2^255 - 1
                all
            },
            Pair::from_u64(18), // 2^255 - 1 - p = 18
            "2^255 - 1 ≡ 18",
        ),
        (
            {
                let mut b = p;
                b[31] |= 0x80; // top bit set: must be ignored
                b
            },
            Pair::from_u64(0),
            "p with sign bit ≡ 0",
        ),
    ];

    for (bytes, expect, label) in vectors {
        let pair = Pair::from_bytes(&bytes);
        let enc = pair.assert_agree(label);
        assert_eq!(enc, expect.assert_agree(label), "wrong value for {label}");
    }
}

impl Pair {
    fn sub_pair(&self, rhs: &Pair) -> Pair {
        Pair {
            a: self.a.sub(&rhs.a),
            b: self.b.sub(&rhs.b),
        }
    }
}

/// The `sqrt_ratio_i` edge cases pinned by the Ristretto spec, on both
/// backends: `u = 0` is a square with root 0; `v = 0` (u ≠ 0) is a
/// non-square with root 0; a known square and a known non-square.
#[test]
fn sqrt_ratio_edge_cases_both_backends() {
    fn check<F>(
        zero: F,
        one: F,
        two: F,
        four: F,
        sqrt_ratio: impl Fn(&F, &F) -> (bool, F),
        to_bytes: impl Fn(&F) -> [u8; 32],
        name: &str,
    ) {
        let (ok, r) = sqrt_ratio(&zero, &four);
        assert!(ok, "{name}: u=0 must report square");
        assert_eq!(to_bytes(&r), [0u8; 32], "{name}: u=0 root is 0");

        let (ok, r) = sqrt_ratio(&four, &zero);
        assert!(!ok, "{name}: v=0 must report non-square");
        assert_eq!(to_bytes(&r), [0u8; 32], "{name}: v=0 root is 0");

        let (ok, r) = sqrt_ratio(&four, &one);
        assert!(ok, "{name}: 4 is square");
        let mut expect_two = [0u8; 32];
        expect_two[0] = 2;
        assert_eq!(to_bytes(&r), expect_two, "{name}: sqrt(4) = 2");

        // 2 is a non-residue mod p (p ≡ 5 mod 8).
        let (ok, _) = sqrt_ratio(&two, &one);
        assert!(!ok, "{name}: 2 is a non-square");
    }

    check(
        fiat51::FieldElement::ZERO,
        fiat51::FieldElement::ONE,
        fiat51::FieldElement::from_u64(2),
        fiat51::FieldElement::from_u64(4),
        fiat51::FieldElement::sqrt_ratio_i,
        |x| x.to_bytes(),
        "fiat51",
    );
    check(
        sat64::FieldElement::ZERO,
        sat64::FieldElement::ONE,
        sat64::FieldElement::from_u64(2),
        sat64::FieldElement::from_u64(4),
        sat64::FieldElement::sqrt_ratio_i,
        |x| x.to_bytes(),
        "sat64",
    );
}

/// The eight-lane IFMA representation against the portable 5×51
/// backend, lane by lane.  Compiled where the lane kernel is (see
/// `src/field/mod.rs`); CI prints `FIELD_BACKEND` per cell so a runner
/// without IFMA reads as "not built" rather than as green.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma",
    not(feature = "force-field51")
))]
mod lanes {
    use proptest::prelude::*;

    use xrd_crypto::field::fiat51::FieldElement as Fe51;
    use xrd_crypto::field::ifma::{Digits8, F51x8, LaneMask};
    use xrd_crypto::field::{Digit, FieldArith, FieldLanes};
    use xrd_crypto::{GroupElement, Scalar};

    const TOP: u64 = (1 << 52) - 1;
    const LOW_51: u64 = (1 << 51) - 1;

    /// Eight reference elements and the one vector that must track
    /// them, lane `i` against `reference[i]`.
    #[derive(Clone, Copy, Debug)]
    struct Lanes {
        reference: [Fe51; 8],
        vector: F51x8,
    }

    impl Lanes {
        fn from_limbs(limbs: &[[u64; 5]; 8]) -> Lanes {
            Lanes {
                reference: limbs.map(|l| Fe51::from_limbs51(&l)),
                vector: F51x8::from_lanes(limbs),
            }
        }

        /// Apply `reference_op` per lane and `vector_op` once.
        fn map2(
            &self,
            rhs: &Lanes,
            reference_op: impl Fn(&Fe51, &Fe51) -> Fe51,
            vector_op: impl Fn(&F51x8, &F51x8) -> F51x8,
        ) -> Lanes {
            self.map2_lanes(rhs, |_, a, b| reference_op(a, b), vector_op)
        }

        /// [`Lanes::map2`] with a reference that is told its lane: for
        /// ops whose mask differs per lane.
        fn map2_lanes(
            &self,
            rhs: &Lanes,
            reference_op: impl Fn(usize, &Fe51, &Fe51) -> Fe51,
            vector_op: impl Fn(&F51x8, &F51x8) -> F51x8,
        ) -> Lanes {
            Lanes {
                reference: std::array::from_fn(|i| {
                    reference_op(i, &self.reference[i], &rhs.reference[i])
                }),
                vector: vector_op(&self.vector, &rhs.vector),
            }
        }

        /// Every lane canonicalizes to its reference's bytes, and every
        /// limb is a valid multiplier input (the module's one rule).
        fn assert_agree(&self, what: &str) {
            for (i, limbs) in self.vector.to_lanes().iter().enumerate() {
                assert!(
                    limbs.iter().all(|&l| l <= TOP),
                    "lane {i} not tight after {what}: {limbs:x?}"
                );
                assert_eq!(
                    Fe51::from_limbs51(limbs).to_bytes(),
                    self.reference[i].to_bytes(),
                    "lane {i} disagrees after {what}"
                );
            }
        }

        /// One step of a differential sequence.  The `lazy_*` entry
        /// points are checked against the reference's *eager* ops: the
        /// contract is the value, and the reference's own lazy forms
        /// carry input bounds a random sequence does not respect.
        fn step(&self, sel: u8, rhs: &Lanes) -> Lanes {
            // A lane mask that differs between neighbours (or, with the
            // top bit of `sel` clear, no lane at all).
            let mask = LaneMask(if sel >> 7 == 1 { sel | 0x5a } else { 0 });
            let not_mask = LaneMask(!mask.0);
            let choice = |lane: usize| (mask.0 >> lane & 1) as u64;
            match sel % 13 {
                0 => self.map2(rhs, Fe51::add, F51x8::add),
                1 => self.map2(rhs, Fe51::sub, F51x8::sub),
                2 => self.map2(rhs, Fe51::mul, F51x8::mul),
                3 => self.map2(rhs, |a, _| a.square(), |a, _| a.square()),
                4 => self.map2(rhs, |a, _| a.square2(), |a, _| a.square2()),
                5 => self.map2(rhs, |a, _| a.neg(), |a, _| a.neg()),
                6 => self.map2(rhs, Fe51::add, F51x8::lazy_add),
                7 => self.map2(rhs, Fe51::sub, F51x8::lazy_sub),
                8 => self.map2(rhs, Fe51::sub, F51x8::lazy_sub_wide),
                9 => self.map2_lanes(
                    rhs,
                    |i, a, b| Fe51::select(a, b, choice(i)),
                    |a, b| F51x8::select(a, b, mask),
                ),
                10 => self.map2_lanes(
                    rhs,
                    |i, a, _| a.conditional_negate(choice(i)),
                    |a, _| a.conditional_negate(mask),
                ),
                // The masked scan: seed with `self` under the mask, OR
                // `rhs` in under its complement — one of the two.
                11 => self.map2_lanes(
                    rhs,
                    |i, a, b| Fe51::select(b, a, choice(i)),
                    |a, b| {
                        let mut scanned = a.and_mask(mask);
                        scanned.or_assign_masked(b, not_mask);
                        scanned
                    },
                ),
                _ => self.map2(rhs, |a, b| a.mul(b).add(a), |a, b| a.mul(b).add(a)),
            }
        }
    }

    /// Values at every edge the representation has: around the modulus
    /// (as `from_bytes` admits them, unreduced), and raw limbs at the
    /// top of the tight range, alone and mixed with empty limbs.
    fn edge_limbs() -> Vec<[u64; 5]> {
        let bytes = |low: u8, rest: u8, top: u8| {
            let mut b = [rest; 32];
            b[0] = low;
            b[31] = top;
            Fe51::from_bytes(&b).to_limbs51()
        };
        vec![
            bytes(0, 0, 0),          // 0
            bytes(1, 0, 0),          // 1
            bytes(0xec, 0xff, 0x7f), // p - 1
            bytes(0xed, 0xff, 0x7f), // p
            bytes(0xee, 0xff, 0x7f), // p + 1
            bytes(0xff, 0xff, 0x7f), // 2^255 - 1
            [TOP; 5],
            [TOP, 0, TOP, 0, TOP],
            [0, TOP, 0, TOP, 0],
            [LOW_51, TOP, LOW_51, TOP, LOW_51],
            [TOP, LOW_51 + 1, TOP, 1, 0],
            [0, 0, 0, 0, TOP],
        ]
    }

    /// Every edge value against every edge value under every op, the
    /// eight lanes of a vector holding eight *different* values (the
    /// edge list rotated by lane), so a lane that read its neighbour's
    /// limb could not pass.
    #[test]
    fn lanes_match_fiat51_on_edge_values() {
        let edges = edge_limbs();
        let n = edges.len();
        let rotated = |start: usize, stride: usize| -> Lanes {
            Lanes::from_limbs(&std::array::from_fn(|i| edges[(start + i * stride) % n]))
        };
        for a0 in 0..n {
            let a = rotated(a0, 1);
            a.assert_agree("construction");
            for b0 in 0..n {
                // Stride 5 is coprime to the list length: lane i of `b`
                // meets a different partner than lane i+1's.
                let b = rotated(b0, 5);
                for sel in (0..13u8).chain(128 + 9..128 + 12) {
                    let out = a.step(sel, &b);
                    out.assert_agree(&format!("op {sel} on edges {a0}/{b0}"));
                    // And once more from the result: outputs are inputs.
                    out.step(2, &a).assert_agree(&format!("op {sel} then mul"));
                    out.step(3, &a)
                        .assert_agree(&format!("op {sel} then square"));
                }
            }
        }
    }

    /// The lane-mask tier's two questions, lane by lane: the sign of
    /// every edge value (a canonical form is what both read, so values
    /// at and above `p`, and limbs at the top of the tight range, are
    /// the cases that matter) and equality of every pair of them — two
    /// different limb vectors of one residue included.
    #[test]
    fn lane_signs_and_equality_match_fiat51() {
        let edges = edge_limbs();
        let n = edges.len();
        for a0 in 0..n {
            let a = Lanes::from_limbs(&std::array::from_fn(|i| edges[(a0 + i) % n]));
            let negative = a.vector.is_negative();
            for (i, reference) in a.reference.iter().enumerate() {
                assert_eq!(
                    negative.0 >> i & 1 == 1,
                    reference.is_negative(),
                    "sign of edge {} in lane {i}",
                    (a0 + i) % n
                );
            }
            a.map2(&a, |x, _| x.abs(), |x, _| x.abs())
                .assert_agree("abs");
            for b0 in 0..n {
                let b = Lanes::from_limbs(&std::array::from_fn(|i| edges[(b0 + i * 5) % n]));
                let equal = a.vector.ct_eq(&b.vector);
                for i in 0..8 {
                    assert_eq!(
                        equal.0 >> i & 1 == 1,
                        a.reference[i].ct_eq(&b.reference[i]),
                        "equality of edges {} and {} in lane {i}",
                        (a0 + i) % n,
                        (b0 + i * 5) % n
                    );
                }
            }
        }
    }

    /// A vector of digits answers as its eight `i8`s do: every digit of
    /// the signed radix-16 range, each next to different neighbours.
    #[test]
    fn lane_digits_match_single_digits() {
        for start in -8i8..=8 {
            let digits: [i8; 8] = std::array::from_fn(|i| (start + 8 + 3 * i as i8) % 17 - 8);
            let (sign, abs) = Digits8::from_lanes(digits).sign_abs();
            for (i, d) in digits.iter().enumerate() {
                let (lane_sign, lane_abs) = d.sign_abs();
                assert_eq!((sign.0 >> i & 1) as u64, lane_sign, "sign of {d}");
                for j in 0..=8 {
                    assert_eq!(
                        (abs.is(j).0 >> i & 1) as u64,
                        lane_abs.is(j),
                        "|{d}| == {j}"
                    );
                }
            }
            let (sign, abs) = Digits8::from(start).sign_abs();
            assert_eq!(sign, LaneMask::from(start < 0));
            assert_eq!(abs.is(start.abs()), LaneMask::from(true));
        }
    }

    proptest! {
        /// The inverse square root in lanes — the `(p-5)/8` tower and
        /// every sign test and select of `sqrt_ratio_i`, each lane on
        /// its own side — against the reference's, on random ratios
        /// with zero numerators and denominators spliced in.
        #[test]
        fn lane_sqrt_ratio_matches_fiat51(
            inputs in prop::array::uniform16(prop::array::uniform32(any::<u8>())),
            zero_u in any::<prop::sample::Index>(),
            zero_v in any::<prop::sample::Index>(),
        ) {
            let mut limbs: [[[u64; 5]; 8]; 2] = std::array::from_fn(|half| {
                std::array::from_fn(|i| Fe51::from_bytes(&inputs[8 * half + i]).to_limbs51())
            });
            limbs[0][zero_u.index(8)] = [0; 5];
            limbs[1][zero_v.index(8)] = [0; 5];
            let (u, v) = (Lanes::from_limbs(&limbs[0]), Lanes::from_limbs(&limbs[1]));
            let (was_square, root) = F51x8::sqrt_ratio_i(&u.vector, &v.vector);
            let expected: [(bool, Fe51); 8] =
                std::array::from_fn(|i| Fe51::sqrt_ratio_i(&u.reference[i], &v.reference[i]));
            for (i, (square, _)) in expected.iter().enumerate() {
                prop_assert_eq!(was_square.0 >> i & 1 == 1, *square, "lane {}", i);
            }
            Lanes { reference: expected.map(|(_, r)| r), vector: root }.assert_agree("sqrt_ratio_i");
        }

        /// Random op sequences over vectors of eight different random
        /// values (an edge value spliced into one lane): byte-identical
        /// to the reference after every step, not just at the end.
        #[test]
        fn lane_op_sequences_match_fiat51(
            inputs in prop::collection::vec(prop::array::uniform32(any::<u8>()), 16..41),
            raw_ops in prop::collection::vec(any::<u8>(), 1..32),
            edge_at in any::<prop::sample::Index>(),
        ) {
            let edges = edge_limbs();
            let vectors: Vec<Lanes> = inputs
                .chunks_exact(8)
                .enumerate()
                .map(|(v, chunk)| {
                    let mut limbs: [[u64; 5]; 8] =
                        std::array::from_fn(|i| Fe51::from_bytes(&chunk[i]).to_limbs51());
                    limbs[edge_at.index(8)] = edges[(edge_at.index(edges.len()) + v) % edges.len()];
                    Lanes::from_limbs(&limbs)
                })
                .collect();
            let mut acc = vectors[0];
            for (i, &sel) in raw_ops.iter().enumerate() {
                let rhs = &vectors[(sel as usize >> 4) % vectors.len()];
                acc = acc.step(sel, rhs);
                acc.assert_agree(&format!("step {i}: op {}", sel % 13));
            }
        }

        /// The Ristretto decode in lanes against the one-element decode,
        /// on wire bytes of four kinds (picked by a string's own second
        /// byte): raw (mostly non-canonical or negative), canonical and
        /// even (past the byte checks, so the formula's own tests
        /// decide: no root, negative `t`), a valid point's encoding, and
        /// raw with the top bit clear — every lane group mixing accepted
        /// and rejected lanes.
        #[test]
        fn lane_decode_matches_decode(
            inputs in prop::collection::vec(prop::array::uniform32(any::<u8>()), 0..41),
        ) {
            let encodings: Vec<[u8; 32]> = inputs
                .iter()
                .map(|bytes| match bytes[1] % 4 {
                    0 => *bytes,
                    1 => {
                        let mut s = Fe51::from_bytes(bytes).to_bytes();
                        s[0] &= !1;
                        s
                    }
                    2 => GroupElement::base_mul(&Scalar::from_bytes_mod_order(bytes)).encode(),
                    _ => {
                        let mut s = *bytes;
                        s[31] &= 0x7f;
                        s
                    }
                })
                .collect();
            let expected: Vec<Option<GroupElement>> =
                encodings.iter().map(GroupElement::decode).collect();
            prop_assert_eq!(GroupElement::decode_all(&encodings), expected);
        }
    }
}

/// The radix-2^51 limb view both scalar backends expose to the lane
/// kernel: `from_limbs51` inverts `to_limbs51`, limbs come out below
/// 2^52, and any limbs below 2^52 — sums past 2^256 included — go in.
#[test]
fn limbs51_round_trip_on_both_backends() {
    const TOP: u64 = (1 << 52) - 1;
    let mut samples: Vec<[u8; 32]> = (0..32u8)
        .map(|i| {
            std::array::from_fn(|j| (j as u8).wrapping_mul(37).wrapping_add(i.wrapping_mul(101)))
        })
        .collect();
    samples.push([0xff; 32]);
    samples.push([0; 32]);
    for bytes in &samples {
        let pair = Pair::from_bytes(bytes);
        // Squaring roams sat64's full `value < 2^256` range.
        for pair in [
            pair,
            Pair {
                a: pair.a.square(),
                b: pair.b.square(),
            },
        ] {
            let (la, lb) = (pair.a.to_limbs51(), pair.b.to_limbs51());
            assert!(la.iter().chain(&lb).all(|&l| l <= TOP));
            Pair {
                a: fiat51::FieldElement::from_limbs51(&la),
                b: sat64::FieldElement::from_limbs51(&lb),
            }
            .assert_agree("limbs51 round trip");
            assert_eq!(
                fiat51::FieldElement::from_limbs51(&la).to_bytes(),
                pair.a.to_bytes()
            );
            // Each backend reads the other's limbs.
            assert_eq!(
                sat64::FieldElement::from_limbs51(&la).to_bytes(),
                pair.a.to_bytes()
            );
            assert_eq!(
                fiat51::FieldElement::from_limbs51(&lb).to_bytes(),
                pair.a.to_bytes()
            );
        }
    }
    for limbs in [[TOP; 5], [0, 0, 0, 0, TOP], [TOP, 0, TOP, 0, TOP]] {
        Pair {
            a: fiat51::FieldElement::from_limbs51(&limbs),
            b: sat64::FieldElement::from_limbs51(&limbs),
        }
        .assert_agree("limbs at the top of the tight range");
    }
}
