//! Arithmetic modulo the group order
//! `l = 2^252 + 27742317777372353535851937790883648493`
//! (the prime order of the ristretto255 group).
//!
//! Scalars are stored canonically (four 64-bit little-endian limbs, value
//! `< l`).  Multiplication uses Montgomery reduction (CIOS); exponentiation
//! for inversion converts to Montgomery form once.

use rand::RngCore;

/// The group order `l`, little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// `R = 2^256 mod l`.
const R: [u64; 4] = [
    0xd6ec31748d98951d,
    0xc6ef5bf4737dcf70,
    0xfffffffffffffffe,
    0x0fffffffffffffff,
];

/// `RR = 2^512 mod l` (converts into Montgomery form).
const RR: [u64; 4] = [
    0xa40611e3449c0f01,
    0xd00e1ba768859347,
    0xceec73d217f5be65,
    0x0399411b7c309a3d,
];

/// `-l^{-1} mod 2^64`.
const NINV: u64 = 0xd2b51da312547e1b;

/// `l - 2`, little-endian bytes (inversion exponent).
const L_MINUS_2_LE: [u8; 32] = [
    0xeb, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
];

/// An integer modulo the ristretto255 group order, canonically reduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scalar(pub(crate) [u64; 4]);

#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + (borrow & 1) as u128);
    (t as u64, (t >> 64) as u64) // borrow out is all-ones if underflow
}

#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a < b` on 4-limb little-endian values.  Variable time: for public
/// input only (`from_canonical_bytes`).
fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] < b[i] {
            return true;
        }
        if a[i] > b[i] {
            return false;
        }
    }
    false
}

/// `limbs + (l & mask)` modulo `2^256`: `l` is added where `mask` is all
/// ones and nothing where it is zero, with no branch on the mask.
fn add_l_masked(limbs: &[u64; 4], mask: u64) -> [u64; 4] {
    let mut sum = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        (sum[i], carry) = adc(limbs[i], L[i] & mask, carry);
    }
    sum
}

/// Subtract `l` once if the value is `>= l`.  Constant time: `l` is
/// always subtracted, and the borrow out (all ones iff the value was
/// below `l`) selects the original limbs back by mask.
fn reduce_once(limbs: [u64; 4]) -> [u64; 4] {
    let mut diff = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        (diff[i], borrow) = sbb(limbs[i], L[i], borrow);
    }
    std::array::from_fn(|i| (limbs[i] & borrow) | (diff[i] & !borrow))
}

/// Montgomery reduction of a 512-bit value `t` (as 8 limbs):
/// returns `t * R^{-1} mod l`.  Requires `t < l * 2^256`.
fn montgomery_reduce(t: &[u64; 8]) -> Scalar {
    let mut t9 = [0u64; 9];
    t9[..8].copy_from_slice(t);

    for i in 0..4 {
        let m = t9[i].wrapping_mul(NINV);
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, hi) = mac(t9[i + j], m, L[j], carry);
            t9[i + j] = lo;
            carry = hi;
        }
        // Cascade the final carry through every upper limb: adding a
        // zero carry changes nothing, so no limb is skipped on its value.
        for limb in t9.iter_mut().skip(i + 4) {
            (*limb, carry) = adc(*limb, carry, 0);
        }
    }
    // Result is t9[4..8] (t9[8] can be nonzero only if input >= l*2^256,
    // excluded by the caller contract), possibly >= l once.
    debug_assert_eq!(t9[8], 0);
    Scalar(reduce_once([t9[4], t9[5], t9[6], t9[7]]))
}

/// Full 4x4 schoolbook multiply into 8 limbs.
fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, hi) = mac(t[i + j], a[i], b[j], carry);
            t[i + j] = lo;
            carry = hi;
        }
        t[i + 4] = carry;
    }
    t
}

/// `a * b * R^{-1} mod l` (both inputs in any form; output in the "same
/// side" as `a*b/R`).
fn mont_mul(a: &Scalar, b: &Scalar) -> Scalar {
    montgomery_reduce(&mul_wide(&a.0, &b.0))
}

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Construct from a small integer.
    pub const fn from_u64(x: u64) -> Scalar {
        Scalar([x, 0, 0, 0])
    }

    /// Parse 32 little-endian bytes, reducing modulo `l`.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = crate::util::load_u64_le(&bytes[i * 8..i * 8 + 8]);
        }
        // Value < 2^256 < l * 2^4, so a few conditional subtracts... but a
        // single Montgomery round-trip is simpler and fully general:
        // REDC(x) = x/R, then * RR / R = x mod l.
        let redc = montgomery_reduce(&[limbs[0], limbs[1], limbs[2], limbs[3], 0, 0, 0, 0]);
        mont_mul(&redc, &Scalar(RR))
    }

    /// Parse 32 little-endian bytes, requiring the canonical (`< l`)
    /// encoding.  Returns `None` otherwise.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = crate::util::load_u64_le(&bytes[i * 8..i * 8 + 8]);
        }
        if lt(&limbs, &L) {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Reduce 64 little-endian bytes modulo `l` (the standard way to turn
    /// hash output into a uniform scalar).
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut lo = [0u8; 32];
        let mut hi = [0u8; 32];
        lo.copy_from_slice(&bytes[..32]);
        hi.copy_from_slice(&bytes[32..]);
        let lo = Scalar::from_bytes_mod_order(&lo);
        let hi = Scalar::from_bytes_mod_order(&hi);
        // x = lo + hi * 2^256 = lo + hi * R (mod l)
        lo.add(&hi.mul(&Scalar(R)))
    }

    /// Serialize to 32 little-endian bytes (canonical).
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Uniformly random scalar.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Scalar {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Addition mod `l`.
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        let mut limbs = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s, c) = adc(self.0[i], rhs.0[i], carry);
            limbs[i] = s;
            carry = c;
        }
        debug_assert_eq!(carry, 0, "inputs must be canonical");
        Scalar(reduce_once(limbs))
    }

    /// Subtraction mod `l`.  Constant time: `l` is added back under
    /// the borrow out, a mask that is all ones iff the difference
    /// underflowed.
    pub fn sub(&self, rhs: &Scalar) -> Scalar {
        let mut limbs = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            (limbs[i], borrow) = sbb(self.0[i], rhs.0[i], borrow);
        }
        Scalar(add_l_masked(&limbs, borrow))
    }

    /// Negation mod `l`.
    pub fn neg(&self) -> Scalar {
        Scalar::ZERO.sub(self)
    }

    /// `self / 2 mod l`, i.e. `self · 2⁻¹`: `self` halved if even,
    /// `self + l` halved if odd (`l` is odd).  Constant time: `l` is
    /// added under a mask of the low bit, and the sum (below `2l <
    /// 2^254`) is shifted right by one, so a secret exponent may be
    /// halved.  What the batched double-and-encode
    /// ([`GroupElement::double_encode_all`](crate::GroupElement::double_encode_all))
    /// is fed: the encoding of `P^x` is that of `2·P^(x/2)`.
    pub fn half(&self) -> Scalar {
        let sum = add_l_masked(&self.0, (self.0[0] & 1).wrapping_neg());
        Scalar(std::array::from_fn(|i| {
            sum[i] >> 1 | sum.get(i + 1).map_or(0, |next| next << 63)
        }))
    }

    /// Multiplication mod `l`.
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        // (a*b/R) * RR / R = a*b mod l
        mont_mul(&mont_mul(self, rhs), &Scalar(RR))
    }

    /// Multiplicative inverse (`self^(l-2)`); returns zero for zero.
    pub fn invert(&self) -> Scalar {
        // Work in Montgomery form for the whole ladder.
        let self_mont = mont_mul(self, &Scalar(RR));
        let mut acc = Scalar(R); // 1 in Montgomery form
        for byte in L_MINUS_2_LE.iter().rev() {
            for bit in (0..8).rev() {
                acc = mont_mul(&acc, &acc);
                if (byte >> bit) & 1 == 1 {
                    acc = mont_mul(&acc, &self_mont);
                }
            }
        }
        // Convert out of Montgomery form.
        montgomery_reduce(&[acc.0[0], acc.0[1], acc.0[2], acc.0[3], 0, 0, 0, 0])
    }

    /// True iff this is the zero scalar.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Radix-16 signed digits in [-8, 8), 64 of them, for windowed scalar
    /// multiplication (digit recoding standard for curve25519).
    pub fn to_radix_16(&self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut digits = [0i8; 64];
        for i in 0..32 {
            digits[2 * i] = (bytes[i] & 15) as i8;
            digits[2 * i + 1] = ((bytes[i] >> 4) & 15) as i8;
        }
        // Recenter: digit in [0,16) -> [-8,8) with carry.
        for i in 0..63 {
            let carry = (digits[i] + 8) >> 4;
            digits[i] -= carry << 4;
            digits[i + 1] += carry;
        }
        // Top digit stays < 8 because l < 2^253.
        digits
    }

    /// Width-`w` non-adjacent form: 256 signed digits, each either zero
    /// or odd with absolute value below `2^(w-1)`, at most one nonzero
    /// digit in any `w` consecutive positions.  Used by the
    /// **variable-time** Straus multi-scalar ladder; never call on
    /// secret scalars (the digit pattern leaks through timing).
    pub fn non_adjacent_form(&self, w: usize) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w));
        let mut naf = [0i8; 256];
        // Five limbs so windows can read past the top limb.
        let mut limbs = [0u64; 5];
        limbs[..4].copy_from_slice(&self.0);

        let width = 1u64 << w;
        let window_mask = width - 1;

        let mut pos = 0;
        let mut carry = 0u64;
        while pos < 256 {
            let idx = pos / 64;
            let bit = pos % 64;
            let bit_buf = if bit == 0 {
                limbs[idx]
            } else {
                (limbs[idx] >> bit) | (limbs[idx + 1] << (64 - bit))
            };
            let window = carry + (bit_buf & window_mask);
            if window & 1 == 0 {
                pos += 1;
                continue;
            }
            if window < width / 2 {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                carry = 1;
                naf[pos] = (window as i64 - width as i64) as i8;
            }
            pos += w;
        }
        naf
    }

    /// Signed radix-`2^w` digits (each in `[-2^(w-1), 2^(w-1)]`), for
    /// the **variable-time** Pippenger bucket method; never call on
    /// secret scalars.
    pub fn to_signed_radix_2w(&self, w: usize) -> Vec<i64> {
        debug_assert!((4..=8).contains(&w));
        let digits_count = 256usize.div_ceil(w);
        let mut limbs = [0u64; 5];
        limbs[..4].copy_from_slice(&self.0);

        let radix = 1i64 << w;
        let window_mask = (radix - 1) as u64;
        let mut digits = vec![0i64; digits_count];
        let mut carry = 0i64;
        for (i, digit) in digits.iter_mut().enumerate() {
            let bit_offset = i * w;
            let idx = bit_offset / 64;
            let bit = bit_offset % 64;
            let bit_buf = if bit == 0 {
                limbs[idx]
            } else {
                (limbs[idx] >> bit) | (limbs[idx + 1] << (64 - bit))
            };
            let coef = carry + (bit_buf & window_mask) as i64;
            // Recenter into [-2^(w-1), 2^(w-1)).
            carry = (coef + radix / 2) >> w;
            *digit = coef - (carry << w);
        }
        // Top carry folds into the last digit (l < 2^253 leaves room).
        if carry != 0 {
            *digits.last_mut().expect("at least one digit") += carry << w;
        }
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s(n: u64) -> Scalar {
        Scalar::from_u64(n)
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(s(2).add(&s(3)), s(5));
        assert_eq!(s(5).sub(&s(3)), s(2));
        assert_eq!(s(6).mul(&s(7)), s(42));
    }

    #[test]
    fn sub_underflow_wraps() {
        // 0 - 1 = l - 1
        let lm1 = Scalar::ZERO.sub(&Scalar::ONE);
        assert_eq!(lm1.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut l_bytes = [0u8; 32];
        for i in 0..4 {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert!(Scalar::from_bytes_mod_order(&l_bytes).is_zero());
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn mul_commutative_and_associative() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let c = Scalar::random(&mut rng);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }
    }

    #[test]
    fn invert_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let a = Scalar::random(&mut rng);
            assert_eq!(a.mul(&a.invert()), Scalar::ONE);
        }
        assert!(Scalar::ZERO.invert().is_zero());
    }

    #[test]
    fn wide_reduction_matches_iterated_add() {
        // 2^256 mod l == R constant
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        assert_eq!(Scalar::from_bytes_mod_order_wide(&wide), Scalar(R));
    }

    #[test]
    fn to_bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let a = Scalar::random(&mut rng);
            assert_eq!(Scalar::from_canonical_bytes(&a.to_bytes()), Some(a));
        }
    }

    #[test]
    fn radix_16_reconstructs() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let a = Scalar::random(&mut rng);
            let digits = a.to_radix_16();
            // sum digits[i] * 16^i mod l == a
            let sixteen = s(16);
            let mut acc = Scalar::ZERO;
            for &d in digits.iter().rev() {
                acc = acc.mul(&sixteen);
                let dd = if d < 0 {
                    s((-d) as u64).neg()
                } else {
                    s(d as u64)
                };
                acc = acc.add(&dd);
            }
            assert_eq!(acc, a);
            for &d in digits.iter() {
                assert!((-8..=8).contains(&d));
            }
        }
    }

    /// `half(x) + half(x) == x` at both ends of the range and on random
    /// scalars, and `half` is canonical (`x · 2⁻¹`, below `l`).
    #[test]
    fn half_doubles_back() {
        let mut rng = StdRng::seed_from_u64(11);
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let mut xs = vec![Scalar::ZERO, Scalar::ONE, s(2), s(3), l_minus_1];
        xs.extend((0..64).map(|_| Scalar::random(&mut rng)));
        let two_inv = s(2).invert();
        for x in xs {
            let h = x.half();
            assert_eq!(h.add(&h), x, "{x:?}");
            assert_eq!(h, x.mul(&two_inv), "{x:?}");
            assert!(lt(&h.0, &L), "{x:?}");
        }
    }

    /// `add`, `sub`, `mul` and `neg` at the edges of the range (0, 1,
    /// ℓ−1, ℓ−2), where the masked reduction and the masked add-back
    /// of `ℓ` switch, and at random values, held to identities rather
    /// than to the code under test.
    #[test]
    fn edge_values_satisfy_identities() {
        let mut rng = StdRng::seed_from_u64(12);
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let l_minus_2 = l_minus_1.sub(&Scalar::ONE);
        assert_eq!(l_minus_1.0, [L[0] - 1, L[1], L[2], L[3]]);
        assert_eq!(l_minus_2.0, [L[0] - 2, L[1], L[2], L[3]]);
        let mut xs = vec![Scalar::ZERO, Scalar::ONE, l_minus_1, l_minus_2];
        xs.extend((0..16).map(|_| Scalar::random(&mut rng)));
        for a in &xs {
            assert_eq!(a.add(&a.neg()), Scalar::ZERO, "{a:?}");
            assert_eq!(a.neg().neg(), *a, "{a:?}");
            if !a.is_zero() {
                assert_eq!(a.mul(&a.invert()), Scalar::ONE, "{a:?}");
            }
            for b in &xs {
                let (sum, diff, prod) = (a.add(b), a.sub(b), a.mul(b));
                for r in [sum, diff, prod] {
                    assert!(lt(&r.0, &L), "{a:?} {b:?}");
                }
                assert_eq!(diff.add(b), *a, "(a-b)+b, {a:?} {b:?}");
                assert_eq!(sum.sub(b), *a, "(a+b)-b, {a:?} {b:?}");
                assert_eq!(sum, b.add(a), "{a:?} {b:?}");
                assert_eq!(prod, b.mul(a), "{a:?} {b:?}");
                assert_eq!(a.sub(b), b.sub(a).neg(), "{a:?} {b:?}");
            }
        }
        // The edges against small integers: ℓ−1 = −1 and ℓ−2 = −2.
        assert_eq!(l_minus_1.add(&Scalar::ONE), Scalar::ZERO);
        assert_eq!(l_minus_2.add(&s(2)), Scalar::ZERO);
        assert_eq!(l_minus_1.mul(&l_minus_1), Scalar::ONE);
        assert_eq!(l_minus_1.mul(&l_minus_2), s(2));
        assert_eq!(l_minus_2.mul(&l_minus_2), s(4));
    }

    #[test]
    fn neg_is_additive_inverse() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Scalar::random(&mut rng);
        assert_eq!(a.add(&a.neg()), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
    }

    #[test]
    fn from_u64_matches_mod_order() {
        let mut b = [0u8; 32];
        b[0] = 200;
        assert_eq!(Scalar::from_bytes_mod_order(&b), s(200));
    }
}
