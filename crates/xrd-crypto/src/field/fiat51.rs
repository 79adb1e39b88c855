//! The portable 5×51 radix-2^51 backend (the 64-bit "ref10"-style
//! representation).
//!
//! Elements are five 51-bit limbs kept weakly reduced (below ~2^52) so
//! that products never overflow 128-bit accumulators.  This backend is
//! pure integer arithmetic over `u64`/`u128` and compiles everywhere;
//! it is the selected backend on every target the saturated `sat64`
//! backend's asm cannot run on, and the oracle the other
//! representations are tested against on all of them (see
//! `field/mod.rs` for the selection rules).

use crate::util::load_u64_le;

/// Mask selecting the low 51 bits of a `u64`.
const LOW_51_BIT_MASK: u64 = (1u64 << 51) - 1;

/// An element of GF(2^255 - 19), weakly reduced (limbs < 2^52).
#[derive(Clone, Copy, Debug)]
pub struct FieldElement(pub(crate) [u64; 5]);

/// `16 * p` in radix-2^51 limbs; added before subtraction to avoid
/// underflow while keeping the result congruent mod p.
const SIXTEEN_P: [u64; 5] = [
    36028797018963664, // 16 * (2^51 - 19)
    36028797018963952, // 16 * (2^51 - 1)
    36028797018963952,
    36028797018963952,
    36028797018963952,
];

impl FieldElement {
    /// Backend name for diagnostics and bench labels.
    pub const BACKEND_NAME: &str = "fiat51";
    /// What [`crate::field::FIELD_BACKEND`] reads when the eight-lane
    /// kernel is compiled in beside this backend.
    pub const BACKEND_NAME_WITH_LANES: &str = "fiat51+ifma8";

    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Construct from a small integer.
    pub const fn from_u64(x: u64) -> FieldElement {
        // Splitting x across the first two limbs keeps the invariant even
        // for x close to u64::MAX.
        FieldElement([x & LOW_51_BIT_MASK, x >> 51, 0, 0, 0])
    }

    /// Parse 32 little-endian bytes as a field element, ignoring the top
    /// bit (matching the curve25519 convention).
    pub fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        FieldElement([
            load_u64_le(&bytes[0..8]) & LOW_51_BIT_MASK,
            (load_u64_le(&bytes[6..14]) >> 3) & LOW_51_BIT_MASK,
            (load_u64_le(&bytes[12..20]) >> 6) & LOW_51_BIT_MASK,
            (load_u64_le(&bytes[19..27]) >> 1) & LOW_51_BIT_MASK,
            (load_u64_le(&bytes[24..32]) >> 12) & LOW_51_BIT_MASK,
        ])
    }

    /// Fully reduce and serialize to 32 little-endian bytes.  The encoding
    /// is canonical: the value is reduced into [0, p).
    pub fn to_bytes(&self) -> [u8; 32] {
        // First carry-propagate so limbs fit in 51 bits (plus small excess).
        let mut limbs = Self::weak_reduce(self.0).0;

        // Compute q = floor((value + 19) / 2^255), i.e. q = 1 iff value >= p.
        let mut q = (limbs[0] + 19) >> 51;
        q = (limbs[1] + q) >> 51;
        q = (limbs[2] + q) >> 51;
        q = (limbs[3] + q) >> 51;
        q = (limbs[4] + q) >> 51;

        // Add 19*q, then mask to 255 bits: this subtracts p iff value >= p.
        limbs[0] += 19 * q;
        limbs[1] += limbs[0] >> 51;
        limbs[0] &= LOW_51_BIT_MASK;
        limbs[2] += limbs[1] >> 51;
        limbs[1] &= LOW_51_BIT_MASK;
        limbs[3] += limbs[2] >> 51;
        limbs[2] &= LOW_51_BIT_MASK;
        limbs[4] += limbs[3] >> 51;
        limbs[3] &= LOW_51_BIT_MASK;
        limbs[4] &= LOW_51_BIT_MASK;

        let mut out = [0u8; 32];
        out[0] = limbs[0] as u8;
        out[1] = (limbs[0] >> 8) as u8;
        out[2] = (limbs[0] >> 16) as u8;
        out[3] = (limbs[0] >> 24) as u8;
        out[4] = (limbs[0] >> 32) as u8;
        out[5] = (limbs[0] >> 40) as u8;
        out[6] = ((limbs[0] >> 48) | (limbs[1] << 3)) as u8;
        out[7] = (limbs[1] >> 5) as u8;
        out[8] = (limbs[1] >> 13) as u8;
        out[9] = (limbs[1] >> 21) as u8;
        out[10] = (limbs[1] >> 29) as u8;
        out[11] = (limbs[1] >> 37) as u8;
        out[12] = ((limbs[1] >> 45) | (limbs[2] << 6)) as u8;
        out[13] = (limbs[2] >> 2) as u8;
        out[14] = (limbs[2] >> 10) as u8;
        out[15] = (limbs[2] >> 18) as u8;
        out[16] = (limbs[2] >> 26) as u8;
        out[17] = (limbs[2] >> 34) as u8;
        out[18] = (limbs[2] >> 42) as u8;
        out[19] = ((limbs[2] >> 50) | (limbs[3] << 1)) as u8;
        out[20] = (limbs[3] >> 7) as u8;
        out[21] = (limbs[3] >> 15) as u8;
        out[22] = (limbs[3] >> 23) as u8;
        out[23] = (limbs[3] >> 31) as u8;
        out[24] = (limbs[3] >> 39) as u8;
        out[25] = ((limbs[3] >> 47) | (limbs[4] << 4)) as u8;
        out[26] = (limbs[4] >> 4) as u8;
        out[27] = (limbs[4] >> 12) as u8;
        out[28] = (limbs[4] >> 20) as u8;
        out[29] = (limbs[4] >> 28) as u8;
        out[30] = (limbs[4] >> 36) as u8;
        out[31] = (limbs[4] >> 44) as u8;
        out
    }

    /// Carry-propagate limbs back below 2^52 without full reduction mod p.
    #[inline(always)]
    fn weak_reduce(mut limbs: [u64; 5]) -> FieldElement {
        let c0 = limbs[0] >> 51;
        limbs[0] &= LOW_51_BIT_MASK;
        limbs[1] += c0;
        let c1 = limbs[1] >> 51;
        limbs[1] &= LOW_51_BIT_MASK;
        limbs[2] += c1;
        let c2 = limbs[2] >> 51;
        limbs[2] &= LOW_51_BIT_MASK;
        limbs[3] += c2;
        let c3 = limbs[3] >> 51;
        limbs[3] &= LOW_51_BIT_MASK;
        limbs[4] += c3;
        let c4 = limbs[4] >> 51;
        limbs[4] &= LOW_51_BIT_MASK;
        limbs[0] += c4 * 19;
        FieldElement(limbs)
    }

    /// The value as five radix-2^51 limbs, each below 2^52 — the lane
    /// kernel's input form (one carry pass, so a value still carrying
    /// postponed carries is accepted too).
    #[doc(hidden)]
    #[inline]
    pub fn to_limbs51(&self) -> [u64; 5] {
        Self::weak_reduce(self.0).0
    }

    /// Inverse of [`FieldElement::to_limbs51`] for any limbs below
    /// 2^52 (this backend's own reduced form).
    #[doc(hidden)]
    #[inline]
    pub fn from_limbs51(limbs: &[u64; 5]) -> FieldElement {
        debug_assert!(limbs.iter().all(|&l| l < 1 << 52));
        FieldElement(*limbs)
    }

    /// Field addition.
    #[inline(always)]
    pub fn add(&self, rhs: &FieldElement) -> FieldElement {
        let mut limbs = [0u64; 5];
        for i in 0..5 {
            limbs[i] = self.0[i] + rhs.0[i];
        }
        Self::weak_reduce(limbs)
    }

    /// Field subtraction.
    #[inline(always)]
    pub fn sub(&self, rhs: &FieldElement) -> FieldElement {
        // Add 16p so that per-limb subtraction never underflows.
        let mut limbs = [0u64; 5];
        for i in 0..5 {
            limbs[i] = self.0[i] + SIXTEEN_P[i] - rhs.0[i];
        }
        Self::weak_reduce(limbs)
    }

    // -----------------------------------------------------------------
    // Lazy (non-reducing) additive ops for the point-arithmetic kernels.
    //
    // `mul`/`square` tolerate inputs with limbs up to 2^57 (products
    // stay under 2^121 across the five-term accumulators, and the
    // 19-fold premultiply stays under 2^62), so a bounded amount of
    // carry-postponement between multiplications is sound.  The rules,
    // checked by debug asserts:
    //
    //   * reduced values (mul/square/weak_reduce outputs) have limbs
    //     < 2^52;
    //   * `lazy_add` accepts limbs < 2^56 and yields limbs < 2^57 —
    //     mul-safe, NOT safe as a `lazy_sub` rhs;
    //   * `lazy_sub` accepts an rhs with limbs < 2^55 (it adds 16p
    //     before subtracting) and yields limbs < 2^56 given lhs limbs
    //     < 2^55.8 — mul-safe;
    //   * `lazy_sub_wide` accepts an rhs with limbs < 2^56.1 (it adds
    //     32p) for the one doubling step whose rhs is itself a
    //     `lazy_sub` output.
    //
    // These are pub(crate): every call site lives in `edwards.rs` where
    // the bounds are established structurally.  The sat64 backend's
    // lazy entry points reduce eagerly instead (its saturated limbs
    // have no spare bits to postpone carries into); see `field/mod.rs`.
    // -----------------------------------------------------------------

    /// Addition without carry propagation (see module rules above).
    #[inline(always)]
    #[allow(dead_code)] // unused when the other backend is selected
    pub(crate) fn lazy_add(&self, rhs: &FieldElement) -> FieldElement {
        let mut limbs = [0u64; 5];
        for i in 0..5 {
            debug_assert!(self.0[i] < 1 << 56 && rhs.0[i] < 1 << 56);
            limbs[i] = self.0[i] + rhs.0[i];
        }
        FieldElement(limbs)
    }

    /// Subtraction (adding 16p first) without carry propagation; the
    /// rhs must have limbs below 16p's (< ~2^55).
    #[inline(always)]
    #[allow(dead_code)] // unused when the other backend is selected
    pub(crate) fn lazy_sub(&self, rhs: &FieldElement) -> FieldElement {
        let mut limbs = [0u64; 5];
        for i in 0..5 {
            debug_assert!(rhs.0[i] <= SIXTEEN_P[i]);
            limbs[i] = self.0[i] + SIXTEEN_P[i] - rhs.0[i];
        }
        FieldElement(limbs)
    }

    /// Subtraction (adding 32p first) without carry propagation, for an
    /// rhs that is itself a `lazy_sub` output (limbs < 2^56.1).
    #[inline(always)]
    #[allow(dead_code)] // unused when the other backend is selected
    pub(crate) fn lazy_sub_wide(&self, rhs: &FieldElement) -> FieldElement {
        let mut limbs = [0u64; 5];
        for i in 0..5 {
            debug_assert!(rhs.0[i] <= 2 * SIXTEEN_P[i]);
            limbs[i] = self.0[i] + 2 * SIXTEEN_P[i] - rhs.0[i];
        }
        FieldElement(limbs)
    }

    /// Field multiplication.
    #[inline(always)]
    pub fn mul(&self, rhs: &FieldElement) -> FieldElement {
        #[inline(always)]
        fn m(a: u64, b: u64) -> u128 {
            (a as u128) * (b as u128)
        }
        let a = &self.0;
        let b = &rhs.0;

        // Precompute 19*b[i] (fits: b[i] < 2^52, 19*b[i] < 2^57).
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let c0 = m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19);
        let c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19);
        let c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19);
        let c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19);
        let c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);

        Self::carry_wide([c0, c1, c2, c3, c4])
    }

    /// The wide (pre-carry) accumulators of a squaring.
    #[inline(always)]
    fn square_wide(&self) -> [u128; 5] {
        #[inline(always)]
        fn m(a: u64, b: u64) -> u128 {
            (a as u128) * (b as u128)
        }
        let a = &self.0;
        // Pre-double the u64 operands so the off-diagonal terms need no
        // 128-bit shifts (cheaper than doubling the wide accumulators).
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        let c0 = m(a[0], a[0]) + m(a1_2, a4_19) + m(2 * a[2], a3_19);
        let c1 = m(a[3], a3_19) + m(a0_2, a[1]) + m(2 * a[2], a4_19);
        let c2 = m(a[1], a[1]) + m(a0_2, a[2]) + m(2 * a[4], a3_19);
        let c3 = m(a[4], a4_19) + m(a0_2, a[3]) + m(a1_2, a[2]);
        let c4 = m(a[2], a[2]) + m(a0_2, a[4]) + m(a1_2, a[3]);
        [c0, c1, c2, c3, c4]
    }

    /// Field squaring (slightly cheaper than `mul(self, self)`).
    #[inline(always)]
    pub fn square(&self) -> FieldElement {
        Self::carry_wide(self.square_wide())
    }

    /// `2 * self^2` in one carry pass: the accumulators are doubled
    /// before propagation (inputs with limbs < 2^57 keep the doubled
    /// accumulators under 2^122, well within `u128`).
    #[inline(always)]
    pub fn square2(&self) -> FieldElement {
        let mut c = self.square_wide();
        for limb in c.iter_mut() {
            *limb *= 2;
        }
        Self::carry_wide(c)
    }

    /// Constant-time-style select: returns `b` if `choice` is 1,
    /// else `a`.
    #[inline(always)]
    pub fn select(a: &FieldElement, b: &FieldElement, choice: u64) -> FieldElement {
        debug_assert!(choice == 0 || choice == 1);
        let mask = choice.wrapping_neg(); // 0 or all-ones
        let mut out = *a;
        for (o, l) in out.0.iter_mut().zip(b.0.iter()) {
            *o ^= mask & (*o ^ l);
        }
        out
    }

    /// All limbs ANDed with `mask` (masked table-scan seed; the mask
    /// is all-ones or all-zero).
    #[inline(always)]
    #[allow(dead_code)] // unused when the other backend is selected
    pub(crate) fn and_mask(&self, mask: u64) -> FieldElement {
        let mut out = *self;
        for l in out.0.iter_mut() {
            *l &= mask;
        }
        out
    }

    /// OR in `entry`'s limbs under `mask` (masked table-scan
    /// accumulation: exactly one all-ones mask contributes).
    #[inline(always)]
    #[allow(dead_code)] // unused when the other backend is selected
    pub(crate) fn or_assign_masked(&mut self, entry: &FieldElement, mask: u64) {
        for (l, e) in self.0.iter_mut().zip(entry.0.iter()) {
            *l |= e & mask;
        }
    }

    /// Carry-propagate a wide (u128-limb) product back to 51-bit limbs.
    /// The final 19-fold runs in 128 bits so that products of *lazy*
    /// (non-reduced, limbs < 2^57) operands stay sound: each input limb
    /// product is then < 2^121 and the top carry can exceed 64 bits.
    #[inline(always)]
    fn carry_wide(mut c: [u128; 5]) -> FieldElement {
        let mut out = [0u64; 5];
        c[1] += c[0] >> 51;
        c[2] += c[1] >> 51;
        out[1] = (c[1] as u64) & LOW_51_BIT_MASK;
        c[3] += c[2] >> 51;
        out[2] = (c[2] as u64) & LOW_51_BIT_MASK;
        c[4] += c[3] >> 51;
        out[3] = (c[3] as u64) & LOW_51_BIT_MASK;
        let carry = c[4] >> 51;
        out[4] = (c[4] as u64) & LOW_51_BIT_MASK;
        let c0 = ((c[0] as u64 & LOW_51_BIT_MASK) as u128) + carry * 19;
        out[0] = (c0 as u64) & LOW_51_BIT_MASK;
        out[1] += (c0 >> 51) as u64;
        FieldElement(out)
    }
}

crate::field::impl_field_shared!(FieldElement);
