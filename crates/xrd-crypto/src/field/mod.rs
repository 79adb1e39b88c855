//! Arithmetic in the field GF(2^255 - 19), the base field of Curve25519.
//!
//! This module is self-contained (no external crypto dependency) and
//! ships **two interchangeable limb representations** behind one public
//! type, [`FieldElement`], plus — where the target has the
//! instructions — an eight-lane representation the batch kernels run
//! on:
//!
//! | backend            | limbs | representation            | multiply kernel |
//! |--------------------|-------|---------------------------|-----------------|
//! | [`fiat51`]         | 5×51  | radix 2^51, weakly reduced | portable `u128` accumulators |
//! | [`sat64`]          | 4×64  | saturated, value < 2^256  | `mulx`+`adcx`/`adox` inline asm on x86-64 (BMI2+ADX), portable `u128` carry chains elsewhere |
//! | `ifma` (`F51x8`)   | 8 × 5×51 | eight elements, one per 64-bit lane of five `__m512i`; every op returns limbs < 2^52 | `vpmadd52{l,h}uq` (AVX-512 IFMA) |
//!
//! **Selection** happens at build time:
//!
//! * feature `force-field51` → the portable 5×51 backend, everywhere
//!   (and no lane kernel);
//! * feature `force-field64` → the 4×64 backend (its portable carry
//!   chains if the target lacks BMI2+ADX);
//! * default: 4×64 on x86-64 compiled with `bmi2`+`adx` target
//!   features (the workspace's `-C target-cpu=native` enables them on
//!   the reference host), 5×51 anywhere else.
//!
//! Both scalar backends are *always compiled* — the feature only
//! chooses which one `FieldElement` aliases — so differential tests and
//! benches can drive the two representations against each other in a
//! single build.
//!
//! The lane representation is not a choice for `FieldElement` (it has
//! no bytes and no inversion — it is a [`FieldArith`] and a
//! [`FieldLanes`], not a [`FieldBackend`]) and has no feature of its
//! own: the `ifma` module is compiled exactly where `avx512f` and
//! `avx512ifma` are statically enabled (`target-cpu=native` on a host
//! that has them) and the portable backend is not being forced —
//! `force-field51` means portable arithmetic *everywhere*, so it turns
//! the lane kernel off with everything else native, as `-C
//! target-feature=-avx512ifma` does while keeping the 4×64 backend.
//! Where it is compiled, the batch entry points in `ristretto.rs` run
//! on it.  [`FIELD_BACKEND`] names what a build got.
//!
//! ## Lazy-reduction contract
//!
//! The point-arithmetic pipeline in `edwards.rs` calls `lazy_add` /
//! `lazy_sub` / `lazy_sub_wide` between multiplications.  The *contract*
//! of these entry points is only "congruent mod p, and a valid input to
//! every field op"; whether reduction is actually postponed is a
//! per-backend optimization:
//!
//! * **fiat51** postpones carries (limbs may grow to 2^57, which its
//!   `mul`/`square` accumulators absorb); the exact bounds ride on the
//!   structure of the curve formulas and are documented and
//!   debug-asserted in `fiat51.rs`.
//! * **sat64** reduces eagerly: saturated limbs have no spare bits, and
//!   its add/sub are already a handful of ALU ops, so the lazy entry
//!   points simply forward to `add`/`sub` (see `sat64.rs`).
//! * **ifma** reduces eagerly too: its multiplier reads only 52 bits
//!   of a limb, so every op ends in a carry pass and there is no bound
//!   to audit between ops (see `ifma.rs`).
//!
//! Derived curve constants (sqrt(-1), Edwards d, the Ristretto magic
//! constants) are computed at first use from first principles rather
//! than transcribed, and validated by unit tests.

#[cfg(all(feature = "force-field51", feature = "force-field64"))]
compile_error!("features `force-field51` and `force-field64` are mutually exclusive");

/// Everything the two backends share and a lane type does not —
/// inversion, batched inversion, byte-level sign and equality, derived
/// constants — is representation-independent (it only uses the
/// backend's core ops plus canonical encodings), so it is stamped into
/// each backend module from this single definition, with the trait
/// impls.  What a lane type shares too (the `(p-5)/8` tower, the
/// square-root convention) is written once as [`FieldLanes`]' provided
/// methods; the inherent `sqrt_ratio_i` here forwards to it.
macro_rules! impl_field_shared {
    ($fe:ident) => {
        impl $fe {
            /// Field negation.
            #[inline(always)]
            pub fn neg(&self) -> $fe {
                $fe::ZERO.sub(self)
            }

            /// Multiplicative inverse: `self^(p-2)`.  Returns zero for zero.
            pub fn invert(&self) -> $fe {
                use crate::field::FieldLanes;
                let (t19, t3) = self.pow22501();
                let t20 = FieldLanes::pow2k(&t19, 5); // 2^255 - 2^5
                t20.mul(&t3) // 2^255 - 21 = p - 2
            }

            /// Generic (variable-time) exponentiation by a 256-bit
            /// little-endian exponent.  Only used to derive public
            /// constants; never on secrets.
            pub fn pow_vartime(&self, exp_le: &[u8; 32]) -> $fe {
                let mut result = $fe::ONE;
                for byte in exp_le.iter().rev() {
                    for bit in (0..8).rev() {
                        result = result.square();
                        if (byte >> bit) & 1 == 1 {
                            result = result.mul(self);
                        }
                    }
                }
                result
            }

            /// True iff the canonical encoding's low bit is set (the
            /// "negative" convention used by Ristretto).
            pub fn is_negative(&self) -> bool {
                self.to_bytes()[0] & 1 == 1
            }

            /// True iff this element is zero.
            pub fn is_zero(&self) -> bool {
                self.to_bytes() == [0u8; 32]
            }

            /// Negate iff `choice` is 1.
            #[inline(always)]
            pub fn conditional_negate(&self, choice: u64) -> $fe {
                Self::select(self, &self.neg(), choice)
            }

            /// Absolute value: negate iff negative.
            pub fn abs(&self) -> $fe {
                self.conditional_negate(self.is_negative() as u64)
            }

            /// Equality via canonical encodings.
            pub fn ct_eq(&self, other: &$fe) -> bool {
                crate::util::ct_bytes_eq(&self.to_bytes(), &other.to_bytes())
            }

            /// sqrt(-1) mod p, derived as `|2^((p-1)/4)|` (2 is a
            /// non-residue since p = 5 mod 8, so the square of this is
            /// -1).  The draft-irtf ristretto255 constant is the
            /// non-negative root, hence `abs`.
            pub fn sqrt_m1() -> &'static $fe {
                use std::sync::OnceLock;
                static SQRT_M1: OnceLock<$fe> = OnceLock::new();
                SQRT_M1.get_or_init(|| {
                    // exponent = (p-1)/4 = 2^253 - 5
                    let mut exp = [0xffu8; 32];
                    exp[0] = 0xfb; // 2^253 - 5 = ...fb in the lowest byte
                    exp[31] = 0x1f; // top byte: 2^253 -> 0x1f...
                    let two = $fe::from_u64(2);
                    two.pow_vartime(&exp).abs()
                })
            }

            /// Computes `sqrt(u/v)` in the Ristretto convention.
            ///
            /// Returns `(was_square, r)` where:
            /// - if `u/v` is square, `was_square = true` and
            ///   `r = +sqrt(u/v)`;
            /// - if `u/v` is non-square, `was_square = false` and
            ///   `r = +sqrt(i*u/v)` (where `i = sqrt(-1)`);
            /// - if `u = 0`, returns `(true, 0)`; if `v = 0` (and
            ///   `u != 0`), returns `(false, 0)`.
            ///
            /// `r` is always non-negative.
            pub fn sqrt_ratio_i(u: &$fe, v: &$fe) -> (bool, $fe) {
                let (was_square, r) = <$fe as crate::field::FieldLanes>::sqrt_ratio_i(u, v);
                (was_square == 1, r)
            }

            /// Montgomery batch inversion: invert every element of
            /// `elements` in place using a single field inversion plus
            /// `3n` multiplications (instead of `n` inversions).
            ///
            /// Zeros are left as zeros (matching `invert`).  The
            /// zero-masking uses constant-time selects, but callers on
            /// the XRD hot paths only ever pass public data (projective
            /// `Z` coordinates of wire-visible points, encoding
            /// denominators).
            pub fn batch_invert(elements: &mut [$fe]) {
                if elements.is_empty() {
                    return;
                }
                // Replace zeros by one so the running product stays
                // invertible; remember where they were to restore them
                // at the end.
                let zero_mask: Vec<u64> = elements.iter().map(|e| e.is_zero() as u64).collect();
                // prefix[i] = product of (masked) elements[0..=i]
                let mut prefix = Vec::with_capacity(elements.len());
                let mut acc = $fe::ONE;
                for (e, &z) in elements.iter().zip(&zero_mask) {
                    let masked = $fe::select(e, &$fe::ONE, z);
                    acc = acc.mul(&masked);
                    prefix.push(acc);
                }
                // One inversion of the total product...
                let mut inv = acc.invert();
                // ...then walk backwards peeling one element per step.
                for i in (0..elements.len()).rev() {
                    let masked = $fe::select(&elements[i], &$fe::ONE, zero_mask[i]);
                    let this_inv = if i == 0 { inv } else { prefix[i - 1].mul(&inv) };
                    inv = inv.mul(&masked);
                    elements[i] = $fe::select(&this_inv, &$fe::ZERO, zero_mask[i]);
                }
            }

            /// `1/sqrt(self)` (Ristretto convention; see `sqrt_ratio_i`).
            pub fn invsqrt(&self) -> (bool, $fe) {
                Self::sqrt_ratio_i(&$fe::ONE, self)
            }
        }

        impl PartialEq for $fe {
            fn eq(&self, other: &Self) -> bool {
                self.ct_eq(other)
            }
        }
        impl Eq for $fe {}

        impl crate::field::FieldArith for $fe {
            type Choice = u64;
            type Digit = i8;
            const ZERO: Self = $fe::ZERO;
            const ONE: Self = $fe::ONE;
            fn add(&self, rhs: &Self) -> Self {
                $fe::add(self, rhs)
            }
            fn sub(&self, rhs: &Self) -> Self {
                $fe::sub(self, rhs)
            }
            fn neg(&self) -> Self {
                $fe::neg(self)
            }
            fn mul(&self, rhs: &Self) -> Self {
                $fe::mul(self, rhs)
            }
            fn square(&self) -> Self {
                $fe::square(self)
            }
            fn square2(&self) -> Self {
                $fe::square2(self)
            }
            fn lazy_add(&self, rhs: &Self) -> Self {
                $fe::lazy_add(self, rhs)
            }
            fn lazy_sub(&self, rhs: &Self) -> Self {
                $fe::lazy_sub(self, rhs)
            }
            fn lazy_sub_wide(&self, rhs: &Self) -> Self {
                $fe::lazy_sub_wide(self, rhs)
            }
            fn select(a: &Self, b: &Self, choice: u64) -> Self {
                $fe::select(a, b, choice)
            }
            fn and_mask(&self, choice: u64) -> Self {
                $fe::and_mask(self, choice.wrapping_neg())
            }
            fn or_assign_masked(&mut self, entry: &Self, choice: u64) {
                $fe::or_assign_masked(self, entry, choice.wrapping_neg())
            }
            fn conditional_negate(&self, choice: u64) -> Self {
                $fe::conditional_negate(self, choice)
            }
            fn edwards_d2() -> &'static Self {
                use std::sync::OnceLock;
                static D2: OnceLock<$fe> = OnceLock::new();
                D2.get_or_init(|| {
                    let d = <$fe as crate::field::FieldBackend>::edwards_d();
                    d.add(d)
                })
            }
        }

        impl crate::field::FieldLanes for $fe {
            fn splat(x: &crate::field::FieldElement) -> Self {
                $fe::from_limbs51(&x.to_limbs51())
            }
            fn is_negative(&self) -> u64 {
                $fe::is_negative(self) as u64
            }
            fn ct_eq(&self, other: &Self) -> u64 {
                $fe::ct_eq(self, other) as u64
            }
        }

        impl crate::field::FieldBackend for $fe {
            fn from_u64(x: u64) -> Self {
                $fe::from_u64(x)
            }
            fn from_bytes(bytes: &[u8; 32]) -> Self {
                $fe::from_bytes(bytes)
            }
            fn to_bytes(&self) -> [u8; 32] {
                $fe::to_bytes(self)
            }
            fn is_zero(&self) -> bool {
                $fe::is_zero(self)
            }
            fn invert(&self) -> Self {
                $fe::invert(self)
            }
            fn batch_invert(elements: &mut [Self]) {
                $fe::batch_invert(elements)
            }
            fn edwards_d() -> &'static Self {
                use std::sync::OnceLock;
                static D: OnceLock<$fe> = OnceLock::new();
                D.get_or_init(|| {
                    $fe::from_u64(121665)
                        .neg()
                        .mul(&$fe::from_u64(121666).invert())
                })
            }
        }
    };
}
pub(crate) use impl_field_shared;

/// Seals [`FieldArith`] (and so [`FieldBackend`]): the point
/// pipeline's invariants (the lazy-reduction bounds among them) are
/// only audited for the in-crate representations, so no foreign type
/// may implement the traits.
mod sealed {
    pub trait Sealed {}
    impl Sealed for super::fiat51::FieldElement {}
    impl Sealed for super::sat64::FieldElement {}
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512ifma",
        not(feature = "force-field51")
    ))]
    impl Sealed for super::ifma::F51x8 {}
}

/// One signed radix-16 digit per lane of a field representation: what
/// a masked table scan is driven by.  A single element's is an `i8`; the
/// eight-lane kernel's is a vector of eight, one scalar's digit per
/// lane, with the ladders that raise every lane to the *same* scalar as
/// its splat case (`From<i8>`).
///
/// Both questions are answered without a branch or an address that
/// depends on the digit: it is secret wherever the scalar is.
pub trait Digit: Copy + From<i8> {
    /// The per-lane boolean the answers come as
    /// ([`FieldArith::Choice`] of the representation scanned into).
    type Choice;
    /// `(digit < 0, |digit|)` per lane, for a digit in `[-8, 8]`.
    fn sign_abs(self) -> (Self::Choice, Self);
    /// `digit == j` per lane, for a non-negative digit.
    fn is(self, j: i8) -> Self::Choice;
}

impl Digit for i8 {
    type Choice = u64;

    #[inline(always)]
    fn sign_abs(self) -> (u64, i8) {
        let x = self as i16; // in [-8, 8]
        let xmask = x >> 15; // 0 if non-negative, -1 if negative
        let abs = (x + xmask) ^ xmask;
        debug_assert!((0..=8).contains(&abs));
        ((xmask & 1) as u64, abs as i8)
    }

    #[inline(always)]
    fn is(self, j: i8) -> u64 {
        // a ^ b is zero iff equal; (x - 1) underflows to all-ones iff
        // x == 0.
        ((self ^ j) as u8 as u64).wrapping_sub(1) >> 63
    }
}

/// The arithmetic the curve formulas in `edwards.rs` are written
/// against — everything that makes sense on *several field elements at
/// once*.  The two scalar backends implement it (via
/// `impl_field_shared!`, which delegates to the inherent methods) and
/// so does the eight-lane `ifma::F51x8` where it is compiled in, so
/// the tables, ladders and Straus loop instantiate over one element or
/// over eight in lockstep from the same source.
///
/// Selects and masks take a [`FieldArith::Choice`] — one boolean *per
/// lane*: a `u64` in `{0, 1}` for a single element, a k-mask for the
/// eight-lane type — and table scans a [`FieldArith::Digit`], so the
/// same scan serves a ladder whose digit stream is uniform across lanes
/// (every lane raised to one server key) and a walk whose digits differ
/// per lane (eight users' sealing scalars against one table).
///
/// The `lazy_*` and masked-scan methods are doc-hidden: they carry
/// per-backend contracts (see the module docs — on the 5×51 backend a
/// chain of lazy ops that exceeds the documented limb bounds silently
/// corrupts later multiplications in release builds) and their only
/// sound call sites are the curve formulas in `edwards.rs`, where the
/// bounds are established structurally and debug-asserted.
#[allow(missing_docs)] // mirror of the documented inherent methods
pub trait FieldArith:
    sealed::Sealed + Copy + Clone + std::fmt::Debug + Send + Sync + 'static
{
    /// One boolean per lane (`From<bool>` is the same one in every
    /// lane; XOR with `From(true)` negates every lane).
    type Choice: Copy
        + From<bool>
        + std::ops::BitOr<Output = Self::Choice>
        + std::ops::BitXor<Output = Self::Choice>;
    /// One signed radix-16 digit per lane.
    type Digit: Digit<Choice = Self::Choice>;
    const ZERO: Self;
    const ONE: Self;
    fn add(&self, rhs: &Self) -> Self;
    fn sub(&self, rhs: &Self) -> Self;
    fn neg(&self) -> Self;
    fn mul(&self, rhs: &Self) -> Self;
    fn square(&self) -> Self;
    fn square2(&self) -> Self;
    #[doc(hidden)]
    fn lazy_add(&self, rhs: &Self) -> Self;
    #[doc(hidden)]
    fn lazy_sub(&self, rhs: &Self) -> Self;
    #[doc(hidden)]
    fn lazy_sub_wide(&self, rhs: &Self) -> Self;
    /// `b` in the lanes where `choice` is set, `a` in the others.
    fn select(a: &Self, b: &Self, choice: Self::Choice) -> Self;
    /// `self` in the lanes where `choice` is set, zero in the others.
    #[doc(hidden)]
    fn and_mask(&self, choice: Self::Choice) -> Self;
    /// OR `entry` into the lanes where `choice` is set.
    #[doc(hidden)]
    fn or_assign_masked(&mut self, entry: &Self, choice: Self::Choice);
    fn conditional_negate(&self, choice: Self::Choice) -> Self;
    /// `2 * d` for the curve constant `d` (per-backend cached).
    fn edwards_d2() -> &'static Self;
}

/// A representation a masked table scan can select *into* from a table
/// held as `S` — the one scan behind every constant-time ladder
/// (`edwards.rs`'s `scan_row`).  A scan seeds its accumulator with one
/// candidate and merges the others, each under its own per-lane hit, of
/// which **exactly one is set in every lane**; no step branches on a
/// hit or forms an address from one.
///
/// Every representation scans from itself (AND under the hit, OR in).
/// The eight-lane type also scans from a table of *single* elements —
/// one table, a different entry chosen per lane — by broadcasting each
/// word of an entry and merging it under the hit's k-mask, in the
/// table's own limbs; only the selected entry is converted to lane
/// form ([`ScanFrom::scan_finish`]).
#[doc(hidden)]
pub trait ScanFrom<S>: FieldArith {
    /// The scan's accumulator.
    type Scan: Copy;
    fn scan_seed(entry: &S, hit: Self::Choice) -> Self::Scan;
    fn scan_merge(acc: &mut Self::Scan, entry: &S, hit: Self::Choice);
    fn scan_finish(acc: Self::Scan) -> Self;
}

impl<F: FieldArith> ScanFrom<F> for F {
    type Scan = F;
    #[inline(always)]
    fn scan_seed(entry: &F, hit: F::Choice) -> F {
        entry.and_mask(hit)
    }
    #[inline(always)]
    fn scan_merge(acc: &mut F, entry: &F, hit: F::Choice) {
        acc.or_assign_masked(entry, hit);
    }
    #[inline(always)]
    fn scan_finish(acc: F) -> F {
        acc
    }
}

/// The lane-mask tier: [`FieldArith`] plus the questions whose answer
/// is one boolean *per lane* — sign and equality, which need a
/// canonical form — and what is built from them: `abs`, the
/// `(p-5)/8` exponentiation tower and the Ristretto square-root
/// convention.  Written once here, they run on one element (where the
/// [`FieldArith::Choice`] is a `u64` the inherent wrappers turn into a
/// `bool`) or on eight per inverse square root, each lane taking its
/// own side of every select; nothing branches on a choice, so the
/// inputs may be secret.
pub trait FieldLanes: FieldArith {
    /// `x` in every lane.
    fn splat(x: &FieldElement) -> Self;

    /// Per lane: the canonical encoding's low bit is set (the
    /// "negative" convention used by Ristretto).
    fn is_negative(&self) -> Self::Choice;

    /// Per lane: equal as field elements.
    fn ct_eq(&self, other: &Self) -> Self::Choice;

    /// Absolute value: negate the negative lanes.
    fn abs(&self) -> Self {
        self.conditional_negate(self.is_negative())
    }

    /// Square `k` times: returns `self^(2^k)`.
    fn pow2k(&self, k: u32) -> Self {
        debug_assert!(k > 0);
        let mut out = self.square();
        for _ in 1..k {
            out = out.square();
        }
        out
    }

    /// Shared tower for inversion and `pow_p58`: returns
    /// `(self^(2^250 - 1), self^11)`.
    #[doc(hidden)]
    fn pow22501(&self) -> (Self, Self) {
        let t0 = self.square(); // 2
        let t1 = t0.square().square(); // 8
        let t2 = self.mul(&t1); // 9
        let t3 = t0.mul(&t2); // 11
        let t4 = t3.square(); // 22
        let t5 = t2.mul(&t4); // 2^5 - 1
        let t6 = t5.pow2k(5); // 2^10 - 2^5
        let t7 = t6.mul(&t5); // 2^10 - 1
        let t8 = t7.pow2k(10); // 2^20 - 2^10
        let t9 = t8.mul(&t7); // 2^20 - 1
        let t10 = t9.pow2k(20); // 2^40 - 2^20
        let t11 = t10.mul(&t9); // 2^40 - 1
        let t12 = t11.pow2k(10); // 2^50 - 2^10
        let t13 = t12.mul(&t7); // 2^50 - 1
        let t14 = t13.pow2k(50); // 2^100 - 2^50
        let t15 = t14.mul(&t13); // 2^100 - 1
        let t16 = t15.pow2k(100); // 2^200 - 2^100
        let t17 = t16.mul(&t15); // 2^200 - 1
        let t18 = t17.pow2k(50); // 2^250 - 2^50
        let t19 = t18.mul(&t13); // 2^250 - 1
        (t19, t3)
    }

    /// `self^((p-5)/8) = self^(2^252 - 3)`, used by `sqrt_ratio_i`.
    #[doc(hidden)]
    fn pow_p58(&self) -> Self {
        let (t19, _) = self.pow22501();
        let t20 = t19.pow2k(2); // 2^252 - 4
        self.mul(&t20) // 2^252 - 3
    }

    /// Computes `sqrt(u/v)` in the Ristretto convention, per lane.
    ///
    /// Returns `(was_square, r)` where:
    /// - if `u/v` is square, `was_square` is set and `r = +sqrt(u/v)`;
    /// - if `u/v` is non-square, `was_square` is clear and
    ///   `r = +sqrt(i*u/v)` (where `i = sqrt(-1)`);
    /// - if `u = 0`, returns `(set, 0)`; if `v = 0` (and `u != 0`),
    ///   returns `(clear, 0)`.
    ///
    /// `r` is always non-negative.
    fn sqrt_ratio_i(u: &Self, v: &Self) -> (Self::Choice, Self) {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let r = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let check = v.mul(&r.square());

        let i = Self::splat(FieldElement::sqrt_m1());
        let neg_u = u.neg();
        let correct_sign = check.ct_eq(u);
        let flipped_sign = check.ct_eq(&neg_u);
        let flipped_sign_i = check.ct_eq(&neg_u.mul(&i));

        let r = Self::select(&r, &i.mul(&r), flipped_sign | flipped_sign_i);
        (correct_sign | flipped_sign, r.abs())
    }

    /// `1/sqrt(self)` (Ristretto convention; see `sqrt_ratio_i`).
    fn invsqrt(&self) -> (Self::Choice, Self) {
        Self::sqrt_ratio_i(&Self::ONE, self)
    }
}

/// A *single* field element: [`FieldLanes`] with one lane, plus what
/// only makes sense per element — encodings, inversion, zero tests.
/// Both scalar backends implement it, so point arithmetic — and
/// therefore the hop kernel — can be instantiated over *either*
/// representation in the same build; the cross-backend benches and
/// differential tests rely on exactly that.  Outside of those
/// harnesses, use the [`FieldElement`] alias and its inherent methods.
#[allow(missing_docs)] // mirror of the documented inherent methods
pub trait FieldBackend: FieldLanes<Choice = u64, Digit = i8> + PartialEq + Eq {
    fn from_u64(x: u64) -> Self;
    fn from_bytes(bytes: &[u8; 32]) -> Self;
    fn to_bytes(&self) -> [u8; 32];
    fn is_zero(&self) -> bool;
    fn invert(&self) -> Self;
    fn batch_invert(elements: &mut [Self]);
    /// The curve constant `d = -121665/121666` (per-backend cached).
    fn edwards_d() -> &'static Self;
}

pub mod fiat51;
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma",
    not(feature = "force-field51")
))]
pub mod ifma;
pub mod sat64;

/// True when this build selects the portable 5×51 backend.
#[cfg(any(
    feature = "force-field51",
    all(
        not(feature = "force-field64"),
        not(all(
            target_arch = "x86_64",
            target_feature = "bmi2",
            target_feature = "adx"
        ))
    )
))]
pub use fiat51::FieldElement;

/// True when this build selects the 4×64 saturated backend.
#[cfg(not(any(
    feature = "force-field51",
    all(
        not(feature = "force-field64"),
        not(all(
            target_arch = "x86_64",
            target_feature = "bmi2",
            target_feature = "adx"
        ))
    )
)))]
pub use sat64::FieldElement;

/// What this build compiled in: the scalar backend [`FieldElement`]
/// aliases, then `+ifma8` when the eight-lane kernel (`field::ifma`) is
/// built beside it and the batch entry points
/// ([`GroupElement::batch_mul_pair`](crate::GroupElement::batch_mul_pair),
/// [`GroupElement::batch_vartime_mul`](crate::GroupElement::batch_vartime_mul),
/// [`GroupElement::base_mul_all`](crate::GroupElement::base_mul_all),
/// [`GroupElement::encode_all`](crate::GroupElement::encode_all),
/// [`GroupElement::decode_all`](crate::GroupElement::decode_all))
/// run on it.
pub const FIELD_BACKEND: &str = if cfg!(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma",
    not(feature = "force-field51")
)) {
    FieldElement::BACKEND_NAME_WITH_LANES
} else {
    FieldElement::BACKEND_NAME
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    fn fe(n: u64) -> FieldElement {
        FieldElement::from_u64(n)
    }

    /// `FIELD_BACKEND` names the build: the scalar backend selected,
    /// `+ifma8` exactly when the lane module is compiled in.  Printed
    /// so a CI log says which kernel a cell tested (`-- --nocapture`).
    #[test]
    fn field_backend_names_the_build() {
        println!("FIELD_BACKEND = {FIELD_BACKEND}");
        let lanes = cfg!(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512ifma",
            not(feature = "force-field51")
        ));
        if !lanes {
            println!("lane kernel not built (needs avx512f + avx512ifma, no force-field51)");
        }
        assert!(FIELD_BACKEND.starts_with(FieldElement::BACKEND_NAME));
        assert_eq!(FIELD_BACKEND.ends_with("+ifma8"), lanes);
    }

    #[test]
    fn one_plus_one() {
        assert_eq!(fe(1).add(&fe(1)), fe(2));
    }

    #[test]
    fn sub_wraps_mod_p() {
        // 0 - 1 = p - 1
        let p_minus_1 = fe(0).sub(&fe(1));
        // p - 1 = 2^255 - 20: little-endian bytes ec ff .. ff 7f
        let mut expect = [0xffu8; 32];
        expect[0] = 0xec;
        expect[31] = 0x7f;
        assert_eq!(p_minus_1.to_bytes(), expect);
    }

    #[test]
    fn to_bytes_is_canonical_for_p() {
        // p itself must encode as zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = FieldElement::from_bytes(&p_bytes);
        assert_eq!(p.to_bytes(), [0u8; 32]);
        assert!(p.is_zero());
    }

    #[test]
    fn mul_small() {
        assert_eq!(fe(3).mul(&fe(7)), fe(21));
        assert_eq!(fe(0).mul(&fe(7)), fe(0));
    }

    #[test]
    fn mul_matches_square() {
        let x = fe(0xdead_beef_cafe);
        assert_eq!(x.mul(&x), x.square());
    }

    #[test]
    fn square2_is_twice_square() {
        let x = fe(0x1234_5678_9abc_def0);
        assert_eq!(x.square2(), x.square().add(&x.square()));
    }

    #[test]
    fn invert_roundtrip() {
        let x = fe(1234567);
        let xinv = x.invert();
        assert_eq!(x.mul(&xinv), FieldElement::ONE);
    }

    #[test]
    fn invert_zero_is_zero() {
        assert_eq!(FieldElement::ZERO.invert(), FieldElement::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::sqrt_m1();
        assert_eq!(i.square(), FieldElement::ONE.neg());
        assert!(!i.is_negative());
    }

    #[test]
    fn sqrt_m1_matches_rfc_draft_value() {
        // draft-irtf-cfrg-ristretto255-decaf448: SQRT_M1 =
        // 19681161376707505956807079304988542015446066515923890162744021073123829784752
        // little-endian hex:
        let expect = from_hex("b0a00e4a271beec478e42fad0618432fa7d7fb3d99004d2b0bdfc14f8024832b");
        assert_eq!(to_hex(&FieldElement::sqrt_m1().to_bytes()), to_hex(&expect));
    }

    #[test]
    fn sqrt_ratio_of_square() {
        let u = fe(4);
        let v = fe(1);
        let (ok, r) = FieldElement::sqrt_ratio_i(&u, &v);
        assert!(ok);
        assert_eq!(r.square(), u);
        assert!(!r.is_negative());
    }

    #[test]
    fn sqrt_ratio_zero_u() {
        let (ok, r) = FieldElement::sqrt_ratio_i(&FieldElement::ZERO, &fe(7));
        assert!(ok);
        assert!(r.is_zero());
    }

    #[test]
    fn sqrt_ratio_zero_v() {
        let (ok, r) = FieldElement::sqrt_ratio_i(&fe(7), &FieldElement::ZERO);
        assert!(!ok);
        assert!(r.is_zero());
    }

    #[test]
    fn sqrt_ratio_nonsquare() {
        // 2 is a non-residue mod p (p = 5 mod 8), so sqrt_ratio(2, 1) must
        // report non-square and return sqrt(2*i).
        let (ok, r) = FieldElement::sqrt_ratio_i(&fe(2), &FieldElement::ONE);
        assert!(!ok);
        let i = FieldElement::sqrt_m1();
        assert_eq!(r.square(), fe(2).mul(i));
    }

    #[test]
    fn abs_is_non_negative() {
        let x = fe(0).sub(&fe(5));
        assert!(!x.abs().is_negative());
        // abs(-x) * abs(-x) = x^2
        assert_eq!(x.abs().square(), x.square());
    }

    #[test]
    fn select_picks_correctly() {
        let a = fe(1);
        let b = fe(2);
        assert_eq!(FieldElement::select(&a, &b, 0), a);
        assert_eq!(FieldElement::select(&a, &b, 1), b);
    }

    #[test]
    fn from_bytes_ignores_top_bit() {
        let mut b = [0u8; 32];
        b[31] = 0x80;
        assert!(FieldElement::from_bytes(&b).is_zero());
    }

    #[test]
    fn distributivity_spot_check() {
        let a = fe(0x1234_5678_9abc);
        let b = fe(0xfedc_ba98);
        let c = fe(0x1111_2222_3333);
        let left = a.mul(&b.add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert_eq!(left, right);
    }
}
