//! The eight-lane AVX-512 IFMA representation: eight field elements as
//! five radix-2^51 limbs in five `__m512i`, lane `i` of every vector
//! belonging to element `i`.
//!
//! This is not a third choice for [`FieldElement`] — it has no bytes
//! and no inversion — but a [`FieldArith`], so the tables and ladders
//! of `edwards.rs` instantiate over it unchanged and run eight points
//! in lockstep, and a [`FieldLanes`], so the Ristretto encode and
//! decode do too.
//! It is vertical SIMD throughout: one instruction stream for all
//! lanes, and where lanes differ — each its own table digit
//! ([`Digits8`]), its own sign, its own side of a select — they differ
//! by a k-mask ([`LaneMask`]) on an instruction every lane executes.
//! Nothing is ever gathered or branched on per lane.
//!
//! **Compiled only where `avx512f` and `avx512ifma` are statically
//! enabled** (the `cfg` on `pub mod ifma` in `field/mod.rs`; the
//! workspace's `-C target-cpu=native` turns them on where the host has
//! them).  There
//! is no runtime detection: every intrinsic call below is sound because
//! the instruction it names is part of the compilation target.
//!
//! ## The one rule: every op returns tight limbs
//!
//! `vpmadd52{lo,hi}uq` multiply the **low 52 bits** of each operand
//! lane, so a multiplier input must have limbs below 2^52.  Rather
//! than track how far additive ops may drift before the next multiply
//! (the 5×51 scalar backend's lazy contract), every operation here
//! ends in one parallel carry pass and returns limbs below
//! `2^51 + 2^18`.  Every value is therefore a valid input to every
//! op, the `lazy_*` entry points are plain `add`/`sub` (as on the
//! saturated backend), and the only bound to check is the one
//! `debug_assert!`ed at `mul`/`square` entry.
//!
//! ## Multiplication
//!
//! For radix 2^51 a 104-bit partial product `a_i·b_j = lo + 2^52·hi`
//! puts `lo` at `z[i+j]` and `hi`, one bit too high for the next limb,
//! **doubled** at `z[i+j+1]`.  With inputs below 2^52 every `lo`/`hi`
//! is below 2^52, a column sums at most 5 + 2·5 = 15 of them (< 2^56),
//! the fold `z[m] + 19·z[m+5]` (2^255 ≡ 19, by shift-and-add — the
//! columns are too wide for another 52-bit multiply) stays below 2^61,
//! and the carry pass brings that back to tight.

use std::arch::x86_64::*;
use std::sync::OnceLock;

use super::{fiat51, Digit, FieldArith, FieldElement, FieldLanes, ScanFrom};

/// Eight field elements, one per 64-bit lane (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct F51x8([__m512i; 5]);

const LOW_51: u64 = (1 << 51) - 1;

/// `4p` in radix-2^51 limbs: added before a subtraction so no lane of
/// no limb underflows for any tight subtrahend (`2^53 - 76 > 2^52`).
const FOUR_P: [__m512i; 5] = [
    splat(4 * (LOW_51 - 18)),
    splat(4 * LOW_51),
    splat(4 * LOW_51),
    splat(4 * LOW_51),
    splat(4 * LOW_51),
];

// ---------------------------------------------------------------------
// The intrinsics.  Every `unsafe` in the crate's lane kernel is in this
// block: one wrapper per instruction, safe to call because the module
// only exists where the instruction does.
// ---------------------------------------------------------------------

#[inline(always)]
const fn from_array(lanes: [u64; 8]) -> __m512i {
    // SAFETY: `[u64; 8]` and `__m512i` are both 64 bytes of plain
    // integers; every bit pattern is valid for either.
    unsafe { std::mem::transmute(lanes) }
}

#[inline(always)]
fn to_array(v: __m512i) -> [u64; 8] {
    // SAFETY: as `from_array`, in the other direction.
    unsafe { std::mem::transmute(v) }
}

#[inline(always)]
const fn splat(x: u64) -> __m512i {
    from_array([x; 8])
}

#[inline(always)]
fn add(a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: `vpaddq` is AVX-512F, which `cfg(target_feature =
    // "avx512f")` on this module guarantees.
    unsafe { _mm512_add_epi64(a, b) }
}

#[inline(always)]
fn sub(a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: `vpsubq` is AVX-512F (module `cfg`).
    unsafe { _mm512_sub_epi64(a, b) }
}

#[inline(always)]
fn and(a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: `vpandq` is AVX-512F (module `cfg`).
    unsafe { _mm512_and_si512(a, b) }
}

#[inline(always)]
fn shl<const N: u32>(a: __m512i) -> __m512i {
    // SAFETY: `vpsllq` is AVX-512F (module `cfg`).
    unsafe { _mm512_slli_epi64::<N>(a) }
}

#[inline(always)]
fn shr<const N: u32>(a: __m512i) -> __m512i {
    // SAFETY: `vpsrlq` is AVX-512F (module `cfg`).
    unsafe { _mm512_srli_epi64::<N>(a) }
}

/// `acc + low 52 bits of (a mod 2^52)·(b mod 2^52)`, per lane.
#[inline(always)]
fn madd_lo(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: `vpmadd52luq` is AVX-512 IFMA, which `cfg(target_feature
    // = "avx512ifma")` on this module guarantees.
    unsafe { _mm512_madd52lo_epu64(acc, a, b) }
}

/// `acc + bits 52..104 of (a mod 2^52)·(b mod 2^52)`, per lane.
#[inline(always)]
fn madd_hi(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: `vpmadd52huq` is AVX-512 IFMA (module `cfg`).
    unsafe { _mm512_madd52hi_epu64(acc, a, b) }
}

/// `b` where `k` is set, else `a`.
#[inline(always)]
fn blend(k: __mmask8, a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: `vpblendmq` is AVX-512F (module `cfg`).
    unsafe { _mm512_mask_blend_epi64(k, a, b) }
}

/// `a` where `k` is set, else zero.
#[inline(always)]
fn keep(k: __mmask8, a: __m512i) -> __m512i {
    // SAFETY: masked `vmovdqa64` is AVX-512F (module `cfg`).
    unsafe { _mm512_maskz_mov_epi64(k, a) }
}

/// `a | b` where `k` is set, else `a`.
#[inline(always)]
fn or_under(k: __mmask8, a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: masked `vporq` is AVX-512F (module `cfg`).
    unsafe { _mm512_mask_or_epi64(a, k, a, b) }
}

/// True iff every lane is below 2^52.
#[inline(always)]
fn below_2_52(a: __m512i) -> bool {
    // SAFETY: `vpcmpuq` is AVX-512F (module `cfg`).
    unsafe { _mm512_cmplt_epu64_mask(a, splat(1 << 52)) == 0xff }
}

/// `x` in the lanes where `k` is set, `a` in the others (a masked
/// `vpbroadcastq`: no lane index ever forms an address).
#[inline(always)]
fn broadcast_under(k: __mmask8, a: __m512i, x: u64) -> __m512i {
    // SAFETY: masked `vpbroadcastq` is AVX-512F (module `cfg`).
    unsafe { _mm512_mask_set1_epi64(a, k, x as i64) }
}

/// `a | b`.
#[inline(always)]
fn or(a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: `vporq` is AVX-512F (module `cfg`).
    unsafe { _mm512_or_si512(a, b) }
}

/// `|a|` per signed 64-bit lane.
#[inline(always)]
fn abs_i64(a: __m512i) -> __m512i {
    // SAFETY: `vpabsq` is AVX-512F (module `cfg`).
    unsafe { _mm512_abs_epi64(a) }
}

/// The lanes where `a == b`.
#[inline(always)]
fn eq_lanes(a: __m512i, b: __m512i) -> __mmask8 {
    // SAFETY: `vpcmpeqq` into a mask is AVX-512F (module `cfg`).
    unsafe { _mm512_cmpeq_epi64_mask(a, b) }
}

/// The lanes where `a < 0` as a signed 64-bit integer.
#[inline(always)]
fn negative_lanes(a: __m512i) -> __mmask8 {
    // SAFETY: `vpcmpq` is AVX-512F (module `cfg`).
    unsafe { _mm512_cmplt_epi64_mask(a, splat(0)) }
}

/// The lanes where `a & b != 0`.
#[inline(always)]
fn test_lanes(a: __m512i, b: __m512i) -> __mmask8 {
    // SAFETY: `vptestmq` is AVX-512F (module `cfg`).
    unsafe { _mm512_test_epi64_mask(a, b) }
}

// ---------------------------------------------------------------------
// Arithmetic, in safe code over the wrappers.
// ---------------------------------------------------------------------

/// One boolean per lane, bit `i` for lane `i`: [`F51x8`]'s
/// [`FieldArith::Choice`].  Only ever an operand of a masked
/// instruction — never tested, never an index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneMask(pub __mmask8);

impl From<bool> for LaneMask {
    /// The same boolean in every lane.
    #[inline(always)]
    fn from(all: bool) -> LaneMask {
        LaneMask((all as u8).wrapping_neg())
    }
}

impl std::ops::BitOr for LaneMask {
    type Output = LaneMask;
    #[inline(always)]
    fn bitor(self, rhs: LaneMask) -> LaneMask {
        LaneMask(self.0 | rhs.0)
    }
}

impl std::ops::BitXor for LaneMask {
    type Output = LaneMask;
    #[inline(always)]
    fn bitxor(self, rhs: LaneMask) -> LaneMask {
        LaneMask(self.0 ^ rhs.0)
    }
}

/// Eight signed radix-16 digits, lane `i`'s sign-extended into 64-bit
/// lane `i`: [`F51x8`]'s [`FieldArith::Digit`].
#[derive(Clone, Copy, Debug)]
pub struct Digits8(__m512i);

impl Digits8 {
    /// Lane `i` scans for `digits[i]`.
    #[inline(always)]
    pub fn from_lanes(digits: [i8; 8]) -> Digits8 {
        Digits8(from_array(digits.map(|d| d as i64 as u64)))
    }
}

impl From<i8> for Digits8 {
    /// Every lane scans for `d`: a ladder whose lanes share a scalar.
    #[inline(always)]
    fn from(d: i8) -> Digits8 {
        Digits8(splat(d as i64 as u64))
    }
}

impl Digit for Digits8 {
    type Choice = LaneMask;

    #[inline(always)]
    fn sign_abs(self) -> (LaneMask, Digits8) {
        (LaneMask(negative_lanes(self.0)), Digits8(abs_i64(self.0)))
    }

    #[inline(always)]
    fn is(self, j: i8) -> LaneMask {
        LaneMask(eq_lanes(self.0, splat(j as u64)))
    }
}

/// One parallel carry pass: every limb keeps its low 51 bits and takes
/// its lower neighbour's overflow, limb 4's re-entering limb 0 times 19
/// (2^255 ≡ 19).  Any input comes back tight: an overflow is below
/// 2^13, so limbs 1–4 end below `2^51 + 2^13` and limb 0 below
/// `2^51 + 19·2^13`.
#[inline(always)]
fn carry(r: [__m512i; 5]) -> F51x8 {
    let low = splat(LOW_51);
    let over = r.map(shr::<51>);
    F51x8([
        // 19·over < 2^18, so the low 52 bits are the whole product.
        madd_lo(and(r[0], low), over[4], splat(19)),
        add(and(r[1], low), over[0]),
        add(and(r[2], low), over[1]),
        add(and(r[3], low), over[2]),
        add(and(r[4], low), over[3]),
    ])
}

/// Fold the ten columns of a product onto five: `z[m] + 19·z[m+5]`.
/// Columns are below 2^56 (module docs), the result below 2^61.
#[inline(always)]
fn fold(z: [__m512i; 10]) -> [__m512i; 5] {
    std::array::from_fn(|m| {
        let h = z[m + 5];
        add(add(z[m], h), add(shl::<1>(h), shl::<4>(h)))
    })
}

impl F51x8 {
    /// Lane `i` holds the element whose radix-2^51 limbs are
    /// `lanes[i]`, each below 2^52 (what the scalar backends'
    /// `to_limbs51` return).
    pub fn from_lanes(lanes: &[[u64; 5]; 8]) -> F51x8 {
        let out = F51x8(std::array::from_fn(|k| {
            from_array(std::array::from_fn(|i| lanes[i][k]))
        }));
        debug_assert!(out.is_tight(), "lane limbs must be below 2^52");
        out
    }

    /// The radix-2^51 limbs of every lane, each below 2^52 (what the
    /// scalar backends' `from_limbs51` accept).
    pub fn to_lanes(&self) -> [[u64; 5]; 8] {
        let limbs = self.0.map(to_array);
        std::array::from_fn(|i| std::array::from_fn(|k| limbs[k][i]))
    }

    /// True iff every limb of every lane is below 2^52 — the multiplier
    /// input bound, which every op's output satisfies.
    fn is_tight(&self) -> bool {
        self.0.iter().all(|&limb| below_2_52(limb))
    }

    /// Every lane's unique representative in `[0, p)`, limbs below
    /// 2^51 — what sign and equality are read off.  Straight-line: a
    /// sequential carry chain brings any tight value below `2^255 + 38`
    /// (< 2p), a second one computes whether it reaches `p` (the carry
    /// out of `value + 19` at bit 255), and a third adds `19` times
    /// that and drops bit 255.
    #[inline(always)]
    fn canonical(&self) -> [__m512i; 5] {
        debug_assert!(self.is_tight());
        let low = splat(LOW_51);
        // l[k] += c; c = l[k] >> 51; l[k] &= low, for k = 0..5.
        let ripple = |l: &mut [__m512i; 5], mut c: __m512i| {
            for limb in l.iter_mut() {
                let t = add(*limb, c);
                c = shr::<51>(t);
                *limb = and(t, low);
            }
            c
        };
        let mut l = self.0;
        let top = ripple(&mut l, splat(0));
        // 2^255 ≡ 19; `top` is at most 2, so limb 0 stays below
        // 2^51 + 38 and the value below 2^255 + 38.
        l[0] = madd_lo(l[0], top, splat(19));
        let mut q = splat(19);
        for limb in l {
            q = shr::<51>(add(limb, q));
        }
        // q = 1 exactly where the value is at least p.
        let nineteen_q = madd_lo(splat(0), q, splat(19));
        ripple(&mut l, nineteen_q);
        l
    }

    /// The five folded (pre-carry) columns of a squaring.  Each
    /// off-diagonal product `a_i·a_j`, `i < j`, is taken once and its
    /// column share doubled by shifting (an operand cannot be doubled
    /// up front: `2·a_i` may need 53 bits): with `ol`/`oh` the
    /// off-diagonal lo/hi sums and `dl`/`dh` the diagonal ones,
    /// `z[k] = dl[k] + 2·(ol[k] + dh[k-1] + 2·oh[k-1])` — the same
    /// columns as `mul(self, self)` from 30 multiplies instead of 50.
    #[inline(always)]
    fn square_columns(&self) -> [__m512i; 5] {
        debug_assert!(self.is_tight());
        let a = &self.0;
        let zero = splat(0);
        let mut ol = [zero; 10];
        // Stored one column up, where the hi halves land.
        let mut oh = [zero; 10];
        for i in 0..5 {
            for j in i + 1..5 {
                ol[i + j] = madd_lo(ol[i + j], a[i], a[j]);
                oh[i + j + 1] = madd_hi(oh[i + j + 1], a[i], a[j]);
            }
        }
        fold(std::array::from_fn(|k| {
            let d = a[k / 2];
            let mut t = add(ol[k], shl::<1>(oh[k]));
            if k % 2 == 1 {
                t = madd_hi(t, d, d);
            }
            t = shl::<1>(t);
            if k % 2 == 0 {
                t = madd_lo(t, d, d);
            }
            t
        }))
    }
}

impl super::sealed::Sealed for F51x8 {}

impl FieldArith for F51x8 {
    type Choice = LaneMask;
    type Digit = Digits8;
    const ZERO: F51x8 = F51x8([splat(0); 5]);
    const ONE: F51x8 = F51x8([splat(1), splat(0), splat(0), splat(0), splat(0)]);

    #[inline(always)]
    fn add(&self, rhs: &F51x8) -> F51x8 {
        carry(std::array::from_fn(|k| add(self.0[k], rhs.0[k])))
    }

    #[inline(always)]
    fn sub(&self, rhs: &F51x8) -> F51x8 {
        carry(std::array::from_fn(|k| {
            sub(add(self.0[k], FOUR_P[k]), rhs.0[k])
        }))
    }

    #[inline(always)]
    fn neg(&self) -> F51x8 {
        F51x8::ZERO.sub(self)
    }

    #[inline(never)]
    fn mul(&self, rhs: &F51x8) -> F51x8 {
        debug_assert!(self.is_tight() && rhs.is_tight());
        let (a, b) = (&self.0, &rhs.0);
        let zero = splat(0);
        let mut lo = [zero; 10];
        // Stored one column up, where the hi halves land.
        let mut hi = [zero; 10];
        for i in 0..5 {
            for j in 0..5 {
                lo[i + j] = madd_lo(lo[i + j], a[i], b[j]);
                hi[i + j + 1] = madd_hi(hi[i + j + 1], a[i], b[j]);
            }
        }
        carry(fold(std::array::from_fn(|k| add(lo[k], shl::<1>(hi[k])))))
    }

    #[inline(never)]
    fn square(&self) -> F51x8 {
        carry(self.square_columns())
    }

    /// `2·self²` in one carry pass: the folded columns (< 2^61) are
    /// doubled before propagation.
    #[inline(never)]
    fn square2(&self) -> F51x8 {
        carry(self.square_columns().map(shl::<1>))
    }

    // Eager, like the saturated backend's: see the module docs.
    #[inline(always)]
    fn lazy_add(&self, rhs: &F51x8) -> F51x8 {
        self.add(rhs)
    }

    #[inline(always)]
    fn lazy_sub(&self, rhs: &F51x8) -> F51x8 {
        self.sub(rhs)
    }

    #[inline(always)]
    fn lazy_sub_wide(&self, rhs: &F51x8) -> F51x8 {
        self.sub(rhs)
    }

    #[inline(always)]
    fn select(a: &F51x8, b: &F51x8, choice: LaneMask) -> F51x8 {
        F51x8(std::array::from_fn(|i| blend(choice.0, a.0[i], b.0[i])))
    }

    #[inline(always)]
    fn and_mask(&self, choice: LaneMask) -> F51x8 {
        F51x8(self.0.map(|limb| keep(choice.0, limb)))
    }

    #[inline(always)]
    fn or_assign_masked(&mut self, entry: &F51x8, choice: LaneMask) {
        for (limb, e) in self.0.iter_mut().zip(&entry.0) {
            *limb = or_under(choice.0, *limb, *e);
        }
    }

    #[inline(always)]
    fn conditional_negate(&self, choice: LaneMask) -> F51x8 {
        F51x8::select(self, &self.neg(), choice)
    }

    fn edwards_d2() -> &'static F51x8 {
        static D2: OnceLock<F51x8> = OnceLock::new();
        D2.get_or_init(|| F51x8::splat(<FieldElement as FieldArith>::edwards_d2()))
    }
}

impl FieldLanes for F51x8 {
    fn splat(x: &FieldElement) -> F51x8 {
        F51x8(x.to_limbs51().map(splat))
    }

    #[inline(always)]
    fn is_negative(&self) -> LaneMask {
        LaneMask(test_lanes(self.canonical()[0], splat(1)))
    }

    #[inline(always)]
    fn ct_eq(&self, other: &F51x8) -> LaneMask {
        let [d0, d1, d2, d3, d4] = self.sub(other).canonical();
        LaneMask(eq_lanes(or(or(d0, d1), or(or(d2, d3), d4)), splat(0)))
    }
}

// ---------------------------------------------------------------------
// Scanning a table of single elements: one table, a different entry
// chosen in every lane.  The accumulator is `N` vectors of the table
// backend's own words, eight candidates side by side; each word of an
// entry is broadcast and merged under the hit's k-mask (every entry of
// a row is read, in order, whatever the digits), and only the selected
// entry is converted to lane form.
// ---------------------------------------------------------------------

#[inline(always)]
fn seed_words<const N: usize>(words: &[u64; N], hit: LaneMask) -> [__m512i; N] {
    words.map(|w| broadcast_under(hit.0, splat(0), w))
}

#[inline(always)]
fn merge_words<const N: usize>(acc: &mut [__m512i; N], words: &[u64; N], hit: LaneMask) {
    for (a, &w) in acc.iter_mut().zip(words) {
        *a = broadcast_under(hit.0, *a, w);
    }
}

// Wherever `sat64` is compiled (the gate on `pub mod sat64`).
#[cfg(all(
    target_feature = "bmi2",
    target_feature = "adx",
    target_feature = "avx2"
))]
impl ScanFrom<super::sat64::FieldElement> for F51x8 {
    type Scan = [__m512i; 4];

    #[inline(always)]
    fn scan_seed(entry: &super::sat64::FieldElement, hit: LaneMask) -> Self::Scan {
        seed_words(&entry.0, hit)
    }

    #[inline(always)]
    fn scan_merge(acc: &mut Self::Scan, entry: &super::sat64::FieldElement, hit: LaneMask) {
        merge_words(acc, &entry.0, hit);
    }

    /// `sat64::FieldElement::to_limbs51`, eight at a time: pure shifts,
    /// the top limb keeping the representation's bits 204..255.
    #[inline(always)]
    fn scan_finish(l: Self::Scan) -> F51x8 {
        let low = splat(LOW_51);
        F51x8([
            and(l[0], low),
            and(or(shr::<51>(l[0]), shl::<13>(l[1])), low),
            and(or(shr::<38>(l[1]), shl::<26>(l[2])), low),
            and(or(shr::<25>(l[2]), shl::<39>(l[3])), low),
            shr::<12>(l[3]),
        ])
    }
}

impl ScanFrom<fiat51::FieldElement> for F51x8 {
    type Scan = [__m512i; 5];

    #[inline(always)]
    fn scan_seed(entry: &fiat51::FieldElement, hit: LaneMask) -> Self::Scan {
        seed_words(&entry.0, hit)
    }

    #[inline(always)]
    fn scan_merge(acc: &mut Self::Scan, entry: &fiat51::FieldElement, hit: LaneMask) {
        merge_words(acc, &entry.0, hit);
    }

    /// `fiat51::FieldElement::to_limbs51`, eight at a time: one carry
    /// pass over limbs that may still hold postponed carries.
    #[inline(always)]
    fn scan_finish(limbs: Self::Scan) -> F51x8 {
        carry(limbs)
    }
}
