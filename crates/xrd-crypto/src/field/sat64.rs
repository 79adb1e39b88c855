//! The 4×64 saturated-limb backend.
//!
//! Elements are four full-width 64-bit limbs; the representation
//! invariant is simply *value < 2^256* (any bit pattern is a valid
//! input to every op).  Arithmetic works mod `2^256 - 38 = 2p`: every
//! carry or borrow out of the top limb folds back as `±38` into limb 0
//! (`2^256 ≡ 38 (mod p)`), and only `to_bytes` performs the final
//! canonical reduction into `[0, p)`.
//!
//! Add, sub, mul and square are inline `asm!` for x86-64 with BMI2+ADX
//! (`mulx` full 64×64 multiplies, `adcx`/`adox` dual carry chains — the
//! saturated representation exists to exploit exactly these
//! instructions), and selects and masks are AVX2.  The module is
//! compiled exactly where all three are enabled at compile time
//! (`-C target-cpu=native` on the reference host; see `field/mod.rs`),
//! so it has no portable path: the 5×51 backend is what every other
//! target runs, and the oracle the kernels here are tested against.
//!
//! Unlike the 5×51 backend there are no spare bits to postpone carries
//! into, so the `lazy_*` entry points reduce eagerly — additions here
//! are cheap (4 adds + a 38-fold) and the point formulas in
//! `edwards.rs` remain correct under strict reduction (lazy reduction
//! is an optimization contract, not a semantic one; see
//! `field/mod.rs`).

use crate::util::load_u64_le;

/// An element of GF(2^255 - 19) as four saturated 64-bit limbs
/// (little-endian limb order), reduced only mod `2^256 - 38`.
#[derive(Clone, Copy, Debug)]
pub struct FieldElement(pub(crate) [u64; 4]);

/// Mask clearing bit 255 (the top bit of limb 3).
const TOP_BIT_CLEAR: u64 = (1u64 << 63) - 1;

/// Fold a carry out of limb 3 back into the value: `value + carry*2^256
/// ≡ value + 38*carry (mod p)`.  A second wrap is only possible when
/// the pre-fold value was within `38*carry` of `2^256`; limb 0 is then
/// tiny, so the final 38-add cannot carry again.
#[inline(always)]
fn fold_carry(mut l: [u64; 4], carry: u64) -> [u64; 4] {
    let mut acc = (l[0] as u128) + (carry as u128) * 38;
    l[0] = acc as u64;
    acc >>= 64;
    for i in 1..4 {
        acc += l[i] as u128;
        l[i] = acc as u64;
        acc >>= 64;
    }
    l[0] = l[0].wrapping_add(38 * (acc as u64));
    l
}

/// x86-64 BMI2+ADX kernels: `mulx` for full 64×64→128 products with
/// untouched flags, `adcx`/`adox` for two independent carry chains per
/// row.  The 512-bit product never touches memory — it lives in eight
/// registers and is folded mod `2^256 - 38` in place.  `mulx`, `adcx`
/// and `adox` are part of every target this module is compiled for
/// (the gate on `pub mod sat64` in `field/mod.rs`).
///
/// Correctness of the tails: after folding `hi*38` the remaining top
/// word is < 39, so `imul`-folding it adds < 1482; if *that* carries
/// out of limb 3 the value wrapped mod 2^256, limb 0 is < 1482, and
/// the final masked 38-add (`sbb/and/add`) cannot carry.  The asm is
/// differentially tested against the 5×51 backend (unit tests below
/// and `tests/field_backends.rs`).
mod asm {
    /// Addition with the carry folded back as +38, twice (the second
    /// fold's `sbb/and` masks 38 in only on the rare second wrap).
    /// One flags chain end to end — the compiler's portable version
    /// materializes every carry through `setb`/`movzbl` breaks.
    #[inline(always)]
    pub fn add(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let (mut l0, mut l1, mut l2, mut l3) = (a[0], a[1], a[2], a[3]);
        // SAFETY: register-only (nomem), all clobbers declared.
        unsafe {
            core::arch::asm!(
                "add {l0}, {r0}",
                "adc {l1}, {r1}",
                "adc {l2}, {r2}",
                "adc {l3}, {r3}",
                "sbb {t}, {t}",
                "and {t}, 38",
                "add {l0}, {t}",
                "adc {l1}, 0",
                "adc {l2}, 0",
                "adc {l3}, 0",
                "sbb {t}, {t}",
                "and {t}, 38",
                "add {l0}, {t}",
                l0 = inout(reg) l0,
                l1 = inout(reg) l1,
                l2 = inout(reg) l2,
                l3 = inout(reg) l3,
                r0 = in(reg) b[0],
                r1 = in(reg) b[1],
                r2 = in(reg) b[2],
                r3 = in(reg) b[3],
                t = out(reg) _,
                options(pure, nomem, nostack),
            );
        }
        [l0, l1, l2, l3]
    }

    /// Subtraction with the borrow folded back as -38, twice.
    #[inline(always)]
    pub fn sub(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let (mut l0, mut l1, mut l2, mut l3) = (a[0], a[1], a[2], a[3]);
        // SAFETY: register-only (nomem), all clobbers declared.
        unsafe {
            core::arch::asm!(
                "sub {l0}, {r0}",
                "sbb {l1}, {r1}",
                "sbb {l2}, {r2}",
                "sbb {l3}, {r3}",
                "sbb {t}, {t}",
                "and {t}, 38",
                "sub {l0}, {t}",
                "sbb {l1}, 0",
                "sbb {l2}, 0",
                "sbb {l3}, 0",
                "sbb {t}, {t}",
                "and {t}, 38",
                "sub {l0}, {t}",
                l0 = inout(reg) l0,
                l1 = inout(reg) l1,
                l2 = inout(reg) l2,
                l3 = inout(reg) l3,
                r0 = in(reg) b[0],
                r1 = in(reg) b[1],
                r2 = in(reg) b[2],
                r3 = in(reg) b[3],
                t = out(reg) _,
                options(pure, nomem, nostack),
            );
        }
        [l0, l1, l2, l3]
    }

    /// 4×4 multiply, reduced mod 2^256 - 38.
    ///
    /// Every limb travels **by value in registers** — no loads, no
    /// stores (`options(nomem)`), so back-to-back field ops chain
    /// register-to-register instead of paying a stack spill plus
    /// store-to-load forward on every call (measured ~25% of the op
    /// cost on the reference host).  x86-64 gives `asm!` 13 general
    /// registers plus the fixed `rdx` that `mulx` reads; the 16
    /// products plus 8 accumulators don't fit in one block, so the
    /// kernel is two blocks (rows 0–2, then row 3 + reduction) and the
    /// register allocator bridges them.  (A single-block variant that
    /// parks the over-budget limb in an XMM register measured *slower*
    /// — the `movq` round trip sits on the critical path.)  Within a
    /// block, registers are recycled as values die: each row's `b`
    /// limb moves into `rdx` and its register is re-zeroed (`xor`,
    /// which also clears CF/OF for the row's `adcx`/`adox` chains) as
    /// the row's new top accumulator, and `a0`'s register becomes the
    /// 512-bit product's top limb once row 3 has consumed it.
    #[inline(always)]
    pub fn mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let (mut c0, mut c1, mut c2, mut c3): (u64, u64, u64, u64);
        let (mut c4, mut c5, mut c6): (u64, u64, u64);
        // SAFETY: register-only (nomem), all clobbers declared.
        unsafe {
            // rows 0..2: c0..c6 = a * (b0 + b1*2^64 + b2*2^128)
            core::arch::asm!(
                // row 0: single carry chain, b0 in rdx
                "mulx {c1}, {c0}, {a0}",
                "mulx {c2}, {t0}, {a1}",
                "add {c1}, {t0}",
                "mulx {c3}, {t0}, {a2}",
                "adc {c2}, {t0}",
                "mulx {c4}, {t0}, {a3}",
                "adc {c3}, {t0}",
                "adc {c4}, 0",
                // row 1: b1 -> rdx; its register becomes c5 (xor also
                // clears CF+OF for the dual adcx/adox chains)
                "mov rdx, {b1c5}",
                "xor {b1c5:e}, {b1c5:e}",
                "mulx {hi}, {t0}, {a0}",
                "adox {c1}, {t0}",
                "adcx {c2}, {hi}",
                "mulx {hi}, {t0}, {a1}",
                "adox {c2}, {t0}",
                "adcx {c3}, {hi}",
                "mulx {hi}, {t0}, {a2}",
                "adox {c3}, {t0}",
                "adcx {c4}, {hi}",
                "mulx {hi}, {t0}, {a3}",
                "adox {c4}, {t0}",
                "adcx {b1c5}, {hi}",
                "mov {t0:e}, 0",
                "adox {b1c5}, {t0}",
                // row 2: b2 -> rdx; its register becomes c6
                "mov rdx, {b2c6}",
                "xor {b2c6:e}, {b2c6:e}",
                "mulx {hi}, {t0}, {a0}",
                "adox {c2}, {t0}",
                "adcx {c3}, {hi}",
                "mulx {hi}, {t0}, {a1}",
                "adox {c3}, {t0}",
                "adcx {c4}, {hi}",
                "mulx {hi}, {t0}, {a2}",
                "adox {c4}, {t0}",
                "adcx {b1c5}, {hi}",
                "mulx {hi}, {t0}, {a3}",
                "adox {b1c5}, {t0}",
                "adcx {b2c6}, {hi}",
                "mov {t0:e}, 0",
                "adox {b2c6}, {t0}",
                inout("rdx") b[0] => _,
                a0 = in(reg) a[0],
                a1 = in(reg) a[1],
                a2 = in(reg) a[2],
                a3 = in(reg) a[3],
                b1c5 = inout(reg) b[1] => c5,
                b2c6 = inout(reg) b[2] => c6,
                c0 = out(reg) c0,
                c1 = out(reg) c1,
                c2 = out(reg) c2,
                c3 = out(reg) c3,
                c4 = out(reg) c4,
                t0 = out(reg) _,
                hi = out(reg) _,
                options(pure, nomem, nostack),
            );
            // row 3 + reduction mod 2^256 - 38
            core::arch::asm!(
                // row 3: b3 in rdx; after its first product a0 is dead
                // and its register is re-zeroed as the top limb c7
                "mulx {hi}, {t0}, {a0c7}",
                "xor {a0c7:e}, {a0c7:e}",
                "adox {c3}, {t0}",
                "adcx {c4}, {hi}",
                "mulx {hi}, {t0}, {a1}",
                "adox {c4}, {t0}",
                "adcx {c5}, {hi}",
                "mulx {hi}, {t0}, {a2}",
                "adox {c5}, {t0}",
                "adcx {c6}, {hi}",
                "mulx {hi}, {t0}, {a3}",
                "adox {c6}, {t0}",
                "adcx {a0c7}, {hi}",
                "mov {t0:e}, 0",
                "adox {a0c7}, {t0}",
                // reduce: c0..c3 += 38 * c4..c7
                "mov rdx, 38",
                "xor {t0:e}, {t0:e}",
                "mulx {hi}, {t0}, {c4}",
                "mov {c4:e}, 0",
                "adox {c0}, {t0}",
                "adcx {c1}, {hi}",
                "mulx {hi}, {t0}, {c5}",
                "adox {c1}, {t0}",
                "adcx {c2}, {hi}",
                "mulx {hi}, {t0}, {c6}",
                "adox {c2}, {t0}",
                "adcx {c3}, {hi}",
                "mulx {hi}, {t0}, {a0c7}",
                "adox {c3}, {t0}",
                "adcx {c4}, {hi}",
                "mov {t0:e}, 0",
                "adox {c4}, {t0}",
                // fold the <39 top word, then the final masked 38.
                "imul rdx, {c4}",
                "add {c0}, rdx",
                "adc {c1}, 0",
                "adc {c2}, 0",
                "adc {c3}, 0",
                "sbb rdx, rdx",
                "and rdx, 38",
                "add {c0}, rdx",
                inout("rdx") b[3] => _,
                a0c7 = inout(reg) a[0] => _,
                a1 = in(reg) a[1],
                a2 = in(reg) a[2],
                a3 = in(reg) a[3],
                c0 = inout(reg) c0,
                c1 = inout(reg) c1,
                c2 = inout(reg) c2,
                c3 = inout(reg) c3,
                c4 = inout(reg) c4 => _,
                c5 = inout(reg) c5 => _,
                c6 = inout(reg) c6 => _,
                t0 = out(reg) _,
                hi = out(reg) _,
                options(pure, nomem, nostack),
            );
        }
        [c0, c1, c2, c3]
    }

    /// Dedicated squaring: 10 `mulx` instead of 16 — cross products
    /// once, then the doubling rides the CF (`adcx`) chain while the
    /// diagonals `a_i^2` ride the OF (`adox`) chain, so the two serial
    /// passes retire concurrently instead of back to back.  Same
    /// register-only, two-block structure as [`mul`].
    #[inline(always)]
    pub fn square(a: &[u64; 4]) -> [u64; 4] {
        let (mut c0, mut c1, mut c2, mut c3): (u64, u64, u64, u64);
        let (mut c4, mut c5, mut c6): (u64, u64, u64);
        // SAFETY: register-only (nomem), all clobbers declared.
        unsafe {
            // cross products (a0 in rdx)
            core::arch::asm!(
                "mulx {c2}, {c1}, {a1}", // a0a1 -> cols 1,2
                "mulx {c3}, {t0}, {a2}", // a0a2 -> cols 2,3
                "add {c2}, {t0}",
                "mulx {c4}, {t0}, {a3}", // a0a3 -> cols 3,4
                "adc {c3}, {t0}",
                "mov rdx, {a1}",
                "mulx {c5}, {t0}, {a3}", // a1a3 -> cols 4,5
                "adc {c4}, {t0}",
                "adc {c5}, 0",
                "mov rdx, {a2}",
                "mulx {hi}, {t0}, {a1}", // a1a2 -> cols 3,4
                "mulx {c6}, {c0}, {a3}", // a2a3 -> cols 5,6 (lo via c0)
                "add {c3}, {t0}",
                "adc {c4}, {hi}",
                "adc {c5}, {c0}",
                "adc {c6}, 0",
                inout("rdx") a[0] => _,
                a1 = in(reg) a[1],
                a2 = in(reg) a[2],
                a3 = in(reg) a[3],
                c0 = out(reg) _,
                c1 = out(reg) c1,
                c2 = out(reg) c2,
                c3 = out(reg) c3,
                c4 = out(reg) c4,
                c5 = out(reg) c5,
                c6 = out(reg) c6,
                t0 = out(reg) _,
                hi = out(reg) _,
                options(pure, nomem, nostack),
            );
            // Double the cross half and add the diagonals a_i^2 in one
            // pass: the doubling rides the CF (`adcx`) chain and the
            // diagonals ride the OF (`adox`) chain, so the two serial
            // chains retire concurrently.  Then the reduction (a0 back
            // in rdx at entry).
            core::arch::asm!(
                "mulx {hi}, {t0}, rdx",   // a0^2 -> cols 0,1
                "xor {c7:e}, {c7:e}",     // c7 = 0, clears CF+OF
                "mov {c0}, {t0}",         // col 0 has no cross half
                "adcx {c1}, {c1}",
                "adox {c1}, {hi}",
                "mov rdx, {a1}",
                "mulx {hi}, {t0}, rdx",
                "adcx {c2}, {c2}",
                "adox {c2}, {t0}",
                "adcx {c3}, {c3}",
                "adox {c3}, {hi}",
                "mov rdx, {a2}",
                "mulx {hi}, {t0}, rdx",
                "adcx {c4}, {c4}",
                "adox {c4}, {t0}",
                "adcx {c5}, {c5}",
                "adox {c5}, {hi}",
                "mov rdx, {a3}",
                "mulx {hi}, {t0}, rdx",
                "adcx {c6}, {c6}",
                "adox {c6}, {t0}",
                "adcx {c7}, {c7}",        // doubling carry lands in c7
                "adox {c7}, {hi}",        // total = a^2 < 2^512: no carry out
                // reduce: identical tail to `mul`
                "mov rdx, 38",
                "xor {t0:e}, {t0:e}",
                "mulx {hi}, {t0}, {c4}",
                "mov {c4:e}, 0",
                "adox {c0}, {t0}",
                "adcx {c1}, {hi}",
                "mulx {hi}, {t0}, {c5}",
                "adox {c1}, {t0}",
                "adcx {c2}, {hi}",
                "mulx {hi}, {t0}, {c6}",
                "adox {c2}, {t0}",
                "adcx {c3}, {hi}",
                "mulx {hi}, {t0}, {c7}",
                "adox {c3}, {t0}",
                "adcx {c4}, {hi}",
                "mov {t0:e}, 0",
                "adox {c4}, {t0}",
                "imul rdx, {c4}",
                "add {c0}, rdx",
                "adc {c1}, 0",
                "adc {c2}, 0",
                "adc {c3}, 0",
                "sbb rdx, rdx",
                "and rdx, 38",
                "add {c0}, rdx",
                inout("rdx") a[0] => _,
                a1 = in(reg) a[1],
                a2 = in(reg) a[2],
                a3 = in(reg) a[3],
                c0 = out(reg) c0,
                c1 = inout(reg) c1,
                c2 = inout(reg) c2,
                c3 = inout(reg) c3,
                c4 = inout(reg) c4 => _,
                c5 = inout(reg) c5 => _,
                c6 = inout(reg) c6 => _,
                c7 = out(reg) _,
                t0 = out(reg) _,
                hi = out(reg) _,
                options(pure, nomem, nostack),
            );
        }
        [c0, c1, c2, c3]
    }
}

impl FieldElement {
    /// Backend name for diagnostics and bench labels.
    pub const BACKEND_NAME: &str = "sat64";
    /// What [`crate::field::FIELD_BACKEND`] reads when the eight-lane
    /// kernel is compiled in beside this backend.
    pub const BACKEND_NAME_WITH_LANES: &str = "sat64+ifma8";

    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);

    /// Construct from a small integer.
    pub const fn from_u64(x: u64) -> FieldElement {
        FieldElement([x, 0, 0, 0])
    }

    /// Parse 32 little-endian bytes as a field element, ignoring the top
    /// bit (matching the curve25519 convention).
    pub fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        FieldElement([
            load_u64_le(&bytes[0..8]),
            load_u64_le(&bytes[8..16]),
            load_u64_le(&bytes[16..24]),
            load_u64_le(&bytes[24..32]) & TOP_BIT_CLEAR,
        ])
    }

    /// Fully reduce and serialize to 32 little-endian bytes.  The encoding
    /// is canonical: the value is reduced into [0, p).
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut l = self.0;
        // Fold bit 255 as +19 (2^255 ≡ 19).  Twice: a value < 2^256
        // drops below 2^255 + 19 on the first pass and below 2^255 on
        // the second.
        for _ in 0..2 {
            let hi = l[3] >> 63;
            l[3] &= TOP_BIT_CLEAR;
            let mut acc = (l[0] as u128) + (hi as u128) * 19;
            l[0] = acc as u64;
            acc >>= 64;
            for i in 1..4 {
                acc += l[i] as u128;
                l[i] = acc as u64;
                acc >>= 64;
            }
            debug_assert_eq!(acc, 0);
        }
        // Conditionally subtract p: w = value + 19 carries into bit 255
        // iff value >= p, and then w mod 2^255 = value - p.
        let mut w = [0u64; 4];
        let mut acc = (l[0] as u128) + 19;
        w[0] = acc as u64;
        acc >>= 64;
        for i in 1..4 {
            acc += l[i] as u128;
            w[i] = acc as u64;
            acc >>= 64;
        }
        let mask = (w[3] >> 63).wrapping_neg();
        let mut out = [0u8; 32];
        for i in 0..4 {
            let limb = (l[i] & !mask) | (w[i] & mask);
            let limb = if i == 3 { limb & TOP_BIT_CLEAR } else { limb };
            out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// The value as five radix-2^51 limbs, each below 2^52 (the top
    /// one keeps the representation's bits 204..255) — the lane
    /// kernel's input form.  Pure shifts: nothing is reduced.
    #[doc(hidden)]
    #[inline]
    pub fn to_limbs51(&self) -> [u64; 5] {
        const LOW_51: u64 = (1 << 51) - 1;
        let l = &self.0;
        [
            l[0] & LOW_51,
            ((l[0] >> 51) | (l[1] << 13)) & LOW_51,
            ((l[1] >> 38) | (l[2] << 26)) & LOW_51,
            ((l[2] >> 25) | (l[3] << 39)) & LOW_51,
            l[3] >> 12,
        ]
    }

    /// Inverse of [`FieldElement::to_limbs51`] for any limbs below
    /// 2^52: the sum can pass 2^256 by a bit, which folds as `+38`.
    #[doc(hidden)]
    #[inline]
    pub fn from_limbs51(limbs: &[u64; 5]) -> FieldElement {
        debug_assert!(limbs.iter().all(|&l| l < 1 << 52));
        // Limb i sits at bit 51·i = 64·i - 13·i.
        let mut l = [0u64; 4];
        let mut acc = limbs[0] as u128;
        for i in 0..4 {
            acc += (limbs[i + 1] as u128) << (51 - 13 * i);
            l[i] = acc as u64;
            acc >>= 64;
        }
        FieldElement(fold_carry(l, acc as u64))
    }

    /// Field addition.
    #[inline(always)]
    pub fn add(&self, rhs: &FieldElement) -> FieldElement {
        FieldElement(asm::add(&self.0, &rhs.0))
    }

    /// Field subtraction: borrow out of the top limb folds back as
    /// `-38` (`-2^256 ≡ -38 mod p`), twice for the rare double wrap.
    #[inline(always)]
    pub fn sub(&self, rhs: &FieldElement) -> FieldElement {
        FieldElement(asm::sub(&self.0, &rhs.0))
    }

    // -----------------------------------------------------------------
    // Lazy entry points: eager here.  Saturated limbs have no headroom
    // for postponed carries, and add/sub are a handful of ALU ops — the
    // 5×51 backend's lazy-reduction contract (see fiat51.rs) is an
    // optimization it alone can exploit.
    // -----------------------------------------------------------------

    /// Lazy addition (eager in this backend; see module docs).
    #[inline(always)]
    pub(crate) fn lazy_add(&self, rhs: &FieldElement) -> FieldElement {
        self.add(rhs)
    }

    /// Lazy subtraction (eager in this backend; see module docs).
    #[inline(always)]
    pub(crate) fn lazy_sub(&self, rhs: &FieldElement) -> FieldElement {
        self.sub(rhs)
    }

    /// Wide-rhs lazy subtraction (eager in this backend).
    #[inline(always)]
    pub(crate) fn lazy_sub_wide(&self, rhs: &FieldElement) -> FieldElement {
        self.sub(rhs)
    }

    /// Field multiplication.
    #[inline(always)]
    pub fn mul(&self, rhs: &FieldElement) -> FieldElement {
        FieldElement(asm::mul(&self.0, &rhs.0))
    }

    /// Field squaring.
    #[inline(always)]
    pub fn square(&self) -> FieldElement {
        FieldElement(asm::square(&self.0))
    }

    /// `2 * self^2`.
    #[inline(always)]
    pub fn square2(&self) -> FieldElement {
        let s = self.square();
        s.add(&s)
    }

    /// Constant-time-style select: returns `b` if `choice` is 1, else
    /// `a` — one branchless `vpand`/`vpxor` pair under AVX2 (see
    /// `and_mask` below for why the scalar loop is worse).
    #[inline(always)]
    pub fn select(a: &FieldElement, b: &FieldElement, choice: u64) -> FieldElement {
        debug_assert!(choice == 0 || choice == 1);
        let mask = choice.wrapping_neg(); // 0 or all-ones

        // SAFETY: AVX2 is on wherever this module is compiled (the gate
        // in field/mod.rs); loads/stores 32 bytes from/to valid [u64; 4]
        // refs.
        unsafe {
            use core::arch::x86_64::*;
            let mut out = [0u64; 4];
            let va = _mm256_loadu_si256(a.0.as_ptr() as *const __m256i);
            let vb = _mm256_loadu_si256(b.0.as_ptr() as *const __m256i);
            let m = _mm256_set1_epi64x(mask as i64);
            // a ^ (mask & (a ^ b))
            let sel = _mm256_xor_si256(va, _mm256_and_si256(m, _mm256_xor_si256(va, vb)));
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, sel);
            FieldElement(out)
        }
    }

    /// All limbs ANDed with `mask` (masked table-scan seed).  The four
    /// saturated limbs are exactly one 256-bit vector, so with AVX2
    /// this is a single branchless `vpand` — the compiler turns the
    /// scalar loop into a *branch* on the (all-or-nothing) mask, and
    /// the resulting per-entry mispredicts are measurable across the
    /// ladder's 126 scans per two-scalar kernel.
    #[inline(always)]
    pub(crate) fn and_mask(&self, mask: u64) -> FieldElement {
        // SAFETY: AVX2 is on wherever this module is compiled (the gate
        // in field/mod.rs); loads/stores 32 bytes from/to valid [u64; 4]
        // refs.
        unsafe {
            use core::arch::x86_64::*;
            let mut out = [0u64; 4];
            let v = _mm256_loadu_si256(self.0.as_ptr() as *const __m256i);
            let m = _mm256_set1_epi64x(mask as i64);
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, _mm256_and_si256(v, m));
            FieldElement(out)
        }
    }

    /// OR in `entry`'s limbs under `mask` (masked table-scan
    /// accumulation): one `vpand` + `vpor` under AVX2, branchless.
    #[inline(always)]
    pub(crate) fn or_assign_masked(&mut self, entry: &FieldElement, mask: u64) {
        // SAFETY: AVX2 is on wherever this module is compiled (the gate
        // in field/mod.rs); loads/stores 32 bytes from/to valid [u64; 4]
        // refs.
        unsafe {
            use core::arch::x86_64::*;
            let acc = _mm256_loadu_si256(self.0.as_ptr() as *const __m256i);
            let e = _mm256_loadu_si256(entry.0.as_ptr() as *const __m256i);
            let m = _mm256_set1_epi64x(mask as i64);
            let merged = _mm256_or_si256(acc, _mm256_and_si256(e, m));
            _mm256_storeu_si256(self.0.as_mut_ptr() as *mut __m256i, merged);
        }
    }
}

crate::field::impl_field_shared!(FieldElement);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::fiat51;
    use proptest::prelude::*;

    /// The same value in the 5×51 backend, read through the radix-2^51
    /// limb view the lane kernel uses (pure shifts, nothing reduced).
    fn oracle(x: &FieldElement) -> fiat51::FieldElement {
        fiat51::FieldElement::from_limbs51(&x.to_limbs51())
    }

    /// `x op y` agrees with the 5×51 backend's on the same values.
    fn assert_ops_agree(x: &FieldElement, y: &FieldElement) {
        let (x51, y51) = (oracle(x), oracle(y));
        let what = format!("{:x?} and {:x?}", x.0, y.0);
        assert_eq!(x.add(y).to_bytes(), x51.add(&y51).to_bytes(), "add {what}");
        assert_eq!(x.sub(y).to_bytes(), x51.sub(&y51).to_bytes(), "sub {what}");
        assert_eq!(x.mul(y).to_bytes(), x51.mul(&y51).to_bytes(), "mul {what}");
        assert_eq!(
            x.square().to_bytes(),
            x51.square().to_bytes(),
            "square {what}"
        );
        assert_eq!(
            x.square2().to_bytes(),
            x51.square2().to_bytes(),
            "square2 {what}"
        );
    }

    /// The asm kernels against the 5×51 backend on structured limb
    /// patterns — the carry and fold edges of the saturated
    /// representation — and pseudo-random ones, each against each of
    /// the first eight.
    #[test]
    fn asm_matches_fiat51_on_limb_patterns() {
        let mut patterns: Vec<[u64; 4]> = vec![
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [38, 0, 0, 0],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX],
            [u64::MAX - 18, u64::MAX, u64::MAX, u64::MAX >> 1], // p alias
            [0, 0, 0, 1 << 63],
            [u64::MAX, 0, u64::MAX, 0],
        ];
        // Deterministic xorshift so failures reproduce.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..200 {
            patterns.push([next(), next(), next(), next()]);
        }
        for a in &patterns {
            for b in patterns.iter().take(8) {
                assert_ops_agree(&FieldElement(*a), &FieldElement(*b));
            }
        }
    }

    proptest! {
        /// The asm kernels against the 5×51 backend over the
        /// representation's full `value < 2^256` input domain:
        /// `from_bytes` never sets bit 255, so the operands are products
        /// of parsed values, which roam the whole range.
        #[test]
        fn asm_matches_fiat51_on_full_range_products(
            x in prop::array::uniform32(any::<u8>()),
            y in prop::array::uniform32(any::<u8>()),
        ) {
            let a = FieldElement::from_bytes(&x).mul(&FieldElement::from_bytes(&y));
            let b = FieldElement::from_bytes(&y).square();
            assert_ops_agree(&a, &b);
        }
    }

    #[test]
    fn fold_carry_extremes() {
        // carry*38 that wraps the whole value: the double-fold must
        // land on the congruent small value.
        let l = fold_carry([u64::MAX, u64::MAX, u64::MAX, u64::MAX], 1);
        // 2^256 - 1 + 38 = 2^256 + 37 ≡ 38 + 37 = 75
        assert_eq!(
            FieldElement(l).to_bytes(),
            FieldElement::from_u64(75).to_bytes()
        );
    }

    #[test]
    fn sub_double_wrap() {
        // 0 - 1 must canonicalize to p - 1.
        let r = FieldElement::ZERO.sub(&FieldElement::ONE);
        let mut expect = [0xffu8; 32];
        expect[0] = 0xec;
        expect[31] = 0x7f;
        assert_eq!(r.to_bytes(), expect);
    }
}
