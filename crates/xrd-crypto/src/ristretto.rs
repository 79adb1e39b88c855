//! The ristretto255 prime-order group, built from scratch on top of
//! [`crate::edwards`] per draft-irtf-cfrg-ristretto255-decaf448.
//!
//! This is the group "G of prime order p with generator g in which
//! discrete log is hard and DDH holds" that the XRD paper assumes (§3.1).
//! [`GroupElement`] is the public group API used by the rest of the
//! workspace; exponents are [`Scalar`]s and `g^x` is written
//! [`GroupElement::base_mul`].

use std::sync::OnceLock;

use rand::RngCore;

use crate::edwards::{edwards_d, EdwardsPoint, FixedBaseTable, PointTable};
use crate::field::{FieldElement, FieldLanes};
use crate::scalar::Scalar;

/// Derived Ristretto constants (computed once, validated by tests).
struct RistrettoConstants {
    /// `1/sqrt(a - d)` with `a = -1`.
    invsqrt_a_minus_d: FieldElement,
    /// `sqrt(a*d - 1)`.
    sqrt_ad_minus_one: FieldElement,
    /// `1 - d^2`.
    one_minus_d_sq: FieldElement,
    /// `(d - 1)^2`.
    d_minus_one_sq: FieldElement,
}

fn constants() -> &'static RistrettoConstants {
    static C: OnceLock<RistrettoConstants> = OnceLock::new();
    C.get_or_init(|| {
        let d = edwards_d();
        let one = FieldElement::ONE;
        let a_minus_d = one.neg().sub(d); // -1 - d
        let (sq1, invsqrt_a_minus_d) = a_minus_d.invsqrt();
        assert!(sq1, "a - d must be a square");
        let ad_minus_one = d.neg().sub(&one); // -d - 1
        let (sq2, sqrt_ad_minus_one) = FieldElement::sqrt_ratio_i(&ad_minus_one, &one);
        assert!(sq2, "a*d - 1 must be a square");
        RistrettoConstants {
            invsqrt_a_minus_d,
            sqrt_ad_minus_one,
            one_minus_d_sq: one.sub(&d.square()),
            d_minus_one_sq: d.sub(&one).square(),
        }
    })
}

/// An element of the ristretto255 group.
///
/// Internally an Edwards point; two Edwards points in the same coset
/// compare and encode identically, so the API presents a prime-order
/// group with no cofactor pitfalls — exactly the abstraction the XRD
/// protocol analysis requires.
#[derive(Clone, Copy, Debug)]
pub struct GroupElement(pub(crate) EdwardsPoint);

impl GroupElement {
    /// The identity element.
    pub fn identity() -> GroupElement {
        GroupElement(EdwardsPoint::identity())
    }

    /// The group generator `g` (Ristretto basepoint).
    pub fn generator() -> GroupElement {
        GroupElement(*EdwardsPoint::basepoint())
    }

    /// `g^x` in the paper's multiplicative notation.
    pub fn base_mul(x: &Scalar) -> GroupElement {
        GroupElement(EdwardsPoint::base_mul(x))
    }

    /// `g^x` for every `x` in `xs`, in order ([`FixedGroupTable::mul_all`]
    /// on the generator's table): bulk sealing's `g^y`, `g^x` and proof
    /// commitments.  Safe for secret exponents.
    pub fn base_mul_all(xs: &[Scalar]) -> Vec<GroupElement> {
        batch::fixed_mul_all(FixedBaseTable::basepoint(), xs)
    }

    /// `self^x` in the paper's multiplicative notation.
    pub fn mul(&self, x: &Scalar) -> GroupElement {
        GroupElement(self.0.scalar_mul(x))
    }

    /// The pre-optimization two-exponent hop kernel (two from-scratch
    /// reference ladders).  Kept as the bench baseline and for
    /// differential tests; never called on a hot path.
    #[doc(hidden)]
    pub fn naive_two_muls_reference(&self, a: &Scalar, b: &Scalar) -> (GroupElement, GroupElement) {
        (
            GroupElement(self.0.scalar_mul_reference(a)),
            GroupElement(self.0.scalar_mul_reference(b)),
        )
    }

    /// `self^x` in **variable time** (width-5 NAF, no masked scans).
    ///
    /// Only for *public* exponents and elements — e.g. opening the inner
    /// envelopes after the servers have broadcast their inner keys
    /// (§6.3), or re-checking proof equations.  Secret exponents must
    /// use [`GroupElement::mul`].
    pub fn vartime_mul(&self, x: &Scalar) -> GroupElement {
        GroupElement(self.0.vartime_scalar_mul(x))
    }

    /// `(P^a, P^b)` for every `P` in `points`, in order — the §6.3 hop
    /// kernel over a chunk: every entry's DH key raised to the same
    /// `msk` (decrypt) and `bsk` (blind).  Safe for secret exponents:
    /// the constant-time policy is [`GroupTable::mul_pair`]'s.
    ///
    /// Where the eight-lane field kernel is compiled in
    /// ([`crate::field::FIELD_BACKEND`] ends in `+ifma8`) the points are
    /// taken eight at a time, one per lane: one projective-Niels table
    /// per group (no inversion) and two masked-scan ladders whose digit
    /// stream is the same for every lane.  A short last group is padded
    /// with the identity, so there is one path whatever the length.
    /// Everywhere else this is [`GroupTable::batch_new`] +
    /// [`GroupTable::mul_pair`].
    pub fn batch_mul_pair(
        points: &[GroupElement],
        a: &Scalar,
        b: &Scalar,
    ) -> Vec<(GroupElement, GroupElement)> {
        batch::mul_pair(points, a, b)
    }

    /// `P^x` for every `P` in `points`, in order, in **variable time**:
    /// for *public* exponents and elements only, as
    /// [`GroupElement::vartime_mul`] — the §6.3 batch open, where `x`
    /// is the sum of the revealed inner keys.
    ///
    /// Where the eight-lane field kernel is compiled in, eight points
    /// share one width-5 NAF walk (the exponent, hence the add/sub
    /// schedule, is the same for every lane; a short last group is
    /// padded with the identity).  Everywhere else this is a
    /// [`GroupElement::vartime_mul`] per point.
    pub fn batch_vartime_mul(points: &[GroupElement], x: &Scalar) -> Vec<GroupElement> {
        batch::vartime_mul(points, x)
    }

    /// `prod_i points[i]^scalars[i]` in **variable time** (Straus for
    /// small batches, Pippenger above ~200 points).
    ///
    /// Only for *public* data: this is the engine of batched proof
    /// verification ([`crate::nizk`]), where every input is a wire
    /// value or a verifier-chosen random coefficient.
    ///
    /// Where the eight-lane field kernel is compiled in, eight terms or
    /// more run a lane Straus instead, at every size: eight terms to a
    /// lane group, one radix-16 table per group, every group adding
    /// into one lane accumulator per block of 64 terms (the lane
    /// digits, like the scalars they come from, are public).  The sum
    /// is the same group element.
    pub fn vartime_multiscalar_mul(scalars: &[Scalar], points: &[GroupElement]) -> GroupElement {
        let inner: Vec<EdwardsPoint> = points.iter().map(|p| p.0).collect();
        GroupElement(batch::vartime_multiscalar_mul(scalars, &inner))
    }

    /// Group operation (written multiplicatively in the paper; this is
    /// the product of two elements).
    pub fn add(&self, other: &GroupElement) -> GroupElement {
        GroupElement(self.0.add(&other.0))
    }

    /// Inverse group operation.
    pub fn sub(&self, other: &GroupElement) -> GroupElement {
        GroupElement(self.0.sub(&other.0))
    }

    /// Inverse element.
    pub fn neg(&self) -> GroupElement {
        GroupElement(self.0.neg())
    }

    /// Product of many elements (`∏_j X_j` in the AHS proofs).
    pub fn product<'a, I: IntoIterator<Item = &'a GroupElement>>(iter: I) -> GroupElement {
        iter.into_iter()
            .fold(GroupElement::identity(), |acc, p| acc.add(p))
    }

    /// Canonical 32-byte encoding.
    pub fn encode(&self) -> [u8; 32] {
        encode_field(&self.0).to_bytes()
    }

    /// Encode a slice of elements, in order: `points[i].encode()` for
    /// every `i`, byte for byte.
    ///
    /// Each encoding is dominated by one inverse square root, a fixed
    /// ~254-squaring exponentiation.  Square roots do not combine under
    /// Montgomery's product trick the way inversions do (`sqrt(ab)`
    /// relates to `sqrt(a)sqrt(b)` only up to a quadratic character,
    /// which costs another per-element exponentiation to resolve), so
    /// for points the caller did not compute — the codec's, digests' —
    /// no *algebraic* batching exists.  (A caller that computed its
    /// points as `P^x` computes `P^(x/2)` and calls
    /// [`GroupElement::double_encode_all`], which needs no square root
    /// and shares one inversion.)  A fixed schedule of squarings is
    /// ideal lane work, though.  Where the eight-lane field kernel
    /// is compiled in ([`crate::field::FIELD_BACKEND`] ends in
    /// `+ifma8`) the points are taken eight at a time, one per lane,
    /// through the same formula [`GroupElement::encode`] runs
    /// (`encode_field`): one exponentiation per group, each lane
    /// taking its own side of the formula's sign tests and selects
    /// under a lane mask.  No branch or address depends on a point, so
    /// secret shared elements (a DH value about to key a KDF) are as
    /// safe here as in `encode`; a short last group is padded with the
    /// identity.  Everywhere else this is the per-point map.
    pub fn encode_all(points: &[GroupElement]) -> Vec<[u8; 32]> {
        batch::encode_all(points)
    }

    /// The encoding of `2·points[i]` for every `i`, in order:
    /// `points[i].add(&points[i]).encode()`, byte for byte.
    ///
    /// Whoever computed a point as `P^x` can compute `P^(x/2)` instead
    /// ([`Scalar::half`]) and encode its double here.  The encoding of
    /// a double needs no square root — the root it would take is a
    /// rational function of the point it doubles — only the inverse of
    /// two products of the doubling's factors (`eg` and `fh`, see
    /// `Doubling`), and inverses combine under Montgomery's trick.  So
    /// a batch shares one field inversion per 128 points where
    /// [`GroupElement::encode_all`] pays one exponentiation per point
    /// or per lane group.  It is the formula behind curve25519-dalek's
    /// `double_and_compress_batch`.
    ///
    /// Where the eight-lane field kernel is compiled in the points are
    /// taken eight to a lane group and the batch inversion runs over
    /// the groups lane-wise; everywhere else (and for fewer than three
    /// points) it runs over single elements.  Secret points are safe:
    /// a zero product (the identity, a short last group's idle lanes)
    /// is masked in the inversion as [`FieldElement::batch_invert`]
    /// masks it, and both sign tests of the formula are lane masks
    /// feeding selects — no branch or address depends on a point.
    pub fn double_encode_all(points: &[GroupElement]) -> Vec<[u8; 32]> {
        batch::double_encode_all::<false>(points).1
    }

    /// [`GroupElement::double_encode_all`] that also returns every
    /// `2·points[i]` itself, read off the same doubling (the point's
    /// four coordinates are products of its factors).
    pub(crate) fn double_all_encoded(
        points: &[GroupElement],
    ) -> (Vec<GroupElement>, Vec<[u8; 32]>) {
        batch::double_encode_all::<true>(points)
    }

    /// Decode a canonical 32-byte encoding; `None` for invalid encodings.
    pub fn decode(bytes: &[u8; 32]) -> Option<GroupElement> {
        let (point, valid) = decode_field(&canonical_s(bytes)?);
        (valid == 1).then_some(GroupElement(point))
    }

    /// Decode a slice of encodings, in order: `decode(&encodings[i])`
    /// for every `i` — the same point, or the same `None`.
    ///
    /// The checks that `s` is canonical and non-negative run per
    /// element, on the bytes (wire input is public).  The rest is the
    /// formula [`GroupElement::decode`] runs (`decode_field`), whose one
    /// inverse square root is a fixed schedule of squarings, as in
    /// [`GroupElement::encode_all`].  Where the eight-lane field kernel
    /// is compiled in the encodings are taken eight at a time, one per
    /// lane: one exponentiation per group, and each lane's validity (a
    /// root exists, `t` is non-negative, `y` is not zero) a lane mask
    /// beside its point rather than an early return, so an invalid
    /// encoding never changes its neighbours' results.  A lane whose
    /// bytes fail their checks, like a short last group's idle lanes,
    /// decodes zero and is dropped.  Everywhere else this is the
    /// per-element map.
    pub fn decode_all(encodings: &[[u8; 32]]) -> Vec<Option<GroupElement>> {
        batch::decode_all(encodings)
    }

    /// The Elligator-style one-way map from a field element to a group
    /// element (MAP in the ristretto255 draft).
    fn elligator_map(t: &FieldElement) -> GroupElement {
        let c = constants();
        let i = FieldElement::sqrt_m1();
        let one = FieldElement::ONE;
        let d = edwards_d();

        let r = i.mul(&t.square());
        let u = r.add(&one).mul(&c.one_minus_d_sq);
        let v = one.neg().sub(&r.mul(d)).mul(&r.add(d));

        let (was_square, mut s) = FieldElement::sqrt_ratio_i(&u, &v);
        let s_prime = s.mul(t).abs().neg();
        s = FieldElement::select(&s_prime, &s, was_square as u64);
        let c_sel = FieldElement::select(&r, &one.neg(), was_square as u64);

        let n = c_sel.mul(&r.sub(&one)).mul(&c.d_minus_one_sq).sub(&v);

        let w0 = s.add(&s).mul(&v);
        let w1 = n.mul(&c.sqrt_ad_minus_one);
        let ss = s.square();
        let w2 = one.sub(&ss);
        let w3 = one.add(&ss);

        GroupElement(EdwardsPoint {
            x: w0.mul(&w3),
            y: w2.mul(&w1),
            z: w1.mul(&w3),
            t: w0.mul(&w2),
        })
    }

    /// Hash-to-group: map 64 uniform bytes to a uniform group element.
    pub fn from_uniform_bytes(bytes: &[u8; 64]) -> GroupElement {
        let mut lo = [0u8; 32];
        let mut hi = [0u8; 32];
        lo.copy_from_slice(&bytes[..32]);
        hi.copy_from_slice(&bytes[32..]);
        let p1 = Self::elligator_map(&FieldElement::from_bytes(&lo));
        let p2 = Self::elligator_map(&FieldElement::from_bytes(&hi));
        p1.add(&p2)
    }

    /// Uniformly random group element (with unknown discrete log).
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> GroupElement {
        let mut bytes = [0u8; 64];
        rng.fill_bytes(&mut bytes);
        Self::from_uniform_bytes(&bytes)
    }

    /// True iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.eq(&GroupElement::identity())
    }

    /// Ristretto equality (coset equality, constant-time style).
    #[allow(clippy::should_implement_trait)] // PartialEq delegates here
    pub fn eq(&self, other: &GroupElement) -> bool {
        let x1y2 = self.0.x.mul(&other.0.y);
        let y1x2 = self.0.y.mul(&other.0.x);
        let x1x2 = self.0.x.mul(&other.0.x);
        let y1y2 = self.0.y.mul(&other.0.y);
        x1y2.ct_eq(&y1x2) || x1x2.ct_eq(&y1y2)
    }
}

impl PartialEq for GroupElement {
    fn eq(&self, other: &Self) -> bool {
        GroupElement::eq(self, other)
    }
}
impl Eq for GroupElement {}

/// A reusable window table of a fixed group element (wrapping
/// [`PointTable`]): build once, exponentiate many times.
///
/// The §6.3 hop kernel builds one table per entry (batched across the
/// whole hop with [`GroupTable::batch_new`], sharing a single field
/// inversion) and runs both the decrypt (`msk`) and blind (`bsk`)
/// exponentiations off it with [`GroupTable::mul_pair`].  Scans stay
/// masked, so secret exponents are safe here.
pub struct GroupTable(PointTable);

impl GroupTable {
    /// Precompute the table for one element (prefer
    /// [`GroupTable::batch_new`] for several).
    pub fn new(point: &GroupElement) -> GroupTable {
        GroupTable(PointTable::new(&point.0))
    }

    /// Precompute tables for a batch of elements with one shared field
    /// inversion.
    pub fn batch_new(points: &[GroupElement]) -> Vec<GroupTable> {
        let inner: Vec<EdwardsPoint> = points.iter().map(|p| p.0).collect();
        PointTable::batch_new(&inner)
            .into_iter()
            .map(GroupTable)
            .collect()
    }

    /// `P^x` off the precomputed table (constant-time-style scans).
    pub fn mul(&self, x: &Scalar) -> GroupElement {
        GroupElement(self.0.scalar_mul(x))
    }

    /// `(P^a, P^b)`: two ladders off one precomputed table — the
    /// two-scalar hop kernel (the savings come from sharing the table
    /// build; the ladders themselves run back to back).
    pub fn mul_pair(&self, a: &Scalar, b: &Scalar) -> (GroupElement, GroupElement) {
        let (pa, pb) = self.0.scalar_mul_pair(a, b);
        (GroupElement(pa), GroupElement(pb))
    }
}

/// A precomputed table of a group element that stays fixed across many
/// exponentiations (wrapping [`FixedBaseTable`], the type behind
/// [`GroupElement::base_mul`]): ~24 KB and about three ladders to
/// build, then each `P^x` costs 64 table additions and 4 doublings
/// instead of a full ladder.  Bulk client sealing builds one per mixing
/// key and per aggregate inner key.  Scans stay masked, so secret
/// exponents are safe here.
pub struct FixedGroupTable(FixedBaseTable);

impl FixedGroupTable {
    /// Precompute the table for `point`.
    pub fn new(point: &GroupElement) -> FixedGroupTable {
        FixedGroupTable(FixedBaseTable::new(&point.0))
    }

    /// `P^x` off the precomputed table (constant-time-style scans).
    pub fn mul(&self, x: &Scalar) -> GroupElement {
        GroupElement(self.0.mul(x))
    }

    /// `P^x` for every `x` in `xs`, in order — [`FixedGroupTable::mul`]
    /// per exponent, result for result.  Safe for secret exponents.
    ///
    /// Where the eight-lane field kernel is compiled in, eight
    /// exponents share one walk of the table: every row scan compares
    /// the row's indices against a vector of eight digits and merges
    /// each entry under that per-lane k-mask — every entry is read, in
    /// order, whatever the digits; nothing is gathered and the table
    /// exists once, in its own representation — then the 64 additions
    /// run in lockstep.  A short last group walks with idle lanes.
    /// Everywhere else this is the per-exponent map.
    pub fn mul_all(&self, xs: &[Scalar]) -> Vec<GroupElement> {
        batch::fixed_mul_all(&self.0, xs)
    }
}

/// The Ristretto ENCODE formula, written once over the lane-mask tier:
/// the `s` coordinate of every lane's point (non-negative, so its bytes
/// are the encoding).  One element is [`GroupElement::encode`]; eight
/// are a group of [`GroupElement::encode_all`].
#[inline(always)]
fn encode_field<F: FieldLanes>(point: &EdwardsPoint<F>) -> F {
    let c = constants();
    let i = F::splat(FieldElement::sqrt_m1());
    let (x0, y0, z0, t0) = (point.x, point.y, point.z, point.t);

    let u1 = z0.add(&y0).mul(&z0.sub(&y0));
    let u2 = x0.mul(&y0);
    let (_, invsqrt) = u1.mul(&u2.square()).invsqrt();
    let den1 = invsqrt.mul(&u1);
    let den2 = invsqrt.mul(&u2);
    let z_inv = den1.mul(&den2).mul(&t0);

    let ix0 = x0.mul(&i);
    let iy0 = y0.mul(&i);
    let enchanted_denominator = den1.mul(&F::splat(&c.invsqrt_a_minus_d));
    let rotate = t0.mul(&z_inv).is_negative();

    let x = F::select(&x0, &iy0, rotate);
    let y = F::select(&y0, &ix0, rotate);
    let den_inv = F::select(&den2, &enchanted_denominator, rotate);

    let y = y.conditional_negate(x.mul(&z_inv).is_negative());

    den_inv.mul(&z0.sub(&y)).abs()
}

/// What the batched double-and-encode keeps of a point `P = (X:Y:Z:T)`
/// (or of a lane group of them): the four factors of its double,
/// `e = 2XY`, `f = Z² + dT²`, `g = Y² + X²`, `h = Z² - dT²`, so that
/// `2P = (e/f, g/h) = (eh : fg : fh : eg)`, and the two products `eg`
/// and `fh` — `2P`'s `T` and `Z`, whose inverses the finish needs and
/// the batch shares.  Written once over the lane-mask tier, like
/// [`encode_field`]: one element for a batch of one or two and on
/// builds without lanes, eight per lane group elsewhere.
struct Doubling<F> {
    e: F,
    f: F,
    g: F,
    h: F,
    eg: F,
    fh: F,
}

impl<F: FieldLanes> Doubling<F> {
    /// The factors of `2P`: four squarings, four multiplications.
    /// Out of line, like the ladders, so its temporaries are not added
    /// to the batch's frame.
    #[inline(never)]
    fn new(p: &EdwardsPoint<F>) -> Doubling<F> {
        let xx = p.x.square();
        let yy = p.y.square();
        let zz = p.z.square();
        let dtt = p.t.square().mul(&F::splat(edwards_d()));
        let e = p.x.mul(&p.y.add(&p.y));
        let f = zz.add(&dtt);
        let g = yy.add(&xx);
        let h = zz.sub(&dtt);
        Doubling {
            e,
            f,
            g,
            h,
            eg: e.mul(&g),
            fh: f.mul(&h),
        }
    }

    /// `2P` in extended coordinates.
    #[inline(always)]
    fn point(&self) -> EdwardsPoint<F> {
        EdwardsPoint {
            x: self.e.mul(&self.h),
            y: self.f.mul(&self.g),
            z: self.fh,
            t: self.eg,
        }
    }

    /// The `s` coordinate of `2P` (non-negative, so its bytes are the
    /// encoding), given `inv = 1/(eg·fh)` — zero where `eg·fh` is, which
    /// is exactly where `2P` is the identity (`e = 0`) and then `s` is
    /// zero too.  The encode formula with `1/Z = eg·inv`, `1/T =
    /// fh·inv`, and with the inverse square root it would take replaced
    /// by `1/(e·sqrt(a - d))` (or, rotated, `i/g`): two sign tests as
    /// lane masks, their selects, one `abs`.  Out of line, as `new`.
    #[inline(never)]
    fn encode(&self, inv: &F) -> F {
        let c = constants();
        let i = F::splat(FieldElement::sqrt_m1());
        let z_inv = self.eg.mul(inv);
        let t_inv = self.fh.mul(inv);
        let rotate = self.eg.mul(&z_inv).is_negative();

        let e = F::select(&self.e, &self.g, rotate);
        let g = F::select(&self.g, &self.e.neg(), rotate);
        let h = F::select(&self.h, &self.f.mul(&i), rotate);
        let magic = F::select(&F::splat(&c.invsqrt_a_minus_d), &i, rotate);

        let g = g.conditional_negate(h.mul(&e).mul(&z_inv).is_negative());
        h.sub(&g).mul(&magic.mul(&g.mul(&t_inv))).abs()
    }
}

/// Points per shared inversion of a batched double-and-encode: a hop
/// or open chunk's 32 secrets and a sealing unit's 64 proof points take
/// one, its 160 shared elements two.  The batch's slots sit on the
/// stack (two field elements a slot, one slot per lane group where the
/// lanes are compiled in), so this also bounds the frame: 10 KB of
/// slots, within the depth the hop kernel's ladders already reach.  A
/// deeper frame shows in `peak_rss_mb` — every thread that encodes
/// keeps its stack pages.
const DOUBLE_ENCODE_BATCH: usize = 128;

/// The batched double-and-encode over `n <= N` slots, written once over
/// the lane-mask tier: one [`FieldLanes::batch_invert_with`] of every
/// slot's `eg·fh` (slot `j`'s [`Doubling`] of `point(j)`), then
/// `done(doubling, s)` slot by slot.  Only the products and their
/// running products are kept, two field elements a slot on the stack:
/// each slot's doubling is formed again for its finish rather than
/// held, so the frame stays as shallow as the ladders' and a thread
/// that encodes keeps no more stack than one that multiplies.
#[inline(always)]
fn double_encode_field<F: FieldLanes, const N: usize>(
    n: usize,
    point: impl Fn(usize) -> EdwardsPoint<F>,
    mut done: impl FnMut(&Doubling<F>, &F),
) {
    let mut inverses = [F::ZERO; N];
    let mut prefix = [F::ZERO; N];
    for (j, product) in inverses[..n].iter_mut().enumerate() {
        let doubling = Doubling::new(&point(j));
        *product = doubling.eg.mul(&doubling.fh);
    }
    F::batch_invert_with(&mut inverses[..n], &mut prefix);
    for (j, inv) in inverses[..n].iter().enumerate() {
        let doubling = Doubling::new(&point(j));
        done(&doubling, &doubling.encode(inv));
    }
}

/// The batched double-and-encode one point per slot, `N` points per
/// shared inversion: the body of builds without lanes, and of batches
/// too short for them.  The doubled points too when `POINTS` is set.
fn double_encode_serial<const POINTS: bool, const N: usize>(
    points: &[GroupElement],
) -> (Vec<GroupElement>, Vec<[u8; 32]>) {
    let mut encodings = Vec::with_capacity(points.len());
    let mut doubled = Vec::with_capacity(if POINTS { points.len() } else { 0 });
    for chunk in points.chunks(N) {
        double_encode_field::<FieldElement, N>(
            chunk.len(),
            |j| chunk[j].0,
            |doubling, s| {
                encodings.push(s.to_bytes());
                if POINTS {
                    doubled.push(GroupElement(doubling.point()));
                }
            },
        );
    }
    (doubled, encodings)
}

/// The `s` an encoding names, if `bytes` is its canonical encoding
/// and `s` is non-negative: the checks [`GroupElement::decode`] and
/// every lane of [`GroupElement::decode_all`] run per element, on the
/// bytes, before the formula.
fn canonical_s(bytes: &[u8; 32]) -> Option<FieldElement> {
    let s = FieldElement::from_bytes(bytes);
    (s.to_bytes() == *bytes && bytes[0] & 1 == 0).then_some(s)
}

/// The Ristretto DECODE formula, written once over the lane-mask tier:
/// every lane's point from its `s` (already checked by
/// [`canonical_s`]), and per lane whether the encoding is valid — the
/// square root exists, `t` is non-negative, `y` is not zero.  Nothing
/// returns early: an invalid lane still computes, and its mask says
/// so.  One element is [`GroupElement::decode`]; eight are a group of
/// [`GroupElement::decode_all`].
#[inline(always)]
fn decode_field<F: FieldLanes>(s: &F) -> (EdwardsPoint<F>, F::Choice) {
    let one = F::ONE;
    let ss = s.square();
    let u1 = one.sub(&ss);
    let u2 = one.add(&ss);
    let u2_sqr = u2.square();
    // v = -(D * u1^2) - u2_sqr
    let v = F::splat(edwards_d()).mul(&u1.square()).neg().sub(&u2_sqr);
    let (was_square, invsqrt) = v.mul(&u2_sqr).invsqrt();
    let den_x = invsqrt.mul(&u2);
    let den_y = invsqrt.mul(&den_x).mul(&v);

    let x = s.add(s).mul(&den_x).abs();
    let y = u1.mul(&den_y);
    let t = x.mul(&y);

    let yes = F::Choice::from(true);
    let invalid = (was_square ^ yes) | t.is_negative() | y.ct_eq(&F::ZERO);
    (EdwardsPoint { x, y, z: one, t }, invalid ^ yes)
}

/// The batch entry points' bodies where the eight-lane field kernel is
/// compiled in: eight points (or encodings) per [`EdwardsPoint`] (or
/// field element) over `F51x8`, a short last group padded with the
/// identity (or walked with idle lanes).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
))]
mod batch {
    use super::{Doubling, EdwardsPoint, FixedBaseTable, GroupElement, Scalar};
    use crate::field::ifma::{F51x8, LaneMask};
    use crate::field::FieldElement;

    /// A group of fewer elements than this is cheaper one element at a
    /// time: a table walk, an encode or a decode in lanes costs about
    /// two scalar ones whatever the number of lanes in use
    /// (`batch_crypto`'s `fixed_base/table_mul_x8`, `encode_256` and
    /// `decode_256` rows), so a one-off seal — a batch of one — keeps
    /// the scalar kernels' price, and so does a frame carrying one
    /// point.  Only a batch's last group can be this short.
    const LANES_FROM: usize = 3;

    /// A multiscalar multiplication of fewer terms than this keeps the
    /// scalar Straus: the lane engine's 64 windows of lane doublings
    /// cost ~55 µs whatever the term count, a scalar term ~6–10 µs and
    /// a lane term ~3.5 µs, so the two meet at six to eight terms (one
    /// proof's own check is two).
    const MSM_LANES_FROM: usize = 8;

    pub(super) fn vartime_multiscalar_mul(
        scalars: &[Scalar],
        points: &[EdwardsPoint],
    ) -> EdwardsPoint {
        if points.len() < MSM_LANES_FROM {
            EdwardsPoint::vartime_multiscalar_mul(scalars, points)
        } else {
            EdwardsPoint::lanes_vartime_multiscalar_mul(scalars, points)
        }
    }

    pub(super) fn mul_pair(
        points: &[GroupElement],
        a: &Scalar,
        b: &Scalar,
    ) -> Vec<(GroupElement, GroupElement)> {
        let mut out = Vec::with_capacity(points.len());
        for group in points.chunks(8) {
            let (pa, pb) = EdwardsPoint::from_lanes(|i| group.get(i).map(|p| &p.0))
                .lanes_scalar_mul_pair(a, b);
            let (pa, pb) = (pa.lanes(), pb.lanes());
            out.extend((0..group.len()).map(|i| (GroupElement(pa[i]), GroupElement(pb[i]))));
        }
        out
    }

    pub(super) fn vartime_mul(points: &[GroupElement], x: &Scalar) -> Vec<GroupElement> {
        let mut out = Vec::with_capacity(points.len());
        for group in points.chunks(8) {
            let px = EdwardsPoint::from_lanes(|i| group.get(i).map(|p| &p.0))
                .lanes_vartime_scalar_mul(x);
            out.extend(px.lanes()[..group.len()].iter().copied().map(GroupElement));
        }
        out
    }

    pub(super) fn fixed_mul_all(table: &FixedBaseTable, xs: &[Scalar]) -> Vec<GroupElement> {
        let mut out = Vec::with_capacity(xs.len());
        for group in xs.chunks(8) {
            if group.len() < LANES_FROM {
                out.extend(group.iter().map(|x| GroupElement(table.mul(x))));
                continue;
            }
            let px = table.lanes_mul(group);
            out.extend(px.lanes()[..group.len()].iter().copied().map(GroupElement));
        }
        out
    }

    pub(super) fn encode_all(points: &[GroupElement]) -> Vec<[u8; 32]> {
        // A sibling of the transposes, like the ladders in `edwards.rs`'s
        // `lanes` module: the frame of an inlined exponentiation tower
        // is not added to theirs.
        #[inline(never)]
        fn encode8(points: &EdwardsPoint<F51x8>) -> F51x8 {
            super::encode_field(points)
        }
        let mut out = Vec::with_capacity(points.len());
        for group in points.chunks(8) {
            if group.len() < LANES_FROM {
                out.extend(group.iter().map(GroupElement::encode));
                continue;
            }
            let s = encode8(&EdwardsPoint::from_lanes(|i| group.get(i).map(|p| &p.0)));
            out.extend(
                s.to_lanes()[..group.len()]
                    .iter()
                    .map(|limbs| FieldElement::from_limbs51(limbs).to_bytes()),
            );
        }
        out
    }

    /// Lane groups per shared inversion.
    const DOUBLE_ENCODE_GROUPS: usize = super::DOUBLE_ENCODE_BATCH / 8;

    pub(super) fn double_encode_all<const POINTS: bool>(
        points: &[GroupElement],
    ) -> (Vec<GroupElement>, Vec<[u8; 32]>) {
        if points.len() < LANES_FROM {
            return super::double_encode_serial::<POINTS, LANES_FROM>(points);
        }
        let mut encodings = Vec::with_capacity(points.len());
        let mut doubled = Vec::with_capacity(if POINTS { points.len() } else { 0 });
        for batch in points.chunks(super::DOUBLE_ENCODE_BATCH) {
            let mut group = batch.chunks(8);
            batch_double_encode(batch, |doubling, s| {
                let n = group.next().expect("one group per slot").len();
                encodings.extend(
                    s.to_lanes()[..n]
                        .iter()
                        .map(|limbs| FieldElement::from_limbs51(limbs).to_bytes()),
                );
                if POINTS {
                    doubled.extend(
                        doubling.point().lanes()[..n]
                            .iter()
                            .copied()
                            .map(GroupElement),
                    );
                }
            });
        }
        (doubled, encodings)
    }

    /// One shared inversion's batch, eight points to a slot: a sibling
    /// of the transposes, as `encode8` is, holding the batch's slots.
    #[inline(never)]
    fn batch_double_encode(batch: &[GroupElement], done: impl FnMut(&Doubling<F51x8>, &F51x8)) {
        super::double_encode_field::<F51x8, DOUBLE_ENCODE_GROUPS>(
            batch.len().div_ceil(8),
            |j| EdwardsPoint::from_lanes(|i| batch.get(8 * j + i).map(|p| &p.0)),
            done,
        );
    }

    pub(super) fn decode_all(encodings: &[[u8; 32]]) -> Vec<Option<GroupElement>> {
        // A sibling of the transposes, as `encode8` is.
        #[inline(never)]
        fn decode8(s: &F51x8) -> (EdwardsPoint<F51x8>, LaneMask) {
            super::decode_field(s)
        }
        let mut out = Vec::with_capacity(encodings.len());
        for group in encodings.chunks(8) {
            if group.len() < LANES_FROM {
                out.extend(group.iter().map(GroupElement::decode));
                continue;
            }
            let s: [Option<FieldElement>; 8] =
                std::array::from_fn(|i| group.get(i).and_then(super::canonical_s));
            let limbs = s.map(|s| s.unwrap_or(FieldElement::ZERO).to_limbs51());
            let (points, valid) = decode8(&F51x8::from_lanes(&limbs));
            let points = points.lanes();
            out.extend((0..group.len()).map(|i| {
                let ok = s[i].is_some() && valid.0 >> i & 1 == 1;
                ok.then_some(GroupElement(points[i]))
            }));
        }
        out
    }
}

/// The batch entry points' bodies on every other build: the per-point
/// scalar kernels.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
)))]
mod batch {
    use super::{EdwardsPoint, FixedBaseTable, GroupElement, GroupTable, Scalar};

    pub(super) fn vartime_multiscalar_mul(
        scalars: &[Scalar],
        points: &[EdwardsPoint],
    ) -> EdwardsPoint {
        EdwardsPoint::vartime_multiscalar_mul(scalars, points)
    }

    pub(super) fn mul_pair(
        points: &[GroupElement],
        a: &Scalar,
        b: &Scalar,
    ) -> Vec<(GroupElement, GroupElement)> {
        GroupTable::batch_new(points)
            .iter()
            .map(|table| table.mul_pair(a, b))
            .collect()
    }

    pub(super) fn vartime_mul(points: &[GroupElement], x: &Scalar) -> Vec<GroupElement> {
        points.iter().map(|p| p.vartime_mul(x)).collect()
    }

    pub(super) fn fixed_mul_all(table: &FixedBaseTable, xs: &[Scalar]) -> Vec<GroupElement> {
        xs.iter().map(|x| GroupElement(table.mul(x))).collect()
    }

    pub(super) fn encode_all(points: &[GroupElement]) -> Vec<[u8; 32]> {
        points.iter().map(|p| p.encode()).collect()
    }

    pub(super) fn double_encode_all<const POINTS: bool>(
        points: &[GroupElement],
    ) -> (Vec<GroupElement>, Vec<[u8; 32]>) {
        super::double_encode_serial::<POINTS, { super::DOUBLE_ENCODE_BATCH }>(points)
    }

    pub(super) fn decode_all(encodings: &[[u8; 32]]) -> Vec<Option<GroupElement>> {
        encodings.iter().map(GroupElement::decode).collect()
    }
}

impl std::ops::Add for GroupElement {
    type Output = GroupElement;
    fn add(self, rhs: GroupElement) -> GroupElement {
        GroupElement::add(&self, &rhs)
    }
}
impl std::ops::Sub for GroupElement {
    type Output = GroupElement;
    fn sub(self, rhs: GroupElement) -> GroupElement {
        GroupElement::sub(&self, &rhs)
    }
}
impl std::ops::Neg for GroupElement {
    type Output = GroupElement;
    fn neg(self) -> GroupElement {
        GroupElement::neg(&self)
    }
}
impl std::ops::Mul<Scalar> for GroupElement {
    type Output = GroupElement;
    fn mul(self, rhs: Scalar) -> GroupElement {
        GroupElement::mul(&self, &rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Encodings of small multiples 0..16 of the Ristretto basepoint,
    /// from draft-irtf-cfrg-ristretto255-decaf448 (Appendix A).
    const SMALL_MULTIPLES: [&str; 16] = [
        "0000000000000000000000000000000000000000000000000000000000000000",
        "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
        "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
        "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
        "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
        "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
        "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
        "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
        "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
        "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
        "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
        "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
        "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
        "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
        "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
        "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
    ];

    #[test]
    fn small_multiples_match_draft_vectors() {
        let g = GroupElement::generator();
        let mut acc = GroupElement::identity();
        for expected in SMALL_MULTIPLES.iter() {
            assert_eq!(&to_hex(&acc.encode()), expected);
            acc = acc.add(&g);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let p = GroupElement::base_mul(&Scalar::random(&mut rng));
            let enc = p.encode();
            let q = GroupElement::decode(&enc).unwrap();
            assert_eq!(p, q);
            assert_eq!(q.encode(), enc);
        }
    }

    #[test]
    fn decode_rejects_noncanonical() {
        // A negative s (odd first byte paired with otherwise-valid data)
        // must be rejected; so must s >= p.
        let mut bytes = GroupElement::generator().encode();
        // Make s negative by flipping low bit (if it becomes invalid, good;
        // we check it does not decode to the same point at minimum).
        bytes[0] ^= 1;
        if let Some(p) = GroupElement::decode(&bytes) {
            assert_ne!(p, GroupElement::generator());
        }
        // s = p (non-canonical encoding of 0)
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        assert!(GroupElement::decode(&p_bytes).is_none());
    }

    #[test]
    fn cofactor_components_encode_identically() {
        // Adding an 8-torsion Edwards point must not change the Ristretto
        // encoding. 4-torsion point: (x, 0) ... use the known order-4 point
        // (sqrt(-1) related); simplest: take E = l*P' for random Edwards P'
        // obtained via elligator, which lands in the torsion subgroup.
        let mut rng = StdRng::seed_from_u64(6);
        let p = GroupElement::base_mul(&Scalar::random(&mut rng));
        // Torsion point: the Edwards point of order 4 with x=1? Instead use:
        // t = (l * E) where E is any Edwards point; l kills the prime-order
        // component leaving pure torsion.
        let e = GroupElement::random(&mut rng).0;
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let torsion = e.scalar_mul(&l_minus_1).add(&e); // l * E
        let q = GroupElement(p.0.add(&torsion));
        assert_eq!(p.encode(), q.encode());
        assert_eq!(p, q);
    }

    #[test]
    fn group_is_prime_order() {
        // l * g = identity in Ristretto.
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let almost = GroupElement::base_mul(&l_minus_1);
        assert_eq!(
            almost.add(&GroupElement::generator()),
            GroupElement::identity()
        );
    }

    #[test]
    fn dh_is_commutative() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let ga = GroupElement::base_mul(&a);
        let gb = GroupElement::base_mul(&b);
        assert_eq!(ga.mul(&b), gb.mul(&a));
    }

    #[test]
    fn from_uniform_bytes_is_deterministic_and_valid() {
        let bytes = [42u8; 64];
        let p = GroupElement::from_uniform_bytes(&bytes);
        let q = GroupElement::from_uniform_bytes(&bytes);
        assert_eq!(p, q);
        assert!(p.0.is_on_curve());
        // Roundtrips through encoding
        let r = GroupElement::decode(&p.encode()).unwrap();
        assert_eq!(p, r);
    }

    #[test]
    fn random_elements_are_distinct() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = GroupElement::random(&mut rng);
        let q = GroupElement::random(&mut rng);
        assert_ne!(p, q);
    }

    #[test]
    fn product_of_elements() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<Scalar> = (0..5).map(|_| Scalar::random(&mut rng)).collect();
        let points: Vec<GroupElement> = xs.iter().map(GroupElement::base_mul).collect();
        let sum_scalar = xs.iter().fold(Scalar::ZERO, |a, b| a.add(b));
        assert_eq!(
            GroupElement::product(&points),
            GroupElement::base_mul(&sum_scalar)
        );
    }

    #[test]
    fn operators_match_methods() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Scalar::random(&mut rng);
        let p = GroupElement::base_mul(&a);
        let g = GroupElement::generator();
        assert_eq!(p + g, p.add(&g));
        assert_eq!(p - g, p.sub(&g));
        assert_eq!(-p, p.neg());
        assert_eq!(g * a, g.mul(&a));
    }

    #[test]
    fn identity_encoding_is_all_zero() {
        assert_eq!(GroupElement::identity().encode(), [0u8; 32]);
        assert!(GroupElement::decode(&[0u8; 32]).unwrap().is_identity());
    }

    #[test]
    fn encode_all_matches_encode() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut points: Vec<GroupElement> =
            (0..10).map(|_| GroupElement::random(&mut rng)).collect();
        points.push(GroupElement::identity());
        // Torsion representatives: same coset, so same encoding — and
        // they exercise the u2 = 0 masking.
        let e = GroupElement::random(&mut rng).0;
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let torsion = e.scalar_mul(&l_minus_1).add(&e); // pure torsion
        points.push(GroupElement(GroupElement::identity().0.add(&torsion)));
        points.push(GroupElement(points[0].0.add(&torsion)));
        let batch = GroupElement::encode_all(&points);
        for (p, enc) in points.iter().zip(&batch) {
            assert_eq!(*enc, p.encode());
        }
        assert!(GroupElement::encode_all(&[]).is_empty());
    }

    #[test]
    fn group_table_matches_mul() {
        let mut rng = StdRng::seed_from_u64(21);
        let points: Vec<GroupElement> = (0..4).map(|_| GroupElement::random(&mut rng)).collect();
        let tables = GroupTable::batch_new(&points);
        for (p, table) in points.iter().zip(&tables) {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            assert_eq!(table.mul(&a), p.mul(&a));
            let (pa, pb) = table.mul_pair(&a, &b);
            assert_eq!(pa, p.mul(&a));
            assert_eq!(pb, p.mul(&b));
        }
        let single = GroupTable::new(&points[0]);
        let s = Scalar::random(&mut rng);
        assert_eq!(single.mul(&s), points[0].mul(&s));
    }

    #[test]
    fn fixed_group_table_matches_mul() {
        let mut rng = StdRng::seed_from_u64(24);
        let p = GroupElement::random(&mut rng);
        let table = FixedGroupTable::new(&p);
        for _ in 0..4 {
            let x = Scalar::random(&mut rng);
            assert_eq!(table.mul(&x), p.mul(&x));
        }
        assert!(table.mul(&Scalar::ZERO).is_identity());
    }

    /// `mul_all` is `mul` per exponent at every length around the lane
    /// width — none, a batch of one, a group with an idle lane, a full
    /// group, a group and a straggler, two and a straggler — over
    /// exponents at every edge of the recoding (0, 1, ℓ−1, 2^252 ± 1,
    /// the radix-16 carry patterns) and random ones, each exponent
    /// meeting different neighbours at different lengths.
    #[test]
    fn mul_all_matches_mul_at_every_length() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut pool = crate::edwards::tests::vartime_edge_scalars();
        let two_252 = Scalar::from_bytes_mod_order(&{
            let mut b = [0u8; 32];
            b[31] = 0x10;
            b
        });
        pool.push(two_252.add(&Scalar::ONE));
        pool.extend((0..9).map(|_| Scalar::random(&mut rng)));
        let point = GroupElement::random(&mut rng);
        let table = FixedGroupTable::new(&point);
        for len in [0usize, 1, 7, 8, 9, 17] {
            for start in 0..pool.len() {
                let xs: Vec<Scalar> = (0..len)
                    .map(|i| pool[(start + 7 * i) % pool.len()])
                    .collect();
                let expected: Vec<GroupElement> = xs.iter().map(|x| table.mul(x)).collect();
                assert_eq!(table.mul_all(&xs), expected, "len {len} from {start}");
                if start % 8 == 0 {
                    let expected: Vec<GroupElement> =
                        xs.iter().map(GroupElement::base_mul).collect();
                    assert_eq!(GroupElement::base_mul_all(&xs), expected, "g, len {len}");
                }
            }
        }
        assert_eq!(table.mul(&pool[3]), point.mul(&pool[3]));
    }

    /// The four Edwards points of one Ristretto coset: `p` plus each
    /// point of the 4-torsion subgroup — the identity, `(0, -1)` and
    /// `(±i, 0)`.
    fn coset_representatives(p: &GroupElement) -> [GroupElement; 4] {
        let (zero, one) = (FieldElement::ZERO, FieldElement::ONE);
        let i = *FieldElement::sqrt_m1();
        let torsion = |x: FieldElement, y: FieldElement| EdwardsPoint {
            x,
            y,
            z: one,
            t: x.mul(&y),
        };
        [
            torsion(zero, one),
            torsion(zero, one.neg()),
            torsion(i, zero),
            torsion(i.neg(), zero),
        ]
        .map(|t| {
            assert!(t.is_on_curve() && t.double().double().is_identity());
            GroupElement(p.0.add(&t))
        })
    }

    /// Which side of the encode formula's two sign tests a point takes:
    /// `(rotate, negate y)`, from its affine coordinates.
    fn encode_branches(p: &GroupElement) -> (bool, bool) {
        let z_inv = p.0.z.invert();
        let (x, y) = (p.0.x.mul(&z_inv), p.0.y.mul(&z_inv));
        let rotate = x.mul(&y).is_negative();
        let x = if rotate {
            y.mul(FieldElement::sqrt_m1())
        } else {
            x
        };
        (rotate, x.is_negative())
    }

    /// `encode_all` is `encode` per point, byte for byte, wherever a
    /// point falls in a group and whatever its neighbours: on the
    /// identity, on all four coset representatives of a point (one
    /// encoding, each side of `rotate` and of the final sign taken by
    /// some lane of the same group), and back from the wire
    /// (`encode_all(decode(b)) == b`).
    #[test]
    fn encode_all_matches_encode_on_every_branch() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut points = vec![GroupElement::identity()];
        let mut branches = std::collections::HashSet::new();
        for _ in 0..6 {
            let p = GroupElement::random(&mut rng);
            let coset = coset_representatives(&p);
            for q in &coset {
                assert_eq!(q.encode(), p.encode());
                branches.insert(encode_branches(q));
            }
            points.extend(coset);
        }
        points.extend(coset_representatives(&GroupElement::identity()));
        assert_eq!(
            branches.len(),
            4,
            "every (rotate, sign) combination is exercised"
        );
        for len in [0usize, 1, 2, 3, 7, 8, 9, 17, points.len()] {
            for start in 0..points.len() {
                let group: Vec<GroupElement> = (0..len)
                    .map(|i| points[(start + 3 * i) % points.len()])
                    .collect();
                let expected: Vec<[u8; 32]> = group.iter().map(|p| p.encode()).collect();
                assert_eq!(
                    GroupElement::encode_all(&group),
                    expected,
                    "len {len} from {start}"
                );
            }
        }
        let wire: Vec<[u8; 32]> = (0..19)
            .map(|_| GroupElement::base_mul(&Scalar::random(&mut rng)).encode())
            .collect();
        let decoded: Vec<GroupElement> = wire
            .iter()
            .map(|b| GroupElement::decode(b).expect("an encoding decodes"))
            .collect();
        assert_eq!(GroupElement::encode_all(&decoded), wire);
    }

    /// Encodings every check of the decode rejects, one or more per
    /// check, with the check's name: `s ≥ p` (and a set top bit), a
    /// negative `s`, a non-square, a negative `t`, and `y = 0`.  The
    /// non-square and negative-`t` cases are found by walking even `s`
    /// and sorting the rejects: a negative `t` still comes with a point
    /// on the curve (the root exists), a non-square does not.
    fn invalid_encodings() -> Vec<(&'static str, [u8; 32])> {
        let mut bad = Vec::new();
        let mut p = [0xffu8; 32];
        (p[0], p[31]) = (0xed, 0x7f);
        bad.push(("s = p", p));
        p[0] = 0xff;
        bad.push(("s = 2^255 - 1", p));
        let mut top = GroupElement::generator().encode();
        top[31] |= 0x80;
        bad.push(("top bit set", top));
        let s = FieldElement::from_bytes(&GroupElement::generator().encode());
        bad.push(("negative s", s.neg().to_bytes()));
        bad.push(("y = 0 (s = -1)", FieldElement::ONE.neg().to_bytes()));
        let (mut non_square, mut negative_t) = (0, 0);
        for k in 1u64..1000 {
            let s = FieldElement::from_u64(2 * k);
            let (point, valid) = decode_field(&s);
            if valid == 1 {
                continue;
            }
            if point.is_on_curve() && negative_t < 2 {
                negative_t += 1;
                bad.push(("negative t", s.to_bytes()));
            } else if !point.is_on_curve() && non_square < 2 {
                non_square += 1;
                bad.push(("non-square", s.to_bytes()));
            }
            if (non_square, negative_t) == (2, 2) {
                break;
            }
        }
        assert_eq!((non_square, negative_t), (2, 2), "both rejects found");
        for (what, bytes) in &bad {
            assert!(GroupElement::decode(bytes).is_none(), "{what} decodes");
        }
        bad
    }

    /// `decode_all` is `decode` per encoding on every branch of the
    /// formula — the identity, valid points, and each rejection of
    /// [`invalid_encodings`] — at every length around the lane width,
    /// with the bad encoding at every position among valid neighbours
    /// (whose points must not move), and with the bad ones side by side.
    #[test]
    fn decode_all_matches_decode_on_every_branch() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut points = vec![GroupElement::identity()];
        points.extend((0..16).map(|_| GroupElement::random(&mut rng)));
        let valid = GroupElement::encode_all(&points);
        let decoded: Vec<GroupElement> = GroupElement::decode_all(&valid)
            .into_iter()
            .map(|p| p.expect("an encoding decodes"))
            .collect();
        assert_eq!(decoded, points, "decode_all(encode_all(P)) == P");
        let bad = invalid_encodings();
        for len in [0usize, 1, 2, 3, 7, 8, 9, 17] {
            let base: Vec<[u8; 32]> = (0..len).map(|i| valid[(i + len) % valid.len()]).collect();
            for (what, bytes) in &bad {
                for at in 0..len {
                    let mut encodings = base.clone();
                    encodings[at] = *bytes;
                    let expected: Vec<Option<GroupElement>> =
                        encodings.iter().map(GroupElement::decode).collect();
                    assert_eq!(expected.iter().flatten().count(), len - 1);
                    assert_eq!(
                        GroupElement::decode_all(&encodings),
                        expected,
                        "{what} at {at} of {len}"
                    );
                }
            }
            let mixed: Vec<[u8; 32]> = (0..len)
                .map(|i| match i % 3 {
                    0 => bad[(i / 3) % bad.len()].1,
                    _ => base[i],
                })
                .collect();
            let expected: Vec<Option<GroupElement>> =
                mixed.iter().map(GroupElement::decode).collect();
            assert_eq!(GroupElement::decode_all(&mixed), expected, "mixed, {len}");
        }
        assert!(GroupElement::decode_all(&[]).is_empty());
    }

    /// `double_encode_all(P)[i] == (P_i + P_i).encode()` at every batch
    /// size from 0 to 40 (a batch of one, the lane groups' idle lanes,
    /// full groups and stragglers) and across a shared inversion's
    /// boundary; the doubled points kept for a caller are `P_i + P_i`.
    #[test]
    fn double_encode_all_is_encode_of_double_at_every_size() {
        let mut rng = StdRng::seed_from_u64(28);
        let pool: Vec<GroupElement> = (0..DOUBLE_ENCODE_BATCH + 9)
            .map(|_| GroupElement::random(&mut rng))
            .collect();
        for len in (0..=40).chain([DOUBLE_ENCODE_BATCH + 9]) {
            let points = &pool[..len];
            let expected: Vec<[u8; 32]> = points.iter().map(|p| p.add(p).encode()).collect();
            assert_eq!(
                GroupElement::double_encode_all(points),
                expected,
                "len {len}"
            );
            let (doubled, encodings) = GroupElement::double_all_encoded(points);
            assert_eq!(encodings, expected, "len {len}, with points");
            for (d, p) in doubled.iter().zip(points) {
                assert!(d.0.is_on_curve());
                assert_eq!(*d, p.add(p));
            }
        }
    }

    /// The identity — the one point whose `eg·fh` is zero — at every
    /// position of batches around the lane width, alone, in pairs and
    /// filling the batch: it encodes as zero bytes and its neighbours do
    /// not move.
    #[test]
    fn double_encode_all_masks_the_identity_at_every_position() {
        let mut rng = StdRng::seed_from_u64(29);
        let identity = GroupElement::identity();
        for len in [1usize, 2, 3, 7, 8, 9, 16, 17, 40] {
            let base: Vec<GroupElement> =
                (0..len).map(|_| GroupElement::random(&mut rng)).collect();
            for at in 0..len {
                for also in [None, Some((at + 5) % len)] {
                    let mut points = base.clone();
                    points[at] = identity;
                    if let Some(j) = also {
                        points[j] = identity;
                    }
                    let expected: Vec<[u8; 32]> =
                        points.iter().map(|p| p.add(p).encode()).collect();
                    assert_eq!(expected[at], [0u8; 32]);
                    assert_eq!(
                        GroupElement::double_encode_all(&points),
                        expected,
                        "identity at {at} (and {also:?}) of {len}"
                    );
                }
            }
            let all = vec![identity; len];
            assert_eq!(GroupElement::double_encode_all(&all), vec![[0u8; 32]; len]);
        }
    }

    /// A point shifted by each 4-torsion point is the same group
    /// element, so its double encodes the same whichever representative
    /// the batch is handed — side by side in one lane group, or spread
    /// over several — and over a sample of points both sign tests of
    /// the formula go each way.
    #[test]
    fn double_encode_all_is_the_same_for_every_representative() {
        let mut rng = StdRng::seed_from_u64(30);
        let mut points = Vec::new();
        let mut branches = std::collections::HashSet::new();
        for _ in 0..10 {
            let p = GroupElement::random(&mut rng);
            let coset = coset_representatives(&p);
            for q in &coset {
                branches.insert(encode_branches(&q.add(q)));
            }
            points.extend(coset);
        }
        points.extend(coset_representatives(&GroupElement::identity()));
        assert_eq!(branches.len(), 4, "every (rotate, sign) combination");
        let expected: Vec<[u8; 32]> = points.iter().map(|q| q.add(q).encode()).collect();
        for stride in [1usize, 3, 7] {
            let order: Vec<usize> = (0..points.len())
                .map(|i| (i * stride) % points.len())
                .collect();
            let shuffled: Vec<GroupElement> = order.iter().map(|&i| points[i]).collect();
            let want: Vec<[u8; 32]> = order.iter().map(|&i| expected[i]).collect();
            assert_eq!(
                GroupElement::double_encode_all(&shuffled),
                want,
                "stride {stride}"
            );
        }
        for coset in points.chunks(4) {
            let encodings = GroupElement::double_encode_all(coset);
            assert!(encodings.iter().all(|e| *e == encodings[0]));
            assert_eq!(encodings[0], coset[0].add(&coset[0]).encode());
        }
    }

    #[test]
    fn vartime_mul_matches_ct_mul() {
        let mut rng = StdRng::seed_from_u64(22);
        let p = GroupElement::random(&mut rng);
        for _ in 0..6 {
            let x = Scalar::random(&mut rng);
            assert_eq!(p.vartime_mul(&x), p.mul(&x));
        }
        assert!(p.vartime_mul(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn vartime_multiscalar_matches_naive() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [0usize, 1, 3, 17] {
            let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
            let points: Vec<GroupElement> =
                (0..n).map(|_| GroupElement::random(&mut rng)).collect();
            let naive = scalars
                .iter()
                .zip(&points)
                .fold(GroupElement::identity(), |acc, (s, p)| acc.add(&p.mul(s)));
            assert_eq!(
                GroupElement::vartime_multiscalar_mul(&scalars, &points),
                naive,
                "n={n}"
            );
        }
    }
}
