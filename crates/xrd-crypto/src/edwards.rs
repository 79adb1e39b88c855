//! Points on the twisted Edwards curve `-x^2 + y^2 = 1 + d x^2 y^2`
//! (edwards25519), in extended coordinates `(X:Y:Z:T)` with `x = X/Z`,
//! `y = Y/Z`, `xy = T/Z`.
//!
//! This module is internal plumbing: the public prime-order group exposed
//! by the crate is [`crate::ristretto::GroupElement`], which wraps these
//! points.  Formulas follow the standard unified a=-1 HWCD'08 set, with
//! the hot paths running on the mixed-coordinate pipeline (projective
//! "P2" doublings, cached-Niels additions) so a scalar multiplication
//! costs roughly half the field work of the naive extended-only ladder.
//!
//! The whole pipeline is generic over the field representation:
//! `EdwardsPoint<F>` defaults to the build-selected [`FieldElement`],
//! which is what the rest of the crate (and the public API) uses, while
//! differential tests instantiate the *same* formulas over the portable
//! 5×51 backend as well, the oracle every build carries.
//! The formulas, tables and ladders ask only for [`FieldArith`], so
//! they also instantiate at the eight-lane `F51x8` where it is compiled
//! in — eight points per value, one digit stream for all of them (the
//! `impl EdwardsPoint<F51x8>` block below); what needs one element's
//! bytes, inverse or equality (compression, affine tables, `ct_eq`)
//! asks for [`FieldBackend`].
//!
//! Four multiplication strategies coexist:
//!
//! * [`EdwardsPoint::scalar_mul`] — constant-time-style signed radix-16
//!   ladder with a masked table scan; safe for secret scalars.
//! * [`FixedBaseTable`] — 32 rows of precomputed multiples of a base
//!   that stays fixed across many multiplications (the generator, a
//!   chain's mixing keys for an epoch): 64 masked-scan additions and 4
//!   doublings instead of a 252-doubling ladder; safe for secret
//!   scalars.  Where the lane kernel is compiled in, eight scalars share
//!   one walk of the one table (per-lane digits, see `scan_row`).
//! * [`PointTable`] — a reusable signed radix-16 table of a fixed point,
//!   batch-normalized to affine Niels form with one shared field
//!   inversion ([`FieldElement::batch_invert`]); the AHS hop kernel
//!   builds one table per entry and runs both the `msk` and `bsk`
//!   multiplications off it, still with masked (constant-time-style)
//!   scans.
//! * [`EdwardsPoint::vartime_multiscalar_mul`] — Straus (small n) or
//!   Pippenger (large n) multi-scalar multiplication, **variable time**:
//!   only ever used on public data (batched proof verification).

use std::sync::OnceLock;

use crate::field::{Digit, FieldArith, FieldBackend, FieldElement, ScanFrom};
use crate::scalar::Scalar;

/// The curve constant `d = -121665/121666` for the build-selected
/// field backend, derived at first use.
pub fn edwards_d() -> &'static FieldElement {
    <FieldElement as FieldBackend>::edwards_d()
}

/// A point on edwards25519 in extended coordinates, generic over the
/// field representation (defaulting to the build-selected backend).
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint<F: FieldArith = FieldElement> {
    pub(crate) x: F,
    pub(crate) y: F,
    pub(crate) z: F,
    pub(crate) t: F,
}

/// The canonical compressed (curve25519 "y plus sign bit") encoding of the
/// Ed25519 basepoint, `y = 4/5` with even `x`.
const BASEPOINT_COMPRESSED: [u8; 32] = [
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
];

// ---------------------------------------------------------------------
// Internal curve models (mixed-coordinate pipeline)
//
//   ProjectivePoint ("P2"):   x = X/Z, y = Y/Z          — cheap doubling
//   CompletedPoint ("P1xP1"): x = X/Z, y = Y/T          — formula output
//   ProjectiveNielsPoint:     (Y+X, Y-X, Z, 2dT) cache  — 4-mul addition
//   AffineNielsPoint:         (y+x, y-x, 2dxy)   cache  — 3-mul addition
// ---------------------------------------------------------------------

/// A point in projective "P2" coordinates (no `T`): doubling input.
#[derive(Clone, Copy, Debug)]
struct ProjectivePoint<F: FieldArith> {
    x: F,
    y: F,
    z: F,
}

/// The output of an addition/doubling formula before renormalization:
/// `x = X/Z`, `y = Y/T`.
#[derive(Clone, Copy, Debug)]
struct CompletedPoint<F: FieldArith> {
    x: F,
    y: F,
    z: F,
    t: F,
}

/// Cached form of a point for repeated additions (projective).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProjectiveNielsPoint<F: FieldArith = FieldElement> {
    y_plus_x: F,
    y_minus_x: F,
    z: F,
    t2d: F,
}

/// Cached form of an *affine* (`Z = 1`) point: one multiplication
/// cheaper to add than [`ProjectiveNielsPoint`], and 3 field elements
/// instead of 4, so masked table scans touch less memory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AffineNielsPoint<F: FieldArith = FieldElement> {
    y_plus_x: F,
    y_minus_x: F,
    xy2d: F,
}

impl<F: FieldArith> ProjectiveNielsPoint<F> {
    /// The cached form of the identity.
    const IDENTITY: ProjectiveNielsPoint<F> = ProjectiveNielsPoint {
        y_plus_x: F::ONE,
        y_minus_x: F::ONE,
        z: F::ONE,
        t2d: F::ZERO,
    };

    /// Negate where `choice` is set (swaps the sum/difference caches
    /// and negates the `2dT` term).
    #[inline(always)]
    fn conditional_negate(&self, choice: F::Choice) -> Self {
        ProjectiveNielsPoint {
            y_plus_x: F::select(&self.y_plus_x, &self.y_minus_x, choice),
            y_minus_x: F::select(&self.y_minus_x, &self.y_plus_x, choice),
            z: self.z,
            t2d: self.t2d.conditional_negate(choice),
        }
    }

    /// The cached coordinates, as [`scan_row`] takes them.
    #[inline(always)]
    fn coords(&self) -> [&F; 4] {
        [&self.y_plus_x, &self.y_minus_x, &self.z, &self.t2d]
    }
}

impl<F: FieldArith> AffineNielsPoint<F> {
    /// The cached form of the identity.
    const IDENTITY: AffineNielsPoint<F> = AffineNielsPoint {
        y_plus_x: F::ONE,
        y_minus_x: F::ONE,
        xy2d: F::ZERO,
    };

    /// Negate where `choice` is set.
    #[inline(always)]
    fn conditional_negate(&self, choice: F::Choice) -> Self {
        AffineNielsPoint {
            y_plus_x: F::select(&self.y_plus_x, &self.y_minus_x, choice),
            y_minus_x: F::select(&self.y_minus_x, &self.y_plus_x, choice),
            xy2d: self.xy2d.conditional_negate(choice),
        }
    }

    /// The cached coordinates, as [`scan_row`] takes them.
    #[inline(always)]
    fn coords(&self) -> [&F; 3] {
        [&self.y_plus_x, &self.y_minus_x, &self.xy2d]
    }
}

impl<F: FieldArith> ProjectivePoint<F> {
    /// Doubling: 4 squarings, no general multiplications.  Inputs are
    /// reduced (they come out of multiplications); the additive steps
    /// are lazy where the backend supports it.  The bounds noted inline
    /// are the 5×51 backend's (the 4×64 backend reduces eagerly and
    /// satisfies them trivially; see `field/mod.rs`).
    #[inline(always)]
    fn double(&self) -> CompletedPoint<F> {
        let xx = self.x.square();
        let yy = self.y.square();
        // 2Z^2 in one carry pass (reduced output, so also a valid
        // `lazy_sub_wide` lhs below).
        let zz2 = self.z.square2();
        let x_plus_y_sq = self.x.lazy_add(&self.y).square();
        let yy_plus_xx = yy.lazy_add(&xx); // < 2^53
        let yy_minus_xx = yy.lazy_sub(&xx); // < 2^55.4
        CompletedPoint {
            x: x_plus_y_sq.lazy_sub(&yy_plus_xx), // 2XY, < 2^55.4
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.lazy_sub_wide(&yy_minus_xx), // < 2^56.5
        }
    }
}

impl<F: FieldArith> CompletedPoint<F> {
    /// Renormalize to "P2" (3 multiplications): enough to keep doubling.
    #[inline(always)]
    fn to_projective(self) -> ProjectivePoint<F> {
        ProjectivePoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
        }
    }

    /// Renormalize to extended coordinates (4 multiplications): needed
    /// before the next cached-Niels addition.
    #[inline(always)]
    fn to_extended(self) -> EdwardsPoint<F> {
        EdwardsPoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

/// Two independent doublings with their field operations interleaved
/// in program order, so each chain's multiplies fill the other's
/// pipeline bubbles (the out-of-order window cannot bridge two fully
/// sequential doublings — a whole doubling is several hundred uops).
/// Used by the two-scalar hop kernel; see
/// [`PointTable::scalar_mul_pair`].
#[inline(always)]
fn double_pair<F: FieldArith>(
    pa: &ProjectivePoint<F>,
    pb: &ProjectivePoint<F>,
) -> (CompletedPoint<F>, CompletedPoint<F>) {
    let xx_a = pa.x.square();
    let xx_b = pb.x.square();
    let yy_a = pa.y.square();
    let yy_b = pb.y.square();
    let zz2_a = pa.z.square2();
    let zz2_b = pb.z.square2();
    let xy_sq_a = pa.x.lazy_add(&pa.y).square();
    let xy_sq_b = pb.x.lazy_add(&pb.y).square();
    let yy_plus_xx_a = yy_a.lazy_add(&xx_a);
    let yy_plus_xx_b = yy_b.lazy_add(&xx_b);
    let yy_minus_xx_a = yy_a.lazy_sub(&xx_a);
    let yy_minus_xx_b = yy_b.lazy_sub(&xx_b);
    (
        CompletedPoint {
            x: xy_sq_a.lazy_sub(&yy_plus_xx_a),
            y: yy_plus_xx_a,
            z: yy_minus_xx_a,
            t: zz2_a.lazy_sub_wide(&yy_minus_xx_a),
        },
        CompletedPoint {
            x: xy_sq_b.lazy_sub(&yy_plus_xx_b),
            y: yy_plus_xx_b,
            z: yy_minus_xx_b,
            t: zz2_b.lazy_sub_wide(&yy_minus_xx_b),
        },
    )
}

/// Two independent "P2" renormalizations, interleaved like
/// [`double_pair`] (6 independent multiplies back to back).
#[inline(always)]
fn to_projective_pair<F: FieldArith>(
    ca: &CompletedPoint<F>,
    cb: &CompletedPoint<F>,
) -> (ProjectivePoint<F>, ProjectivePoint<F>) {
    let xa = ca.x.mul(&ca.t);
    let xb = cb.x.mul(&cb.t);
    let ya = ca.y.mul(&ca.z);
    let yb = cb.y.mul(&cb.z);
    let za = ca.z.mul(&ca.t);
    let zb = cb.z.mul(&cb.t);
    (
        ProjectivePoint {
            x: xa,
            y: ya,
            z: za,
        },
        ProjectivePoint {
            x: xb,
            y: yb,
            z: zb,
        },
    )
}

/// Two independent affine-Niels mixed additions, interleaved like
/// [`double_pair`].
#[inline(always)]
fn add_affine_niels_pair<F: FieldArith>(
    ea: &EdwardsPoint<F>,
    na: &AffineNielsPoint<F>,
    eb: &EdwardsPoint<F>,
    nb: &AffineNielsPoint<F>,
) -> (CompletedPoint<F>, CompletedPoint<F>) {
    let pp_a = ea.y.lazy_add(&ea.x).mul(&na.y_plus_x);
    let pp_b = eb.y.lazy_add(&eb.x).mul(&nb.y_plus_x);
    let mm_a = ea.y.lazy_sub(&ea.x).mul(&na.y_minus_x);
    let mm_b = eb.y.lazy_sub(&eb.x).mul(&nb.y_minus_x);
    let txy2d_a = ea.t.mul(&na.xy2d);
    let txy2d_b = eb.t.mul(&nb.xy2d);
    let z2_a = ea.z.lazy_add(&ea.z);
    let z2_b = eb.z.lazy_add(&eb.z);
    (
        CompletedPoint {
            x: pp_a.lazy_sub(&mm_a),
            y: pp_a.lazy_add(&mm_a),
            z: z2_a.lazy_add(&txy2d_a),
            t: z2_a.lazy_sub(&txy2d_a),
        },
        CompletedPoint {
            x: pp_b.lazy_sub(&mm_b),
            y: pp_b.lazy_add(&mm_b),
            z: z2_b.lazy_add(&txy2d_b),
            t: z2_b.lazy_sub(&txy2d_b),
        },
    )
}

/// The one masked table scan: the entry of `[identity, row...]` at
/// index `abs` (in `0..=8`), per lane, as `N` coordinates of the lane
/// type `F` read from a table held as `S`.  Uniform access pattern —
/// every entry is read, in order, and merged under its own hit
/// ([`ScanFrom`]); exactly one hit is set in any lane — so `abs` may be
/// secret.  `F = S` is a ladder over its own table (a digit stream
/// shared by all lanes is the splat case); `F` eight lanes and `S` a
/// single element is eight scalars walking one table.
#[inline(always)]
fn scan_row<'a, F: ScanFrom<S>, S: 'a, const N: usize>(
    identity: [&S; N],
    row: impl Iterator<Item = [&'a S; N]>,
    abs: F::Digit,
) -> [F; N] {
    let mut acc = identity.map(|c| F::scan_seed(c, abs.is(0)));
    for (j, entry) in row.enumerate() {
        let hit = abs.is(j as i8 + 1);
        for (a, c) in acc.iter_mut().zip(entry) {
            F::scan_merge(a, c, hit);
        }
    }
    acc.map(F::scan_finish)
}

/// The shared signed radix-16 window ladder: 63 windows of (4 cheap
/// doublings + one masked-scan addition) after seeding with the top
/// digit.  The window state is carried in completed form — the
/// doubling chain only needs P2 (3-mul renormalization) and only the
/// final pre-addition double pays for extended coordinates.  `$add`
/// maps `(EdwardsPoint<F>, F::Digit)` to a `CompletedPoint<F>` via the
/// caller's table-scan-and-add (affine or projective Niels); the
/// scalar's digit goes to every lane.
macro_rules! radix16_ladder {
    ($scalar:expr, $add:expr) => {{
        let add = $add;
        let digits = $scalar.to_radix_16();
        let mut c = add(EdwardsPoint::identity(), digits[63].into());
        for i in (0..63).rev() {
            let mut p = c.to_projective();
            for _ in 0..3 {
                p = p.double().to_projective();
            }
            c = add(p.double().to_extended(), digits[i].into());
        }
        c.to_extended()
    }};
}

/// One-shot signed radix-16 lookup table in projective Niels form,
/// used by [`EdwardsPoint::scalar_mul`].  Built without any inversion.
struct LookupTable<F: FieldArith>([ProjectiveNielsPoint<F>; 8]);

impl<F: FieldArith> LookupTable<F> {
    fn new(p: &EdwardsPoint<F>) -> LookupTable<F> {
        let cached = p.to_projective_niels();
        let mut table = [cached; 8];
        let mut multiple = *p;
        for entry in &mut table[1..] {
            multiple = multiple.add_projective_niels(&cached).to_extended();
            *entry = multiple.to_projective_niels();
        }
        LookupTable(table)
    }

    /// `scalar * P` off the table (constant-time-style).
    #[inline(always)]
    fn scalar_mul(&self, scalar: &Scalar) -> EdwardsPoint<F> {
        radix16_ladder!(scalar, |acc: EdwardsPoint<F>, d: F::Digit| acc
            .add_projective_niels(&self.select(d)))
    }

    /// `d * P` for a digit `d` in `[-8, 8)` per lane ([`scan_row`]).
    #[inline(always)]
    fn select(&self, d: F::Digit) -> ProjectiveNielsPoint<F> {
        let (sign, abs) = d.sign_abs();
        let [y_plus_x, y_minus_x, z, t2d] = scan_row::<F, F, 4>(
            ProjectiveNielsPoint::IDENTITY.coords(),
            self.0.iter().map(|entry| entry.coords()),
            abs,
        );
        ProjectiveNielsPoint {
            y_plus_x,
            y_minus_x,
            z,
            t2d,
        }
        .conditional_negate(sign)
    }
}

/// `[1P, ..., 8P]` in extended coordinates; even multiples come from
/// the cheaper doubling pipeline.
fn window_multiples<F: FieldArith>(p: &EdwardsPoint<F>) -> [EdwardsPoint<F>; 8] {
    let cached = p.to_projective_niels();
    let mut row = [*p; 8];
    row[1] = p.double(); // 2P
    row[2] = row[1].add_projective_niels(&cached).to_extended(); // 3P
    row[3] = row[1].double(); // 4P
    row[4] = row[3].add_projective_niels(&cached).to_extended(); // 5P
    row[5] = row[2].double(); // 6P
    row[6] = row[5].add_projective_niels(&cached).to_extended(); // 7P
    row[7] = row[3].double(); // 8P
    row
}

/// `d * P` off an affine window row `[1P, ..., 8P]` held as `S`, for a
/// digit `d` in `[-8, 8]` per lane of `F` ([`scan_row`]).
#[inline(always)]
fn select_affine<F: ScanFrom<S>, S: FieldArith>(
    row: &[AffineNielsPoint<S>; 8],
    d: F::Digit,
) -> AffineNielsPoint<F> {
    let (sign, abs) = d.sign_abs();
    let [y_plus_x, y_minus_x, xy2d] = scan_row::<F, S, 3>(
        AffineNielsPoint::IDENTITY.coords(),
        row.iter().map(|entry| entry.coords()),
        abs,
    );
    AffineNielsPoint {
        y_plus_x,
        y_minus_x,
        xy2d,
    }
    .conditional_negate(sign)
}

/// A reusable signed radix-16 table of multiples `[1P, ..., 8P]` of a
/// fixed point, normalized to affine Niels form.
///
/// Building the table costs a handful of additions plus (a share of)
/// one field inversion — [`PointTable::batch_new`] normalizes the
/// tables of a whole batch of points with a *single* inversion via
/// [`FieldElement::batch_invert`].  Once built, every scalar
/// multiplication off the table skips the per-call table construction
/// and uses the cheaper 3-mul affine additions; this is the §6.3 hop
/// kernel's shape, where each entry's DH key is raised to both `msk`
/// and `bsk`.
///
/// Scans are masked (uniform access pattern), so the table is safe to
/// drive with secret scalars.
pub struct PointTable<F: FieldBackend = FieldElement> {
    entries: [AffineNielsPoint<F>; 8],
}

impl<F: FieldBackend> PointTable<F> {
    /// Build the table for one point (costs one field inversion; prefer
    /// [`PointTable::batch_new`] for more than one point).
    pub fn new(point: &EdwardsPoint<F>) -> PointTable<F> {
        PointTable::batch_new(std::slice::from_ref(point))
            .pop()
            .expect("one table per point")
    }

    /// Build tables for a batch of points, sharing a single field
    /// inversion across every table's affine normalization.
    pub fn batch_new(points: &[EdwardsPoint<F>]) -> Vec<PointTable<F>> {
        // Multiples in extended coordinates; even multiples come from
        // the cheaper doubling pipeline.
        let multiples: Vec<[EdwardsPoint<F>; 8]> = points.iter().map(window_multiples).collect();
        // One inversion for all 8n Z coordinates.
        rows_to_affine_niels(&multiples)
            .into_iter()
            .map(|entries| PointTable { entries })
            .collect()
    }

    #[inline(always)]
    fn select(&self, d: i8) -> AffineNielsPoint<F> {
        select_affine::<F, F>(&self.entries, d)
    }

    /// `scalar * P` off the precomputed table (constant-time-style).
    pub fn scalar_mul(&self, scalar: &Scalar) -> EdwardsPoint<F> {
        radix16_ladder!(scalar, |acc: EdwardsPoint<F>, d: i8| acc
            .add_affine_niels(&self.select(d)))
    }

    /// `(a * P, b * P)`: two ladders off the same table — the §6.3
    /// per-entry hop kernel: `X^msk` (decrypt) and `X^bsk` (blind) from
    /// one table build.
    ///
    /// The two ladders are *interleaved* window by window: the `a` and
    /// `b` accumulators are independent dependency chains, so each
    /// window's doublings and additions for one ladder fill the
    /// pipeline bubbles of the other.  This matters most for the 4×64
    /// backend, whose `adcx`/`adox` carry chains are latency-bound
    /// when run alone (the 5×51 backend's wide-accumulator code has
    /// more intrinsic instruction-level parallelism and gains less —
    /// which is why the pre-backend PR measured sequential ≈
    /// interleaved and kept sequential).
    pub fn scalar_mul_pair(&self, a: &Scalar, b: &Scalar) -> (EdwardsPoint<F>, EdwardsPoint<F>) {
        let da = a.to_radix_16();
        let db = b.to_radix_16();
        let mut ca = EdwardsPoint::identity().add_affine_niels(&self.select(da[63]));
        let mut cb = EdwardsPoint::identity().add_affine_niels(&self.select(db[63]));
        for i in (0..63).rev() {
            let (mut pa, mut pb) = to_projective_pair(&ca, &cb);
            for _ in 0..3 {
                let (da_, db_) = double_pair(&pa, &pb);
                (pa, pb) = to_projective_pair(&da_, &db_);
            }
            let (ea, eb) = double_pair(&pa, &pb);
            (ca, cb) = add_affine_niels_pair(
                &ea.to_extended(),
                &self.select(da[i]),
                &eb.to_extended(),
                &self.select(db[i]),
            );
        }
        (ca.to_extended(), cb.to_extended())
    }
}

impl<F: FieldArith> EdwardsPoint<F> {
    /// The identity element `(0, 1)`.
    pub fn identity() -> EdwardsPoint<F> {
        EdwardsPoint {
            x: F::ZERO,
            y: F::ONE,
            z: F::ONE,
            t: F::ZERO,
        }
    }

    /// View the extended point as "P2" (drop `T`) for doubling chains.
    #[inline(always)]
    fn to_projective_view(self) -> ProjectivePoint<F> {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// Cache this point for repeated additions (1 multiplication).
    #[inline(always)]
    pub(crate) fn to_projective_niels(self) -> ProjectiveNielsPoint<F> {
        ProjectiveNielsPoint {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(F::edwards_d2()),
        }
    }

    /// Mixed addition against a projective Niels cache (4 muls).
    #[inline(always)]
    fn add_projective_niels(&self, other: &ProjectiveNielsPoint<F>) -> CompletedPoint<F> {
        let pp = self.y.lazy_add(&self.x).mul(&other.y_plus_x);
        let mm = self.y.lazy_sub(&self.x).mul(&other.y_minus_x);
        let tt2d = self.t.mul(&other.t2d);
        let zz = self.z.mul(&other.z);
        let zz2 = zz.lazy_add(&zz);
        CompletedPoint {
            x: pp.lazy_sub(&mm),
            y: pp.lazy_add(&mm),
            z: zz2.lazy_add(&tt2d),
            t: zz2.lazy_sub(&tt2d),
        }
    }

    /// Mixed subtraction against a projective Niels cache (4 muls).
    #[inline(always)]
    fn sub_projective_niels(&self, other: &ProjectiveNielsPoint<F>) -> CompletedPoint<F> {
        let pp = self.y.lazy_add(&self.x).mul(&other.y_minus_x);
        let mm = self.y.lazy_sub(&self.x).mul(&other.y_plus_x);
        let tt2d = self.t.mul(&other.t2d);
        let zz = self.z.mul(&other.z);
        let zz2 = zz.lazy_add(&zz);
        CompletedPoint {
            x: pp.lazy_sub(&mm),
            y: pp.lazy_add(&mm),
            z: zz2.lazy_sub(&tt2d),
            t: zz2.lazy_add(&tt2d),
        }
    }

    /// Mixed addition against an affine Niels cache (3 muls).
    #[inline(always)]
    fn add_affine_niels(&self, other: &AffineNielsPoint<F>) -> CompletedPoint<F> {
        let pp = self.y.lazy_add(&self.x).mul(&other.y_plus_x);
        let mm = self.y.lazy_sub(&self.x).mul(&other.y_minus_x);
        let txy2d = self.t.mul(&other.xy2d);
        let z2 = self.z.lazy_add(&self.z);
        CompletedPoint {
            x: pp.lazy_sub(&mm),
            y: pp.lazy_add(&mm),
            z: z2.lazy_add(&txy2d),
            t: z2.lazy_sub(&txy2d),
        }
    }

    /// Mixed subtraction against an affine Niels cache (3 muls).
    #[inline(always)]
    fn sub_affine_niels(&self, other: &AffineNielsPoint<F>) -> CompletedPoint<F> {
        let pp = self.y.lazy_add(&self.x).mul(&other.y_minus_x);
        let mm = self.y.lazy_sub(&self.x).mul(&other.y_plus_x);
        let txy2d = self.t.mul(&other.xy2d);
        let z2 = self.z.lazy_add(&self.z);
        CompletedPoint {
            x: pp.lazy_sub(&mm),
            y: pp.lazy_add(&mm),
            z: z2.lazy_sub(&txy2d),
            t: z2.lazy_add(&txy2d),
        }
    }

    /// `2^k * self` via the cheap projective doubling chain.
    #[inline(always)]
    fn mul_by_pow_2(&self, k: u32) -> EdwardsPoint<F> {
        debug_assert!(k > 0);
        let mut p = self.to_projective_view();
        for _ in 0..k - 1 {
            p = p.double().to_projective();
        }
        p.double().to_extended()
    }

    /// Point addition (unified: also correct for doubling and identity).
    pub fn add(&self, other: &EdwardsPoint<F>) -> EdwardsPoint<F> {
        let y1_plus_x1 = self.y.add(&self.x);
        let y1_minus_x1 = self.y.sub(&self.x);
        let y2_plus_x2 = other.y.add(&other.x);
        let y2_minus_x2 = other.y.sub(&other.x);
        let pp = y1_plus_x1.mul(&y2_plus_x2);
        let mm = y1_minus_x1.mul(&y2_minus_x2);
        let tt2d = self.t.mul(&other.t).mul(F::edwards_d2());
        let zz = self.z.mul(&other.z);
        let zz2 = zz.add(&zz);

        let e = pp.sub(&mm);
        let f = zz2.sub(&tt2d);
        let g = zz2.add(&tt2d);
        let h = pp.add(&mm);

        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint<F> {
        self.to_projective_view().double().to_extended()
    }

    /// Point negation.
    pub fn neg(&self) -> EdwardsPoint<F> {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &EdwardsPoint<F>) -> EdwardsPoint<F> {
        self.add(&other.neg())
    }

    /// Scalar multiplication with a signed radix-16 fixed window and a
    /// masked table scan (uniform memory access pattern per window).
    pub fn scalar_mul(&self, scalar: &Scalar) -> EdwardsPoint<F> {
        LookupTable::new(self).scalar_mul(scalar)
    }

    /// The pre-optimization scalar multiplication (fresh table of full
    /// extended points, unified additions throughout).  Kept as a
    /// differential-testing reference and as the bench baseline for the
    /// optimized ladders; never called on a hot path.
    #[doc(hidden)]
    pub fn scalar_mul_reference(&self, scalar: &Scalar) -> EdwardsPoint<F> {
        let mut table = [*self; 8];
        for i in 1..8 {
            table[i] = table[i - 1].add(self);
        }
        let digits = scalar.to_radix_16();
        let mut acc = EdwardsPoint::identity();
        for i in (0..64).rev() {
            acc = acc.double().double().double().double();
            let d = digits[i];
            if d == 0 {
                continue;
            }
            let abs = d.unsigned_abs() as usize;
            let mut chosen = table[0];
            for (j, entry) in table.iter().enumerate() {
                let hit = F::Choice::from((j + 1) == abs);
                chosen = EdwardsPoint {
                    x: F::select(&chosen.x, &entry.x, hit),
                    y: F::select(&chosen.y, &entry.y, hit),
                    z: F::select(&chosen.z, &entry.z, hit),
                    t: F::select(&chosen.t, &entry.t, hit),
                };
            }
            if d < 0 {
                chosen = chosen.neg();
            }
            acc = acc.add(&chosen);
        }
        acc
    }

    /// Multiply by the cofactor 8.
    pub fn mul_by_cofactor(&self) -> EdwardsPoint<F> {
        self.mul_by_pow_2(3)
    }

    /// Variable-time single-scalar multiplication (width-5 NAF).
    ///
    /// **Variable time** — public data only (see
    /// [`EdwardsPoint::vartime_multiscalar_mul`]); the §6.3 batch-open
    /// path uses it with the *revealed* inner keys.
    pub fn vartime_scalar_mul(&self, scalar: &Scalar) -> EdwardsPoint<F> {
        vartime_straus(std::slice::from_ref(scalar), std::slice::from_ref(self))
    }
}

/// What needs a single element's encoding, inversion or equality.
impl<F: FieldBackend> EdwardsPoint<F> {
    /// Compress to the 32-byte "y plus sign of x" encoding.
    pub fn compress(&self) -> [u8; 32] {
        EdwardsPoint::batch_compress(std::slice::from_ref(self))[0]
    }

    /// Compress a batch of points, sharing one field inversion across
    /// all the `Z` denominators ([`FieldElement::batch_invert`]): `n`
    /// inversions become 1 inversion plus `3n` multiplications.
    pub fn batch_compress(points: &[EdwardsPoint<F>]) -> Vec<[u8; 32]> {
        let mut zs: Vec<F> = points.iter().map(|p| p.z).collect();
        F::batch_invert(&mut zs);
        points
            .iter()
            .zip(&zs)
            .map(|(p, zinv)| {
                let x = p.x.mul(zinv);
                let y = p.y.mul(zinv);
                let mut bytes = y.to_bytes();
                bytes[31] |= (x.is_negative() as u8) << 7; // a `u64` in {0, 1}
                bytes
            })
            .collect()
    }

    /// Decompress a 32-byte encoding; `None` if not a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint<F>> {
        let y = F::from_bytes(bytes);
        let sign = (bytes[31] >> 7) & 1;

        // x^2 = (y^2 - 1) / (d y^2 + 1)
        let yy = y.square();
        let u = yy.sub(&F::ONE);
        let v = yy.mul(F::edwards_d()).add(&F::ONE);
        let (is_valid, mut x) = F::sqrt_ratio_i(&u, &v);
        if is_valid == 0 {
            return None;
        }
        if x.is_zero() && sign == 1 {
            return None; // "-0" is not a valid encoding
        }
        if (x.is_negative() as u8) != sign {
            x = x.neg();
        }
        Some(EdwardsPoint {
            x,
            y,
            z: F::ONE,
            t: x.mul(&y),
        })
    }

    /// Variable-time multi-scalar multiplication `sum_i scalars[i] *
    /// points[i]`.
    ///
    /// **Variable time**: the memory access pattern and instruction
    /// count depend on the scalars.  Only ever call this with *public*
    /// data — batched proof verification, where scalars are
    /// verifier-generated random coefficients and proof responses, all
    /// of which travel in cleartext anyway.  Secret exponents
    /// (`msk`/`bsk`/`isk`, sealing randomness) must use the masked-scan
    /// ladders above.
    ///
    /// Strategy: Straus with width-5 NAF tables below
    /// `PIPPENGER_THRESHOLD` points, Pippenger bucketing above it.
    pub fn vartime_multiscalar_mul(
        scalars: &[Scalar],
        points: &[EdwardsPoint<F>],
    ) -> EdwardsPoint<F> {
        assert_eq!(scalars.len(), points.len(), "one scalar per point");
        if points.is_empty() {
            return EdwardsPoint::identity();
        }
        if points.len() < PIPPENGER_THRESHOLD {
            vartime_straus(scalars, points)
        } else {
            vartime_pippenger(scalars, points)
        }
    }

    /// Projective equality: `X1 Z2 == X2 Z1 && Y1 Z2 == Y2 Z1`.
    pub fn ct_eq(&self, other: &EdwardsPoint<F>) -> bool {
        let lhs_x = self.x.mul(&other.z);
        let rhs_x = other.x.mul(&self.z);
        let lhs_y = self.y.mul(&other.z);
        let rhs_y = other.y.mul(&self.z);
        lhs_x.ct_eq(&rhs_x) & lhs_y.ct_eq(&rhs_y) == 1
    }

    /// True iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.ct_eq(&EdwardsPoint::identity())
    }

    /// Debug check: the point satisfies the curve equation and the
    /// extended-coordinate invariant `XY = ZT`.
    pub fn is_on_curve(&self) -> bool {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zzzz = zz.square();
        // (-X^2 + Y^2) Z^2 == Z^4 + d X^2 Y^2
        let lhs = yy.sub(&xx).mul(&zz);
        let rhs = zzzz.add(&F::edwards_d().mul(&xx).mul(&yy));
        let ok_curve = lhs.ct_eq(&rhs);
        let ok_t = self.x.mul(&self.y).ct_eq(&self.z.mul(&self.t));
        ok_curve & ok_t == 1
    }
}

impl EdwardsPoint {
    /// The Ed25519 basepoint (build-selected backend only: the cached
    /// static and the precomputed [`FixedBaseTable::basepoint`] are
    /// per-build).
    pub fn basepoint() -> &'static EdwardsPoint {
        static B: OnceLock<EdwardsPoint> = OnceLock::new();
        B.get_or_init(|| {
            EdwardsPoint::decompress(&BASEPOINT_COMPRESSED)
                .expect("basepoint constant decompresses")
        })
    }

    /// `scalar * basepoint` off [`FixedBaseTable::basepoint`].  This is
    /// the hot operation of client sealing (`g^x`, `g^y`, proof
    /// commitments).
    pub fn base_mul(scalar: &Scalar) -> EdwardsPoint {
        FixedBaseTable::basepoint().mul(scalar)
    }
}

/// Eight points in lockstep, one per lane of the IFMA field
/// representation: what the batch entry points
/// ([`GroupElement::batch_mul_pair`](crate::GroupElement::batch_mul_pair),
/// [`GroupElement::batch_vartime_mul`](crate::GroupElement::batch_vartime_mul),
/// [`FixedGroupTable::mul_all`](crate::ristretto::FixedGroupTable::mul_all))
/// compute in where the lane kernel is compiled in.  The arithmetic is
/// the generic pipeline above, instantiated at `F51x8`; only the
/// transposes in and out and the out-of-line wrappers live here.
///
/// Everything here is `#[inline(never)]` on purpose.  A lane value is
/// 320 bytes and the optimizer gives every temporary of an inlined
/// ladder its own slot, so a frame runs to 10–20 KB; kept apart, the
/// transposes, the table build and the ladder are *siblings* under a
/// small caller and a thread's stack grows by the largest of them, not
/// by their sum (every daemon worker thread that ever runs a hop chunk
/// keeps those pages).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
))]
mod lanes {
    use super::{EdwardsPoint, FixedBaseTable, LookupTable};
    use crate::field::ifma::{Digits8, F51x8};
    use crate::field::{FieldArith, FieldElement, ScanFrom};
    use crate::scalar::Scalar;

    impl<F: FieldArith> FixedBaseTable<F>
    where
        F51x8: ScanFrom<F>,
    {
        /// `scalars[i] * P` in lane `i` (the identity in the lanes past
        /// `scalars`' end): one walk of this table for up to eight
        /// scalars, safe for secret ones exactly as
        /// [`FixedBaseTable::mul`] is — the digits differ per lane and
        /// reach the scan only as k-masks.
        pub(crate) fn lanes_mul(&self, scalars: &[Scalar]) -> EdwardsPoint<F51x8> {
            #[inline(never)]
            fn transpose(scalars: &[Scalar]) -> [Digits8; 64] {
                debug_assert!(scalars.len() <= 8);
                let mut digits = [[0i8; 64]; 8];
                for (lane, scalar) in digits.iter_mut().zip(scalars) {
                    *lane = scalar.to_radix_16();
                }
                std::array::from_fn(|i| Digits8::from_lanes(digits.map(|lane| lane[i])))
            }
            #[inline(never)]
            fn walk<F: FieldArith>(
                table: &FixedBaseTable<F>,
                digits: &[Digits8; 64],
            ) -> EdwardsPoint<F51x8>
            where
                F51x8: ScanFrom<F>,
            {
                table.walk::<F51x8>(digits)
            }
            walk(self, &transpose(scalars))
        }
    }

    impl EdwardsPoint<F51x8> {
        /// Lane `i` holds `lane(i)`, or the identity where that is
        /// `None` (a short last group runs the same code with idle
        /// lanes).
        #[inline(never)]
        pub(crate) fn from_lanes<'a>(lane: impl Fn(usize) -> Option<&'a EdwardsPoint>) -> Self {
            let identity = EdwardsPoint::identity();
            let coordinate = |of: fn(&EdwardsPoint) -> &FieldElement| {
                F51x8::from_lanes(&std::array::from_fn(|i| {
                    of(lane(i).unwrap_or(&identity)).to_limbs51()
                }))
            };
            EdwardsPoint {
                x: coordinate(|p| &p.x),
                y: coordinate(|p| &p.y),
                z: coordinate(|p| &p.z),
                t: coordinate(|p| &p.t),
            }
        }

        /// The eight lanes as points on the build-selected backend.
        #[inline(never)]
        pub(crate) fn lanes(&self) -> [EdwardsPoint; 8] {
            let (x, y, z, t) = (
                self.x.to_lanes(),
                self.y.to_lanes(),
                self.z.to_lanes(),
                self.t.to_lanes(),
            );
            std::array::from_fn(|i| EdwardsPoint {
                x: FieldElement::from_limbs51(&x[i]),
                y: FieldElement::from_limbs51(&y[i]),
                z: FieldElement::from_limbs51(&z[i]),
                t: FieldElement::from_limbs51(&t[i]),
            })
        }

        /// `(a * P, b * P)` in every lane: one projective-Niels table
        /// (no inversion; 10 KB, so on the heap), two masked-scan
        /// ladders off it — safe for secret scalars exactly as
        /// [`EdwardsPoint::scalar_mul`] is, the digits being the same
        /// for all lanes.
        pub(crate) fn lanes_scalar_mul_pair(&self, a: &Scalar, b: &Scalar) -> (Self, Self) {
            #[inline(never)]
            fn build(p: &EdwardsPoint<F51x8>) -> Box<LookupTable<F51x8>> {
                Box::new(LookupTable::new(p))
            }
            #[inline(never)]
            fn ladder(table: &LookupTable<F51x8>, scalar: &Scalar) -> EdwardsPoint<F51x8> {
                table.scalar_mul(scalar)
            }
            let table = build(self);
            (ladder(&table, a), ladder(&table, b))
        }

        /// `s * P` in every lane, **variable time** (see
        /// [`EdwardsPoint::vartime_scalar_mul`]).
        #[inline(never)]
        pub(crate) fn lanes_vartime_scalar_mul(&self, s: &Scalar) -> Self {
            self.vartime_scalar_mul(s)
        }
    }
}

impl<F: FieldBackend> PartialEq for EdwardsPoint<F> {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}
impl<F: FieldBackend> Eq for EdwardsPoint<F> {}

// ---------------------------------------------------------------------
// Variable-time multi-scalar multiplication (public data only)
// ---------------------------------------------------------------------

/// Below this point count Straus beats Pippenger (per-point NAF tables
/// amortize); above it the bucket method wins.  Matches the crossover
/// measured in `xrd-bench`'s `batch_crypto` bench on 64..512 points.
const PIPPENGER_THRESHOLD: usize = 190;

/// Per-point table of odd multiples `[1P, 3P, 5P, ..., 15P]` for
/// width-5 NAF (variable-time lookups: plain indexing, no masked scan).
struct NafLookupTable5<F: FieldArith>([ProjectiveNielsPoint<F>; 8]);

impl<F: FieldArith> NafLookupTable5<F> {
    fn new(p: &EdwardsPoint<F>) -> NafLookupTable5<F> {
        let p2 = p.double().to_projective_niels();
        let mut odd = [p.to_projective_niels(); 8];
        let mut current = *p;
        for i in 1..8 {
            current = current.add_projective_niels(&p2).to_extended();
            odd[i] = current.to_projective_niels();
        }
        NafLookupTable5(odd)
    }

    /// Entry for odd positive `d` (variable time).
    #[inline(always)]
    fn select(&self, d: i8) -> &ProjectiveNielsPoint<F> {
        debug_assert!(d > 0 && d % 2 == 1);
        &self.0[(d as usize) / 2]
    }
}

/// Straus' interleaved method over width-5 NAFs.
///
/// The accumulator is carried in completed form, like the window state
/// of `radix16_ladder!`: a doubling that no addition follows — four in
/// five, at width 5 — renormalizes to P2 (3 multiplications), and only
/// the one an addition does follow pays for extended coordinates (4).
fn vartime_straus<F: FieldArith>(
    scalars: &[Scalar],
    points: &[EdwardsPoint<F>],
) -> EdwardsPoint<F> {
    let nafs: Vec<[i8; 256]> = scalars.iter().map(|s| s.non_adjacent_form(5)).collect();
    let tables: Vec<NafLookupTable5<F>> = points.iter().map(NafLookupTable5::new).collect();

    let Some(top) = (0..256).rev().find(|&i| nafs.iter().any(|naf| naf[i] != 0)) else {
        return EdwardsPoint::identity();
    };
    // 2·O = O, in completed form.
    let mut acc = EdwardsPoint::<F>::identity().to_projective_view().double();
    for i in (0..=top).rev() {
        acc = acc.to_projective().double();
        for (naf, table) in nafs.iter().zip(&tables) {
            let d = naf[i];
            if d > 0 {
                acc = acc.to_extended().add_projective_niels(table.select(d));
            } else if d < 0 {
                acc = acc.to_extended().sub_projective_niels(table.select(-d));
            }
        }
    }
    acc.to_extended()
}

/// Normalize a slice of extended points to affine Niels caches with a
/// single shared field inversion.
fn batch_to_affine_niels<F: FieldBackend>(points: &[EdwardsPoint<F>]) -> Vec<AffineNielsPoint<F>> {
    let mut zs: Vec<F> = points.iter().map(|p| p.z).collect();
    F::batch_invert(&mut zs);
    let d2 = F::edwards_d2();
    points
        .iter()
        .zip(&zs)
        .map(|(p, zinv)| {
            let x = p.x.mul(zinv);
            let y = p.y.mul(zinv);
            AffineNielsPoint {
                y_plus_x: y.lazy_add(&x),
                y_minus_x: y.lazy_sub(&x),
                xy2d: x.mul(&y).mul(d2),
            }
        })
        .collect()
}

/// Normalize 8-wide rows of window multiples to affine Niels form,
/// sharing a single field inversion across the whole table.
fn rows_to_affine_niels<F: FieldBackend>(
    rows: &[[EdwardsPoint<F>; 8]],
) -> Vec<[AffineNielsPoint<F>; 8]> {
    let flat: Vec<EdwardsPoint<F>> = rows.iter().flatten().copied().collect();
    batch_to_affine_niels(&flat)
        .chunks_exact(8)
        .map(|row| {
            let mut out = [AffineNielsPoint::IDENTITY; 8];
            out.copy_from_slice(row);
            out
        })
        .collect()
}

/// Pippenger's bucket method with signed radix-2^c digits.
fn vartime_pippenger<F: FieldBackend>(
    scalars: &[Scalar],
    points: &[EdwardsPoint<F>],
) -> EdwardsPoint<F> {
    // Window size tuned by problem size (standard heuristic).
    let c: usize = if points.len() < 500 { 7 } else { 8 };
    let digits_count = 256usize.div_ceil(c);
    let buckets_count = 1usize << (c - 1);

    let digits: Vec<Vec<i64>> = scalars.iter().map(|s| s.to_signed_radix_2w(c)).collect();
    // Affine caches (one shared inversion) make every digit placement a
    // 3-mul mixed addition instead of 4.
    let cached: Vec<AffineNielsPoint<F>> = batch_to_affine_niels(points);

    let mut total = EdwardsPoint::identity();
    let mut started = false;
    for w in (0..digits_count).rev() {
        if started {
            for _ in 0..c {
                total = total.double();
            }
        }
        // Fill buckets for this window.
        let mut buckets = vec![EdwardsPoint::identity(); buckets_count];
        for (digit_row, point) in digits.iter().zip(&cached) {
            let d = digit_row[w];
            match d.cmp(&0) {
                std::cmp::Ordering::Greater => {
                    let b = (d - 1) as usize;
                    buckets[b] = buckets[b].add_affine_niels(point).to_extended();
                }
                std::cmp::Ordering::Less => {
                    let b = (-d - 1) as usize;
                    buckets[b] = buckets[b].sub_affine_niels(point).to_extended();
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        // sum_j (j+1) * buckets[j] via running suffix sums.
        let mut running = EdwardsPoint::identity();
        let mut window_sum = EdwardsPoint::identity();
        let mut any = false;
        for bucket in buckets.iter().rev() {
            running = running.add(bucket);
            window_sum = window_sum.add(&running);
        }
        for digit_row in &digits {
            if digit_row[w] != 0 {
                any = true;
                break;
            }
        }
        total = total.add(&window_sum);
        started = started || any;
    }
    total
}

/// Precomputed multiples of a base that stays fixed across many
/// multiplications, in affine Niels form:
/// `rows[i][j] = (j+1) * 256^i * P` for the 32 byte positions of a
/// scalar, normalized with a single shared inversion (32 rows × 8
/// entries × 3 field elements ≈ 24 KB).
///
/// A multiplication is 64 masked-scan additions and one 4-doubling
/// fold: the odd radix-16 digits are summed off the rows first, that
/// sum is multiplied by 16, then the even digits are added off the same
/// rows.  Building the table costs about as much as three from-scratch
/// ladders, so it pays once a base is used more than a handful of
/// times — the generator always ([`FixedBaseTable::basepoint`]), a
/// chain's mixing and aggregate inner keys during bulk sealing.
///
/// Scans are masked (uniform access pattern), so the table is safe to
/// drive with secret scalars.
///
/// Only *building* a table inverts, so only [`FixedBaseTable::new`]
/// asks for a [`FieldBackend`]; the walk is the generic pipeline and
/// can select into a lane type other than the one the table is held in
/// (`walk`).
pub struct FixedBaseTable<F: FieldArith = FieldElement> {
    rows: Vec<[AffineNielsPoint<F>; 8]>,
}

impl<F: FieldBackend> FixedBaseTable<F> {
    /// Scalar bytes: one row per radix-256 position.
    const ROWS: usize = 32;

    /// Precompute the table for `point`.
    pub fn new(point: &EdwardsPoint<F>) -> FixedBaseTable<F> {
        let mut rows: Vec<[EdwardsPoint<F>; 8]> = Vec::with_capacity(Self::ROWS);
        let mut base = *point;
        for i in 0..Self::ROWS {
            let row = window_multiples(&base);
            if i + 1 < Self::ROWS {
                // 256 * base = 2^5 * (8 * base).
                base = row[7].mul_by_pow_2(5);
            }
            rows.push(row);
        }
        FixedBaseTable {
            rows: rows_to_affine_niels(&rows),
        }
    }
}

impl<F: FieldArith> FixedBaseTable<F> {
    /// `scalar * P` off the table (constant-time-style).
    pub fn mul(&self, scalar: &Scalar) -> EdwardsPoint<F> {
        self.walk::<F>(&scalar.to_radix_16().map(F::Digit::from))
    }

    /// The table walk over signed radix-16 digits, in the lane type
    /// `L`: `L = F` is one multiplication (or a lane table's lockstep
    /// ones); `L` eight lanes over a table of single elements is eight
    /// multiplications of the *same* point, lane `i` by the scalar
    /// whose digits sit in lane `i` — 64 row scans, each comparing the
    /// row's indices against all eight digits at once
    /// ([`select_affine`]), then the same additions in lockstep.
    #[inline(always)]
    fn walk<L: ScanFrom<F>>(&self, digits: &[L::Digit; 64]) -> EdwardsPoint<L> {
        let add_digits = |mut acc: EdwardsPoint<L>, parity: usize| {
            for (row, pair) in self.rows.iter().zip(digits.chunks_exact(2)) {
                acc = acc
                    .add_affine_niels(&select_affine::<L, F>(row, pair[parity]))
                    .to_extended();
            }
            acc
        };
        let odd = add_digits(EdwardsPoint::identity(), 1);
        add_digits(odd.mul_by_pow_2(4), 0)
    }
}

impl FixedBaseTable {
    /// The process-wide table of the Ed25519 basepoint (build-selected
    /// backend), built at first use.
    pub fn basepoint() -> &'static FixedBaseTable {
        static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
        TABLE.get_or_init(|| FixedBaseTable::new(EdwardsPoint::basepoint()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::util::to_hex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basepoint_is_on_curve() {
        assert!(EdwardsPoint::basepoint().is_on_curve());
    }

    #[test]
    fn basepoint_compress_roundtrip() {
        assert_eq!(EdwardsPoint::basepoint().compress(), BASEPOINT_COMPRESSED);
    }

    #[test]
    fn known_multiples_of_basepoint() {
        // Vectors generated from an independent (Python) implementation.
        let b = EdwardsPoint::basepoint();
        assert_eq!(
            to_hex(&b.double().compress()),
            "c9a3f86aae465f0e56513864510f3997561fa2c9e85ea21dc2292309f3cd6022"
        );
        assert_eq!(
            to_hex(&b.double().add(b).compress()),
            "d4b4f5784868c3020403246717ec169ff79e26608ea126a1ab69ee77d1b16712"
        );
        assert_eq!(
            to_hex(&b.scalar_mul(&Scalar::from_u64(9)).compress()),
            "c0f1225584444ec730446e231390781ffdd2f256e9fcbeb2f40dddc2c2233d7f"
        );
        // The same vectors through the fixed-base table.
        for (k, hex) in [
            (
                2,
                "c9a3f86aae465f0e56513864510f3997561fa2c9e85ea21dc2292309f3cd6022",
            ),
            (
                3,
                "d4b4f5784868c3020403246717ec169ff79e26608ea126a1ab69ee77d1b16712",
            ),
            (
                9,
                "c0f1225584444ec730446e231390781ffdd2f256e9fcbeb2f40dddc2c2233d7f",
            ),
        ] {
            assert_eq!(
                to_hex(&EdwardsPoint::base_mul(&Scalar::from_u64(k)).compress()),
                hex
            );
        }
    }

    /// The selected field backend must behave byte for byte as the
    /// 5×51 oracle does: decompress → ladder → compress agrees after
    /// canonical encoding (the cross-backend proptests go further; this
    /// is the smoke check that lives next to the formulas).
    #[test]
    fn backends_agree_on_scalar_mul() {
        use crate::field::{fiat51, FieldElement};
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..4 {
            let s = Scalar::random(&mut rng);
            let enc = EdwardsPoint::basepoint()
                .scalar_mul(&Scalar::random(&mut rng))
                .compress();
            let p51: EdwardsPoint<fiat51::FieldElement> =
                EdwardsPoint::decompress(&enc).expect("valid point");
            let p: EdwardsPoint<FieldElement> =
                EdwardsPoint::decompress(&enc).expect("valid point");
            assert_eq!(p51.scalar_mul(&s).compress(), p.scalar_mul(&s).compress());
        }
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = EdwardsPoint::basepoint();
        let mut acc = EdwardsPoint::identity();
        for k in 0..20u64 {
            assert!(acc.ct_eq(&b.scalar_mul(&Scalar::from_u64(k))));
            assert!(acc.is_on_curve());
            acc = acc.add(b);
        }
    }

    #[test]
    fn scalar_mul_matches_reference() {
        // The optimized mixed-coordinate ladder must agree with the
        // retained reference implementation on random and edge scalars.
        let mut rng = StdRng::seed_from_u64(70);
        let p = EdwardsPoint::base_mul(&Scalar::random(&mut rng));
        for _ in 0..10 {
            let s = Scalar::random(&mut rng);
            assert!(p.scalar_mul(&s).ct_eq(&p.scalar_mul_reference(&s)));
        }
        for k in [0u64, 1, 2, 7, 8, 9, 15, 16, 17, 255, 256] {
            let s = Scalar::from_u64(k);
            assert!(p.scalar_mul(&s).ct_eq(&p.scalar_mul_reference(&s)), "k={k}");
        }
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        assert!(p
            .scalar_mul(&l_minus_1)
            .ct_eq(&p.scalar_mul_reference(&l_minus_1)));
    }

    #[test]
    fn point_table_matches_scalar_mul() {
        let mut rng = StdRng::seed_from_u64(71);
        let points: Vec<EdwardsPoint> = (0..5)
            .map(|_| EdwardsPoint::base_mul(&Scalar::random(&mut rng)))
            .collect();
        let tables = PointTable::batch_new(&points);
        for (p, table) in points.iter().zip(&tables) {
            for _ in 0..4 {
                let s = Scalar::random(&mut rng);
                assert!(table.scalar_mul(&s).ct_eq(&p.scalar_mul(&s)));
            }
            for k in [0u64, 1, 8, 16] {
                let s = Scalar::from_u64(k);
                assert!(table.scalar_mul(&s).ct_eq(&p.scalar_mul(&s)), "k={k}");
            }
        }
        // Single-point constructor agrees with the batch one.
        let single = PointTable::new(&points[0]);
        let s = Scalar::random(&mut rng);
        assert!(single.scalar_mul(&s).ct_eq(&points[0].scalar_mul(&s)));
    }

    #[test]
    fn point_table_pair_matches_two_muls() {
        let mut rng = StdRng::seed_from_u64(72);
        let p = EdwardsPoint::base_mul(&Scalar::random(&mut rng));
        let table = PointTable::new(&p);
        for _ in 0..5 {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let (pa, pb) = table.scalar_mul_pair(&a, &b);
            assert!(pa.ct_eq(&p.scalar_mul(&a)));
            assert!(pb.ct_eq(&p.scalar_mul(&b)));
        }
        let (z, o) = table.scalar_mul_pair(&Scalar::ZERO, &Scalar::ONE);
        assert!(z.is_identity());
        assert!(o.ct_eq(&p));
    }

    /// Scalars at the edges of the signed radix-16 recoding: 0, 1, ℓ−1,
    /// and nibble patterns that recode to all −8 (with carries), all 7
    /// and all −7/−8 digits.
    pub(crate) fn edge_scalars() -> Vec<Scalar> {
        let mut edges: Vec<Scalar> = [0u64, 1, 2, 7, 8, 9, 15, 16, 17, 255, 256]
            .iter()
            .map(|&k| Scalar::from_u64(k))
            .collect();
        edges.push(Scalar::ZERO.sub(&Scalar::ONE));
        for nibbles in [0x88u8, 0x77, 0x78, 0x87, 0xff] {
            let s = Scalar::from_bytes_mod_order(&[nibbles; 32]);
            edges.push(s);
            edges.push(s.neg());
        }
        edges
    }

    /// A random point on backend `F` (through the wire encoding: the
    /// fixed-base table that draws it is the build-selected backend's).
    fn random_point<F: FieldBackend>(rng: &mut StdRng) -> EdwardsPoint<F> {
        let enc = EdwardsPoint::base_mul(&Scalar::random(rng)).compress();
        EdwardsPoint::decompress(&enc).expect("valid point")
    }

    fn fixed_base_table_matches_ladder<F: FieldBackend>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let p: EdwardsPoint<F> = random_point(&mut rng);
            let table = FixedBaseTable::new(&p);
            for _ in 0..6 {
                let s = Scalar::random(&mut rng);
                assert!(table.mul(&s).ct_eq(&p.scalar_mul(&s)));
            }
            for s in edge_scalars() {
                assert!(table.mul(&s).ct_eq(&p.scalar_mul(&s)), "s={s:?}");
            }
        }
        let identity = FixedBaseTable::new(&EdwardsPoint::<F>::identity());
        assert!(identity.mul(&Scalar::random(&mut rng)).is_identity());
    }

    /// The walk asks for [`FieldArith`] only (building a table is what
    /// inverts): this compiles, and a walk through the relaxed bound
    /// is the walk.
    #[test]
    fn fixed_base_table_walks_under_the_arithmetic_bound() {
        fn walk<F: FieldArith>(table: &FixedBaseTable<F>, s: &Scalar) -> EdwardsPoint<F> {
            table.mul(s)
        }
        let s = Scalar::from_u64(0xdead_beef);
        assert!(walk(FixedBaseTable::basepoint(), &s).ct_eq(&EdwardsPoint::base_mul(&s)));
    }

    /// One table walk for up to eight scalars: lane `i` is
    /// `FixedBaseTable::mul` of scalar `i` and an idle lane the
    /// identity, whatever the other lanes walk — every edge scalar in
    /// every lane, beside different neighbours each time, off a table
    /// held in the 5×51 representation and in the selected one.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512ifma"
    ))]
    #[test]
    fn lane_walk_matches_fixed_base_mul_in_every_lane() {
        use crate::field::ifma::F51x8;
        use crate::field::{fiat51, FieldElement, ScanFrom};

        fn check<F: FieldBackend>(seed: u64)
        where
            F51x8: ScanFrom<F>,
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scalars = vartime_edge_scalars();
            scalars.extend((0..11).map(|_| Scalar::random(&mut rng)));
            let table = FixedBaseTable::<F>::new(&random_point(&mut rng));
            let expected: Vec<[u8; 32]> = scalars.iter().map(|s| table.mul(s).compress()).collect();
            for start in 0..scalars.len() {
                for len in [1usize, 3, 7, 8] {
                    // Stride 5 is coprime to the list's length.
                    let at = |i: usize| (start + 5 * i) % scalars.len();
                    let group: Vec<Scalar> = (0..len).map(|i| scalars[at(i)]).collect();
                    let lanes = table.lanes_mul(&group).lanes();
                    for (i, lane) in lanes.iter().enumerate() {
                        if i < len {
                            assert_eq!(
                                lane.compress(),
                                expected[at(i)],
                                "lane {i} of {len} from {start}"
                            );
                        } else {
                            assert!(lane.is_identity(), "idle lane {i} of {len}");
                        }
                    }
                }
            }
        }
        check::<fiat51::FieldElement>(75);
        check::<FieldElement>(76);
    }

    #[test]
    fn fixed_base_table_matches_scalar_mul_on_both_backends() {
        use crate::field::{fiat51, FieldElement};
        fixed_base_table_matches_ladder::<fiat51::FieldElement>(73);
        fixed_base_table_matches_ladder::<FieldElement>(74);
    }

    #[test]
    fn base_mul_matches_generic_scalar_mul() {
        // base_mul is the shared table type on the basepoint instance:
        // it must agree with the generic ladder for random scalars and
        // all small/edge scalars.
        let mut rng = StdRng::seed_from_u64(77);
        let b = EdwardsPoint::basepoint();
        for _ in 0..10 {
            let s = Scalar::random(&mut rng);
            assert!(EdwardsPoint::base_mul(&s).ct_eq(&b.scalar_mul(&s)));
        }
        for s in edge_scalars() {
            assert!(
                EdwardsPoint::base_mul(&s).ct_eq(&b.scalar_mul(&s)),
                "s={s:?}"
            );
        }
    }

    #[test]
    fn group_order_annihilates_basepoint() {
        // l * B == identity, (l-1) * B == -B
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let p = EdwardsPoint::base_mul(&l_minus_1);
        assert!(p.ct_eq(&EdwardsPoint::basepoint().neg()));
        assert!(p.add(EdwardsPoint::basepoint()).is_identity());
    }

    #[test]
    fn add_is_commutative_and_associative() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = EdwardsPoint::base_mul(&Scalar::random(&mut rng));
        let q = EdwardsPoint::base_mul(&Scalar::random(&mut rng));
        let r = EdwardsPoint::base_mul(&Scalar::random(&mut rng));
        assert!(p.add(&q).ct_eq(&q.add(&p)));
        assert!(p.add(&q).add(&r).ct_eq(&p.add(&q.add(&r))));
    }

    #[test]
    fn double_matches_add_self() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = EdwardsPoint::base_mul(&Scalar::random(&mut rng));
        assert!(p.double().ct_eq(&p.add(&p)));
    }

    #[test]
    fn scalar_mul_homomorphism() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let lhs = EdwardsPoint::base_mul(&a.add(&b));
        let rhs = EdwardsPoint::base_mul(&a).add(&EdwardsPoint::base_mul(&b));
        assert!(lhs.ct_eq(&rhs));
    }

    /// [`edge_scalars`] plus the top of the NAF: 2^252 (the highest
    /// bit a reduced scalar has), the all-ones run below it, and the
    /// two top bits together.
    pub(crate) fn vartime_edge_scalars() -> Vec<Scalar> {
        let mut edges = edge_scalars();
        let mut top = [0u8; 32];
        top[31] = 0x10;
        let two_252 = Scalar::from_bytes_mod_order(&top);
        top[31] = 0x0c;
        edges.extend([
            two_252,
            two_252.sub(&Scalar::ONE),
            Scalar::from_bytes_mod_order(&top),
        ]);
        edges
    }

    fn vartime_scalar_mul_matches_ladder<F: FieldBackend>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p: EdwardsPoint<F> = random_point(&mut rng);
        for _ in 0..8 {
            let s = Scalar::random(&mut rng);
            assert!(p.vartime_scalar_mul(&s).ct_eq(&p.scalar_mul(&s)));
        }
        for s in vartime_edge_scalars() {
            let fast = p.vartime_scalar_mul(&s);
            assert!(fast.is_on_curve(), "s={s:?}");
            assert!(fast.ct_eq(&p.scalar_mul(&s)), "s={s:?}");
        }
        let identity = EdwardsPoint::<F>::identity();
        assert!(identity
            .vartime_scalar_mul(&Scalar::random(&mut rng))
            .is_identity());
    }

    #[test]
    fn vartime_scalar_mul_matches_ct() {
        use crate::field::{fiat51, FieldElement};
        vartime_scalar_mul_matches_ladder::<fiat51::FieldElement>(78);
        vartime_scalar_mul_matches_ladder::<FieldElement>(178);
    }

    fn multiscalar_matches_naive<F: FieldBackend>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let naive = |scalars: &[Scalar], points: &[EdwardsPoint<F>]| {
            scalars
                .iter()
                .zip(points)
                .fold(EdwardsPoint::identity(), |acc, (s, p)| {
                    acc.add(&p.scalar_mul(s))
                })
        };
        for n in [0usize, 1, 2, 3, 8, 20] {
            let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
            let points: Vec<EdwardsPoint<F>> = (0..n).map(|_| random_point(&mut rng)).collect();
            let fast = EdwardsPoint::vartime_multiscalar_mul(&scalars, &points);
            assert!(fast.ct_eq(&naive(&scalars, &points)), "n={n}");
        }
        // Every edge scalar at once, each on a point of its own: zero
        // rows, rows that end at bit 0, rows that start at bit 252.
        let scalars = vartime_edge_scalars();
        let points: Vec<EdwardsPoint<F>> = scalars.iter().map(|_| random_point(&mut rng)).collect();
        let fast = EdwardsPoint::vartime_multiscalar_mul(&scalars, &points);
        assert!(fast.ct_eq(&naive(&scalars, &points)));
        // All-zero scalars never start the accumulator.
        let zeros = vec![Scalar::ZERO; 3];
        assert!(EdwardsPoint::vartime_multiscalar_mul(&zeros, &points[..3]).is_identity());
    }

    #[test]
    fn multiscalar_small_matches_naive() {
        use crate::field::{fiat51, FieldElement};
        multiscalar_matches_naive::<fiat51::FieldElement>(79);
        multiscalar_matches_naive::<FieldElement>(179);
    }

    #[test]
    fn multiscalar_pippenger_matches_straus() {
        // Force both code paths over the same input.
        let mut rng = StdRng::seed_from_u64(80);
        let n = PIPPENGER_THRESHOLD + 5;
        let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        let points: Vec<EdwardsPoint> = (0..n)
            .map(|_| EdwardsPoint::base_mul(&Scalar::random(&mut rng)))
            .collect();
        let a = vartime_straus(&scalars, &points);
        let b = vartime_pippenger(&scalars, &points);
        assert!(a.ct_eq(&b));
        assert!(EdwardsPoint::vartime_multiscalar_mul(&scalars, &points).ct_eq(&a));
    }

    #[test]
    fn batch_compress_matches_compress() {
        let mut rng = StdRng::seed_from_u64(81);
        let mut points: Vec<EdwardsPoint> = (0..9)
            .map(|_| EdwardsPoint::base_mul(&Scalar::random(&mut rng)))
            .collect();
        points.push(EdwardsPoint::identity());
        let batch = EdwardsPoint::batch_compress(&points);
        for (p, enc) in points.iter().zip(&batch) {
            assert_eq!(*enc, p.compress());
        }
        assert!(EdwardsPoint::<FieldElement>::batch_compress(&[]).is_empty());
    }

    #[test]
    fn decompress_rejects_non_points() {
        // y = 2 gives x^2 non-square on this curve.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        assert!(EdwardsPoint::<FieldElement>::decompress(&bytes).is_none());
    }

    #[test]
    fn decompress_rejects_negative_zero() {
        // y = 1 (identity) with sign bit set: x = -0 is invalid.
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        bytes[31] = 0x80;
        assert!(EdwardsPoint::<FieldElement>::decompress(&bytes).is_none());
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..8 {
            let p = EdwardsPoint::base_mul(&Scalar::random(&mut rng));
            let c = p.compress();
            let q = EdwardsPoint::<FieldElement>::decompress(&c).unwrap();
            assert!(p.ct_eq(&q));
            assert_eq!(q.compress(), c);
        }
    }

    #[test]
    fn identity_behaves() {
        let id = EdwardsPoint::identity();
        let b = EdwardsPoint::basepoint();
        assert!(id.add(b).ct_eq(b));
        assert!(b.add(&id).ct_eq(b));
        assert!(b.sub(b).is_identity());
        assert!(id.is_on_curve());
        assert!(id.double().is_identity());
        assert!(b.scalar_mul(&Scalar::ZERO).is_identity());
    }
}
