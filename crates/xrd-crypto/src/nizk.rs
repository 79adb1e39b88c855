//! Non-interactive zero-knowledge proofs used by XRD:
//!
//! * [`SchnorrProof`] — knowledge of discrete log (`log_B X`), used by
//!   users to prove knowledge of the exponent of their per-message
//!   Diffie-Hellman key (§6.2 step 2) and by servers for their key pairs
//!   (§6.1).
//! * [`DleqProof`] — discrete-log equality (`log_{B1} X1 = log_{B2} X2`),
//!   the Chaum–Pedersen proof used in AHS mixing (§6.3 step 3) and
//!   throughout the blame protocol (§6.4).
//!
//! Both are made non-interactive with a Fiat–Shamir [`Transcript`]; every
//! proof binds all public inputs plus a caller-supplied context (round
//! number, chain id, ...), so proofs cannot be replayed across contexts.

use std::collections::HashMap;
use std::sync::OnceLock;

use rand::{RngCore, SeedableRng};

use crate::drbg::ChaChaRng;
use crate::ristretto::GroupElement;
use crate::scalar::Scalar;
use crate::transcript::Transcript;

/// Draw a 128-bit random-linear-combination coefficient from the batch
/// DRBG.  128 bits keep the false-accept probability below 2^-128 while
/// halving the coefficient-scalar multiplications.
fn rlc_coefficient(rng: &mut ChaChaRng) -> Scalar {
    let mut wide = [0u8; 32];
    rng.fill_bytes(&mut wide[..16]);
    Scalar::from_bytes_mod_order(&wide)
}

/// Canonical encoding of a proof base for the Fiat–Shamir transcript.
/// The generator's is computed once: it is the base of every submission
/// and inner-key PoK of a round, and an encoding costs an inverse
/// square root.
fn encode_base(base: &GroupElement) -> [u8; 32] {
    static GENERATOR: OnceLock<[u8; 32]> = OnceLock::new();
    if *base == GroupElement::generator() {
        *GENERATOR.get_or_init(|| GroupElement::generator().encode())
    } else {
        base.encode()
    }
}

/// The commitment `base^r` for a secret nonce `r`: off the fixed-base
/// table when `base` is the generator, a from-scratch ladder otherwise
/// (both masked-scan; `base` itself is public).
fn commit(base: &GroupElement, r: &Scalar) -> GroupElement {
    if *base == GroupElement::generator() {
        GroupElement::base_mul(r)
    } else {
        base.mul(r)
    }
}

/// `z·B − c·X`, which an honest proof makes equal its commitment `R`.
/// Every input is public wire data, so this runs on the variable-time
/// engine (the policy [`SchnorrProof::batch_verify`] documents).
fn response_minus_challenge(
    z: &Scalar,
    base: &GroupElement,
    c: &Scalar,
    public: &GroupElement,
) -> GroupElement {
    GroupElement::vartime_multiscalar_mul(&[*z, c.neg()], &[*base, *public])
}

/// The terms of one batched verification equation.  Base terms are
/// keyed by encoding, so statements that share a base (every
/// submission PoK of a round has base `g`) fold into one term of the
/// multiscalar multiplication instead of one each.
struct BatchTerms {
    scalars: Vec<Scalar>,
    points: Vec<GroupElement>,
    bases: HashMap<[u8; 32], usize>,
}

impl BatchTerms {
    fn with_capacity(terms: usize) -> BatchTerms {
        BatchTerms {
            scalars: Vec::with_capacity(terms),
            points: Vec::with_capacity(terms),
            bases: HashMap::new(),
        }
    }

    fn push(&mut self, scalar: Scalar, point: GroupElement) {
        self.scalars.push(scalar);
        self.points.push(point);
    }

    fn push_base(&mut self, scalar: Scalar, encoding: [u8; 32], base: GroupElement) {
        match self.bases.get(&encoding) {
            Some(&i) => self.scalars[i] = self.scalars[i].add(&scalar),
            None => {
                self.bases.insert(encoding, self.scalars.len());
                self.push(scalar, base);
            }
        }
    }

    fn sum_is_identity(&self) -> bool {
        GroupElement::vartime_multiscalar_mul(&self.scalars, &self.points).is_identity()
    }
}

/// One statement of a Schnorr batch verification:
/// "`proof` proves knowledge of `log_base public` under `context`".
#[derive(Clone, Copy, Debug)]
pub struct SchnorrBatchEntry<'a> {
    /// Caller-supplied domain-separation context.
    pub context: &'a [u8],
    /// The proof's base `B`.
    pub base: GroupElement,
    /// The public value `X = B^x`.
    pub public: GroupElement,
    /// The proof being checked.
    pub proof: SchnorrProof,
}

/// One statement of a DLEQ batch verification:
/// "`proof` proves `log_base1 public1 = log_base2 public2` under
/// `context`".
#[derive(Clone, Copy, Debug)]
pub struct DleqBatchEntry<'a> {
    /// Caller-supplied domain-separation context.
    pub context: &'a [u8],
    /// First base `B1`.
    pub base1: GroupElement,
    /// `X1 = B1^x`.
    pub public1: GroupElement,
    /// Second base `B2`.
    pub base2: GroupElement,
    /// `X2 = B2^x`.
    pub public2: GroupElement,
    /// The proof being checked.
    pub proof: DleqProof,
}

/// Proof of knowledge of `x` such that `X = B^x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchnorrProof {
    /// Commitment `R = B^r`.
    pub commitment: [u8; 32],
    /// Response `z = r + c*x`.
    pub response: Scalar,
}

/// Serialized length of a Schnorr proof.
pub const SCHNORR_PROOF_LEN: usize = 64;

impl SchnorrProof {
    /// Prove knowledge of `x` with `X = B^x`.
    pub fn prove<R: RngCore + ?Sized>(
        rng: &mut R,
        context: &[u8],
        base: &GroupElement,
        public: &GroupElement,
        x: &Scalar,
    ) -> SchnorrProof {
        debug_assert!(commit(base, x) == *public);
        let r = Scalar::random(rng);
        let commitment = commit(base, &r).encode();
        let c = Self::challenge(context, &encode_base(base), &public.encode(), &commitment);
        SchnorrProof {
            commitment,
            response: r.add(&c.mul(x)),
        }
    }

    /// [`SchnorrProof::prove`] over the generator for every `x` in
    /// `xs`, with its public value: `(g^x, encoding of g^x, proof)` per
    /// exponent, the proof the one `prove(rng, context, &g, &g^x, x)`
    /// returns when `rng`'s next scalar is that exponent's entry of
    /// `nonces`.  The `2n` exponentiations and `2n` encodings go through
    /// [`GroupElement::base_mul_all`] and [`GroupElement::encode_all`]
    /// (eight per table walk and per inverse square root where the lane
    /// kernel is compiled in), and since `g^x` is computed here from
    /// `x` there is no statement to re-check, in any build.  The
    /// encodings are returned because the challenge already needed
    /// them, and whoever sends `g^x` sends those bytes.
    ///
    /// The nonces arrive pre-drawn because bulk sealing draws every
    /// message's randomness from its user's RNG *before* it groups
    /// messages by chain — the stream a user's RNG yields must not
    /// depend on how her messages were batched — and by value because a
    /// nonce is used for exactly one proof: two proofs under one nonce
    /// reveal `x`.  Draw each with [`Scalar::random`] and pass it
    /// nowhere else; everything that does not need this ordering calls
    /// `prove`.
    #[doc(hidden)]
    pub fn prove_base_all(
        context: &[u8],
        xs: &[Scalar],
        nonces: Vec<Scalar>,
    ) -> Vec<(GroupElement, [u8; 32], SchnorrProof)> {
        assert_eq!(xs.len(), nonces.len(), "one nonce per proof");
        let base = encode_base(&GroupElement::generator());
        let publics = GroupElement::base_mul_all(xs);
        let commitments = GroupElement::encode_all(&GroupElement::base_mul_all(&nonces));
        let encoded = GroupElement::encode_all(&publics);
        nonces
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let c = Self::challenge(context, &base, &encoded[i], &commitments[i]);
                let proof = SchnorrProof {
                    commitment: commitments[i],
                    response: r.add(&c.mul(&xs[i])),
                };
                (publics[i], encoded[i], proof)
            })
            .collect()
    }

    /// Verify the proof against `(B, X)` and the context.
    pub fn verify(&self, context: &[u8], base: &GroupElement, public: &GroupElement) -> bool {
        let commitment = match GroupElement::decode(&self.commitment) {
            Some(p) => p,
            None => return false,
        };
        let c = Self::challenge(
            context,
            &encode_base(base),
            &public.encode(),
            &self.commitment,
        );
        response_minus_challenge(&self.response, base, &c, public) == commitment
    }

    /// Verify `n` Schnorr proofs in one multiscalar multiplication.
    ///
    /// Each statement is `(context, base, public, proof)`.  The proofs
    /// are folded with random-linear-combination coefficients drawn
    /// from a transcript-seeded DRBG (bound to every statement and
    /// proof), so the combined equation
    /// `sum_i rho_i * (z_i*B_i - R_i - c_i*X_i) = 0`
    /// accepts iff every individual proof verifies, except with
    /// probability < n * 2^-128.  All inputs are public wire data, so
    /// the variable-time multiscalar engine is safe here.
    pub fn batch_verify(statements: &[SchnorrBatchEntry<'_>]) -> bool {
        // The publics are encoded together (an inverse square root each;
        // `encode_all` takes them eight to a lane group).
        let publics: Vec<GroupElement> = statements.iter().map(|st| st.public).collect();
        Self::batch_verify_encoded(statements, &GroupElement::encode_all(&publics))
    }

    /// [`SchnorrProof::batch_verify`] for statements whose publics come
    /// with their canonical encodings: `publics[i]` must be
    /// `statements[i].public.encode()` (checked in debug builds).  A
    /// submission carries the bytes its `g^x` was sent or decoded as,
    /// so screening it skips the re-encoding.
    pub fn batch_verify_encoded(
        statements: &[SchnorrBatchEntry<'_>],
        publics: &[[u8; 32]],
    ) -> bool {
        assert_eq!(statements.len(), publics.len(), "one encoding per public");
        debug_assert!(statements
            .iter()
            .zip(publics)
            .all(|(st, encoded)| st.public.encode() == *encoded));
        if statements.is_empty() {
            return true;
        }
        // Per statement: decoded commitment, challenge, base encoding.
        // The commitments are decoded together (`decode_all`, eight to a
        // lane group).
        let commitments: Vec<[u8; 32]> = statements.iter().map(|st| st.proof.commitment).collect();
        let Some(commitments) = GroupElement::decode_all(&commitments)
            .into_iter()
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        let mut checked = Vec::with_capacity(statements.len());
        let mut seed_t = Transcript::new("xrd/schnorr-batch-verify");
        seed_t.append_u64("n", statements.len() as u64);
        for ((st, commitment), public) in statements.iter().zip(commitments).zip(publics) {
            let base = encode_base(&st.base);
            let c = Self::challenge(st.context, &base, public, &st.proof.commitment);
            // The challenge binds context, base, public and commitment,
            // so absorbing (challenge, response) binds the statement.
            seed_t.append("challenge", &c.to_bytes());
            seed_t.append("response", &st.proof.response.to_bytes());
            checked.push((commitment, c, base));
        }
        let mut drbg = ChaChaRng::from_seed(seed_t.challenge_bytes("rlc-seed"));

        let mut terms = BatchTerms::with_capacity(2 * statements.len() + 1);
        for (st, (commitment, c, base)) in statements.iter().zip(checked) {
            let rho = rlc_coefficient(&mut drbg);
            terms.push_base(rho.mul(&st.proof.response), base, st.base);
            terms.push(rho.neg(), commitment);
            terms.push(rho.mul(&c).neg(), st.public);
        }
        terms.sum_is_identity()
    }

    /// The Fiat-Shamir challenge.  The commitment is taken as its
    /// canonical 32-byte encoding (what travels in the proof): since
    /// decoding rejects non-canonical strings, absorbing the bytes is
    /// equivalent to absorbing `decode(bytes).encode()` and saves a
    /// re-encoding on every verification.  The base arrives encoded
    /// ([`encode_base`]) for the same reason, and the public value so
    /// that a batch prover can encode its publics together.
    fn challenge(
        context: &[u8],
        base: &[u8; 32],
        public: &[u8; 32],
        commitment: &[u8; 32],
    ) -> Scalar {
        let mut t = Transcript::new("xrd/schnorr-pok");
        t.append("context", context);
        t.append("base", base);
        t.append("public", public);
        t.append("commitment", commitment);
        t.challenge_scalar("c")
    }

    /// Serialize to 64 bytes.
    pub fn to_bytes(&self) -> [u8; SCHNORR_PROOF_LEN] {
        let mut out = [0u8; SCHNORR_PROOF_LEN];
        out[..32].copy_from_slice(&self.commitment);
        out[32..].copy_from_slice(&self.response.to_bytes());
        out
    }

    /// Parse from 64 bytes (structure check only; cryptographic checks
    /// happen in `verify`).
    pub fn from_bytes(bytes: &[u8]) -> Option<SchnorrProof> {
        if bytes.len() != SCHNORR_PROOF_LEN {
            return None;
        }
        let mut commitment = [0u8; 32];
        commitment.copy_from_slice(&bytes[..32]);
        let mut resp = [0u8; 32];
        resp.copy_from_slice(&bytes[32..]);
        Some(SchnorrProof {
            commitment,
            response: Scalar::from_canonical_bytes(&resp)?,
        })
    }
}

/// Chaum–Pedersen proof that `log_{B1}(X1) = log_{B2}(X2)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DleqProof {
    /// Commitment `R1 = B1^r`.
    pub commitment1: [u8; 32],
    /// Commitment `R2 = B2^r`.
    pub commitment2: [u8; 32],
    /// Response `z = r + c*x`.
    pub response: Scalar,
}

/// Serialized length of a DLEQ proof.
pub const DLEQ_PROOF_LEN: usize = 96;

impl DleqProof {
    /// Prove `X1 = B1^x` and `X2 = B2^x` for the same secret `x`.
    pub fn prove<R: RngCore + ?Sized>(
        rng: &mut R,
        context: &[u8],
        base1: &GroupElement,
        public1: &GroupElement,
        base2: &GroupElement,
        public2: &GroupElement,
        x: &Scalar,
    ) -> DleqProof {
        let r = Scalar::random(rng);
        let c1 = commit(base1, &r).encode();
        let c2 = commit(base2, &r).encode();
        let c = Self::challenge(
            context,
            &encode_base(base1),
            &public1.encode(),
            &encode_base(base2),
            &public2.encode(),
            &c1,
            &c2,
        );
        DleqProof {
            commitment1: c1,
            commitment2: c2,
            response: r.add(&c.mul(x)),
        }
    }

    /// Verify against the two base/public pairs and context.
    pub fn verify(
        &self,
        context: &[u8],
        base1: &GroupElement,
        public1: &GroupElement,
        base2: &GroupElement,
        public2: &GroupElement,
    ) -> bool {
        let (r1, r2) = match (
            GroupElement::decode(&self.commitment1),
            GroupElement::decode(&self.commitment2),
        ) {
            (Some(a), Some(b)) => (a, b),
            _ => return false,
        };
        let c = Self::challenge(
            context,
            &encode_base(base1),
            &public1.encode(),
            &encode_base(base2),
            &public2.encode(),
            &self.commitment1,
            &self.commitment2,
        );
        response_minus_challenge(&self.response, base1, &c, public1) == r1
            && response_minus_challenge(&self.response, base2, &c, public2) == r2
    }

    /// Verify `n` DLEQ proofs in one multiscalar multiplication (see
    /// [`SchnorrProof::batch_verify`] for the soundness argument); the
    /// two per-proof equations get independent 128-bit coefficients, so
    /// the whole batch is a single `6n`-term multiscalar mul.  Public
    /// wire data only — the multiscalar engine is variable time.
    pub fn batch_verify(statements: &[DleqBatchEntry<'_>]) -> bool {
        if statements.is_empty() {
            return true;
        }
        // Per statement: decoded commitments, challenge, base encodings;
        // the commitments decoded together and the publics encoded
        // together, as in the Schnorr batch.
        let commitments: Vec<[u8; 32]> = (statements.iter())
            .flat_map(|st| [st.proof.commitment1, st.proof.commitment2])
            .collect();
        let Some(commitments) = GroupElement::decode_all(&commitments)
            .into_iter()
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        let commitments = commitments.chunks(2).map(|r| (r[0], r[1]));
        let publics: Vec<GroupElement> = (statements.iter())
            .flat_map(|st| [st.public1, st.public2])
            .collect();
        let publics = GroupElement::encode_all(&publics);
        let mut checked = Vec::with_capacity(statements.len());
        let mut seed_t = Transcript::new("xrd/dleq-batch-verify");
        seed_t.append_u64("n", statements.len() as u64);
        for ((st, (r1, r2)), public) in (statements.iter().zip(commitments)).zip(publics.chunks(2))
        {
            let (base1, base2) = (encode_base(&st.base1), encode_base(&st.base2));
            let c = Self::challenge(
                st.context,
                &base1,
                &public[0],
                &base2,
                &public[1],
                &st.proof.commitment1,
                &st.proof.commitment2,
            );
            seed_t.append("challenge", &c.to_bytes());
            seed_t.append("response", &st.proof.response.to_bytes());
            checked.push((r1, r2, c, base1, base2));
        }
        let mut drbg = ChaChaRng::from_seed(seed_t.challenge_bytes("rlc-seed"));

        let mut terms = BatchTerms::with_capacity(6 * statements.len());
        for (st, (r1, r2, c, base1, base2)) in statements.iter().zip(checked) {
            let rho1 = rlc_coefficient(&mut drbg);
            let rho2 = rlc_coefficient(&mut drbg);
            terms.push_base(rho1.mul(&st.proof.response), base1, st.base1);
            terms.push(rho1.neg(), r1);
            terms.push(rho1.mul(&c).neg(), st.public1);
            terms.push_base(rho2.mul(&st.proof.response), base2, st.base2);
            terms.push(rho2.neg(), r2);
            terms.push(rho2.mul(&c).neg(), st.public2);
        }
        terms.sum_is_identity()
    }

    /// The Fiat-Shamir challenge; commitments are absorbed as their
    /// canonical wire bytes and publics arrive encoded (see
    /// [`SchnorrProof::challenge`]).
    #[allow(clippy::too_many_arguments)]
    fn challenge(
        context: &[u8],
        base1: &[u8; 32],
        public1: &[u8; 32],
        base2: &[u8; 32],
        public2: &[u8; 32],
        c1: &[u8; 32],
        c2: &[u8; 32],
    ) -> Scalar {
        let mut t = Transcript::new("xrd/chaum-pedersen-dleq");
        t.append("context", context);
        t.append("base1", base1);
        t.append("public1", public1);
        t.append("base2", base2);
        t.append("public2", public2);
        t.append("commitment1", c1);
        t.append("commitment2", c2);
        t.challenge_scalar("c")
    }

    /// Serialize to 96 bytes.
    pub fn to_bytes(&self) -> [u8; DLEQ_PROOF_LEN] {
        let mut out = [0u8; DLEQ_PROOF_LEN];
        out[..32].copy_from_slice(&self.commitment1);
        out[32..64].copy_from_slice(&self.commitment2);
        out[64..].copy_from_slice(&self.response.to_bytes());
        out
    }

    /// Parse from 96 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<DleqProof> {
        if bytes.len() != DLEQ_PROOF_LEN {
            return None;
        }
        let mut c1 = [0u8; 32];
        c1.copy_from_slice(&bytes[..32]);
        let mut c2 = [0u8; 32];
        c2.copy_from_slice(&bytes[32..64]);
        let mut resp = [0u8; 32];
        resp.copy_from_slice(&bytes[64..]);
        Some(DleqProof {
            commitment1: c1,
            commitment2: c2,
            response: Scalar::from_canonical_bytes(&resp)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schnorr_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Scalar::random(&mut rng);
        let g = GroupElement::generator();
        let gx = GroupElement::base_mul(&x);
        let proof = SchnorrProof::prove(&mut rng, b"ctx", &g, &gx, &x);
        assert!(proof.verify(b"ctx", &g, &gx));
    }

    #[test]
    fn prove_base_all_is_prove_per_exponent() {
        // The batch prover with pre-drawn nonces returns what `prove`
        // does when its RNG yields those nonces, and the publics.
        let g = GroupElement::generator();
        for n in [0usize, 1, 2, 3, 8, 11] {
            let mut rng = StdRng::seed_from_u64(40 + n as u64);
            let xs: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
            let mut nonce_rng = rng.clone();
            let nonces: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut nonce_rng)).collect();
            let batch = SchnorrProof::prove_base_all(b"ctx", &xs, nonces);
            assert_eq!(batch.len(), n);
            for (x, (public, encoded, proof)) in xs.iter().zip(batch) {
                assert_eq!(public, GroupElement::base_mul(x));
                assert_eq!(encoded, public.encode());
                assert_eq!(proof, SchnorrProof::prove(&mut rng, b"ctx", &g, &public, x));
                assert!(proof.verify(b"ctx", &g, &public));
            }
        }
    }

    #[test]
    fn schnorr_nonstandard_base() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = GroupElement::random(&mut rng);
        let x = Scalar::random(&mut rng);
        let public = base.mul(&x);
        let proof = SchnorrProof::prove(&mut rng, b"ctx", &base, &public, &x);
        assert!(proof.verify(b"ctx", &base, &public));
        // Wrong base fails.
        assert!(!proof.verify(b"ctx", &GroupElement::generator(), &public));
    }

    #[test]
    fn schnorr_rejects_wrong_context() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Scalar::random(&mut rng);
        let g = GroupElement::generator();
        let gx = GroupElement::base_mul(&x);
        let proof = SchnorrProof::prove(&mut rng, b"round-1", &g, &gx, &x);
        assert!(!proof.verify(b"round-2", &g, &gx));
    }

    #[test]
    fn schnorr_rejects_wrong_statement() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Scalar::random(&mut rng);
        let g = GroupElement::generator();
        let gx = GroupElement::base_mul(&x);
        let gy = GroupElement::base_mul(&Scalar::random(&mut rng));
        let proof = SchnorrProof::prove(&mut rng, b"c", &g, &gx, &x);
        assert!(!proof.verify(b"c", &g, &gy));
    }

    #[test]
    fn schnorr_serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Scalar::random(&mut rng);
        let g = GroupElement::generator();
        let gx = GroupElement::base_mul(&x);
        let proof = SchnorrProof::prove(&mut rng, b"c", &g, &gx, &x);
        let parsed = SchnorrProof::from_bytes(&proof.to_bytes()).unwrap();
        assert_eq!(parsed, proof);
        assert!(parsed.verify(b"c", &g, &gx));
        assert!(SchnorrProof::from_bytes(&[0u8; 63]).is_none());
    }

    #[test]
    fn schnorr_tampered_proof_fails() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Scalar::random(&mut rng);
        let g = GroupElement::generator();
        let gx = GroupElement::base_mul(&x);
        let proof = SchnorrProof::prove(&mut rng, b"c", &g, &gx, &x);
        let mut tampered = proof;
        tampered.response = proof.response.add(&Scalar::ONE);
        assert!(!tampered.verify(b"c", &g, &gx));
    }

    #[test]
    fn dleq_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Scalar::random(&mut rng);
        let b1 = GroupElement::random(&mut rng);
        let b2 = GroupElement::random(&mut rng);
        let p1 = b1.mul(&x);
        let p2 = b2.mul(&x);
        let proof = DleqProof::prove(&mut rng, b"ctx", &b1, &p1, &b2, &p2, &x);
        assert!(proof.verify(b"ctx", &b1, &p1, &b2, &p2));
    }

    #[test]
    fn dleq_rejects_unequal_exponents() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Scalar::random(&mut rng);
        let y = Scalar::random(&mut rng);
        let b1 = GroupElement::random(&mut rng);
        let b2 = GroupElement::random(&mut rng);
        let p1 = b1.mul(&x);
        let p2 = b2.mul(&y); // different exponent!
        let proof = DleqProof::prove(&mut rng, b"c", &b1, &p1, &b2, &p2, &x);
        assert!(!proof.verify(b"c", &b1, &p1, &b2, &p2));
    }

    #[test]
    fn dleq_rejects_wrong_context() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Scalar::random(&mut rng);
        let b1 = GroupElement::generator();
        let b2 = GroupElement::random(&mut rng);
        let proof = DleqProof::prove(&mut rng, b"a", &b1, &b1.mul(&x), &b2, &b2.mul(&x), &x);
        assert!(!proof.verify(b"b", &b1, &b1.mul(&x), &b2, &b2.mul(&x)));
    }

    #[test]
    fn dleq_serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = Scalar::random(&mut rng);
        let b1 = GroupElement::generator();
        let b2 = GroupElement::random(&mut rng);
        let p1 = b1.mul(&x);
        let p2 = b2.mul(&x);
        let proof = DleqProof::prove(&mut rng, b"c", &b1, &p1, &b2, &p2, &x);
        let parsed = DleqProof::from_bytes(&proof.to_bytes()).unwrap();
        assert_eq!(parsed, proof);
        assert!(parsed.verify(b"c", &b1, &p1, &b2, &p2));
        assert!(DleqProof::from_bytes(&[0u8; 95]).is_none());
    }

    fn schnorr_batch(
        rng: &mut StdRng,
        n: usize,
    ) -> (Vec<GroupElement>, Vec<GroupElement>, Vec<SchnorrProof>) {
        let mut bases = Vec::new();
        let mut publics = Vec::new();
        let mut proofs = Vec::new();
        for _ in 0..n {
            let base = GroupElement::random(rng);
            let x = Scalar::random(rng);
            let public = base.mul(&x);
            proofs.push(SchnorrProof::prove(rng, b"batch", &base, &public, &x));
            bases.push(base);
            publics.push(public);
        }
        (bases, publics, proofs)
    }

    #[test]
    fn schnorr_batch_verify_accepts_valid_and_rejects_tampered() {
        let mut rng = StdRng::seed_from_u64(30);
        let (bases, publics, mut proofs) = schnorr_batch(&mut rng, 8);
        let entries = |proofs: &[SchnorrProof]| -> Vec<SchnorrBatchEntry<'static>> {
            proofs
                .iter()
                .zip(bases.iter().zip(&publics))
                .map(|(proof, (base, public))| SchnorrBatchEntry {
                    context: b"batch",
                    base: *base,
                    public: *public,
                    proof: *proof,
                })
                .collect()
        };
        assert!(SchnorrProof::batch_verify(&entries(&proofs)));
        assert!(SchnorrProof::batch_verify(&[]));
        // Tamper a single response: the whole batch must reject.
        proofs[5].response = proofs[5].response.add(&Scalar::ONE);
        assert!(!SchnorrProof::batch_verify(&entries(&proofs)));
    }

    #[test]
    fn schnorr_batch_verify_folds_shared_bases() {
        // Six statements on the generator (one folded base term) mixed
        // with two on their own bases: accepted as a whole, rejected as
        // soon as any one — folded or not — is tampered with.
        let mut rng = StdRng::seed_from_u64(35);
        let g = GroupElement::generator();
        let mut stmts: Vec<(GroupElement, GroupElement, SchnorrProof)> = (0..8)
            .map(|i| {
                let base = if i % 4 == 3 {
                    GroupElement::random(&mut rng)
                } else {
                    g
                };
                let x = Scalar::random(&mut rng);
                let public = base.mul(&x);
                let proof = SchnorrProof::prove(&mut rng, b"fold", &base, &public, &x);
                assert!(proof.verify(b"fold", &base, &public));
                (base, public, proof)
            })
            .collect();
        let entries = |stmts: &[(GroupElement, GroupElement, SchnorrProof)]| {
            stmts
                .iter()
                .map(|(base, public, proof)| SchnorrBatchEntry {
                    context: b"fold",
                    base: *base,
                    public: *public,
                    proof: *proof,
                })
                .collect::<Vec<_>>()
        };
        assert!(SchnorrProof::batch_verify(&entries(&stmts)));
        for victim in [0, 3] {
            let honest = stmts[victim].2;
            stmts[victim].2.response = honest.response.add(&Scalar::ONE);
            assert!(!SchnorrProof::batch_verify(&entries(&stmts)));
            assert!(!stmts[victim]
                .2
                .verify(b"fold", &stmts[victim].0, &stmts[victim].1));
            stmts[victim].2 = honest;
        }
    }

    #[test]
    fn schnorr_batch_verify_rejects_wrong_context() {
        let mut rng = StdRng::seed_from_u64(31);
        let (bases, publics, proofs) = schnorr_batch(&mut rng, 3);
        let mut entries: Vec<SchnorrBatchEntry> = proofs
            .iter()
            .zip(bases.iter().zip(&publics))
            .map(|(proof, (base, public))| SchnorrBatchEntry {
                context: b"batch",
                base: *base,
                public: *public,
                proof: *proof,
            })
            .collect();
        entries[1].context = b"other";
        assert!(!SchnorrProof::batch_verify(&entries));
    }

    fn dleq_batch(
        rng: &mut StdRng,
        n: usize,
    ) -> Vec<(
        GroupElement,
        GroupElement,
        GroupElement,
        GroupElement,
        DleqProof,
    )> {
        (0..n)
            .map(|_| {
                let x = Scalar::random(rng);
                let b1 = GroupElement::random(rng);
                let b2 = GroupElement::random(rng);
                let p1 = b1.mul(&x);
                let p2 = b2.mul(&x);
                let proof = DleqProof::prove(rng, b"batch", &b1, &p1, &b2, &p2, &x);
                (b1, p1, b2, p2, proof)
            })
            .collect()
    }

    fn dleq_entries(
        stmts: &[(
            GroupElement,
            GroupElement,
            GroupElement,
            GroupElement,
            DleqProof,
        )],
    ) -> Vec<DleqBatchEntry<'_>> {
        stmts
            .iter()
            .map(|(b1, p1, b2, p2, proof)| DleqBatchEntry {
                context: b"batch",
                base1: *b1,
                public1: *p1,
                base2: *b2,
                public2: *p2,
                proof: *proof,
            })
            .collect()
    }

    #[test]
    fn dleq_batch_verify_accepts_valid_and_rejects_tampered() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut stmts = dleq_batch(&mut rng, 8);
        assert!(DleqProof::batch_verify(&dleq_entries(&stmts)));
        assert!(DleqProof::batch_verify(&[]));
        // Tamper one statement (swap its second public): reject.
        let other = GroupElement::random(&mut rng);
        stmts[3].3 = other;
        assert!(!DleqProof::batch_verify(&dleq_entries(&stmts)));
    }

    #[test]
    fn dleq_batch_verify_rejects_unequal_exponents() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut stmts = dleq_batch(&mut rng, 4);
        // Replace one proof with a proof over different exponents.
        let x = Scalar::random(&mut rng);
        let y = Scalar::random(&mut rng);
        let b1 = GroupElement::random(&mut rng);
        let b2 = GroupElement::random(&mut rng);
        let p1 = b1.mul(&x);
        let p2 = b2.mul(&y);
        let proof = DleqProof::prove(&mut rng, b"batch", &b1, &p1, &b2, &p2, &x);
        stmts[0] = (b1, p1, b2, p2, proof);
        assert!(!DleqProof::batch_verify(&dleq_entries(&stmts)));
    }

    #[test]
    fn batch_verify_matches_individual_verify() {
        // Randomized agreement: for random mixes of valid/invalid
        // proofs, batch_verify accepts iff every individual verify does.
        let mut rng = StdRng::seed_from_u64(34);
        for trial in 0..6 {
            let mut stmts = dleq_batch(&mut rng, 5);
            let corrupt = trial % 2 == 1;
            if corrupt {
                let idx = trial % stmts.len();
                stmts[idx].4.response = stmts[idx].4.response.add(&Scalar::ONE);
            }
            let individual = stmts
                .iter()
                .all(|(b1, p1, b2, p2, proof)| proof.verify(b"batch", b1, p1, b2, p2));
            assert_eq!(
                DleqProof::batch_verify(&dleq_entries(&stmts)),
                individual,
                "trial {trial}"
            );
            assert_eq!(individual, !corrupt);
        }
    }

    /// One bad statement among 40 of the screening shape (base `g`,
    /// proofs from `prove_base_all`: 81 multiscalar terms, two blocks of
    /// the lane engine), at every position in turn — a wrong response,
    /// and a proof moved onto another public — rejects the batch.
    #[test]
    fn schnorr_batch_rejects_one_bad_proof_at_every_position() {
        let mut rng = StdRng::seed_from_u64(36);
        let g = GroupElement::generator();
        let xs: Vec<Scalar> = (0..40).map(|_| Scalar::random(&mut rng)).collect();
        let nonces = (0..40).map(|_| Scalar::random(&mut rng)).collect();
        let proven = SchnorrProof::prove_base_all(b"screen", &xs, nonces);
        let honest: Vec<SchnorrBatchEntry> = proven
            .iter()
            .map(|(public, _, proof)| SchnorrBatchEntry {
                context: b"screen",
                base: g,
                public: *public,
                proof: *proof,
            })
            .collect();
        assert!(SchnorrProof::batch_verify(&honest));
        for i in 0..honest.len() {
            let mut bad = honest.clone();
            bad[i].proof.response = bad[i].proof.response.add(&Scalar::ONE);
            assert!(!SchnorrProof::batch_verify(&bad), "response at {i}");
            let mut bad = honest.clone();
            bad[i].public = honest[(i + 1) % honest.len()].public;
            assert!(!SchnorrProof::batch_verify(&bad), "public at {i}");
        }
    }

    /// The same for DLEQ: 16 statements on bases of their own (96
    /// terms, two blocks), each in turn with a wrong response or a
    /// second public from another statement.
    #[test]
    fn dleq_batch_rejects_one_bad_proof_at_every_position() {
        let mut rng = StdRng::seed_from_u64(37);
        let stmts = dleq_batch(&mut rng, 16);
        assert!(DleqProof::batch_verify(&dleq_entries(&stmts)));
        for i in 0..stmts.len() {
            let mut bad = stmts.clone();
            bad[i].4.response = bad[i].4.response.add(&Scalar::ONE);
            assert!(
                !DleqProof::batch_verify(&dleq_entries(&bad)),
                "response at {i}"
            );
            let mut bad = stmts.clone();
            bad[i].3 = stmts[(i + 1) % stmts.len()].3;
            assert!(
                !DleqProof::batch_verify(&dleq_entries(&bad)),
                "public at {i}"
            );
        }
    }

    #[test]
    fn dleq_aggregate_usage_pattern() {
        // The AHS usage: prove (prod X_i)^bsk = prod X_{i+1} against
        // base pair (bpk_{i-1}, bpk_i).
        let mut rng = StdRng::seed_from_u64(11);
        let bsk = Scalar::random(&mut rng);
        let bpk_prev = GroupElement::random(&mut rng);
        let bpk = bpk_prev.mul(&bsk);
        let xs: Vec<GroupElement> = (0..10).map(|_| GroupElement::random(&mut rng)).collect();
        let blinded: Vec<GroupElement> = xs.iter().map(|x| x.mul(&bsk)).collect();
        let prod_in = GroupElement::product(&xs);
        let prod_out = GroupElement::product(&blinded);
        let proof = DleqProof::prove(&mut rng, b"ahs", &prod_in, &prod_out, &bpk_prev, &bpk, &bsk);
        assert!(proof.verify(b"ahs", &prod_in, &prod_out, &bpk_prev, &bpk));
    }
}
