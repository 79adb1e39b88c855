//! Client-side onion encryption.
//!
//! Two variants:
//!
//! * [`seal_ahs`] / [`ChainSealer`] — the AHS "double envelope"
//!   (§6.2): one Diffie-Hellman exponent `x` shared across all outer
//!   layers (so servers can blind and verify aggregates), an inner
//!   envelope encrypted to the product of the per-round inner keys, and
//!   a NIZK proving knowledge of `x`.  `seal_ahs` seals one message
//!   against a key bundle with from-scratch ladders; a [`ChainSealer`]
//!   precomputes fixed-base tables of the bundle's keys and seals any
//!   number of messages off them, one at a time
//!   ([`ChainSealer::seal`]) or many per call
//!   ([`ChainSealer::seal_all`], where every exponentiation and
//!   encoding is one batch across the messages).  All run the same
//!   onion routine and produce byte-identical submissions from the
//!   same randomness.
//! * [`seal_basic`] — the baseline Algorithm 2 onion (fresh DH key per
//!   layer, no proofs), kept for the protocol ablation and as the
//!   passive-adversary baseline of §5.
//!
//! Both produce fixed-size submissions for a given chain length, which
//! tests assert (uniform message size is part of the privacy argument).

use std::sync::Arc;

use rand::RngCore;

use xrd_crypto::aead::{aenc, aenc_all, round_nonce};
use xrd_crypto::kdf;
use xrd_crypto::nizk::{SchnorrBatchEntry, SchnorrProof};
use xrd_crypto::ristretto::{FixedGroupTable, GroupElement};
use xrd_crypto::scalar::Scalar;
use xrd_crypto::SCHNORR_PROOF_LEN;

use crate::chain_keys::ChainPublicKeys;
use crate::message::{
    domain_outer, inner_envelope_len, outer_ct_len, MailboxMessage, MixEntry, DOMAIN_INNER,
};

/// A user's AHS submission to one chain: `(g^x, c_1)` plus the proof of
/// knowledge of `x` (§6.2).
///
/// `g^x` travels with its canonical encoding, made once where the point
/// is: the sealer's proof needed it anyway, and the codec holds the
/// bytes it decoded.  Every copy a client sends, a server's proof check
/// and the sort of a closed window read those bytes instead of paying
/// an inverse square root each.  The point and its bytes are private so
/// they cannot part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Submission {
    dh: GroupElement,
    encoded_dh: [u8; 32],
    /// Outer onion ciphertext `c_1`.
    pub ct: Vec<u8>,
    /// NIZK PoK of `x` (knowledge-of-discrete-log, \[9\]).
    pub pok: SchnorrProof,
}

impl Submission {
    /// A submission of `dh`, encoded here.
    pub fn new(dh: GroupElement, ct: Vec<u8>, pok: SchnorrProof) -> Submission {
        Submission {
            encoded_dh: dh.encode(),
            dh,
            ct,
            pok,
        }
    }

    /// A submission whose `dh` was decoded from `encoded_dh` (the
    /// codec's, which decodes a row's points together): the bytes are
    /// kept, not recomputed.  `dh` must be what
    /// [`GroupElement::decode`] makes of them; debug builds check.
    pub fn decoded(
        encoded_dh: [u8; 32],
        dh: GroupElement,
        ct: Vec<u8>,
        pok: SchnorrProof,
    ) -> Submission {
        debug_assert_eq!(GroupElement::decode(&encoded_dh), Some(dh));
        Submission {
            dh,
            encoded_dh,
            ct,
            pok,
        }
    }

    /// `g^x`.
    pub fn dh(&self) -> GroupElement {
        self.dh
    }

    /// The canonical encoding of `g^x`, as it goes on the wire.
    pub fn encoded_dh(&self) -> &[u8; 32] {
        &self.encoded_dh
    }

    /// Serialized size in bytes (for the Figure 2 bandwidth accounting).
    pub fn wire_len(&self) -> usize {
        32 + self.ct.len() + SCHNORR_PROOF_LEN
    }

    /// Verify the knowledge proof (run by every server on submission).
    pub fn verify_pok(&self, round: u64) -> bool {
        self.pok.verify(
            &submission_context(round),
            &GroupElement::generator(),
            &self.dh,
        )
    }

    /// [`Submission::verify_pok`] for each of `submissions`, as one
    /// batched check ([`SchnorrProof::batch_verify_encoded`]: a single
    /// multiscalar multiplication, the shared base `g` folded into one
    /// term, each challenge hashing the carried encoding of `g^x`).
    /// Only if the batch rejects are the proofs checked one by one, so
    /// the exact offenders are still identified.
    pub fn verify_poks(round: u64, submissions: &[Submission]) -> Vec<bool> {
        let context = submission_context(round);
        let statements: Vec<SchnorrBatchEntry> = submissions
            .iter()
            .map(|sub| SchnorrBatchEntry {
                context: &context,
                base: GroupElement::generator(),
                public: sub.dh,
                proof: sub.pok,
            })
            .collect();
        let encoded: Vec<[u8; 32]> = submissions.iter().map(|sub| sub.encoded_dh).collect();
        if SchnorrProof::batch_verify_encoded(&statements, &encoded) {
            vec![true; submissions.len()]
        } else {
            submissions.iter().map(|s| s.verify_pok(round)).collect()
        }
    }

    /// View as the first hop's mix entry.
    pub fn to_entry(&self) -> MixEntry {
        MixEntry {
            dh: self.dh,
            ct: self.ct.clone(),
        }
    }

    /// The canonical bytes of a submission: `g^x || PoK || onion` —
    /// what a mix server sorts a closed window by.
    pub fn to_bytes(&self) -> Vec<u8> {
        [&self.encoded_dh[..], &self.pok.to_bytes(), &self.ct].concat()
    }
}

/// Fiat–Shamir context binding submissions to a round.
pub fn submission_context(round: u64) -> Vec<u8> {
    let mut ctx = b"xrd/submission".to_vec();
    ctx.extend_from_slice(&round.to_le_bytes());
    ctx
}

/// KDF context for outer layer `i` of a round.
pub(crate) fn outer_layer_context(round: u64, layer: usize) -> Vec<u8> {
    let mut ctx = round.to_le_bytes().to_vec();
    ctx.extend_from_slice(&(layer as u64).to_le_bytes());
    ctx
}

/// Symmetric key for outer layer `layer`, derived from the *encoding*
/// of the layer's DH shared element; used identically by the user (from
/// `mpk_i^x`) and server `i` (from `X_i^{msk_i}` — the same element by
/// the AHS algebra).  The batch of one of [`outer_layer_keys`].
pub(crate) fn outer_layer_key(shared: &[u8; 32], round: u64, layer: usize) -> [u8; 32] {
    outer_layer_keys(std::slice::from_ref(shared), round, layer)[0]
}

/// [`outer_layer_key`] of every shared element's encoding (whoever
/// computes many encodes them together, as doubles of their halves
/// with [`GroupElement::double_encode_all`], and derives their keys
/// together, [`kdf::derive_key_all`]).
pub(crate) fn outer_layer_keys(shared: &[[u8; 32]], round: u64, layer: usize) -> Vec<[u8; 32]> {
    let context = outer_layer_context(round, layer);
    let inputs: Vec<[&[u8]; 2]> = shared.iter().map(|s| [&s[..], &context[..]]).collect();
    kdf::derive_key_all("xrd/outer-layer", &inputs)
}

/// Symmetric key for the inner envelope of every shared element's
/// encoding.
pub(crate) fn inner_keys(shared: &[[u8; 32]], round: u64) -> Vec<[u8; 32]> {
    let round = round.to_le_bytes();
    let inputs: Vec<[&[u8]; 2]> = shared.iter().map(|s| [&s[..], &round[..]]).collect();
    kdf::derive_key_all("xrd/inner-envelope", &inputs)
}

/// One onion's secret randomness: the inner envelope's exponent `y`,
/// the outer layers' exponent `x` and the nonce of the proof of
/// knowledge of `x`.
///
/// [`SealRandomness::draw`] takes them from an RNG in the order the
/// onion routine always has (`y`, `x`, the nonce), so drawing a
/// message's randomness *first* and sealing it later — in whatever
/// batch it ends up in — yields the submission that sealing it on the
/// spot would have.  Not `Clone`, and consumed by the seal: the same
/// nonce under two challenges (another message, another round) reveals
/// `x`.
pub struct SealRandomness {
    y: Scalar,
    x: Scalar,
    nonce: Scalar,
}

impl SealRandomness {
    /// The next onion's randomness off `rng`.
    pub fn draw<R: RngCore + ?Sized>(rng: &mut R) -> SealRandomness {
        SealRandomness {
            y: Scalar::random(rng),
            x: Scalar::random(rng),
            nonce: Scalar::random(rng),
        }
    }
}

/// Where the Diffie-Hellman values of an AHS onion come from.  The
/// onion routine ([`seal_onions`]) is written once over this, so the
/// one-off path (ladders against a [`ChainPublicKeys`]) and the bulk
/// path (walks of a [`ChainSealer`]'s tables) cannot drift.
trait SealKeys {
    /// Chain length `k`.
    fn chain_len(&self) -> usize;
    /// `(∏ipk)^y`, the inner envelope's shared element, per `y`.
    fn inner_shared_all(&self, ys: &[Scalar]) -> Vec<GroupElement>;
    /// `mpk_layer^x`, outer layer `layer`'s shared element, per `x`.
    fn layer_shared_all(&self, layer: usize, xs: &[Scalar]) -> Vec<GroupElement>;
}

impl SealKeys for ChainPublicKeys {
    fn chain_len(&self) -> usize {
        self.len()
    }
    fn inner_shared_all(&self, ys: &[Scalar]) -> Vec<GroupElement> {
        let ipk = self.aggregate_inner_key();
        ys.iter().map(|y| ipk.mul(y)).collect()
    }
    fn layer_shared_all(&self, layer: usize, xs: &[Scalar]) -> Vec<GroupElement> {
        xs.iter().map(|x| self.mpks[layer].mul(x)).collect()
    }
}

/// The §6.2 double envelope for a batch of messages bound for one
/// chain, generic over where the DH values come from: submission `i`
/// seals `jobs[i]`'s message under `jobs[i]`'s randomness and depends on
/// nothing else in the batch.
///
/// All public-key work is done across the batch first — `g^y` off the
/// generator's table and the `k + 1` shared elements off the chain's,
/// each at the *halved* exponent ([`Scalar::half`]), then the
/// encodings of their doubles (the elements themselves) in one
/// [`GroupElement::double_encode_all`] over all `(k + 2)·n` of them,
/// which shares one field inversion per 128 elements instead of paying
/// an inverse square root per element; `g^x` and the proof commitments go the
/// same way inside [`SchnorrProof::prove_base_all`].  The table walks
/// run eight messages to a walk where `xrd-crypto`'s lane kernel is
/// compiled in.  The symmetric work is batched the same way, a layer
/// at a time: each layer's keys in one [`kdf::derive_key_all`], its
/// ciphertexts in one [`aenc_all`] (every layer of a round has one
/// length), and the proofs' challenges behind one transcript prefix.
/// The exponents reach the tables only through
/// [`FixedGroupTable::mul_all`] / [`GroupElement::mul`] and the shared
/// elements only through [`GroupElement::double_encode_all`], all
/// masked: nothing here branches on a secret.
fn seal_onions(
    keys: &impl SealKeys,
    round: u64,
    jobs: Vec<(SealRandomness, MailboxMessage)>,
) -> Vec<Submission> {
    let k = keys.chain_len();
    assert!(k >= 1, "chain must have at least one server");
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let half_ys: Vec<Scalar> = jobs.iter().map(|(r, _)| r.y.half()).collect();
    let xs: Vec<Scalar> = jobs.iter().map(|(r, _)| r.x).collect();
    let half_xs: Vec<Scalar> = xs.iter().map(Scalar::half).collect();

    // Every encoded element, at half its exponent: `g^y`, `(∏ipk)^y`,
    // then `mpk_layer^x` for layers k-1 down to 0.
    let mut halves = Vec::with_capacity((k + 2) * n);
    halves.extend(GroupElement::base_mul_all(&half_ys));
    halves.extend(keys.inner_shared_all(&half_ys));
    for layer in (0..k).rev() {
        halves.extend(keys.layer_shared_all(layer, &half_xs));
    }
    let encoded = GroupElement::double_encode_all(&halves);
    let mut encoded = encoded.chunks_exact(n);

    // Inner envelopes: e = (g^y, AEnc(DH(∏ipk, y), ρ, m)).
    let gy = encoded.next().expect("g^y of every message");
    let inner_shared = encoded.next().expect("(∏ipk)^y of every message");
    let (nonces, messages): (Vec<Scalar>, Vec<Vec<u8>>) = (jobs.into_iter())
        .map(|(randomness, msg)| (randomness.nonce, msg.to_bytes()))
        .unzip();
    let sealed = aenc_all(
        &inner_keys(inner_shared, round),
        &round_nonce(round, DOMAIN_INNER),
        b"",
        &messages,
    );
    let mut cts: Vec<Vec<u8>> = (gy.iter().zip(sealed))
        .map(|(gy, sealed)| {
            let mut ct = Vec::with_capacity(inner_envelope_len());
            ct.extend_from_slice(gy);
            ct.extend_from_slice(&sealed);
            debug_assert_eq!(ct.len(), inner_envelope_len());
            ct
        })
        .collect();

    // Outer layers, innermost (layer k-1) first: a single exponent x
    // per message.
    for layer in (0..k).rev() {
        let shared = encoded.next().expect("mpk^x of every message, per layer");
        cts = aenc_all(
            &outer_layer_keys(shared, round, layer),
            &round_nonce(round, domain_outer(layer)),
            b"",
            &cts,
        );
    }

    SchnorrProof::prove_base_all(&submission_context(round), &xs, nonces)
        .into_iter()
        .zip(cts)
        .map(|((dh, encoded_dh, pok), ct)| {
            debug_assert_eq!(ct.len(), outer_ct_len(k));
            Submission {
                dh,
                encoded_dh,
                ct,
                pok,
            }
        })
        .collect()
}

/// The batch of one.
fn seal_onion<R: RngCore + ?Sized>(
    rng: &mut R,
    keys: &impl SealKeys,
    round: u64,
    msg: &MailboxMessage,
) -> Submission {
    seal_onions(keys, round, vec![(SealRandomness::draw(rng), msg.clone())])
        .pop()
        .expect("one submission per message")
}

/// AHS onion-encryption (§6.2): seal `msg` for the chain described by
/// `keys`, for round `round`.  One-off: every DH value is a
/// from-scratch ladder; to seal many messages against the same chain
/// build a [`ChainSealer`].
pub fn seal_ahs<R: RngCore + ?Sized>(
    rng: &mut R,
    keys: &ChainPublicKeys,
    round: u64,
    msg: &MailboxMessage,
) -> Submission {
    seal_onion(rng, keys, round, msg)
}

/// Fixed-base tables of a chain's mixing keys: stable for the epoch,
/// so shared between the sealers of successive bundles.
struct MixTables {
    mpks: Vec<GroupElement>,
    tables: Vec<FixedGroupTable>,
}

impl MixTables {
    fn new(mpks: &[GroupElement]) -> MixTables {
        MixTables {
            mpks: mpks.to_vec(),
            tables: mpks.iter().map(FixedGroupTable::new).collect(),
        }
    }
}

/// Bulk sealing against one chain's key bundle: `k` fixed-base tables
/// of the mixing keys plus one of the aggregate inner key (~24 KB and
/// about three ladders each to build), after which every seal's `k + 1`
/// variable-base exponentiations are table walks — shared eight
/// messages to a walk by [`ChainSealer::seal_all`].  Pays for itself
/// after a handful of seals; [`seal_ahs`] is the one-off form.
///
/// The tables are plain data derived from public keys and live only as
/// long as the sealer — nothing is cached in [`ChainPublicKeys`], so
/// there is nothing to invalidate when keys rotate.
pub struct ChainSealer {
    mix: Arc<MixTables>,
    inner: FixedGroupTable,
}

impl ChainSealer {
    /// Precompute the tables for `keys`.
    pub fn new(keys: &ChainPublicKeys) -> ChainSealer {
        ChainSealer {
            mix: Arc::new(MixTables::new(&keys.mpks)),
            inner: FixedGroupTable::new(&keys.aggregate_inner_key()),
        }
    }

    /// A sealer for another bundle of the same chain — the next round's
    /// pre-published inner keys, which §5.3.3 covers are sealed against.
    /// Inner keys rotate every round but mixing keys are epoch-stable,
    /// so the `k` mixing-key tables are shared and only the aggregate
    /// inner-key table is built.  (A bundle whose mixing keys differ
    /// gets fresh tables.)
    pub fn for_bundle(&self, keys: &ChainPublicKeys) -> ChainSealer {
        if keys.mpks != self.mix.mpks {
            return ChainSealer::new(keys);
        }
        ChainSealer {
            mix: Arc::clone(&self.mix),
            inner: FixedGroupTable::new(&keys.aggregate_inner_key()),
        }
    }

    /// Seal `msg` for `round`: the submission [`seal_ahs`] returns for
    /// the same bundle and RNG stream, byte for byte.
    pub fn seal<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        round: u64,
        msg: &MailboxMessage,
    ) -> Submission {
        seal_onion(rng, self, round, msg)
    }

    /// Seal every job's message for `round` under that job's
    /// randomness, in order: submission `i` is the one
    /// [`ChainSealer::seal`] returns for `jobs[i]`'s message from an
    /// RNG about to yield `jobs[i]`'s randomness, byte for byte,
    /// whatever else is in the batch.
    pub fn seal_all(
        &self,
        round: u64,
        jobs: Vec<(SealRandomness, MailboxMessage)>,
    ) -> Vec<Submission> {
        seal_onions(self, round, jobs)
    }
}

impl SealKeys for ChainSealer {
    fn chain_len(&self) -> usize {
        self.mix.tables.len()
    }
    fn inner_shared_all(&self, ys: &[Scalar]) -> Vec<GroupElement> {
        self.inner.mul_all(ys)
    }
    fn layer_shared_all(&self, layer: usize, xs: &[Scalar]) -> Vec<GroupElement> {
        self.mix.tables[layer].mul_all(xs)
    }
}

/// Baseline Algorithm 2 onion: fresh DH key per layer, mixing keys are
/// ordinary `mpk_i = g^{msk_i}` pairs.  Layer format:
/// `g^{x_i} || AEnc(DH(mpk_i, x_i), ρ, next_layer)`.
pub fn seal_basic<R: RngCore + ?Sized>(
    rng: &mut R,
    mpks: &[GroupElement],
    round: u64,
    msg: &MailboxMessage,
) -> Vec<u8> {
    let mut ct = msg.to_bytes();
    for (layer, mpk) in mpks.iter().enumerate().rev() {
        let x = Scalar::random(rng);
        let key = outer_layer_key(&mpk.mul(&x).encode(), round, layer);
        let sealed = aenc(&key, &round_nonce(round, domain_outer(layer)), b"", &ct);
        let mut next = Vec::with_capacity(32 + sealed.len());
        next.extend_from_slice(&GroupElement::base_mul(&x).encode());
        next.extend_from_slice(&sealed);
        ct = next;
    }
    ct
}

/// Size of a basic (Algorithm 2) onion for chain length `k`: each layer
/// adds a fresh 32-byte DH key *and* a 16-byte tag.
pub fn basic_onion_len(k: usize) -> usize {
    crate::message::MAILBOX_MSG_LEN + k * (32 + xrd_crypto::TAG_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_keys::{generate_chain_keys, ServerSecrets};
    use crate::message::{MAILBOX_MSG_LEN, PAYLOAD_LEN};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xrd_crypto::TAG_LEN;

    fn test_msg() -> MailboxMessage {
        MailboxMessage {
            mailbox: [5u8; 32],
            sealed: vec![1u8; PAYLOAD_LEN + TAG_LEN],
        }
    }

    #[test]
    fn ahs_submission_has_fixed_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, keys) = generate_chain_keys(&mut rng, 4, 3);
        let s1 = seal_ahs(&mut rng, &keys, 3, &test_msg());
        let other = MailboxMessage {
            mailbox: [9u8; 32],
            sealed: vec![200u8; PAYLOAD_LEN + TAG_LEN],
        };
        let s2 = seal_ahs(&mut rng, &keys, 3, &other);
        assert_eq!(s1.wire_len(), s2.wire_len());
        assert_eq!(s1.ct.len(), outer_ct_len(4));
    }

    #[test]
    fn pok_verifies_and_binds_round() {
        let mut rng = StdRng::seed_from_u64(2);
        let (_, keys) = generate_chain_keys(&mut rng, 3, 0);
        let s = seal_ahs(&mut rng, &keys, 7, &test_msg());
        assert!(s.verify_pok(7));
        assert!(!s.verify_pok(8));
    }

    /// Peel `sub` the way the servers will: layer keys from
    /// `X_i^{msk_i}` (equal to the user's `mpk_i^x` by the AHS algebra),
    /// blinding between hops, then the inner envelope under the summed
    /// inner secrets.
    fn peel(secrets: &[ServerSecrets], sub: &Submission, round: u64) -> MailboxMessage {
        let mut ct = sub.ct.clone();
        let mut x_i = sub.dh();
        for (layer, secret) in secrets.iter().enumerate() {
            let shared = x_i.mul(&secret.msk);
            let key = outer_layer_key(&shared.encode(), round, layer);
            ct = xrd_crypto::adec(&key, &round_nonce(round, domain_outer(layer)), b"", &ct)
                .expect("layer must decrypt");
            x_i = x_i.mul(&secret.bsk);
        }
        let mut gy = [0u8; 32];
        gy.copy_from_slice(&ct[..32]);
        let gy = GroupElement::decode(&gy).unwrap();
        let isk_sum = secrets.iter().fold(Scalar::ZERO, |a, s| a.add(&s.isk));
        let inner = xrd_crypto::adec(
            &inner_keys(&[gy.mul(&isk_sum).encode()], round)[0],
            &round_nonce(round, DOMAIN_INNER),
            b"",
            &ct[32..],
        )
        .expect("inner must decrypt");
        assert_eq!(inner.len(), MAILBOX_MSG_LEN);
        MailboxMessage::from_bytes(&inner).unwrap()
    }

    #[test]
    fn manual_peel_recovers_message() {
        let mut rng = StdRng::seed_from_u64(3);
        let (secrets, keys) = generate_chain_keys(&mut rng, 3, 5);
        let msg = test_msg();
        let s = seal_ahs(&mut rng, &keys, 5, &msg);
        assert_eq!(peel(&secrets, &s, 5), msg);
    }

    #[test]
    fn sealer_and_one_off_seal_are_byte_identical() {
        // Same RNG stream in, same submission out — tables or ladders.
        for k in [1usize, 2, 3, 8] {
            let mut rng = StdRng::seed_from_u64(40 + k as u64);
            let (_, keys) = generate_chain_keys(&mut rng, k, 2);
            let sealer = ChainSealer::new(&keys);
            for round in [2u64, 3] {
                let mut rng_a = StdRng::seed_from_u64(round);
                let mut rng_b = StdRng::seed_from_u64(round);
                for _ in 0..3 {
                    let one_off = seal_ahs(&mut rng_a, &keys, round, &test_msg());
                    let bulk = sealer.seal(&mut rng_b, round, &test_msg());
                    assert_eq!(bulk, one_off, "k={k}");
                    assert_eq!(bulk.to_bytes(), one_off.to_bytes());
                }
            }
        }
    }

    #[test]
    fn batch_seal_is_byte_identical_to_one_off_seals() {
        // Randomness drawn message by message, sealed as one batch:
        // each submission is the one `seal_ahs` makes on the spot from
        // the same stream — for every group size around the lane width
        // and its multiples, with different messages in a batch.
        for k in [1usize, 2, 3, 8] {
            let mut rng = StdRng::seed_from_u64(50 + k as u64);
            let (_, keys) = generate_chain_keys(&mut rng, k, 4);
            let sealer = ChainSealer::new(&keys);
            let msgs: Vec<MailboxMessage> = (0..17u8)
                .map(|i| MailboxMessage {
                    mailbox: [i; 32],
                    sealed: vec![i.wrapping_mul(31); PAYLOAD_LEN + TAG_LEN],
                })
                .collect();
            for n in 1..=17usize {
                let mut rng_a = StdRng::seed_from_u64(n as u64);
                let mut rng_b = StdRng::seed_from_u64(n as u64);
                let one_off: Vec<Submission> = msgs[..n]
                    .iter()
                    .map(|msg| seal_ahs(&mut rng_a, &keys, 4, msg))
                    .collect();
                let jobs = msgs[..n]
                    .iter()
                    .map(|msg| (SealRandomness::draw(&mut rng_b), msg.clone()))
                    .collect();
                let batch = sealer.seal_all(4, jobs);
                assert_eq!(batch, one_off, "k={k} n={n}");
                for (b, o) in batch.iter().zip(&one_off) {
                    assert_eq!(b.to_bytes(), o.to_bytes(), "k={k} n={n}");
                }
                assert!(batch.iter().all(|s| s.verify_pok(4)));
            }
        }
    }

    #[test]
    fn sealer_follows_an_inner_key_rotation() {
        // The next round's bundle shares the mixing-key tables and gets
        // its own inner-key table: what it seals opens under the rotated
        // secrets (and not the old ones' inner key).
        let mut rng = StdRng::seed_from_u64(44);
        let (mut secrets, mut keys) = generate_chain_keys(&mut rng, 3, 0);
        let sealer = ChainSealer::new(&keys);
        crate::chain_keys::rotate_inner_keys(&mut rng, &mut secrets, &mut keys, 1);
        let rotated = sealer.for_bundle(&keys);
        assert!(Arc::ptr_eq(&sealer.mix, &rotated.mix));
        let msg = test_msg();
        let sub = rotated.seal(&mut rng, 1, &msg);
        assert_eq!(peel(&secrets, &sub, 1), msg);
        let mut replay = StdRng::seed_from_u64(9);
        let expected = seal_ahs(&mut replay, &keys, 1, &msg);
        let mut replay = StdRng::seed_from_u64(9);
        assert_eq!(rotated.seal(&mut replay, 1, &msg), expected);
        let mut replay = StdRng::seed_from_u64(9);
        assert_ne!(sealer.seal(&mut replay, 1, &msg).ct, expected.ct);

        // A bundle with other mixing keys gets tables of its own.
        let (other_secrets, other_keys) = generate_chain_keys(&mut rng, 3, 0);
        let other = sealer.for_bundle(&other_keys);
        assert!(!Arc::ptr_eq(&sealer.mix, &other.mix));
        let sub = other.seal(&mut rng, 0, &msg);
        assert_eq!(peel(&other_secrets, &sub, 0), msg);
    }

    #[test]
    fn batched_pok_check_matches_individual_checks() {
        let mut rng = StdRng::seed_from_u64(45);
        let (_, keys) = generate_chain_keys(&mut rng, 2, 0);
        let mut subs: Vec<Submission> = (0..6)
            .map(|_| seal_ahs(&mut rng, &keys, 7, &test_msg()))
            .collect();
        assert_eq!(Submission::verify_poks(7, &subs), vec![true; 6]);
        assert_eq!(Submission::verify_poks(8, &subs), vec![false; 6]);
        subs[4].pok = seal_ahs(&mut rng, &keys, 8, &test_msg()).pok;
        let expected: Vec<bool> = subs.iter().map(|s| s.verify_pok(7)).collect();
        assert_eq!(expected, [true, true, true, true, false, true]);
        assert_eq!(Submission::verify_poks(7, &subs), expected);
        assert!(Submission::verify_poks(7, &[]).is_empty());
    }

    /// Peel a baseline onion layer by layer: what a §5 chain does to it,
    /// bar the shuffle.
    fn peel_basic(msks: &[Scalar], round: u64, mut ct: Vec<u8>) -> Option<MailboxMessage> {
        for (layer, msk) in msks.iter().enumerate() {
            let gx = GroupElement::decode(ct.get(..32)?.try_into().ok()?)?;
            let key = outer_layer_key(&gx.mul(msk).encode(), round, layer);
            let nonce = round_nonce(round, domain_outer(layer));
            ct = xrd_crypto::adec(&key, &nonce, b"", &ct[32..])?;
        }
        MailboxMessage::from_bytes(&ct)
    }

    #[test]
    fn basic_onion_peels() {
        let mut rng = StdRng::seed_from_u64(4);
        let k = 3;
        let msks: Vec<Scalar> = (0..k).map(|_| Scalar::random(&mut rng)).collect();
        let mpks: Vec<GroupElement> = msks.iter().map(GroupElement::base_mul).collect();
        let msg = test_msg();
        let ct = seal_basic(&mut rng, &mpks, 2, &msg);
        assert_eq!(ct.len(), basic_onion_len(k));
        assert_eq!(peel_basic(&msks, 2, ct), Some(msg));
    }

    #[test]
    fn tampering_goes_undetected_in_baseline() {
        // The §6 motivating attack on the §5 baseline: a malicious first
        // server drops an honest user's onion, and the rest peel with
        // nothing raised — the round "succeeds" one message short.  (The
        // corresponding AHS test shows detection; see `blame::tests`.)
        let mut rng = StdRng::seed_from_u64(2);
        let msks: Vec<Scalar> = (0..3).map(|_| Scalar::random(&mut rng)).collect();
        let mpks: Vec<GroupElement> = msks.iter().map(GroupElement::base_mul).collect();
        let mut onions: Vec<Vec<u8>> = (0..5u8)
            .map(|i| {
                let msg = MailboxMessage {
                    mailbox: [i; 32],
                    ..test_msg()
                };
                seal_basic(&mut rng, &mpks, 0, &msg)
            })
            .collect();
        onions.remove(2); // the adversary drops user 2's onion
        let delivered: Vec<MailboxMessage> = onions
            .into_iter()
            .map(|ct| peel_basic(&msks, 0, ct).expect("no layer fails"))
            .collect();
        assert_eq!(delivered.len(), 4);
        assert!(!delivered.iter().any(|m| m.mailbox == [2u8; 32]));
    }

    #[test]
    fn ahs_outer_is_smaller_than_basic() {
        // The AHS onion shares one DH key across layers: 32 bytes total
        // instead of 32 per layer.
        let k = 8;
        let ahs_len = 32 + outer_ct_len(k) + SCHNORR_PROOF_LEN;
        let basic_len = basic_onion_len(k);
        // For k >= 7 the PoK + inner envelope overhead is amortized.
        assert!(ahs_len < basic_len + 32 * (k - 4));
    }

    #[test]
    fn sealed_submissions_carry_their_encoding() {
        // One-off or in a batch of any size around the lane width, a
        // sealed submission's carried bytes are its `g^x` encoded, and
        // they lead its canonical bytes; `new` encodes the same.
        let mut rng = StdRng::seed_from_u64(6);
        let (_, keys) = generate_chain_keys(&mut rng, 3, 0);
        let sealer = ChainSealer::new(&keys);
        for n in [0usize, 1, 2, 3, 8, 9] {
            let mut subs: Vec<Submission> = (0..n)
                .map(|_| seal_ahs(&mut rng, &keys, 0, &test_msg()))
                .collect();
            let jobs = (0..n)
                .map(|_| (SealRandomness::draw(&mut rng), test_msg()))
                .collect();
            subs.extend(sealer.seal_all(0, jobs));
            for s in &subs {
                assert_eq!(*s.encoded_dh(), s.dh().encode(), "n={n}");
                let bytes = [&s.dh().encode()[..], &s.pok.to_bytes(), &s.ct].concat();
                assert_eq!(s.to_bytes(), bytes, "n={n}");
                assert_eq!(bytes.len(), s.wire_len());
                assert_eq!(Submission::new(s.dh(), s.ct.clone(), s.pok), *s);
            }
        }
    }

    #[test]
    fn submissions_are_unlinkable_bytes() {
        // Two submissions of the same message are entirely different.
        let mut rng = StdRng::seed_from_u64(5);
        let (_, keys) = generate_chain_keys(&mut rng, 2, 0);
        let s1 = seal_ahs(&mut rng, &keys, 0, &test_msg());
        let s2 = seal_ahs(&mut rng, &keys, 0, &test_msg());
        assert_ne!(s1.ct, s2.ct);
        assert_ne!(s1.dh(), s2.dh());
    }
}
