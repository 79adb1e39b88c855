//! # xrd-crypto
//!
//! The cryptographic substrate for the XRD metadata-private messaging
//! system (NSDI 2020), implemented from scratch with no external crypto
//! dependencies:
//!
//! * **Group**: the prime-order ristretto255 group ([`GroupElement`],
//!   [`Scalar`]) built on a from-scratch GF(2^255-19) field and
//!   edwards25519 implementation.  This is the "group of prime order p
//!   with generator g where DDH holds" the paper assumes (§3.1).
//! * **Authenticated encryption**: ChaCha20-Poly1305 (RFC 8439), the
//!   paper's `AEnc`/`ADec` — the same algorithms as the NaCl library the
//!   original prototype used.
//! * **Hash / KDF**: BLAKE2b (RFC 7693) plus domain-separated key
//!   derivation and a Fiat–Shamir [`Transcript`].
//! * **NIZKs**: Schnorr proofs of discrete-log knowledge and
//!   Chaum–Pedersen DLEQ proofs ([`SchnorrProof`], [`DleqProof`]) — the
//!   only proof systems aggregate hybrid shuffle needs.
//! * **Deterministic randomness**: a ChaCha20 DRBG ([`ChaChaRng`]) for
//!   the public randomness beacon and reproducible experiments.
//!
//! ## Security notes
//!
//! This is a research reproduction.  Field/group operations follow
//! constant-time idioms (masked selects, uniform table scans) but the
//! crate as a whole has not been audited or hardened against
//! microarchitectural side channels.

#![warn(missing_docs)]
// Fixed-size limb arithmetic reads more clearly with explicit indices.
#![allow(clippy::needless_range_loop)]

pub mod aead;
mod arx;
pub mod blake2b;
pub mod chacha20;
pub mod drbg;
pub mod edwards;
pub mod field;
pub mod kdf;
pub mod keys;
pub mod nizk;
pub mod poly1305;
pub mod ristretto;
pub mod scalar;
pub mod transcript;
pub mod util;

pub use aead::{adec, adec_all, adec_first, aenc, aenc_all, round_nonce, TAG_LEN};
pub use blake2b::{blake2b_256, blake2b_512, Blake2b};
pub use drbg::ChaChaRng;
pub use keys::{dh, dh_symmetric_key, KeyPair};
pub use nizk::{
    DleqBatchEntry, DleqProof, SchnorrBatchEntry, SchnorrProof, DLEQ_PROOF_LEN, SCHNORR_PROOF_LEN,
};
pub use ristretto::{FixedGroupTable, GroupElement, GroupTable};
pub use scalar::Scalar;
pub use transcript::Transcript;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The full "double enveloping" key-exchange flow from §6.2/§6.3 at
    /// the crypto layer: a user encrypts to mixing keys with a single
    /// DH exponent; servers decrypt with blinded keys.
    #[test]
    fn ahs_key_exchange_algebra() {
        let mut rng = StdRng::seed_from_u64(99);
        let k = 4usize;

        // Server key generation (§6.1): bpk_0 = g;
        // bpk_i = bpk_{i-1}^{bsk_i}, mpk_i = bpk_{i-1}^{msk_i}.
        let mut bpk = vec![GroupElement::generator()];
        let mut bsk = vec![];
        let mut msk = vec![];
        let mut mpk = vec![];
        for i in 0..k {
            let b = Scalar::random(&mut rng);
            let m = Scalar::random(&mut rng);
            bpk.push(bpk[i].mul(&b));
            mpk.push(bpk[i].mul(&m));
            bsk.push(b);
            msk.push(m);
        }

        // User: one exponent x; layer-i key is DH(mpk_i, x).
        let x = Scalar::random(&mut rng);
        let user_keys: Vec<GroupElement> = (0..k).map(|i| mpk[i].mul(&x)).collect();

        // Servers: X_1 = g^x; X_{i+1} = X_i^{bsk_i};
        // server i's key is X_i^{msk_i}.
        let mut x_i = GroupElement::base_mul(&x);
        for i in 0..k {
            let server_key = x_i.mul(&msk[i]);
            assert_eq!(server_key, user_keys[i], "layer {i} key mismatch");
            x_i = x_i.mul(&bsk[i]);
        }
    }

    /// Onion-encrypt with AEAD through 3 layers and peel in order.
    #[test]
    fn onion_layers_peel() {
        let mut rng = StdRng::seed_from_u64(100);
        let keys: Vec<[u8; 32]> = (0..3)
            .map(|_| {
                let mut k = [0u8; 32];
                rng.fill_bytes(&mut k);
                k
            })
            .collect();
        let round = 7u64;
        let mut ct = b"innermost payload".to_vec();
        for (i, key) in keys.iter().enumerate().rev() {
            ct = aenc(key, &round_nonce(round, i as u32), b"", &ct);
        }
        for (i, key) in keys.iter().enumerate() {
            ct = adec(key, &round_nonce(round, i as u32), b"", &ct).expect("layer must open");
        }
        assert_eq!(ct, b"innermost payload");
    }

    use rand::RngCore;
}
