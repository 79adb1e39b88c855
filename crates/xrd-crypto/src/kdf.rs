//! Domain-separated key derivation (the paper's `KDF`), built on BLAKE2b.
//!
//! Every derived key binds a human-readable label plus length-prefixed
//! inputs, so keys for different purposes can never collide even when the
//! raw input material does.

use crate::blake2b::Blake2b;
use crate::ristretto::GroupElement;

/// Derive a 32-byte key from a label and a list of byte-string inputs.
/// The batch of one of [`derive_key_all`].
pub fn derive_key(label: &str, inputs: &[&[u8]]) -> [u8; 32] {
    derive_key_all(label, &[inputs])[0]
}

/// [`derive_key`] under one label for each entry of `inputs`.  Each
/// key's hash is absorbed on its own and the last compressions run
/// together ([`Blake2b::finalize_all`]): a key whose framed inputs
/// fit one 128-byte block — every per-message key of a round does — is
/// all last compression, eight to a lane pass.
pub fn derive_key_all<'a, I: AsRef<[&'a [u8]]>>(label: &str, inputs: &[I]) -> Vec<[u8; 32]> {
    Blake2b::finalize_all(inputs.iter().map(|inputs| {
        let mut h = Blake2b::new(32);
        h.update(b"xrd-kdf-v1");
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label.as_bytes());
        for input in inputs.as_ref() {
            h.update(&(input.len() as u64).to_le_bytes());
            h.update(input);
        }
        h
    }))
}

/// Derive a symmetric encryption key from a Diffie-Hellman shared group
/// element (the paper's `s = KDF(s_AB, pk_B)` pattern: the second input
/// selects the direction of the conversation).
pub fn derive_from_dh(label: &str, shared: &GroupElement, context: &[u8]) -> [u8; 32] {
    derive_key(label, &[&shared.encode(), context])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn deterministic() {
        let a = derive_key("test", &[b"input"]);
        let b = derive_key("test", &[b"input"]);
        assert_eq!(a, b);
    }

    #[test]
    fn label_separates() {
        assert_ne!(derive_key("a", &[b"x"]), derive_key("b", &[b"x"]));
    }

    #[test]
    fn input_framing_prevents_concatenation_collisions() {
        // ("ab", "c") must differ from ("a", "bc").
        assert_ne!(
            derive_key("t", &[b"ab", b"c"]),
            derive_key("t", &[b"a", b"bc"])
        );
        // (one input "abc") differs from ("abc", "")
        assert_ne!(derive_key("t", &[b"abc"]), derive_key("t", &[b"abc", b""]));
    }

    #[test]
    fn dh_derivation_is_symmetric_in_shared_secret() {
        // Both endpoints compute the same shared element, so the same key.
        let mut rng = rand::rngs::OsRng;
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let ga = GroupElement::base_mul(&a);
        let gb = GroupElement::base_mul(&b);
        let shared_at_a = gb.mul(&a);
        let shared_at_b = ga.mul(&b);
        assert_eq!(
            derive_from_dh("conv", &shared_at_a, &gb.encode()),
            derive_from_dh("conv", &shared_at_b, &gb.encode()),
        );
        // but the two directions of a conversation get different keys
        assert_ne!(
            derive_from_dh("conv", &shared_at_a, &gb.encode()),
            derive_from_dh("conv", &shared_at_a, &ga.encode()),
        );
    }
}
