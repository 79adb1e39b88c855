//! Wire formats for messages flowing through a mix chain.
//!
//! All users' submissions are the same size by construction (§4: "she
//! then sends a fixed size message to each of the selected chains"); the
//! constants here pin those sizes so tests can verify uniformity.

use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::TAG_LEN;

/// Application payload size: 256 bytes, "about the size of a standard SMS
/// message or a Tweet" (§8).
pub const PAYLOAD_LEN: usize = 256;

/// Nonce domain for the end-to-end (mailbox) encryption layer.
pub const DOMAIN_MAILBOX: u32 = 0xffff_fffe;
/// Nonce domain for the AHS inner envelope.
pub const DOMAIN_INNER: u32 = 0xffff_ffff;
/// Nonce domain for outer onion layer `i` (one per hop).
pub const fn domain_outer(layer: usize) -> u32 {
    layer as u32
}

/// The message a chain ultimately delivers: `(pk_u, AEnc(s, ρ, m_u))` —
/// a destination mailbox plus a sealed payload only the mailbox owner can
/// open (Algorithm 1, step 2b).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MailboxMessage {
    /// Destination mailbox id (the recipient's public key encoding).
    pub mailbox: [u8; 32],
    /// `AEnc(s, ρ, payload)`: `PAYLOAD_LEN + TAG_LEN` bytes.
    pub sealed: Vec<u8>,
}

/// Serialized size of a [`MailboxMessage`].
pub const MAILBOX_MSG_LEN: usize = 32 + PAYLOAD_LEN + TAG_LEN;

impl MailboxMessage {
    /// Serialize to the fixed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert_eq!(self.sealed.len(), PAYLOAD_LEN + TAG_LEN);
        let mut out = Vec::with_capacity(MAILBOX_MSG_LEN);
        out.extend_from_slice(&self.mailbox);
        out.extend_from_slice(&self.sealed);
        out
    }

    /// Parse from the fixed wire format.
    pub fn from_bytes(bytes: &[u8]) -> Option<MailboxMessage> {
        if bytes.len() != MAILBOX_MSG_LEN {
            return None;
        }
        let mut mailbox = [0u8; 32];
        mailbox.copy_from_slice(&bytes[..32]);
        Some(MailboxMessage {
            mailbox,
            sealed: bytes[32..].to_vec(),
        })
    }
}

/// One entry moving through an AHS chain: the user's (progressively
/// blinded) Diffie-Hellman key plus the (progressively peeled) onion
/// ciphertext.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixEntry {
    /// `X_i = g^{x · ∏_{a<i} bsk_a}` at hop `i`.
    pub dh: GroupElement,
    /// Remaining onion ciphertext.
    pub ct: Vec<u8>,
}

impl MixEntry {
    /// Serialized size in bytes (for bandwidth accounting).
    pub fn wire_len(&self) -> usize {
        32 + self.ct.len()
    }

    /// Serialize (DH key encoding followed by ciphertext).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.dh.encode());
        out.extend_from_slice(&self.ct);
        out
    }
}

/// Expected onion ciphertext length after peeling `layers_remaining`
/// outer layers have yet to be removed: the inner envelope plus one AEAD
/// tag per remaining layer.
pub fn outer_ct_len(layers_remaining: usize) -> usize {
    inner_envelope_len() + layers_remaining * TAG_LEN
}

/// Length of the AHS inner envelope `(g^y, AEnc(·, ρ, mailbox_msg))`.
pub fn inner_envelope_len() -> usize {
    32 + MAILBOX_MSG_LEN + TAG_LEN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_message_roundtrip() {
        let msg = MailboxMessage {
            mailbox: [7u8; 32],
            sealed: vec![9u8; PAYLOAD_LEN + TAG_LEN],
        };
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), MAILBOX_MSG_LEN);
        assert_eq!(MailboxMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn mailbox_message_rejects_wrong_len() {
        assert!(MailboxMessage::from_bytes(&[0u8; 10]).is_none());
        assert!(MailboxMessage::from_bytes(&vec![0u8; MAILBOX_MSG_LEN + 1]).is_none());
    }

    #[test]
    fn onion_lengths_telescope() {
        // Peeling one layer removes exactly one tag.
        for k in 1..5 {
            assert_eq!(outer_ct_len(k), outer_ct_len(k - 1) + TAG_LEN);
        }
        assert_eq!(outer_ct_len(0), inner_envelope_len());
    }

    #[test]
    fn domains_are_distinct() {
        assert_ne!(DOMAIN_MAILBOX, DOMAIN_INNER);
        for i in 0..64 {
            assert_ne!(domain_outer(i), DOMAIN_MAILBOX);
            assert_ne!(domain_outer(i), DOMAIN_INNER);
        }
    }
}
