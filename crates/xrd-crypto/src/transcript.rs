//! A Fiat–Shamir transcript over BLAKE2b, used to derive NIZK challenges.
//!
//! The transcript maintains a 64-byte chaining state; every absorbed item
//! is framed with its label and length so the mapping from (sequence of
//! items) to state is injective.
//!
//! A challenge folds a ratchet into the state so that successive
//! challenges differ.  The ratchet is applied when the transcript is
//! next used, not when the challenge is drawn: a transcript dropped
//! after its challenge — every proof's — never pays for it, and one
//! used again gets exactly the state it always had.

use crate::blake2b::Blake2b;
use crate::scalar::Scalar;

/// A running Fiat–Shamir transcript.
#[derive(Clone)]
pub struct Transcript {
    state: [u8; 64],
    /// A challenge was drawn and its ratchet is not yet in `state`.
    ratchet_due: bool,
}

/// The hash that absorbs `(label, data)` into `state`.
fn append_hasher(state: &[u8; 64], label: &str, data: &[u8]) -> Blake2b {
    let mut h = Blake2b::new(64);
    h.update(state);
    h.update(&(label.len() as u64).to_le_bytes());
    h.update(label.as_bytes());
    h.update(&(data.len() as u64).to_le_bytes());
    h.update(data);
    h
}

/// The hash that draws challenge `label` of kind `kind` from `state`.
fn challenge_hasher(state: &[u8; 64], kind: &[u8], label: &str, out_len: usize) -> Blake2b {
    let mut h = Blake2b::new(out_len);
    h.update(state);
    h.update(kind);
    h.update(&(label.len() as u64).to_le_bytes());
    h.update(label.as_bytes());
    h
}

impl Transcript {
    /// Start a transcript under a protocol-level domain label.
    pub fn new(domain: &str) -> Transcript {
        let mut h = Blake2b::new(64);
        h.update(b"xrd-transcript-v1");
        h.update(&(domain.len() as u64).to_le_bytes());
        h.update(domain.as_bytes());
        Transcript {
            state: h.finalize_64(),
            ratchet_due: false,
        }
    }

    /// Fold in the ratchet of the last challenge, if one is due.
    fn settle(&mut self) {
        if self.ratchet_due {
            let mut h = Blake2b::new(64);
            h.update(&self.state);
            h.update(b"ratchet");
            self.state = h.finalize_64();
            self.ratchet_due = false;
        }
    }

    /// Absorb a labelled message.
    pub fn append(&mut self, label: &str, data: &[u8]) {
        self.settle();
        self.state = append_hasher(&self.state, label, data).finalize_64();
    }

    /// Absorb a u64 (length, round number, index...).
    pub fn append_u64(&mut self, label: &str, x: u64) {
        self.append(label, &x.to_le_bytes());
    }

    /// Produce a challenge scalar bound to everything absorbed so far,
    /// and fold the extraction into the state (so successive challenges
    /// differ).
    pub fn challenge_scalar(&mut self, label: &str) -> Scalar {
        self.settle();
        let wide = challenge_hasher(&self.state, b"challenge", label, 64).finalize_64();
        self.ratchet_due = true;
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Produce 32 challenge bytes (for non-scalar uses).
    pub fn challenge_bytes(&mut self, label: &str) -> [u8; 32] {
        self.settle();
        let out = challenge_hasher(&self.state, b"challenge-bytes", label, 32).finalize_32();
        self.ratchet_due = true;
        out
    }

    /// For each statement, the challenge scalar `label` that a clone of
    /// this transcript gives after appending the statement's
    /// `(label, data)` items in order.  This transcript is the shared
    /// prefix, hashed once; the statements then step in lockstep, one
    /// hash per item and one for the challenge, each step a batch of
    /// last compressions ([`Blake2b::finalize_all`]: eight to a lane
    /// pass where the items fit a block, as every proof's do).
    pub fn challenge_scalars_all<const M: usize>(
        &self,
        statements: &[[(&str, &[u8]); M]],
        label: &str,
    ) -> Vec<Scalar> {
        let mut prefix = self.clone();
        prefix.settle();
        let mut states = vec![prefix.state; statements.len()];
        for item in 0..M {
            states = Blake2b::finalize_all::<64>(states.iter().zip(statements).map(
                |(state, statement)| {
                    let (item_label, data) = statement[item];
                    append_hasher(state, item_label, data)
                },
            ));
        }
        let hashers = states
            .iter()
            .map(|state| challenge_hasher(state, b"challenge", label, 64));
        (Blake2b::finalize_all::<64>(hashers).iter())
            .map(Scalar::from_bytes_mod_order_wide)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut t1 = Transcript::new("proto");
        let mut t2 = Transcript::new("proto");
        t1.append("m", b"hello");
        t2.append("m", b"hello");
        assert_eq!(t1.challenge_scalar("c"), t2.challenge_scalar("c"));
    }

    #[test]
    fn domain_separates() {
        let mut t1 = Transcript::new("proto-a");
        let mut t2 = Transcript::new("proto-b");
        assert_ne!(t1.challenge_scalar("c"), t2.challenge_scalar("c"));
    }

    #[test]
    fn order_matters() {
        let mut t1 = Transcript::new("p");
        t1.append("a", b"x");
        t1.append("b", b"y");
        let mut t2 = Transcript::new("p");
        t2.append("b", b"y");
        t2.append("a", b"x");
        assert_ne!(t1.challenge_scalar("c"), t2.challenge_scalar("c"));
    }

    #[test]
    fn successive_challenges_differ() {
        let mut t = Transcript::new("p");
        let c1 = t.challenge_scalar("c");
        let c2 = t.challenge_scalar("c");
        assert_ne!(c1, c2);
    }

    #[test]
    fn framing_is_injective() {
        let mut t1 = Transcript::new("p");
        t1.append("ab", b"c");
        let mut t2 = Transcript::new("p");
        t2.append("a", b"bc");
        assert_ne!(t1.challenge_scalar("c"), t2.challenge_scalar("c"));
    }

    #[test]
    fn challenge_bytes_work() {
        let mut t = Transcript::new("p");
        t.append("m", b"data");
        let b1 = t.challenge_bytes("x");
        let b2 = t.challenge_bytes("x");
        assert_ne!(b1, b2);
    }
}
