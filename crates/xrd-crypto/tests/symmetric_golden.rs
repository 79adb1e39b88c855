//! Golden digests of the symmetric layer: ChaCha20-Poly1305, BLAKE2b,
//! the KDF, the Fiat–Shamir transcript and the ChaCha20 DRBG.
//!
//! Every output below comes from inputs drawn from a fixed seed and is
//! folded into one digest per primitive, pinned as hex.  The RFC
//! vectors in each module pin a handful of points; these pin every
//! plaintext length, digest length and transcript shape a round can
//! meet, so a kernel that changes how the bytes are computed (lanes,
//! another limb radix, a cached prefix) must still produce exactly
//! these bytes, on every backend the crate builds for.
//!
//! When a digest fails, the assertion prints the new one.  A changed
//! digest is a changed output: find the cause, do not re-pin it.

use rand::RngCore;
use xrd_crypto::{adec, aenc, kdf, round_nonce, Blake2b, ChaChaRng, Transcript};

/// splitmix64: input bytes that depend on nothing in the crate.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.iter_mut().for_each(|b| *b = self.next() as u8);
        out
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

/// One section's digest: every output framed by its length.
struct Digest(Blake2b);

impl Digest {
    fn new(section: &str) -> Digest {
        let mut h = Blake2b::new(32);
        h.update(section.as_bytes());
        Digest(h)
    }

    fn absorb(&mut self, bytes: &[u8]) {
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    fn check(self, want: &str) {
        let got = xrd_crypto::util::to_hex(&self.0.finalize_32());
        assert_eq!(got, want, "digest changed; the new one is {got}");
    }
}

#[test]
fn aead_at_every_length() {
    let mut inputs = Inputs(0x5eed_0001);
    let mut d = Digest::new("aead");
    for len in 0..=1100usize {
        let key: [u8; 32] = inputs.array();
        let nonce = if len % 3 == 0 {
            round_nonce(len as u64, inputs.below(8) as u32)
        } else {
            inputs.array()
        };
        let aad_len = [0, 0, 1, 12, 16, 33][len % 6];
        let aad = inputs.bytes(aad_len);
        let plaintext = inputs.bytes(len);
        let sealed = aenc(&key, &nonce, &aad, &plaintext);
        assert_eq!(sealed.len(), len + 16);
        assert_eq!(
            adec(&key, &nonce, &aad, &sealed).as_deref(),
            Some(&plaintext[..])
        );
        let mut tampered = sealed.clone();
        let at = inputs.below(tampered.len() as u64);
        tampered[at] ^= 1 << (len % 8);
        assert!(
            adec(&key, &nonce, &aad, &tampered).is_none(),
            "length {len}"
        );
        d.absorb(&sealed);
    }
    d.check("8e9e67890b5dc559d15913c980df8de8bac9a2a9fe71c786fff3aeae5dd0b3bc");
}

#[test]
fn blake2b_at_every_length_and_digest_size() {
    let mut inputs = Inputs(0x5eed_0002);
    let mut d = Digest::new("blake2b");
    for len in 0..=400usize {
        let data = inputs.bytes(len);
        let key_len = 1 + inputs.below(64);
        let key = inputs.bytes(key_len);
        let split = inputs.below(len as u64 + 1);
        for out_len in 1..=64usize {
            let mut unkeyed = Blake2b::new(out_len);
            unkeyed.update(&data[..split]).update(&data[split..]);
            d.absorb(&unkeyed.finalize());
            let mut keyed = Blake2b::new_keyed(&key, out_len);
            keyed.update(&data);
            d.absorb(&keyed.finalize());
        }
        let mut h32 = Blake2b::new(32);
        h32.update(&data);
        d.absorb(&h32.finalize_32());
        let mut h64 = Blake2b::new(64);
        h64.update(&data);
        d.absorb(&h64.finalize_64());
    }
    d.check("7a863b32ca7e0a0f18b2af6a16b2b922e7226ffba255790d599cc8d912b4cff6");
}

#[test]
fn derive_key_over_labels_and_shapes() {
    let mut inputs = Inputs(0x5eed_0003);
    let mut d = Digest::new("kdf");
    let labels = [
        "",
        "xrd/outer-layer",
        "xrd/inner-envelope",
        "drbg-fork",
        "a label long enough to spill the first block by itself: \
         0123456789012345678901234567890123456789012345678901234567890123",
    ];
    for label in labels {
        for shape in 0..24usize {
            let count = shape % 5;
            let parts: Vec<Vec<u8>> = (0..count)
                .map(|i| inputs.bytes([0, 8, 32, 64, 100, 200][(shape + i) % 6]))
                .collect();
            let refs: Vec<&[u8]> = parts.iter().map(|p| &p[..]).collect();
            d.absorb(&kdf::derive_key(label, &refs));
        }
    }
    d.check("932552fb7326a83f1a301355e564f4147abb1b88dd37b00edffe3a16a0e4b2df");
}

#[test]
fn transcript_sequences() {
    let mut inputs = Inputs(0x5eed_0004);
    let mut d = Digest::new("transcript");
    let domains = ["xrd/schnorr-pok", "xrd/chaum-pedersen-dleq", "p", ""];
    for seq in 0..64usize {
        let mut t = Transcript::new(domains[seq % domains.len()]);
        for step in 0..(seq % 9 + 1) {
            match inputs.below(5) {
                0 => {
                    let len = inputs.below(180);
                    let data = inputs.bytes(len);
                    t.append(["ctx", "X", "R", ""][step % 4], &data);
                }
                1 => t.append_u64("n", inputs.next()),
                2 => d.absorb(&t.challenge_scalar("c").to_bytes()),
                3 => d.absorb(&t.challenge_bytes("rlc-seed")),
                _ => {
                    // A challenge, then more input: the ratchet must
                    // separate what follows from what came before.
                    d.absorb(&t.challenge_scalar("c").to_bytes());
                    let data = inputs.bytes(32);
                    t.append("after", &data);
                }
            }
        }
        let mut clone = t.clone();
        d.absorb(&t.challenge_scalar("end").to_bytes());
        d.absorb(&clone.challenge_bytes("end"));
        d.absorb(&clone.challenge_scalar("end").to_bytes());
    }
    d.check("02e65598c8e887158c698c6c53282dfbd222d76fcb0633ec24fc87e8ae5c643b");
}

#[test]
fn drbg_stream_and_fork() {
    let mut inputs = Inputs(0x5eed_0005);
    let mut d = Digest::new("drbg");
    let mut rng = ChaChaRng::new(inputs.array());
    let mut child = rng.fork("child");
    let mut total = 0usize;
    while total < 8192 {
        let take = 1 + inputs.below(200);
        let mut buf = vec![0u8; take];
        if total.is_multiple_of(2) {
            rng.fill_bytes(&mut buf);
        } else {
            child.fill_bytes(&mut buf);
        }
        d.absorb(&buf);
        total += take;
    }
    d.absorb(&rng.next_u64().to_le_bytes());
    d.absorb(&child.next_u32().to_le_bytes());
    d.check("9ddaad7dc86300f2d1b11064c69a7b0f1a2e5c4aa33d4b3039bfb5c0f97fadb0");
}
