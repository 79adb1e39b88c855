//! The batch forms of the symmetric layer against their one-message
//! forms, at every batch size from 0 to 40 and with mixed message
//! lengths: the keystream stream, the AEAD seal, open and trial open,
//! BLAKE2b's batched last compressions, the KDF and the transcript
//! challenges.  On a build with the lane kernels, batches of a
//! crossover size or more run in lanes and the tails on the plain word,
//! so every size exercises a different split; elsewhere both sides are
//! the plain word and the tests pin the batching itself.

use xrd_crypto::chacha20::{chacha20_block, chacha20_blocks, BlockJob};
use xrd_crypto::{
    adec, adec_all, adec_first, aenc, aenc_all, kdf, round_nonce, Blake2b, Scalar, Transcript,
};

const MAX_BATCH: usize = 40;

/// splitmix64: inputs that depend on nothing in the crate.
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

    /// A message length: mostly a round's onion sizes, sometimes
    /// anything up to a few blocks, sometimes empty.
    fn length(&mut self) -> usize {
        match self.next() % 4 {
            0 => [272, 288, 304, 320][(self.next() % 4) as usize],
            1 => 0,
            _ => (self.next() % 400) as usize,
        }
    }
}

#[test]
fn keystream_blocks_match_one_block_at_a_time() {
    let mut inputs = Inputs(1);
    for n in 0..=MAX_BATCH {
        let keys: Vec<[u8; 32]> = (0..n).map(|_| inputs.array()).collect();
        let nonces: Vec<[u8; 12]> = (0..n).map(|_| inputs.array()).collect();
        let counters: Vec<u32> = (0..n)
            .map(|i| match i % 3 {
                0 => u32::MAX - i as u32,
                _ => inputs.next() as u32,
            })
            .collect();
        let jobs = (0..n).map(|i| {
            let job = BlockJob {
                key: &keys[i],
                nonce: &nonces[i],
                counter: counters[i],
            };
            (job, i)
        });
        let mut seen = Vec::new();
        chacha20_blocks(jobs, |i, block| {
            assert_eq!(
                *block,
                chacha20_block(&keys[i], counters[i], &nonces[i]),
                "n {n} job {i}"
            );
            seen.push(i);
        });
        assert_eq!(
            seen,
            (0..n).collect::<Vec<_>>(),
            "jobs reach the sink in order"
        );
    }
}

#[test]
fn aead_batches_match_one_message_at_a_time() {
    let mut inputs = Inputs(2);
    for n in 0..=MAX_BATCH {
        let nonce = round_nonce(n as u64, 3);
        let aad = inputs.bytes(n % 20);
        let keys: Vec<[u8; 32]> = (0..n).map(|_| inputs.array()).collect();
        let plaintexts: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = inputs.length();
                inputs.bytes(len)
            })
            .collect();

        let sealed = aenc_all(&keys, &nonce, &aad, &plaintexts);
        for i in 0..n {
            assert_eq!(
                sealed[i],
                aenc(&keys[i], &nonce, &aad, &plaintexts[i]),
                "n {n} #{i}"
            );
        }
        let opened = adec_all(&keys, &nonce, &aad, &sealed);
        let expected: Vec<Option<Vec<u8>>> = plaintexts.iter().cloned().map(Some).collect();
        assert_eq!(opened, expected, "n {n}");

        // A tampered tag fails its own lane and no other.
        if n > 0 {
            let victim = (inputs.next() % n as u64) as usize;
            let mut tampered = sealed.clone();
            let last = tampered[victim].len() - 1;
            tampered[victim][last] ^= 0x80;
            let opened = adec_all(&keys, &nonce, &aad, &tampered);
            for i in 0..n {
                assert_eq!(opened[i], adec(&keys[i], &nonce, &aad, &tampered[i]));
                assert_eq!(opened[i].is_none(), i == victim, "n {n} lane {i}");
            }
        }
    }
}

#[test]
fn trial_decryption_matches_trying_each_key() {
    let mut inputs = Inputs(3);
    let nonce = round_nonce(9, 1);
    for n in 0..=MAX_BATCH {
        let keys: Vec<[u8; 32]> = (0..n % 5 + 1).map(|_| inputs.array()).collect();
        let stranger: [u8; 32] = inputs.array();
        let sealed: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let len = inputs.length();
                let plaintext = inputs.bytes(len);
                let key = if i % 7 == 6 {
                    &stranger
                } else {
                    &keys[i % keys.len()]
                };
                let mut sealed = aenc(key, &nonce, b"", &plaintext);
                if i % 11 == 10 {
                    sealed[0] ^= 1;
                }
                sealed
            })
            .collect();
        let opened = adec_first(&keys, &nonce, b"", &sealed);
        for (i, sealed) in sealed.iter().enumerate() {
            let expected = (keys.iter().enumerate())
                .find_map(|(k, key)| Some((k, adec(key, &nonce, b"", sealed)?)));
            assert_eq!(opened[i], expected, "n {n} #{i}");
        }
    }
}

#[test]
fn batched_last_compressions_match_finalize() {
    let mut inputs = Inputs(4);
    for n in 0..=MAX_BATCH {
        let hashers = |out_len: usize, inputs: &mut Inputs| -> Vec<Blake2b> {
            (0..n)
                .map(|i| {
                    let mut h = match i % 4 {
                        3 => Blake2b::new_keyed(&inputs.bytes(1 + i % 64), out_len),
                        _ => Blake2b::new(out_len),
                    };
                    let len = inputs.length();
                    h.update(&inputs.bytes(len));
                    h
                })
                .collect()
        };
        let h32 = hashers(32, &mut inputs);
        let expected: Vec<[u8; 32]> = h32.iter().cloned().map(Blake2b::finalize_32).collect();
        assert_eq!(Blake2b::finalize_all::<32>(h32), expected, "n {n}");
        let h64 = hashers(64, &mut inputs);
        let expected: Vec<[u8; 64]> = h64.iter().cloned().map(Blake2b::finalize_64).collect();
        assert_eq!(Blake2b::finalize_all::<64>(h64), expected, "n {n}");
    }
}

#[test]
fn derived_key_batches_match_derive_key() {
    let mut inputs = Inputs(5);
    for n in 0..=MAX_BATCH {
        let parts: Vec<[Vec<u8>; 2]> = (0..n)
            .map(|i| [inputs.bytes(32), inputs.bytes([8, 16, 0, 150][i % 4])])
            .collect();
        let shaped: Vec<[&[u8]; 2]> = parts.iter().map(|[a, b]| [&a[..], &b[..]]).collect();
        let keys = kdf::derive_key_all("xrd/outer-layer", &shaped);
        for (i, shape) in shaped.iter().enumerate() {
            assert_eq!(
                keys[i],
                kdf::derive_key("xrd/outer-layer", shape),
                "n {n} #{i}"
            );
        }
    }
}

#[test]
fn challenge_batches_match_one_transcript_at_a_time() {
    let mut inputs = Inputs(6);
    for n in 0..=MAX_BATCH {
        let mut prefix = Transcript::new("xrd/schnorr-pok");
        prefix.append("context", &inputs.bytes(22));
        if n % 2 == 1 {
            // A prefix whose last challenge's ratchet is still due.
            let _ = prefix.challenge_scalar("earlier");
        }
        let data: Vec<[Vec<u8>; 3]> = (0..n)
            .map(|i| {
                [
                    inputs.bytes(32),
                    inputs.bytes([32, 0, 90][i % 3]),
                    inputs.bytes(32),
                ]
            })
            .collect();
        let statements: Vec<[(&str, &[u8]); 3]> = (data.iter())
            .map(|[a, b, c]| {
                [
                    ("public", &a[..]),
                    ("extra", &b[..]),
                    ("commitment", &c[..]),
                ]
            })
            .collect();
        let batch = prefix.challenge_scalars_all(&statements, "c");
        for (i, statement) in statements.iter().enumerate() {
            let mut t = prefix.clone();
            for (label, data) in statement {
                t.append(label, data);
            }
            let one: Scalar = t.challenge_scalar("c");
            assert_eq!(batch[i], one, "n {n} #{i}");
        }
    }
}
