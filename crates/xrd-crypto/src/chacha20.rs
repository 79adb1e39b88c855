//! The ChaCha20 stream cipher (RFC 8439), from scratch.
//!
//! Used (with Poly1305) to build the authenticated encryption scheme
//! `AEnc`/`ADec` that XRD assumes (§3.1); the original prototype used
//! NaCl, which uses the same pair of primitives.

use crate::arx::Arx;
use crate::util::load_u32_le;

/// "expand 32-byte k"
const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round<W: Arx>(x: &mut [W; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].add(x[b]);
    x[d] = x[d].xor(x[a]).rotl::<16>();
    x[c] = x[c].add(x[d]);
    x[b] = x[b].xor(x[c]).rotl::<12>();
    x[a] = x[a].add(x[b]);
    x[d] = x[d].xor(x[a]).rotl::<8>();
    x[c] = x[c].add(x[d]);
    x[b] = x[b].xor(x[c]).rotl::<7>();
}

/// The ChaCha20 block function on a 16-word input state: twenty rounds
/// and the feed-forward.  The one spelling of the rounds, for one block
/// (`W = u32`) or sixteen in lockstep ([`crate::arx::lanes::U32x16`]).
#[inline(always)]
fn block_words<W: Arx<Word = u32>>(state: &[W; 16]) -> [W; 16] {
    let mut x = *state;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (out, input) in x.iter_mut().zip(state) {
        *out = out.add(*input);
    }
    x
}

/// One keystream block to compute: key, nonce and block counter.
#[derive(Clone, Copy)]
pub struct BlockJob<'a> {
    /// The 256-bit key.
    pub key: &'a [u8; 32],
    /// The 96-bit nonce.
    pub nonce: &'a [u8; 12],
    /// The block counter.
    pub counter: u32,
}

impl BlockJob<'_> {
    /// The RFC 8439 §2.3 input state, as its 64 little-endian bytes.
    fn state_bytes(&self) -> [u8; 64] {
        let mut state = [0u8; 64];
        for (bytes, word) in state.chunks_exact_mut(4).zip(SIGMA) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        state[16..48].copy_from_slice(self.key);
        state[48..52].copy_from_slice(&self.counter.to_le_bytes());
        state[52..].copy_from_slice(self.nonce);
        state
    }

    /// The block, on the plain word.
    fn block(&self) -> [u8; 64] {
        let state = self.state_bytes();
        let words = block_words(&std::array::from_fn(|i| load_u32_le(&state[4 * i..])));
        let mut out = [0u8; 64];
        for (bytes, word) in out.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// Compute one 64-byte ChaCha20 keystream block.
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    BlockJob {
        key,
        nonce,
        counter,
    }
    .block()
}

/// The keystream block of every job, handed to `sink` in job order
/// with the tag the job came with.  Each job has its own key, nonce and
/// counter; where the lane kernel is compiled in, sixteen jobs share a
/// pass, and a tail shorter than `CHACHA_LANES_FROM` takes the plain
/// word.  The blocks are the ones [`chacha20_block`] returns, on every
/// build.
pub fn chacha20_blocks<'a, T: Copy>(
    jobs: impl IntoIterator<Item = (BlockJob<'a>, T)>,
    mut sink: impl FnMut(T, &[u8; 64]),
) {
    let mut jobs = jobs.into_iter();
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512ifma"
    ))]
    while let Some(first) = jobs.next() {
        /// A group of fewer keystream blocks than this runs on the
        /// plain word: a sixteen-lane pass, with its transposes in and
        /// out, costs about four one-block computations.
        const CHACHA_LANES_FROM: usize = 5;
        // Lanes past the last job repeat the first: computed, not read.
        let mut group = [first; 16];
        let mut filled = 1;
        for job in jobs.by_ref().take(15) {
            group[filled] = job;
            filled += 1;
        }
        if filled < CHACHA_LANES_FROM {
            for (job, tag) in &group[..filled] {
                sink(*tag, &job.block());
            }
            continue;
        }
        let blocks = blocks_x16(&group.map(|(job, _)| job));
        for ((_, tag), block) in group[..filled].iter().zip(&blocks) {
            sink(*tag, block);
        }
    }
    // Every job, where there are no lanes; none left, where there are.
    for (job, tag) in jobs.by_ref() {
        sink(tag, &job.block());
    }
}

/// Sixteen jobs' blocks in one pass of the lane kernel.  Out of line, so its frame is a
/// sibling of its caller's rather than part of it.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
))]
#[inline(never)]
fn blocks_x16(jobs: &[BlockJob<'_>; 16]) -> [[u8; 64]; 16] {
    use crate::arx::lanes::{transpose_16, U32x16};
    // Row `l` is job `l`'s input state; transposed, each vector is one
    // state word of all sixteen jobs, and transposed back, each is one
    // job's output block.
    let rows = jobs.map(|job| U32x16::from_le_bytes(job.state_bytes()));
    transpose_16(block_words(&transpose_16(rows))).map(U32x16::to_le_bytes)
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `counter`.  Encryption and decryption are the same operation.
pub fn chacha20_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    let jobs = (0..data.len().div_ceil(64)).map(|i| {
        let counter = counter.wrapping_add(i as u32);
        (
            BlockJob {
                key,
                nonce,
                counter,
            },
            i,
        )
    });
    chacha20_blocks(jobs, |i, block| {
        for (byte, ks) in data[64 * i..].iter_mut().zip(block) {
            *byte ^= ks;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2 (cross-checked against an independent Python
        // implementation).
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce_bytes = from_hex("000000090000004a00000000");
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
                .replace(' ', "")
        );
    }

    #[test]
    fn xor_roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let plaintext = b"attack at dawn, bring 256-byte messages".to_vec();
        let mut buf = plaintext.clone();
        chacha20_xor(&key, 1, &nonce, &mut buf);
        assert_ne!(buf, plaintext);
        chacha20_xor(&key, 1, &nonce, &mut buf);
        assert_eq!(buf, plaintext);
    }

    #[test]
    fn multi_block_keystream_is_consistent() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        // Encrypting 200 bytes at once must equal encrypting per-64-byte
        // blocks with incremented counters.
        let mut whole = vec![0u8; 200];
        chacha20_xor(&key, 5, &nonce, &mut whole);
        let mut parts = vec![0u8; 200];
        for (i, chunk) in parts.chunks_mut(64).enumerate() {
            chacha20_xor(&key, 5 + i as u32, &nonce, chunk);
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [1u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        chacha20_xor(&key, 1, &[0u8; 12], &mut a);
        chacha20_xor(&key, 1, &[1u8; 12], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_input_is_noop() {
        let mut empty: Vec<u8> = vec![];
        chacha20_xor(&[0u8; 32], 0, &[0u8; 12], &mut empty);
        assert!(empty.is_empty());
    }
}
