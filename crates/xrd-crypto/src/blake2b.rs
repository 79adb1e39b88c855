//! BLAKE2b (RFC 7693), from scratch: streaming hash with optional key and
//! configurable digest length (1..=64 bytes).
//!
//! BLAKE2b is the general-purpose hash of the NaCl/libsodium family that
//! the XRD prototype builds on; we use it for key derivation, Fiat–Shamir
//! transcripts, and mailbox/group assignment hashing.

use crate::arx::Arx;

/// BLAKE2b initialization vector (identical to the SHA-512 IV).
const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

const BLOCK_BYTES: usize = 128;

/// Incremental BLAKE2b hasher.
#[derive(Clone)]
pub struct Blake2b {
    h: [u64; 8],
    /// Total bytes compressed so far (128-bit counter, low/high).
    t: [u64; 2],
    /// Bytes not yet compressed; zero past `buf_len`, so the buffer is
    /// always the zero-padded block the last compression takes.
    buf: [u8; BLOCK_BYTES],
    buf_len: usize,
    out_len: usize,
}

#[inline(always)]
fn g<W: Arx>(v: &mut [W; 16], a: usize, b: usize, c: usize, d: usize, x: W, y: W) {
    v[a] = v[a].add(v[b]).add(x);
    v[d] = v[d].xor(v[a]).rotr::<32>();
    v[c] = v[c].add(v[d]);
    v[b] = v[b].xor(v[c]).rotr::<24>();
    v[a] = v[a].add(v[b]).add(y);
    v[d] = v[d].xor(v[a]).rotr::<16>();
    v[c] = v[c].add(v[d]);
    v[b] = v[b].xor(v[c]).rotr::<63>();
}

/// The compression function F (RFC 7693 §3.2): twelve rounds of G over
/// the σ message schedule, folded into the chaining value `h`.  `t` is
/// the byte counter after this block and `last` the finalization word
/// (all ones for the last block, else zero).  The one spelling of the
/// rounds, for one block (`W = u64`) or eight in lockstep
/// ([`crate::arx::lanes::U64x8`]).
#[inline(always)]
fn compress_words<W: Arx<Word = u64>>(h: &mut [W; 8], m: &[W; 16], t: [W; 2], last: W) {
    // Message schedule permutations for the 12 rounds (rows 10, 11
    // repeat rows 0, 1 per the spec: SIGMA[round % 10]).
    const SIGMA: [[usize; 16]; 10] = [
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
        [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
        [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
        [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
        [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
        [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
        [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
        [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
        [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
    ];
    let mut v = [W::splat(0); 16];
    v[..8].copy_from_slice(h);
    for (v, iv) in v[8..].iter_mut().zip(IV) {
        *v = W::splat(iv);
    }
    v[12] = v[12].xor(t[0]);
    v[13] = v[13].xor(t[1]);
    v[14] = v[14].xor(last);
    for round in 0..12 {
        let s = &SIGMA[round % 10];
        g(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
        g(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
        g(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
        g(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
        g(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
        g(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
        g(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
        g(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
    }
    for i in 0..8 {
        h[i] = h[i].xor(v[i]).xor(v[i + 8]);
    }
}

/// A block's sixteen little-endian message words.
fn message_words(block: &[u8; BLOCK_BYTES]) -> [u64; 16] {
    let mut m = [0u64; 16];
    for (i, word) in m.iter_mut().enumerate() {
        *word = crate::util::load_u64_le(&block[i * 8..i * 8 + 8]);
    }
    m
}

impl Blake2b {
    /// New unkeyed hasher with `out_len` output bytes (1..=64).
    pub fn new(out_len: usize) -> Blake2b {
        Self::new_keyed(&[], out_len)
    }

    /// New keyed hasher (MAC mode); key up to 64 bytes.
    pub fn new_keyed(key: &[u8], out_len: usize) -> Blake2b {
        assert!((1..=64).contains(&out_len), "digest length must be 1..=64");
        assert!(key.len() <= 64, "key must be at most 64 bytes");
        let mut h = IV;
        // Parameter block: digest length, key length, fanout=1, depth=1.
        h[0] ^= 0x0101_0000 ^ ((key.len() as u64) << 8) ^ (out_len as u64);
        let mut state = Blake2b {
            h,
            t: [0, 0],
            buf: [0u8; BLOCK_BYTES],
            buf_len: 0,
            out_len,
        };
        if !key.is_empty() {
            let mut block = [0u8; BLOCK_BYTES];
            block[..key.len()].copy_from_slice(key);
            state.update(&block);
        }
        state
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        // Compress the buffer only once we know more data follows, because
        // the final block needs the "last" flag.
        while !data.is_empty() {
            if self.buf_len == BLOCK_BYTES {
                self.t = counter_plus(self.t, BLOCK_BYTES as u64);
                compress_words(&mut self.h, &message_words(&self.buf), self.t, 0);
                self.buf = [0; BLOCK_BYTES];
                self.buf_len = 0;
            }
            let take = (BLOCK_BYTES - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
        }
        self
    }

    /// The byte counter the last compression takes.
    fn final_counter(&self) -> [u64; 2] {
        counter_plus(self.t, self.buf_len as u64)
    }

    /// The chaining value after the last compression, on the plain word.
    fn final_chaining_value(mut self) -> [u64; 8] {
        let t = self.final_counter();
        compress_words(&mut self.h, &message_words(&self.buf), t, !0);
        self.h
    }

    /// Finish and return the digest.
    pub fn finalize(self) -> Vec<u8> {
        let mut out = vec![0u8; self.out_len];
        write_digest(&self.final_chaining_value(), &mut out);
        out
    }

    /// Finish into a fixed 32-byte array (requires `out_len == 32`).
    pub fn finalize_32(self) -> [u8; 32] {
        assert_eq!(self.out_len, 32);
        let mut out = [0u8; 32];
        write_digest(&self.final_chaining_value(), &mut out);
        out
    }

    /// Finish into a fixed 64-byte array (requires `out_len == 64`).
    pub fn finalize_64(self) -> [u8; 64] {
        assert_eq!(self.out_len, 64);
        let mut out = [0u8; 64];
        write_digest(&self.final_chaining_value(), &mut out);
        out
    }

    /// The `N`-byte digest of every hasher (each `out_len == N`): what
    /// [`Blake2b::finalize_32`] or [`Blake2b::finalize_64`] returns.
    /// Each hasher's last compression is one block whatever it
    /// absorbed, so the batch runs them eight to a pass where the lane
    /// kernel is compiled in — each lane with its own chaining value,
    /// counter and block — and on the plain word below
    /// `BLAKE2B_LANES_FROM`.  Same bytes on every build.  The hashers
    /// are taken eight at a time, so a batch never holds more.
    pub fn finalize_all<const N: usize>(
        hashers: impl IntoIterator<Item = Blake2b>,
    ) -> Vec<[u8; N]> {
        let mut out = Vec::new();
        final_chaining_values(hashers, |out_len, h| {
            assert_eq!(out_len, N);
            out.push([0u8; N]);
            write_digest(h, out.last_mut().expect("just pushed"));
        });
        out
    }
}

/// The 128-bit byte counter `t` advanced by `bytes`.
fn counter_plus(t: [u64; 2], bytes: u64) -> [u64; 2] {
    let (low, carry) = t[0].overflowing_add(bytes);
    [low, t[1].wrapping_add(carry as u64)]
}

/// The first `out.len()` bytes of the little-endian chaining value.
fn write_digest(h: &[u64; 8], out: &mut [u8]) {
    for (chunk, word) in out.chunks_mut(8).zip(h) {
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
    }
}

/// Every hasher's chaining value after its last compression, handed to
/// `sink(out_len, h)` in order: eight per lane pass where the kernel is
/// compiled in and a group reaches `BLAKE2B_LANES_FROM`.
fn final_chaining_values(
    hashers: impl IntoIterator<Item = Blake2b>,
    mut sink: impl FnMut(usize, &[u64; 8]),
) {
    let hashers = hashers.into_iter().fuse();
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512ifma"
    ))]
    {
        /// A group of fewer last compressions than this runs on the
        /// plain word: an eight-lane pass, with its transposes in and
        /// out, costs about two.
        const BLAKE2B_LANES_FROM: usize = 3;
        let mut hashers = hashers;
        loop {
            let group: [Option<Blake2b>; 8] = std::array::from_fn(|_| hashers.next());
            let filled = group.iter().flatten().count();
            if filled < BLAKE2B_LANES_FROM {
                for hasher in group.into_iter().flatten() {
                    let out_len = hasher.out_len;
                    sink(out_len, &hasher.final_chaining_value());
                }
                return;
            }
            let hs = compress_x8(&group);
            for (hasher, h) in group.iter().flatten().zip(&hs) {
                sink(hasher.out_len, h);
            }
            if filled < 8 {
                return;
            }
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512ifma"
    )))]
    for hasher in hashers {
        let out_len = hasher.out_len;
        sink(out_len, &hasher.final_chaining_value());
    }
}

/// Eight last compressions in one pass of the lane kernel; an empty
/// slot compresses zeros nobody reads.  Out of line, so its frame is a
/// sibling of its caller's rather than part of it.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
))]
#[inline(never)]
fn compress_x8(hashers: &[Option<Blake2b>; 8]) -> [[u64; 8]; 8] {
    use crate::arx::lanes::{transpose_8, U64x8};
    // Row `l` is hasher `l`'s chaining value, or half its (zero-padded)
    // buffer; transposed, each vector is one word of all eight.
    fn rows(hashers: &[Option<Blake2b>; 8], word: impl Fn(&Blake2b) -> U64x8) -> [U64x8; 8] {
        transpose_8(std::array::from_fn(|l| {
            hashers[l].as_ref().map_or(U64x8::splat(0), &word)
        }))
    }
    let mut h = rows(hashers, |b| U64x8::from_array(b.h));
    let lo = rows(hashers, |b| {
        U64x8::from_le_bytes(*b.buf.first_chunk().expect("64 of 128 bytes"))
    });
    let hi = rows(hashers, |b| {
        U64x8::from_le_bytes(*b.buf.last_chunk().expect("64 of 128 bytes"))
    });
    let m: [U64x8; 16] = std::array::from_fn(|w| if w < 8 { lo[w] } else { hi[w - 8] });
    let counters = hashers
        .each_ref()
        .map(|b| b.as_ref().map_or([0; 2], Blake2b::final_counter));
    let t: [U64x8; 2] =
        std::array::from_fn(|i| U64x8::from_array(counters.map(|counter| counter[i])));
    compress_words(&mut h, &m, t, U64x8::splat(!0));
    transpose_8(h).map(U64x8::to_array)
}

/// One-shot BLAKE2b-512.
pub fn blake2b_512(data: &[u8]) -> [u8; 64] {
    let mut h = Blake2b::new(64);
    h.update(data);
    h.finalize_64()
}

/// One-shot BLAKE2b-256.
pub fn blake2b_256(data: &[u8]) -> [u8; 32] {
    let mut h = Blake2b::new(32);
    h.update(data);
    h.finalize_32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;

    #[test]
    fn empty_string_vector() {
        // Well-known BLAKE2b-512("") test vector.
        assert_eq!(
            to_hex(&blake2b_512(b"")),
            "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419\
             d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce"
                .replace(' ', "")
        );
    }

    #[test]
    fn abc_vector() {
        // RFC 7693 Appendix A: BLAKE2b-512("abc"), cross-checked against
        // Python hashlib.
        assert_eq!(
            to_hex(&blake2b_512(b"abc")),
            "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1\
             7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"
                .replace(' ', "")
        );
    }

    #[test]
    fn short_digest_vector() {
        // BLAKE2b-256("x"), from Python hashlib.
        assert_eq!(
            to_hex(&blake2b_256(b"x")),
            "d161d71145abeec5ef15abcf0459cec60a27321e2f0ac0ef7ace5254f5944476"
        );
    }

    #[test]
    fn keyed_vector() {
        // blake2b(b"message", key=b"secret key", digest_size=32), hashlib.
        let mut h = Blake2b::new_keyed(b"secret key", 32);
        h.update(b"message");
        assert_eq!(
            to_hex(&h.finalize()),
            "f71324f0d1339cc29166e351477087fdabee524aea02eb2ff2b79f52eeaea4e4"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let oneshot = blake2b_512(&data);
        let mut h = Blake2b::new(64);
        // Deliberately awkward chunk sizes crossing block boundaries.
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot.to_vec());
    }

    #[test]
    fn exact_block_boundary() {
        let data = [0xabu8; 128];
        let mut h1 = Blake2b::new(64);
        h1.update(&data);
        let mut h2 = Blake2b::new(64);
        h2.update(&data[..64]);
        h2.update(&data[64..]);
        assert_eq!(h1.finalize(), h2.finalize());

        let data256 = [0xcdu8; 256];
        let mut h3 = Blake2b::new(32);
        h3.update(&data256);
        let _ = h3.finalize(); // must not panic
    }

    #[test]
    fn different_lengths_differ() {
        let a = blake2b_256(b"hello");
        let mut h = Blake2b::new(32);
        h.update(b"hello!");
        let b = h.finalize_32();
        assert_ne!(a, b);
    }

    #[test]
    fn keyed_mode_differs_from_unkeyed() {
        let mut keyed = Blake2b::new_keyed(b"secret key", 32);
        keyed.update(b"message");
        let mut unkeyed = Blake2b::new(32);
        unkeyed.update(b"message");
        assert_ne!(keyed.finalize(), unkeyed.finalize());
    }

    #[test]
    fn short_output_is_prefix_free() {
        // BLAKE2b-256 is NOT a truncation of BLAKE2b-512 (out_len is in the
        // parameter block).
        let h256 = blake2b_256(b"x");
        let h512 = blake2b_512(b"x");
        assert_ne!(&h512[..32], &h256[..]);
    }
}
