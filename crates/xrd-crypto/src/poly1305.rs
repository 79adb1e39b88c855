//! The Poly1305 one-time authenticator (RFC 8439), from scratch, using a
//! three-limb radix-2^44 representation (44 + 44 + 42 bits) whose
//! products fit `u128`.
//!
//! Constant time: the block formula has no branch and no index that
//! depends on the key or the message, and the final reduction modulo
//! `2^130 - 5` selects between `h` and `h - p` with a mask.

use crate::util::load_u64_le;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Poly1305 MAC state.
pub struct Poly1305 {
    /// Clamped `r`, radix 2^44.
    r: [u64; 3],
    /// `s` (the final added secret), two 64-bit words.
    s: [u64; 2],
    /// Accumulator, radix 2^44.
    h: [u64; 3],
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// Initialize with a 32-byte one-time key `(r, s)`.
    pub fn new(key: &[u8; 32]) -> Poly1305 {
        Poly1305 {
            r: clamp(key),
            s: secret(key),
            h: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                self.h = absorb(self.h, &self.r, &self.buf, 1);
                self.buf_len = 0;
            }
        }
        // The accumulator stays in registers across the full blocks.
        let mut blocks = data.chunks_exact(16);
        let mut h = self.h;
        for block in &mut blocks {
            h = absorb(h, &self.r, block.try_into().expect("16 bytes"), 1);
        }
        self.h = h;
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
        self
    }

    /// Finish and produce the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // Pad the partial block with the 0x01 byte then zeros; the
            // hibit is then *not* added in `block`.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.h = absorb(self.h, &self.r, &block, 0);
        }

        finish(self.h, self.s)
    }
}

/// `r` of a one-time key, clamped per the RFC and split into limbs.
fn clamp(key: &[u8; 32]) -> [u64; 3] {
    let t0 = load_u64_le(&key[0..8]);
    let t1 = load_u64_le(&key[8..16]);
    [
        t0 & 0x0ffc_0fff_ffff,
        ((t0 >> 44) | (t1 << 20)) & 0x0fff_ffc0_ffff,
        (t1 >> 24) & 0x000f_ffff_fc0f,
    ]
}

/// `s` of a one-time key, two little-endian words.
fn secret(key: &[u8; 32]) -> [u64; 2] {
    [load_u64_le(&key[16..24]), load_u64_le(&key[24..32])]
}

/// The tag: `h` fully reduced, plus `s` modulo 2^128.
fn finish(h: [u64; 3], s: [u64; 2]) -> [u8; 16] {
    // Full carry of h, twice around, so h < 2^130.
    let [mut h0, mut h1, mut h2] = h;
    for _ in 0..2 {
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
    }

    // g = h - p = h + 5 - 2^130; take it where it does not borrow.
    let g0 = h0 + 5;
    let g1 = h1 + (g0 >> 44);
    let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
    let mask = (g2 >> 63).wrapping_sub(1); // all ones iff h >= p
    h0 = (h0 & !mask) | (g0 & MASK44 & mask);
    h1 = (h1 & !mask) | (g1 & MASK44 & mask);
    h2 = (h2 & !mask) | (g2 & MASK42 & mask);

    // h + s mod 2^128, as two little-endian words.
    let lo = h0 | (h1 << 44);
    let hi = (h1 >> 20) | (h2 << 24);
    let (lo, carry) = lo.overflowing_add(s[0]);
    let hi = hi.wrapping_add(s[1]).wrapping_add(carry as u64);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&lo.to_le_bytes());
    out[8..].copy_from_slice(&hi.to_le_bytes());
    out
}

/// Messages whose Poly1305 chains [`poly1305_blocks_all`] runs side by
/// side: each block waits on its predecessor's multiply-and-carry, so
/// one chain leaves the multiplier idle most of the time, and four
/// independent ones fill it.
const INTERLEAVE: usize = 4;

/// One message for [`poly1305_padded_all`]: its one-time key, its
/// segments, each zero-padded to a multiple of 16 bytes, and a last
/// block — the shape of every ChaCha20-Poly1305 MAC input (associated
/// data, ciphertext, lengths).
pub(crate) type PaddedMessage<'a, const S: usize> = (&'a [u8; 32], [&'a [u8]; S], [u8; 16]);

/// The Poly1305 tag of each message, into `tags` in order — what
/// [`Poly1305::update`] over its padded bytes returns.  The chains of [`INTERLEAVE`] messages run
/// side by side, block by block, over the whole blocks all of them have
/// in a segment; the rest of a segment and the last block run message
/// by message.  One block formula throughout, and the messages are
/// taken [`INTERLEAVE`] at a time.
pub(crate) fn poly1305_padded_all<'a, const S: usize>(
    messages: impl IntoIterator<Item = PaddedMessage<'a, S>>,
    tags: &mut [[u8; 16]],
) {
    let mut messages = messages.into_iter().fuse();
    let mut tags = tags.iter_mut();
    loop {
        // A short last group is filled with empty messages, which share
        // no whole block with the others: it runs message by message.
        let group: [Option<PaddedMessage<S>>; INTERLEAVE] =
            std::array::from_fn(|_| messages.next());
        let filled = group.iter().flatten().count();
        let lanes = group.map(|m| m.map_or([&[][..]; S], |(_, segments, _)| segments));
        let r = group.map(|m| m.map_or([0; 3], |(key, _, _)| clamp(key)));
        let mut h = [[0u64; 3]; INTERLEAVE];
        for s in 0..S {
            let common = lanes.iter().map(|m| m[s].len() / 16).min().unwrap_or(0);
            let mut blocks = lanes.map(|m| m[s].chunks_exact(16));
            for _ in 0..common {
                for k in 0..INTERLEAVE {
                    let block = blocks[k].next().expect("a whole block in every lane");
                    h[k] = absorb(h[k], &r[k], block.try_into().expect("16 bytes"), 1);
                }
            }
            for (k, blocks) in blocks.iter_mut().enumerate().take(filled) {
                for block in &mut *blocks {
                    h[k] = absorb(h[k], &r[k], block.try_into().expect("16 bytes"), 1);
                }
                let rest = blocks.remainder();
                if !rest.is_empty() {
                    let mut block = [0u8; 16];
                    block[..rest.len()].copy_from_slice(rest);
                    h[k] = absorb(h[k], &r[k], &block, 1);
                }
            }
        }
        for (k, (key, _, last)) in group.iter().flatten().enumerate() {
            *tags.next().expect("a tag slot per message") =
                finish(absorb(h[k], &r[k], last, 1), secret(key));
        }
        if filled < INTERLEAVE {
            return;
        }
    }
}

/// The block formula: `(h + block + hibit·2^128) · r  mod 2^130 - 5`,
/// partially reduced.  `hibit` is 1 for a full block; a padded final
/// block carries its own 0x01 byte and passes 0.
#[inline(always)]
fn absorb(h: [u64; 3], r: &[u64; 3], block: &[u8; 16], hibit: u64) -> [u64; 3] {
    let t0 = load_u64_le(&block[0..8]);
    let t1 = load_u64_le(&block[8..16]);
    let h0 = h[0] + (t0 & MASK44);
    let h1 = h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44);
    let h2 = h[2] + (((t1 >> 24) & MASK42) | (hibit << 40));

    // 2^132 ≡ 4·5 (mod p), so the limbs that wrap are scaled by 20.
    let [r0, r1, r2] = *r;
    let (s1, s2) = (r1 * 20, r2 * 20);
    let m = |a: u64, b: u64| (a as u128) * (b as u128);
    let d0 = m(h0, r0) + m(h1, s2) + m(h2, s1);
    let mut d1 = m(h0, r1) + m(h1, r0) + m(h2, s2);
    let mut d2 = m(h0, r2) + m(h1, r1) + m(h2, r0);

    d1 += d0 >> 44;
    d2 += d1 >> 44;
    let c = (d2 >> 42) as u64;
    let h0 = (d0 as u64 & MASK44) + c * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
    [h0 & MASK44, h1, d2 as u64 & MASK42]
}

/// One-shot Poly1305 MAC.
pub fn poly1305_mac(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
    let mut p = Poly1305::new(key);
    p.update(data);
    p.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2.
        let key_bytes =
            from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let mut key = [0u8; 32];
        key.copy_from_slice(&key_bytes);
        let tag = poly1305_mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(to_hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [3u8; 32];
        let data: Vec<u8> = (0..200u32).map(|x| (x * 7) as u8).collect();
        let expect = poly1305_mac(&key, &data);
        let mut p = Poly1305::new(&key);
        for chunk in data.chunks(7) {
            p.update(chunk);
        }
        assert_eq!(p.finalize(), expect);
    }

    #[test]
    fn empty_message() {
        let key = [1u8; 32];
        // Tag of empty message is just `s`.
        let tag = poly1305_mac(&key, b"");
        assert_eq!(&tag, &key[16..32]);
    }

    #[test]
    fn exact_block_multiple() {
        let key = [9u8; 32];
        let a = poly1305_mac(&key, &[0u8; 32]);
        let b = poly1305_mac(&key, &[0u8; 33]);
        assert_ne!(a, b);
    }

    #[test]
    fn tag_depends_on_every_byte() {
        let key = [5u8; 32];
        let mut msg = vec![0u8; 48];
        let base = poly1305_mac(&key, &msg);
        for i in 0..48 {
            msg[i] ^= 1;
            assert_ne!(poly1305_mac(&key, &msg), base, "byte {i} ignored");
            msg[i] ^= 1;
        }
    }

    /// RFC 8439 Appendix A.3 vectors #5, #6, #8 and #9: accumulators
    /// that end at or just past `p`, where a limb representation that
    /// reduces only partially, or selects `h - p` wrongly, gives a
    /// different tag.
    #[test]
    fn rfc8439_reduction_vectors() {
        let key = |r: u8, s: u8| {
            let mut key = [0u8; 32];
            key[0] = r;
            key[16..].fill(s);
            key
        };
        let cat = |parts: &[[u8; 16]]| parts.concat();
        let ones = [0xffu8; 16];
        let mut two = [0u8; 16];
        two[0] = 2;
        let mut fb = [0xfeu8; 16];
        fb[0] = 0xfb;
        let mut fd = [0xffu8; 16];
        fd[0] = 0xfd;
        let tag = |first: u8, rest: u8| {
            let mut t = [rest; 16];
            t[0] = first;
            t
        };
        assert_eq!(poly1305_mac(&key(2, 0), &ones), tag(3, 0));
        assert_eq!(poly1305_mac(&key(2, 0xff), &two), tag(3, 0));
        assert_eq!(
            poly1305_mac(&key(1, 0), &cat(&[ones, fb, [1u8; 16]])),
            [0u8; 16]
        );
        assert_eq!(poly1305_mac(&key(2, 0), &fd), tag(0xfa, 0xff));
    }

    /// Degenerate full-reduction case: h lands exactly on p.
    #[test]
    fn reduction_edge_values() {
        // r = 0 makes the polynomial collapse; tag must still be s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[0xffu8; 16]);
        let tag = poly1305_mac(&key, b"whatever message content");
        assert_eq!(&tag, &[0xffu8; 16]);
    }
}
