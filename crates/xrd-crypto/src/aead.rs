//! ChaCha20-Poly1305 authenticated encryption (RFC 8439) — the paper's
//! `AEnc`/`ADec` (§3.1).
//!
//! XRD's security argument relies on two properties of this construction
//! (both hold for encrypt-then-MAC schemes like this one):
//! 1. producing a validly-authenticated ciphertext without the key is
//!    infeasible, and
//! 2. a ciphertext does not authenticate under two different keys
//!    (except with negligible probability).
//!
//! Nonces in XRD are derived from the round number `ρ` plus a layer/
//! direction domain tag, so a key is never reused with the same nonce.

use crate::chacha20::{chacha20_blocks, BlockJob};
use crate::poly1305::poly1305_padded_all;
use crate::util::ct_bytes_eq;

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Messages the batch forms take at a time: their Poly1305 key blocks
/// fill one sixteen-lane pass, and the temporaries live on the stack.
const GROUP: usize = 16;

/// Keystream blocks after the Poly1305 key block for `len` bytes.
fn keystream_blocks(len: usize) -> u32 {
    len.div_ceil(64) as u32
}

/// XOR keystream block `counter` (from 1) into the bytes it covers.
fn xor_block(data: &mut [u8], counter: u32, block: &[u8; 64]) {
    let data = &mut data[64 * (counter as usize - 1)..];
    match data.first_chunk_mut::<64>() {
        Some(full) => (0..64).for_each(|i| full[i] ^= block[i]),
        None => (data.iter_mut().zip(block)).for_each(|(byte, ks)| *byte ^= ks),
    }
}

/// The Poly1305 key (RFC 8439 §2.6: the first half of block 0) of each
/// key in turn, in one block stream, into `out`.
fn poly_keys<'a>(
    keys: impl IntoIterator<Item = &'a [u8; 32]>,
    nonce: &[u8; 12],
    out: &mut [[u8; 32]],
) {
    let jobs = (keys.into_iter().enumerate()).map(|(m, key)| {
        (
            BlockJob {
                key,
                nonce,
                counter: 0,
            },
            m,
        )
    });
    chacha20_blocks(jobs, |m, block| {
        out[m] = *block.first_chunk().expect("32 of 64 bytes")
    });
}

/// The RFC 8439 §2.8 tag of each `(Poly1305 key, ciphertext)`, into
/// `out`: the MAC input is associated data and ciphertext, each
/// zero-padded to 16 bytes, then both lengths ([`poly1305_padded_all`]).
fn tags<'a>(
    aad: &'a [u8],
    messages: impl IntoIterator<Item = (&'a [u8; 32], &'a [u8])>,
    out: &mut [[u8; 16]],
) {
    let messages = messages.into_iter().map(|(poly_key, ciphertext)| {
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        (poly_key, [aad, ciphertext], lengths)
    });
    poly1305_padded_all(messages, out);
}

/// A sealed message split into ciphertext and tag; `None` if it is
/// shorter than a tag.
fn split(sealed: &[u8]) -> Option<(&[u8], &[u8; TAG_LEN])> {
    let (ciphertext, tag) = sealed.split_at(sealed.len().checked_sub(TAG_LEN)?);
    Some((ciphertext, tag.try_into().expect("TAG_LEN bytes")))
}

/// The ciphertext a sealed message's tag is computed over (none for a
/// message shorter than a tag, which never opens).
fn ciphertext(sealed: &[u8]) -> &[u8] {
    split(sealed).map_or(&[], |(ciphertext, _)| ciphertext)
}

/// The ciphertext of `sealed` if its tag is `expect`.
fn authentic<'s>(sealed: &'s [u8], expect: &[u8; 16]) -> Option<&'s [u8]> {
    let (ciphertext, tag) = split(sealed)?;
    ct_bytes_eq(expect, tag).then_some(ciphertext)
}

/// `AEnc(s, nonce, m)`: encrypt and authenticate.  Output layout is
/// `ciphertext || tag` (input length + 16 bytes).  The batch of one of
/// [`aenc_all`].
pub fn aenc(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut sealed = aenc_all(std::slice::from_ref(key), nonce, aad, &[plaintext]);
    sealed.pop().expect("one plaintext in, one ciphertext out")
}

/// [`aenc`] of `plaintexts[i]` under `keys[i]`, every message under one
/// nonce and associated data.  Sixteen messages (`GROUP`) at a time: their
/// Poly1305 key blocks and keystream blocks are the jobs of one
/// [`chacha20_blocks`] stream — blocks of different messages share a
/// lane pass, and the messages may have any lengths — then their tags,
/// four Poly1305 chains side by side.
pub fn aenc_all<P: AsRef<[u8]>>(
    keys: &[[u8; 32]],
    nonce: &[u8; 12],
    aad: &[u8],
    plaintexts: &[P],
) -> Vec<Vec<u8>> {
    assert_eq!(keys.len(), plaintexts.len(), "one key per plaintext");
    let mut sealed: Vec<Vec<u8>> = (plaintexts.iter())
        .map(|plaintext| {
            let plaintext = plaintext.as_ref();
            let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
            out.extend_from_slice(plaintext);
            out
        })
        .collect();
    let groups = keys.chunks(GROUP).zip(plaintexts.chunks(GROUP));
    for (out, (keys, plaintexts)) in sealed.chunks_mut(GROUP).zip(groups) {
        let mut poly_keys = [[0u8; 32]; GROUP];
        let jobs = keys
            .iter()
            .zip(plaintexts)
            .enumerate()
            .flat_map(|(m, (key, plaintext))| {
                (0..=keystream_blocks(plaintext.as_ref().len())).map(move |counter| {
                    (
                        BlockJob {
                            key,
                            nonce,
                            counter,
                        },
                        (m, counter),
                    )
                })
            });
        chacha20_blocks(jobs, |(m, counter), block| match counter {
            0 => poly_keys[m] = *block.first_chunk().expect("32 of 64 bytes"),
            _ => xor_block(&mut out[m], counter, block),
        });
        let mut tag = [[0u8; 16]; GROUP];
        tags(
            aad,
            poly_keys.iter().zip(out.iter().map(|ct| &ct[..])),
            &mut tag,
        );
        for (out, tag) in out.iter_mut().zip(&tag) {
            out.extend_from_slice(tag);
        }
    }
    sealed
}

/// `ADec(s, nonce, c)`: check integrity and decrypt.  Returns `None` if
/// authentication fails (the paper's `b = 0` case).  The batch of one
/// of [`adec_all`].
pub fn adec(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Option<Vec<u8>> {
    let mut opened = adec_all(std::slice::from_ref(key), nonce, aad, &[sealed]);
    opened.pop().expect("one ciphertext in, one verdict out")
}

/// [`adec`] of `sealed[i]` under `keys[i]`, every message under one
/// nonce and associated data: `None` exactly where `adec` refuses.
/// Sixteen messages (`GROUP`) at a time, as [`aenc_all`]: one block stream of
/// their Poly1305 key blocks and keystream, then the tags.  A message
/// whose tag does not check is dropped with its buffer, never returned.
pub fn adec_all<S: AsRef<[u8]>>(
    keys: &[[u8; 32]],
    nonce: &[u8; 12],
    aad: &[u8],
    sealed: &[S],
) -> Vec<Option<Vec<u8>>> {
    assert_eq!(keys.len(), sealed.len(), "one key per ciphertext");
    let mut opened: Vec<Option<Vec<u8>>> = Vec::with_capacity(sealed.len());
    for (keys, sealed) in keys.chunks(GROUP).zip(sealed.chunks(GROUP)) {
        let start = opened.len();
        opened.extend((sealed.iter()).map(|sealed| Some(split(sealed.as_ref())?.0.to_vec())));
        let out = &mut opened[start..];
        let mut poly_key = [[0u8; 32]; GROUP];
        let jobs = keys
            .iter()
            .zip(sealed)
            .enumerate()
            .flat_map(|(m, (key, sealed))| {
                let blocks =
                    split(sealed.as_ref()).map_or(0, |(ct, _)| keystream_blocks(ct.len()) + 1);
                (0..blocks).map(move |counter| {
                    (
                        BlockJob {
                            key,
                            nonce,
                            counter,
                        },
                        (m, counter),
                    )
                })
            });
        chacha20_blocks(jobs, |(m, counter), block| match counter {
            0 => poly_key[m] = *block.first_chunk().expect("32 of 64 bytes"),
            _ => xor_block(out[m].as_mut().expect("long enough"), counter, block),
        });
        let mut expected = [[0u8; 16]; GROUP];
        let ciphertexts = sealed.iter().map(|sealed| ciphertext(sealed.as_ref()));
        tags(aad, poly_key.iter().zip(ciphertexts), &mut expected);
        for ((out, sealed), expect) in out.iter_mut().zip(sealed).zip(&expected) {
            if authentic(sealed.as_ref(), expect).is_none() {
                *out = None;
            }
        }
    }
    opened
}

/// XOR each opened message (`buffer(slot)`; `None` for one that did not
/// open) with the keystream of its key, `keys[m]` for `slots[m]`, from
/// block 1 on — [`GROUP`] slots to a block stream.
fn decrypt<T>(
    keys: &[[u8; 32]],
    nonce: &[u8; 12],
    slots: &mut [T],
    buffer: impl Fn(&mut T) -> Option<&mut Vec<u8>>,
) {
    for (keys, slots) in keys.chunks(GROUP).zip(slots.chunks_mut(GROUP)) {
        let mut lens = [0usize; GROUP];
        for (len, slot) in lens.iter_mut().zip(slots.iter_mut()) {
            *len = buffer(slot).map_or(0, |buf| buf.len());
        }
        let jobs = keys
            .iter()
            .zip(lens)
            .enumerate()
            .flat_map(|(m, (key, len))| {
                (1..=keystream_blocks(len)).map(move |counter| {
                    (
                        BlockJob {
                            key,
                            nonce,
                            counter,
                        },
                        (m, counter),
                    )
                })
            });
        chacha20_blocks(jobs, |(m, counter), block| {
            xor_block(buffer(&mut slots[m]).expect("opened"), counter, block)
        });
    }
}

/// Trial decryption: for each sealed message, the index of the first
/// of `keys` under which it authenticates and its plaintext — what
/// trying [`adec`] with each key in turn, stopping at the first that
/// opens it, returns — or `None` if none does.  The Poly1305 key of
/// every (message, key) pair comes from one block stream; the tags are
/// then checked key by key, each key against the messages no earlier
/// key opened, and only the matched messages are decrypted, in a second
/// stream.
pub fn adec_first<S: AsRef<[u8]>>(
    keys: &[[u8; 32]],
    nonce: &[u8; 12],
    aad: &[u8],
    sealed: &[S],
) -> Vec<Option<(usize, Vec<u8>)>> {
    let tries = keys.len();
    let mut poly_key = vec![[0u8; 32]; sealed.len() * tries];
    poly_keys(sealed.iter().flat_map(|_| keys), nonce, &mut poly_key);
    let mut opened: Vec<Option<(usize, Vec<u8>)>> = vec![None; sealed.len()];
    let mut pending: Vec<usize> = (0..sealed.len()).collect();
    let mut expected = Vec::new();
    for k in 0..tries {
        expected.clear();
        expected.resize(pending.len(), [0u8; 16]);
        let messages =
            (pending.iter()).map(|&m| (&poly_key[m * tries + k], ciphertext(sealed[m].as_ref())));
        tags(aad, messages, &mut expected);
        let mut unopened = Vec::with_capacity(pending.len());
        for (&m, expect) in pending.iter().zip(&expected) {
            match authentic(sealed[m].as_ref(), expect) {
                Some(ciphertext) => opened[m] = Some((k, ciphertext.to_vec())),
                None => unopened.push(m),
            }
        }
        pending = unopened;
    }
    let slot_keys: Vec<[u8; 32]> = (opened.iter())
        .map(|slot| slot.as_ref().map_or([0; 32], |(k, _)| keys[*k]))
        .collect();
    decrypt(&slot_keys, nonce, &mut opened, |slot| {
        slot.as_mut().map(|(_, buf)| buf)
    });
    opened
}

/// Build a 12-byte nonce from the XRD round number and a small domain tag
/// (layer index, message direction, ...), guaranteeing distinct nonces for
/// distinct (round, domain) pairs.
pub fn round_nonce(round: u64, domain: u32) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&round.to_le_bytes());
    nonce[8..].copy_from_slice(&domain.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2 (cross-checked against an independent Python
        // implementation).
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce_bytes = from_hex("070000004041424344454647");
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        let aad = from_hex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

        let sealed = aenc(&key, &nonce, &aad, plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            to_hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
                .replace(' ', "")
        );
        assert_eq!(to_hex(tag), "1ae10b594f09e26a7e902ecbd0600691");

        let opened = adec(&key, &nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn roundtrip_various_sizes() {
        let key = [42u8; 32];
        let nonce = round_nonce(3, 0);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 256, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = aenc(&key, &nonce, b"", &pt);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(adec(&key, &nonce, b"", &sealed).unwrap(), pt);
        }
    }

    #[test]
    fn tamper_detection() {
        let key = [1u8; 32];
        let nonce = round_nonce(7, 1);
        let sealed = aenc(&key, &nonce, b"aad", b"secret message");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(adec(&key, &nonce, b"aad", &bad).is_none(), "byte {i}");
        }
    }

    #[test]
    fn wrong_key_fails() {
        let nonce = round_nonce(1, 0);
        let sealed = aenc(&[1u8; 32], &nonce, b"", b"hello");
        assert!(adec(&[2u8; 32], &nonce, b"", &sealed).is_none());
    }

    #[test]
    fn wrong_nonce_fails() {
        let key = [1u8; 32];
        let sealed = aenc(&key, &round_nonce(1, 0), b"", b"hello");
        assert!(adec(&key, &round_nonce(2, 0), b"", &sealed).is_none());
        assert!(adec(&key, &round_nonce(1, 1), b"", &sealed).is_none());
    }

    #[test]
    fn wrong_aad_fails() {
        let key = [1u8; 32];
        let nonce = round_nonce(1, 0);
        let sealed = aenc(&key, &nonce, b"round-1", b"hello");
        assert!(adec(&key, &nonce, b"round-2", &sealed).is_none());
    }

    #[test]
    fn too_short_input_rejected() {
        assert!(adec(&[0u8; 32], &round_nonce(0, 0), b"", &[0u8; 15]).is_none());
        assert!(adec(&[0u8; 32], &round_nonce(0, 0), b"", &[]).is_none());
    }

    #[test]
    fn round_nonce_is_injective_per_domain() {
        assert_ne!(round_nonce(1, 0), round_nonce(1, 1));
        assert_ne!(round_nonce(1, 0), round_nonce(2, 0));
    }
}
