//! Wire-codec property tests: every frame type round-trips exactly,
//! and malformed / truncated / oversized frames are rejected without
//! panicking.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use xrd_crypto::nizk::{DleqProof, SchnorrProof, DLEQ_PROOF_LEN, SCHNORR_PROOF_LEN};
use xrd_crypto::ristretto::GroupElement;
use xrd_mixnet::chain_keys::{generate_chain_keys, ServerSecrets};
use xrd_mixnet::client::{seal_ahs, Submission};
use xrd_mixnet::message::{MailboxMessage, MixEntry, MAILBOX_MSG_LEN};
use xrd_mixnet::server::{CrossCheck, HopAttestation};
use xrd_net::codec::{
    decode_server_config, encode_server_config, BatchAssembler, ChunkedBatch, CodecError, Frame,
    FrameDecoder, StreamError, MAX_BATCH, MAX_BYTES, MAX_FRAME_LEN,
};

use common::{
    arb_frame, arb_variant, chain_keys, dleq, g, live_tags, mix_entries, mix_entry, scalar,
    submission,
};

/// Strategy bound for "any frame variant": [`arb_variant`] wraps the
/// index over the live rows, so every row is reachable.
const N_ROWS: usize = Frame::TAGS.len();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every frame type round-trips through encode/decode exactly.
    #[test]
    fn every_frame_roundtrips(seed in any::<u64>(), variant in 0usize..N_ROWS) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arb_variant(&mut rng, variant);
        let encoded = frame.encode();
        // Length prefix is consistent.
        let len = u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, encoded.len() - 4);
        prop_assert!(len <= MAX_FRAME_LEN);
        // The tag byte on the wire is the one `Frame::tag` reports,
        // and every shipped tag has a metrics name.
        prop_assert_eq!(encoded[4], frame.tag());
        prop_assert!(Frame::tag_name(frame.tag()).is_some());
        // Exact round-trip.
        let decoded = Frame::decode(&encoded[4..]).expect("well-formed frame decodes");
        prop_assert_eq!(decoded, frame);
    }

    /// Every strict prefix of a frame body fails with `Truncated` —
    /// never a panic, never a bogus success.
    #[test]
    fn truncation_is_always_rejected(seed in any::<u64>(), variant in 0usize..N_ROWS) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arb_variant(&mut rng, variant);
        let body = &frame.encode()[4..];
        for cut in 0..body.len() {
            match Frame::decode(&body[..cut]) {
                Err(_) => {}
                Ok(_) => prop_assert!(false, "prefix of len {} decoded", cut),
            }
        }
    }

    /// Appending garbage after a valid body is rejected as trailing
    /// bytes.
    #[test]
    fn trailing_bytes_rejected(seed in any::<u64>(), variant in 0usize..N_ROWS) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arb_variant(&mut rng, variant);
        let mut body = frame.encode()[4..].to_vec();
        body.push(0x00);
        prop_assert_eq!(Frame::decode(&body), Err(CodecError::TrailingBytes));
    }

    /// Random byte soup never panics the decoder.
    #[test]
    fn fuzz_decode_never_panics(soup in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&soup);
    }

    /// The incremental decoder agrees with one-shot decoding for any
    /// frame stream split at arbitrary chunk boundaries — down to one
    /// byte at a time, across frame boundaries, frames coalesced or
    /// fragmented however the wire happens to deliver them.
    #[test]
    fn incremental_decoder_matches_oneshot(
        seed in any::<u64>(),
        n_frames in 1usize..5,
        chunk_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<Frame> = (0..n_frames)
            .map(|i| arb_variant(&mut rng, seed as usize % N_ROWS + i))
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }

        let mut chunk_rng = StdRng::seed_from_u64(chunk_seed);
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut off = 0;
        while off < wire.len() {
            let take = chunk_rng.gen_range(1..=(wire.len() - off).min(4096));
            decoder.feed(&wire[off..off + take]);
            off += take;
            while let Some(f) = decoder.try_frame() {
                got.push(f.expect("well-formed stream"));
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(decoder.buffered(), 0);
        prop_assert!(decoder.try_frame().is_none());
    }

    /// Cutting the stream mid-frame leaves the incremental decoder
    /// pending (never an error, never a bogus frame) until the missing
    /// bytes arrive.
    #[test]
    fn incremental_decoder_pends_on_any_truncation(
        seed in any::<u64>(),
        variant in 0usize..N_ROWS,
        cut_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arb_variant(&mut rng, variant);
        let wire = frame.encode();
        let cut = StdRng::seed_from_u64(cut_seed).gen_range(0..wire.len());

        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire[..cut]);
        prop_assert!(decoder.try_frame().is_none(), "partial frame must pend");
        prop_assert_eq!(decoder.buffered(), cut);
        decoder.feed(&wire[cut..]);
        prop_assert_eq!(decoder.try_frame().unwrap().unwrap(), frame);
    }

    /// The server-config blob round-trips.
    #[test]
    fn server_config_roundtrips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let public = chain_keys(&mut rng);
        let secrets = ServerSecrets {
            position: rng.gen_range(0..public.len()),
            bsk: scalar(&mut rng),
            msk: scalar(&mut rng),
            isk: scalar(&mut rng),
        };
        let blob = encode_server_config(&secrets, &public);
        let (s2, p2) = decode_server_config(&blob).expect("config decodes");
        prop_assert_eq!(s2.position, secrets.position);
        prop_assert_eq!(s2.bsk, secrets.bsk);
        prop_assert_eq!(s2.msk, secrets.msk);
        prop_assert_eq!(s2.isk, secrets.isk);
        prop_assert_eq!(p2, public);
    }
}

/// A table row without a generator arm would go unfuzzed (and
/// unpinned by `codec_golden`): the tags [`arb_frame`] builds are
/// exactly the live rows of [`Frame::TAGS`], each arm builds the tag it
/// is keyed by, and the table agrees with `tag`/`tag_name`.
#[test]
fn every_table_row_has_a_generator_arm() {
    let mut rng = StdRng::seed_from_u64(1);
    let built: Vec<u8> = (0..=u8::MAX)
        .filter_map(|tag| arb_frame(&mut rng, tag).map(|frame| (tag, frame)))
        .map(|(tag, frame)| {
            assert_eq!(frame.tag(), tag, "arm {tag:#04x} builds another frame");
            tag
        })
        .collect();
    assert_eq!(built, live_tags());
    for &(tag, name) in Frame::TAGS {
        assert_eq!(Frame::tag_name(tag), (!name.is_empty()).then_some(name));
    }
}

/// `docs/PROTOCOL.md`'s tag tables and the codec's frame table agree,
/// row for row: every `| 0xNN | Name |` row is a row of [`Frame::TAGS`]
/// with that name (`—` marks a reserved row: retired, never reused),
/// and every table row is documented — so a tag cannot be added,
/// renamed or retired in one place only.
#[test]
fn protocol_doc_tag_tables_match_the_codec() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/PROTOCOL.md"
    ))
    .expect("docs/PROTOCOL.md is readable");
    let mut documented = Vec::new();
    for line in doc.lines() {
        let cells: Vec<&str> = line
            .split('|')
            .map(|c| c.trim().trim_matches('`'))
            .collect();
        let [_, tag, name, ..] = cells.as_slice() else {
            continue;
        };
        let Some(tag) = tag.strip_prefix("0x") else {
            continue;
        };
        let tag = u8::from_str_radix(tag, 16).expect("tag column is a byte");
        documented.push((tag, if *name == "—" { "" } else { *name }));
    }
    assert_eq!(documented, Frame::TAGS, "PROTOCOL.md rows, in order");
}

/// `docs/OBSERVABILITY.md`'s metric catalog and the code agree, kind
/// and name: every series a program file records through
/// `xrd_obs::counter!`, `gauge!` or `hist!` has a catalog row marked
/// with its kind — (g) a gauge, (h) or *(histogram)* a histogram,
/// otherwise a counter — and every catalog series is recorded.  Only a
/// computed family (`frames.in.<Tag>`) is named in the catalog alone;
/// spans are not series.
#[test]
fn observability_doc_catalog_matches_the_recorded_series() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let doc = std::fs::read_to_string(format!("{root}/docs/OBSERVABILITY.md"))
        .expect("docs/OBSERVABILITY.md is readable");
    let catalog = doc
        .split("\n## Metric catalog\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("a Metric catalog section");
    let mut documented = std::collections::BTreeSet::new();
    for line in catalog.lines() {
        let first_cell = line.strip_prefix("| ").and_then(|l| l.split(" |").next());
        let Some(series) = first_cell.filter(|cell| cell.starts_with('`')) else {
            continue;
        };
        let kind = if series.contains("(g)") {
            "gauge"
        } else if series.contains("(h)") || series.contains("(histogram") {
            "hist"
        } else {
            "counter"
        };
        let names = series.split('`').skip(1).step_by(2);
        for name in names.filter(|name| !name.contains('<')) {
            documented.insert((kind, name.to_string()));
        }
    }

    let mut sources = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from(format!("{root}/crates"))];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source tree is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() && !path.ends_with("target") {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.components().any(|c| c.as_os_str() == "src")
            {
                sources.push(std::fs::read_to_string(&path).expect("source is readable"));
            }
        }
    }
    let mut recorded = std::collections::BTreeSet::new();
    for source in &sources {
        // Program code: a file's test module and comments aside.
        let program = source
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .filter(|l| !l.trim_start().starts_with("//"));
        for line in program {
            for kind in ["counter", "gauge", "hist"] {
                let call = format!("xrd_obs::{kind}!(\"");
                for (at, _) in line.match_indices(&call) {
                    let name = line[at + call.len()..].split('"').next();
                    recorded.insert((kind, name.expect("a name").to_string()));
                }
            }
        }
    }
    assert!(!recorded.is_empty(), "the crates record series");
    let undocumented: Vec<_> = recorded.difference(&documented).collect();
    let unrecorded: Vec<_> = documented.difference(&recorded).collect();
    assert!(
        undocumented.is_empty() && unrecorded.is_empty(),
        "recorded without a catalog row: {undocumented:?}; \
         catalogued but never recorded: {unrecorded:?}"
    );
}

#[test]
fn unknown_tag_rejected() {
    assert_eq!(Frame::decode(&[0xee]), Err(CodecError::UnknownTag(0xee)));
    assert_eq!(Frame::decode(&[]), Err(CodecError::Truncated));
}

/// The whole-batch hop frames and the hop-output stream frames are
/// retired and their tag bytes reserved: a stale peer still speaking
/// them gets a clean unknown-tag error, whatever follows the tag.
#[test]
fn retired_hop_tags_decode_as_unknown() {
    for tag in [0x20u8, 0x21, 0x23, 0x28, 0x29, 0x2A] {
        assert_eq!(Frame::tag_name(tag), None);
        assert_eq!(Frame::decode(&[tag]), Err(CodecError::UnknownTag(tag)));
        let mut body = vec![tag];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(Frame::decode(&body), Err(CodecError::UnknownTag(tag)));
    }
}

#[test]
fn oversized_sequence_rejected() {
    // A MixBatchChunk whose declared entry count exceeds MAX_BATCH.
    let mut body = vec![0x26]; // TAG_MIX_BATCH_CHUNK
    body.extend_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&body),
        Err(CodecError::Oversized { .. })
    ));
}

#[test]
fn oversized_byte_string_rejected() {
    // An Error frame whose message length is absurd.
    let mut body = vec![0x02]; // TAG_ERROR
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&body),
        Err(CodecError::Oversized { .. })
    ));
}

#[test]
fn non_canonical_group_encoding_rejected() {
    // Fetch carries a raw 32-byte mailbox id (any bytes fine), but
    // InnerKeyReveal carries a scalar that must be canonical: the group
    // order ℓ < 2^253, so 32 bytes of 0xff is never canonical.
    let mut body = vec![0x31]; // TAG_INNER_KEY_REVEAL
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&[0xff; 32]);
    assert_eq!(Frame::decode(&body), Err(CodecError::InvalidScalar));

    // (A `Submit` whose DH key is no canonical encoding parses: its
    // point is decoded, and refused, by the daemon's screening —
    // `submit_screening::an_invalid_point_is_refused_as_a_bad_frame_and_closes_its_connection`.)
}

#[test]
fn wrong_size_mailbox_message_rejected() {
    // Deliver with a sealed payload of the wrong length.
    let mut body = vec![0x50]; // TAG_DELIVER
    body.extend_from_slice(&0u64.to_le_bytes()); // round
    body.extend_from_slice(&0u64.to_le_bytes()); // batch
    body.extend_from_slice(&1u32.to_le_bytes()); // one message
    body.extend_from_slice(&[7u8; 32]); // mailbox id
    body.extend_from_slice(&3u32.to_le_bytes()); // sealed: 3 bytes (wrong)
    body.extend_from_slice(&[1, 2, 3]);
    assert_eq!(Frame::decode(&body), Err(CodecError::BadLength));
}

// ---- rows of points: batched decode, per-item errors ----

/// A per-item parse of the frames whose rows carry many points: every
/// point decoded the moment it is read, every field checked in wire
/// order — the reference the codec's batched rows (one `decode_all` per
/// row) must agree with, error for error.  It also records where each
/// point starts, for the mutations.
struct PerItem<'a> {
    body: &'a [u8],
    at: usize,
    points: Vec<usize>,
}

impl PerItem<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        let bytes = self.body.get(self.at..self.at + n);
        self.at += n;
        bytes.ok_or(CodecError::Truncated)
    }

    fn count(&mut self, cap: usize) -> Result<usize, CodecError> {
        let declared = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        if declared > cap {
            return Err(CodecError::Oversized { declared, cap });
        }
        Ok(declared)
    }

    fn point(&mut self) -> Result<(), CodecError> {
        self.points.push(self.at);
        let bytes: [u8; 32] = self.take(32)?.try_into().unwrap();
        GroupElement::decode(&bytes)
            .map(drop)
            .ok_or(CodecError::InvalidGroupElement)
    }

    fn ct(&mut self) -> Result<(), CodecError> {
        let len = self.count(MAX_BYTES)?;
        self.take(len).map(drop)
    }

    fn proof(&mut self, len: usize, parses: fn(&[u8]) -> bool) -> Result<(), CodecError> {
        match parses(self.take(len)?) {
            true => Ok(()),
            false => Err(CodecError::InvalidProof),
        }
    }

    fn seq(&mut self, item: fn(&mut Self) -> Result<(), CodecError>) -> Result<(), CodecError> {
        for _ in 0..self.count(MAX_BATCH)? {
            item(self)?;
        }
        Ok(())
    }

    fn frame(&mut self) -> Result<(), CodecError> {
        let dleq = |b: &[u8]| DleqProof::from_bytes(b).is_some();
        match self.take(1)?[0] {
            // SubmissionBatch: round, then (dh, pok, ct) per submission.
            0x15 => {
                self.take(8)?;
                self.seq(|r| {
                    r.point()?;
                    r.proof(SCHNORR_PROOF_LEN, |b| SchnorrProof::from_bytes(b).is_some())?;
                    r.ct()
                })?;
            }
            // WindowColumn: round, then the key column.
            0x17 => {
                self.take(8)?;
                self.seq(Self::point)?;
            }
            // MixBatchChunk: (dh, ct) per entry.
            0x26 => self.seq(|r| {
                r.point()?;
                r.ct()
            })?,
            // VerifyHopKeys: round, the proofs, the key columns each
            // present or not.
            0x2B => {
                self.take(8)?;
                self.seq(|r| r.proof(DLEQ_PROOF_LEN, |b| DleqProof::from_bytes(b).is_some()))?;
                self.seq(|r| match r.take(1)?[0] {
                    0 => Ok(()),
                    1 => r.seq(Self::point),
                    _ => Err(CodecError::BadLength),
                })?;
            }
            // DisputeOpen: round, position, two key columns, the proof.
            0x44 => {
                self.take(12)?;
                self.seq(Self::point)?;
                self.seq(Self::point)?;
                self.proof(DLEQ_PROOF_LEN, dleq)?;
            }
            tag => panic!("no reference for tag {tag:#04x}"),
        }
        match self.at == self.body.len() {
            true => Ok(()),
            false => Err(CodecError::TrailingBytes),
        }
    }
}

/// The reference's verdict on `body`, and where its points start.
fn per_item_parse(body: &[u8]) -> (Result<(), CodecError>, Vec<usize>) {
    let mut r = PerItem {
        body,
        at: 0,
        points: Vec::new(),
    };
    (r.frame(), r.points)
}

/// A frame of one of the point-row kinds, with rows long enough to fill
/// lane groups (0..20 points a row, so a short last group, a full one
/// and none at all all occur).
fn point_rows_frame(rng: &mut StdRng, which: usize) -> Frame {
    let n = rng.gen_range(0..20);
    let column =
        |rng: &mut StdRng, n: usize| -> Vec<GroupElement> { (0..n).map(|_| g(rng)).collect() };
    let (round, position) = (rng.next_u64(), rng.gen_range(0..64usize));
    let attestation = |rng: &mut StdRng, n_in: usize, n_out: usize| HopAttestation {
        round,
        position,
        input_dhs: column(rng, n_in).into(),
        output_dhs: column(rng, n_out).into(),
        proof: dleq(rng),
    };
    match which % 5 {
        0 => Frame::SubmissionBatch {
            round,
            submissions: (0..n).map(|_| submission(rng)).collect(),
        },
        1 => Frame::MixBatchChunk {
            entries: (0..n).map(|_| mix_entry(rng)).collect(),
        },
        2 => Frame::VerifyHopKeys {
            check: CrossCheck {
                round,
                proofs: vec![dleq(rng); position % 4],
                columns: (0..4)
                    .map(|i| (i != position % 4).then(|| column(rng, n).into()))
                    .collect(),
            },
        },
        3 => Frame::WindowColumn {
            round,
            column: column(rng, n).into(),
        },
        _ => Frame::DisputeOpen {
            attestation: attestation(rng, n / 2, n),
        },
    }
}

/// Make the 32 bytes at `at` a rejected (or, for the middle-byte flip,
/// possibly a different valid) encoding: a negative `s`, `s` past the
/// field, or a byte flipped inside — which leaves the bytes canonical
/// and even, so the formula's own checks (no root, negative `t`) decide.
fn corrupt_point(body: &mut [u8], at: usize, how: usize) {
    match how % 3 {
        0 => body[at] |= 1,
        1 => body[at + 31] |= 0x80,
        _ => body[at + 13] ^= 0x55,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Corrupt the point at index i, truncate at byte j, or both: the
    /// codec's batched rows yield exactly the error a per-item parse
    /// does — the first failing item's, and within an item its point's
    /// before a later field's.
    #[test]
    fn point_rows_fail_like_a_per_item_parse(
        seed in any::<u64>(),
        which in 0usize..6,
        mode in 0u8..3,
        point in any::<prop::sample::Index>(),
        how in 0usize..3,
        cut in any::<prop::sample::Index>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = point_rows_frame(&mut rng, which);
        let mut body = frame.encode()[4..].to_vec();
        let (clean, points) = per_item_parse(&body);
        prop_assert_eq!(clean, Ok(()));
        if mode != 1 && !points.is_empty() {
            corrupt_point(&mut body, points[point.index(points.len())], how);
        }
        if mode != 0 {
            body.truncate(cut.index(body.len()));
        }
        let expected = per_item_parse(&body).0;
        prop_assert_eq!(Frame::decode(&body).map(drop), expected);
    }
}

/// The case a batched row gets wrong if it checks its points only
/// after the whole row: the last entry's point is bad *and* its
/// ciphertext is cut short.  The point comes first on the wire, so the
/// point is the error — at every row length around the lane width.
#[test]
fn a_bad_point_outranks_a_truncation_later_in_its_item() {
    let mut rng = StdRng::seed_from_u64(31);
    for n in [1usize, 2, 3, 7, 8, 9, 17] {
        let entries: Vec<MixEntry> = (0..n)
            .map(|_| MixEntry {
                dh: g(&mut rng),
                ct: vec![7; 40],
            })
            .collect();
        let mut body = Frame::MixBatchChunk { entries }.encode()[4..].to_vec();
        let (_, points) = per_item_parse(&body);
        let last = points[n - 1];
        body[last] |= 1;
        body.pop();
        assert_eq!(
            Frame::decode(&body),
            Err(CodecError::InvalidGroupElement),
            "n={n}"
        );
        // Cut inside that point instead: it was never read whole.
        body.truncate(last + 16);
        assert_eq!(Frame::decode(&body), Err(CodecError::Truncated), "n={n}");
    }
}

/// Within a submission the fields are checked in wire order — point,
/// then proof — and a failing item ends the row: a bad proof in item 0
/// outranks a bad point in item 1, and a bad point outranks a bad proof
/// in its own item.
#[test]
fn submission_fields_fail_in_wire_order() {
    let mut rng = StdRng::seed_from_u64(32);
    let submissions: Vec<Submission> = (0..9).map(|_| submission(&mut rng)).collect();
    let body = Frame::SubmissionBatch {
        round: 4,
        submissions,
    }
    .encode()[4..]
        .to_vec();
    let (_, points) = per_item_parse(&body);
    // A proof's response follows its commitment: 32 bytes of 0xff are
    // never a canonical scalar.
    let bad_proof = |body: &mut Vec<u8>, item: usize| {
        let response = points[item] + 32 + 32;
        body[response..response + 32].fill(0xff);
    };
    let mut proof_then_point = body.clone();
    bad_proof(&mut proof_then_point, 0);
    proof_then_point[points[1]] |= 1;
    assert_eq!(
        Frame::decode(&proof_then_point),
        Err(CodecError::InvalidProof)
    );
    let mut point_and_proof = body.clone();
    bad_proof(&mut point_and_proof, 5);
    point_and_proof[points[5]] |= 1;
    assert_eq!(
        Frame::decode(&point_and_proof),
        Err(CodecError::InvalidGroupElement)
    );
}

/// A real sealed submission crosses the wire whole — alone in a
/// `Submit` and eight to a `SubmissionBatch` — and its proof still
/// verifies after the trip; a ciphertext shorter or longer than its
/// declared length, or a mix entry's point that is not a canonical
/// encoding, is refused.  (The codec is the only parser of wire input:
/// these are the cases the retired `Submission::from_bytes`/
/// `MixEntry::from_bytes` were tested on.)
#[test]
fn sealed_submissions_cross_the_wire_whole() {
    let mut rng = StdRng::seed_from_u64(6);
    let (_, keys) = generate_chain_keys(&mut rng, 3, 0);
    let submissions: Vec<Submission> = (0..8)
        .map(|_| {
            seal_ahs(
                &mut rng,
                &keys,
                0,
                &MailboxMessage {
                    mailbox: [7; 32],
                    sealed: vec![9; MAILBOX_MSG_LEN - 32],
                },
            )
        })
        .collect();
    let batch = Frame::SubmissionBatch {
        round: 0,
        submissions: submissions.clone(),
    };
    let Ok(Frame::SubmissionBatch {
        submissions: got, ..
    }) = Frame::decode(&batch.encode()[4..])
    else {
        panic!("a sealed batch decodes");
    };
    assert_eq!(got, submissions);
    assert_eq!(Submission::verify_poks(0, &got), vec![true; 8]);

    let submit = Frame::Submit {
        round: 0,
        submission: submissions[0].clone(),
    };
    let body = submit.encode()[4..].to_vec();
    assert_eq!(Frame::decode(&body), Ok(submit));
    let mut short = body.clone();
    short.pop();
    assert_eq!(Frame::decode(&short), Err(CodecError::Truncated));
    let mut long = body.clone();
    long.push(0);
    assert_eq!(Frame::decode(&long), Err(CodecError::TrailingBytes));
    // A `Submit` whose point is no canonical encoding is refused by the
    // daemon that screens it, not here (`submit_screening`).

    // A mix entry whose key is 31 bytes of 0xff under a clear top bit:
    // `s ≥ p`, not a canonical encoding.
    let mut entry = vec![0x26];
    entry.extend_from_slice(&1u32.to_le_bytes());
    entry.extend_from_slice(&[0xff; 31]);
    entry.push(0x7f);
    entry.extend_from_slice(&8u32.to_le_bytes());
    entry.extend_from_slice(&[0; 8]);
    assert_eq!(Frame::decode(&entry), Err(CodecError::InvalidGroupElement));
}

// ---- streamed-batch chunking properties ----

/// The digested payload of an encoded chunk frame.
fn payload(bytes: &[u8]) -> &[u8] {
    &bytes[ChunkedBatch::CHUNK_PAYLOAD_OFFSET..]
}

/// Decode a [`ChunkedBatch`]'s frames and reassemble them, the digest
/// read off each chunk's payload as it arrived.
fn reassemble(stream: &ChunkedBatch) -> Result<Vec<MixEntry>, StreamError> {
    let mut assembler: Option<BatchAssembler> = None;
    let mut out = Err(StreamError::DigestMismatch);
    for bytes in stream.frames() {
        match Frame::decode(&bytes[4..]).expect("built frames decode") {
            Frame::MixBatchStart { total, .. } => {
                assembler = Some(BatchAssembler::begin(total)?);
            }
            Frame::MixBatchChunk { entries } => {
                let a = assembler.as_mut().expect("start first");
                a.absorb(entries, payload(bytes))?;
            }
            Frame::MixBatchEnd { digest } => {
                out = assembler.take().expect("start first").finish(digest);
            }
            other => panic!("unexpected frame in stream: {other:?}"),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any chunking of a batch — down to 1-entry chunks — reassembles
    /// to exactly the source entries.
    #[test]
    fn any_chunking_reassembles_to_the_source_batch(
        seed in any::<u64>(),
        chunk_size in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = mix_entries(&mut rng);
        let round = rng.next_u64();

        let stream = ChunkedBatch::build(round, &entries, chunk_size);
        prop_assert_eq!(stream.total(), entries.len());
        prop_assert_eq!(reassemble(&stream).expect("clean stream"), entries);
    }

    /// Two different chunkings of the same batch close with the same
    /// stream digest (the digest binds entries, not framing).
    #[test]
    fn stream_digest_is_chunking_invariant(
        seed in any::<u64>(),
        a in 1usize..40,
        b in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = mix_entries(&mut rng);
        prop_assert_eq!(
            ChunkedBatch::build(9, &entries, a).digest(),
            ChunkedBatch::build(9, &entries, b).digest()
        );
    }

    /// A truncated stream (End arrives before the declared total) is
    /// rejected as Incomplete, never silently assembled.
    #[test]
    fn truncated_stream_is_incomplete(seed in any::<u64>(), chunk_size in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = mix_entries(&mut rng);
        entries.push(mix_entry(&mut rng)); // ≥ 1 entry, ≥ 1 chunk
        let stream = ChunkedBatch::build(3, &entries, chunk_size);

        let mut assembler = BatchAssembler::begin(entries.len() as u32).unwrap();
        // Feed every chunk but the last.
        let chunks = stream.frames().len() - 2;
        for bytes in &stream.frames()[1..1 + chunks - 1] {
            let Frame::MixBatchChunk { entries } = Frame::decode(&bytes[4..]).unwrap()
            else { panic!("wrong frame") };
            assembler.absorb(entries, payload(bytes)).unwrap();
        }
        prop_assert!(matches!(
            assembler.finish(stream.digest()),
            Err(StreamError::Incomplete { .. })
        ));
    }

    /// A flipped digest bit fails the close.
    #[test]
    fn digest_mismatch_is_rejected(seed in any::<u64>(), chunk_size in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = mix_entries(&mut rng);
        let stream = ChunkedBatch::build(5, &entries, chunk_size);

        let mut assembler = BatchAssembler::begin(entries.len() as u32).unwrap();
        for bytes in &stream.frames()[1..stream.frames().len() - 1] {
            let Frame::MixBatchChunk { entries } = Frame::decode(&bytes[4..]).unwrap()
            else { panic!("wrong frame") };
            assembler.absorb(entries, payload(bytes)).unwrap();
        }
        let mut digest = stream.digest();
        digest[seed as usize % 32] ^= 1;
        prop_assert_eq!(assembler.finish(digest), Err(StreamError::DigestMismatch));
    }

    /// More entries than the Start declared error out at the
    /// offending chunk (Overrun), not at the End.
    #[test]
    fn overrun_rejected_at_the_chunk(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = mix_entries(&mut rng);
        entries.push(mix_entry(&mut rng));

        let chunk = Frame::MixBatchChunk { entries: entries.clone() }.encode();
        let mut assembler =
            BatchAssembler::begin((entries.len() - 1) as u32).unwrap();
        prop_assert!(matches!(
            assembler.absorb(entries, payload(&chunk)),
            Err(StreamError::Overrun { .. })
        ));
    }
}

#[test]
fn oversized_stream_declaration_rejected() {
    assert!(matches!(
        BatchAssembler::begin(xrd_net::codec::MAX_BATCH as u32 + 1),
        Err(StreamError::TooLarge { .. })
    ));
}
