//! Golden wire vectors: the codec's bytes, pinned.
//!
//! Round-trip tests cannot see a *symmetric* mistake — an encode arm
//! and a decode arm that swap the same two fields agree with each
//! other and disagree with every deployed peer.  This suite pins the
//! bytes themselves: a digest over the encoding of every frame
//! `common::arb_frame` can build under eight seeds, and the fully
//! specified byte strings of `docs/PROTOCOL.md` §3 as literals.
//!
//! A change to [`GOLDEN_DIGEST`] is a wire-format change (or a change
//! to what a generator arm draws): regenerate it in the same commit —
//! the failing assertion prints the new value — and say so in the
//! commit message.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_net::codec::Frame;

/// Blake2b-256 over the concatenated `encode()` outputs of every frame
/// [`common::arb_frame`] builds — tags ascending within a seed, seeds
/// `0..8`.
const GOLDEN_DIGEST: &str = "fa438615aedd441a2be4dfe1be2b05c5963e99a8b82d5aae23d9baa709c326e1";

#[test]
fn every_frame_encodes_to_the_golden_bytes() {
    let mut h = xrd_crypto::Blake2b::new(32);
    let mut frames = 0;
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        for tag in 0..=u8::MAX {
            if let Some(frame) = common::arb_frame(&mut rng, tag) {
                h.update(&frame.encode());
                frames += 1;
            }
        }
    }
    assert_eq!(
        frames,
        8 * common::live_tags().len(),
        "one frame per live row and seed"
    );
    assert_eq!(
        xrd_crypto::util::to_hex(&h.finalize_32()),
        GOLDEN_DIGEST,
        "wire bytes changed"
    );
}

/// `docs/PROTOCOL.md` §3, byte for byte, in both directions.
#[test]
fn protocol_doc_examples_are_byte_exact() {
    let examples: [(Frame, &[u8]); 6] = [
        (Frame::Ping, &[0x01, 0, 0, 0, 0x03]),
        (
            Frame::OpenRound { round: 7 },
            &[0x09, 0, 0, 0, 0x10, 0x07, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            Frame::Error {
                code: 2,
                message: "bad pok".into(),
            },
            &[
                0x0E, 0, 0, 0, 0x02, 0x02, 0, 0x07, 0, 0, 0, 0x62, 0x61, 0x64, 0x20, 0x70, 0x6F,
                0x6B,
            ],
        ),
        (
            Frame::VerifyResult {
                verdicts: vec![true, false],
            },
            &[0x07, 0, 0, 0, 0x24, 0x02, 0, 0, 0, 0x01, 0x00],
        ),
        (
            Frame::MixWindow {
                round: 1,
                removed: vec![],
            },
            &[0x0D, 0, 0, 0, 0x16, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            Frame::MixBatchStart {
                round: 1,
                total: 384,
            },
            &[
                0x0D, 0, 0, 0, 0x25, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 0,
            ],
        ),
    ];
    for (frame, wire) in examples {
        assert_eq!(frame.encode(), wire, "{frame:?} encodes as documented");
        assert_eq!(
            Frame::decode(&wire[4..]).as_ref(),
            Ok(&frame),
            "the documented bytes decode to {frame:?}"
        );
    }
}
