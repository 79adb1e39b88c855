//! Structural generators shared by the codec test suites
//! (`codec_properties`, `codec_golden`): random but well-formed values
//! of every type the wire carries, and [`arb_frame`], one arm per frame.
//!
//! Everything draws from the caller's seeded [`StdRng`] in a fixed
//! order, so a seed names one exact frame — `codec_golden` hashes the
//! encodings.  Changing what an arm draws therefore changes the golden
//! digest; regenerate it in the same commit and say so in the message.
#![allow(dead_code)] // each test crate uses its own subset

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use xrd_crypto::nizk::{DleqProof, SchnorrProof};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;
use xrd_mixnet::blame::{Accusation, BlameReveal};
use xrd_mixnet::chain_keys::{RotationShare, ServerKeyProofs};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::{MailboxMessage, MixEntry, MAILBOX_MSG_LEN};
use xrd_mixnet::server::{CrossCheck, HopAttestation};
use xrd_net::codec::{error_code, Frame, MAX_BATCH};

pub fn g(rng: &mut StdRng) -> GroupElement {
    GroupElement::random(rng)
}

pub fn scalar(rng: &mut StdRng) -> Scalar {
    Scalar::random(rng)
}

pub fn schnorr(rng: &mut StdRng) -> SchnorrProof {
    SchnorrProof {
        commitment: g(rng).encode(),
        response: scalar(rng),
    }
}

pub fn dleq(rng: &mut StdRng) -> DleqProof {
    DleqProof {
        commitment1: g(rng).encode(),
        commitment2: g(rng).encode(),
        response: scalar(rng),
    }
}

pub fn bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

pub fn mix_entry(rng: &mut StdRng) -> MixEntry {
    MixEntry {
        dh: g(rng),
        ct: bytes(rng, 600),
    }
}

pub fn mix_entries(rng: &mut StdRng) -> Vec<MixEntry> {
    let n = rng.gen_range(0..6);
    (0..n).map(|_| mix_entry(rng)).collect()
}

pub fn submission(rng: &mut StdRng) -> Submission {
    Submission::new(g(rng), bytes(rng, 600), schnorr(rng))
}

pub fn mailbox_message(rng: &mut StdRng) -> MailboxMessage {
    let mut sealed = vec![0u8; MAILBOX_MSG_LEN - 32];
    rng.fill_bytes(&mut sealed);
    let mailbox = array32(rng);
    MailboxMessage { mailbox, sealed }
}

pub fn chain_keys(rng: &mut StdRng) -> xrd_mixnet::ChainPublicKeys {
    let k = rng.gen_range(1..5);
    xrd_mixnet::ChainPublicKeys {
        epoch: rng.next_u64(),
        inner_epoch: rng.next_u64(),
        bpks: (0..k + 1).map(|_| g(rng)).collect(),
        mpks: (0..k).map(|_| g(rng)).collect(),
        ipks: (0..k).map(|_| g(rng)).collect(),
        proofs: (0..k)
            .map(|_| ServerKeyProofs {
                bsk_pok: schnorr(rng),
                msk_pok: schnorr(rng),
                isk_pok: schnorr(rng),
            })
            .collect(),
    }
}

pub fn accusation(rng: &mut StdRng) -> Accusation {
    Accusation {
        position: rng.gen_range(0..64usize),
        input_index: rng.gen_range(0..1000usize),
        entry: mix_entry(rng),
        dec_key: g(rng),
        key_proof: dleq(rng),
    }
}

pub fn blame_reveal(rng: &mut StdRng) -> BlameReveal {
    BlameReveal {
        position: rng.gen_range(0..64usize),
        input_index: rng.gen_range(0..1000usize),
        input: mix_entry(rng),
        output_dh: g(rng),
        blind_proof: dleq(rng),
        dec_key: g(rng),
        key_proof: dleq(rng),
    }
}

pub fn hist_snapshot(rng: &mut StdRng) -> xrd_obs::HistSnapshot {
    let mut buckets = vec![0u64; xrd_obs::N_BUCKETS];
    for _ in 0..rng.gen_range(0..24) {
        buckets[rng.gen_range(0..xrd_obs::N_BUCKETS)] = rng.next_u64().max(1);
    }
    xrd_obs::HistSnapshot {
        count: rng.next_u64(),
        sum: rng.next_u64(),
        min: rng.next_u64(),
        max: rng.next_u64(),
        buckets,
    }
}

pub fn obs_snapshot(rng: &mut StdRng) -> xrd_obs::Snapshot {
    let name = |rng: &mut StdRng| format!("metric.{}", rng.gen_range(0..1000u32));
    xrd_obs::Snapshot {
        uptime_us: rng.next_u64(),
        counters: (0..rng.gen_range(0..6))
            .map(|_| (name(rng), rng.next_u64()))
            .collect(),
        gauges: (0..rng.gen_range(0..4))
            .map(|_| (name(rng), rng.next_u64() as i64))
            .collect(),
        hists: (0..rng.gen_range(0..4))
            .map(|_| (name(rng), hist_snapshot(rng)))
            .collect(),
        spans: (0..rng.gen_range(0..6))
            .map(|_| xrd_obs::SpanEvent {
                name: name(rng),
                round: rng.next_u64(),
                start_us: rng.next_u64(),
                dur_us: rng.next_u64(),
            })
            .collect(),
    }
}
pub fn array32(rng: &mut StdRng) -> [u8; 32] {
    let mut a = [0u8; 32];
    rng.fill_bytes(&mut a);
    a
}

pub fn groups(rng: &mut StdRng) -> Vec<GroupElement> {
    (0..rng.gen_range(0..6)).map(|_| g(rng)).collect()
}

/// A random hop attestation with short key columns.
pub fn attestation(rng: &mut StdRng) -> HopAttestation {
    HopAttestation {
        round: rng.next_u64(),
        position: rng.gen_range(0..64u32) as usize,
        input_dhs: groups(rng).into(),
        output_dhs: groups(rng).into(),
        proof: dleq(rng),
    }
}

/// A random well-formed frame with wire tag `tag`, or `None` (drawing
/// nothing from `rng`) for a tag no arm builds.  One arm per frame row
/// of `docs/PROTOCOL.md` §2, in tag order.
pub fn arb_frame(rng: &mut StdRng, tag: u8) -> Option<Frame> {
    Some(match tag {
        0x01 => Frame::Ok,
        0x02 => Frame::Error {
            code: error_code::REJECTED_SUBMISSION,
            message: String::from_utf8_lossy(&bytes(rng, 40)).into_owned(),
        },
        0x03 => Frame::Ping,
        0x04 => Frame::Shutdown,
        0x05 => Frame::StatsRequest,
        0x06 => Frame::StatsReport {
            snapshot: Box::new(obs_snapshot(rng)),
        },
        0x07 => Frame::Pong,
        0x10 => Frame::OpenRound {
            round: rng.next_u64(),
        },
        0x11 => Frame::Submit {
            round: rng.next_u64(),
            submission: submission(rng),
        },
        0x12 => Frame::CloseSubmissions {
            round: rng.next_u64(),
        },
        0x13 => Frame::BatchDigest {
            round: rng.next_u64(),
            digest: array32(rng),
            column: array32(rng),
            count: rng.next_u64(),
        },
        0x14 => Frame::GetBatch {
            round: rng.next_u64(),
        },
        0x15 => Frame::SubmissionBatch {
            round: rng.next_u64(),
            submissions: (0..rng.gen_range(0..5)).map(|_| submission(rng)).collect(),
        },
        0x16 => Frame::MixWindow {
            round: rng.next_u64(),
            removed: (0..rng.gen_range(0..8)).map(|_| rng.next_u64()).collect(),
        },
        0x17 => Frame::WindowColumn {
            round: rng.next_u64(),
            column: groups(rng).into(),
        },
        0x22 => Frame::HopFailure {
            round: rng.next_u64(),
            position: rng.gen_range(0..64u32),
            failed: (0..rng.gen_range(0..8)).map(|_| rng.next_u64()).collect(),
        },
        0x24 => Frame::VerifyResult {
            verdicts: (0..rng.gen_range(0..5))
                .map(|_| rng.gen_bool(0.5))
                .collect(),
        },
        0x25 => Frame::MixBatchStart {
            round: rng.next_u64(),
            total: rng.gen_range(0..=MAX_BATCH as u32),
        },
        0x26 => Frame::MixBatchChunk {
            entries: mix_entries(rng),
        },
        0x27 => Frame::MixBatchEnd {
            digest: array32(rng),
        },
        0x2B => Frame::VerifyHopKeys {
            check: CrossCheck {
                round: rng.next_u64(),
                proofs: (0..rng.gen_range(0..4)).map(|_| dleq(rng)).collect(),
                columns: (0..rng.gen_range(0..5))
                    .map(|_| rng.gen_bool(0.5).then(|| groups(rng).into()))
                    .collect(),
            },
        },
        0x2E => Frame::HopProof {
            round: rng.next_u64(),
            position: rng.gen_range(0..64u32),
            proof: dleq(rng),
        },
        0x30 => Frame::RevealInnerKey {
            round: rng.next_u64(),
        },
        0x31 => Frame::InnerKeyReveal {
            position: rng.gen_range(0..64u32),
            isk: scalar(rng),
        },
        0x32 => Frame::PrepareRotation {
            inner_epoch: rng.next_u64(),
        },
        0x33 => Frame::RotationShare {
            inner_epoch: rng.next_u64(),
            share: RotationShare {
                position: rng.gen_range(0..64usize),
                ipk: g(rng),
                pok: schnorr(rng),
            },
        },
        0x34 => Frame::ActivateRotation {
            keys: chain_keys(rng),
        },
        0x40 => Frame::Accuse {
            round: rng.next_u64(),
            input_index: rng.next_u64(),
        },
        0x41 => Frame::Accusation {
            accusation: accusation(rng),
        },
        0x42 => Frame::RevealSlot {
            round: rng.next_u64(),
            output_index: rng.next_u64(),
        },
        0x43 => Frame::SlotReveal {
            reveal: if rng.gen_bool(0.3) {
                None
            } else {
                Some(Box::new(blame_reveal(rng)))
            },
        },
        0x44 => Frame::DisputeOpen {
            attestation: attestation(rng),
        },
        0x45 => Frame::DisputeEvidence {
            round: rng.next_u64(),
            position: rng.gen_range(0..64u32),
            accused: rng.gen_range(0..64u32),
            upheld: rng.gen_bool(0.5),
            sig: schnorr(rng),
        },
        0x46 => Frame::DisputeVerdict {
            round: rng.next_u64(),
            accused: rng.gen_range(0..64u32),
            claim: rng.gen_range(0..3u8),
            upheld: rng.gen_bool(0.5),
            votes: rng.gen_range(0..64u32),
        },
        0x50 => Frame::Deliver {
            round: rng.next_u64(),
            batch: rng.next_u64(),
            messages: (0..rng.gen_range(0..4))
                .map(|_| mailbox_message(rng))
                .collect(),
        },
        0x53 => Frame::FetchPage {
            mailbox: array32(rng),
            cursor: rng.next_u64(),
            max: rng.gen_range(1..512u32),
        },
        0x54 => Frame::MailboxPage {
            sealed: (0..rng.gen_range(0..4))
                .map(|_| (rng.next_u64(), mailbox_message(rng).sealed))
                .collect(),
            next_cursor: rng.next_u64(),
            remaining: rng.gen_range(0..1000u64),
        },
        0x55 => Frame::FetchAck {
            mailbox: array32(rng),
            upto: rng.next_u64(),
        },
        _ => return None,
    })
}

/// The live (non-reserved) rows' tags of [`Frame::TAGS`].
pub fn live_tags() -> Vec<u8> {
    let live = Frame::TAGS.iter().filter(|(_, name)| !name.is_empty());
    live.map(|&(tag, _)| tag).collect()
}

/// A random well-formed frame of the `variant`-th live row, wrapping.
pub fn arb_variant(rng: &mut StdRng, variant: usize) -> Frame {
    let live = live_tags();
    let tag = live[variant % live.len()];
    arb_frame(rng, tag).unwrap_or_else(|| panic!("no generator arm for tag {tag:#04x}"))
}
