//! The XRD wire protocol: length-prefixed binary frames.
//!
//! Every message exchanged between clients, mix-server daemons, mailbox
//! daemons and the round coordinator is one [`Frame`], encoded as
//!
//! ```text
//! [ u32 length (LE) | u8 tag | payload... ]
//! ```
//!
//! where `length` covers the tag byte plus the payload.  All integers
//! are little-endian; group elements and scalars use their canonical
//! 32-byte encodings (non-canonical encodings are rejected on parse);
//! proofs use the fixed-size encodings from `xrd-crypto`; byte strings
//! and sequences carry a `u32` length prefix checked against hard caps
//! so a malicious peer cannot force huge allocations.
//!
//! The codec is hand-rolled over byte slices — no serde, no external
//! dependencies — and every frame type round-trips exactly (see the
//! property tests in `tests/codec_properties.rs`).

use xrd_crypto::nizk::{DleqProof, SchnorrProof, DLEQ_PROOF_LEN, SCHNORR_PROOF_LEN};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;
use xrd_mixnet::blame::{Accusation, BlameReveal};
use xrd_mixnet::chain_keys::{ChainPublicKeys, RotationShare, ServerKeyProofs};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::{MailboxMessage, MixEntry, MAILBOX_MSG_LEN};

/// Hard cap on one frame's encoded size (tag + payload).  Sized so a
/// [`MAX_BATCH`]-entry batch of paper-scale onions (k ≈ 32, ~1 KiB per
/// entry) still fits: encoders reject anything larger at runtime
/// ([`write_frame`]) rather than shipping a frame the receiver must
/// refuse.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Hard cap on entries in one batch (submissions, mix entries,
/// mailbox messages, sealed blobs).
pub const MAX_BATCH: usize = 1 << 15;

/// Hard cap on one variable-length byte string (an onion ciphertext is
/// a few hundred bytes even at paper-scale chain lengths).
pub const MAX_BYTES: usize = 1 << 16;

/// Hard cap on chain length in key bundles.
pub const MAX_CHAIN_LEN: usize = 256;

/// Hard cap on metrics of one kind (counters, gauges, histograms) and
/// on retained spans in a [`Frame::StatsReport`].  The in-repo
/// instrumentation registers a few dozen names and the global span ring
/// holds 1024 events; the cap only bounds hostile frames.
pub const MAX_METRICS: usize = 4096;

/// Why a frame failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the structure was complete.
    Truncated,
    /// A declared length exceeds its hard cap.
    Oversized {
        /// The declared length.
        declared: usize,
        /// The cap it exceeds.
        cap: usize,
    },
    /// Unknown frame tag byte.
    UnknownTag(u8),
    /// A 32-byte string was not a canonical ristretto encoding.
    InvalidGroupElement,
    /// A 32-byte string was not a canonical scalar encoding.
    InvalidScalar,
    /// A proof failed structural parsing.
    InvalidProof,
    /// A fixed-size field had the wrong length.
    BadLength,
    /// Bytes were left over after the frame's payload.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Oversized { declared, cap } => {
                write!(f, "declared length {declared} exceeds cap {cap}")
            }
            CodecError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            CodecError::InvalidGroupElement => write!(f, "invalid group element encoding"),
            CodecError::InvalidScalar => write!(f, "invalid scalar encoding"),
            CodecError::InvalidProof => write!(f, "invalid proof encoding"),
            CodecError::BadLength => write!(f, "fixed-size field has wrong length"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after frame payload"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Frame tags.  Stable protocol constants — append, never renumber.
// ---------------------------------------------------------------------

const TAG_OK: u8 = 0x01;
const TAG_ERROR: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_STATS_REQUEST: u8 = 0x05;
const TAG_STATS_REPORT: u8 = 0x06;
const TAG_PONG: u8 = 0x07;
const TAG_OPEN_ROUND: u8 = 0x10;
const TAG_SUBMIT: u8 = 0x11;
const TAG_CLOSE_SUBMISSIONS: u8 = 0x12;
const TAG_BATCH_DIGEST: u8 = 0x13;
const TAG_GET_BATCH: u8 = 0x14;
const TAG_SUBMISSION_BATCH: u8 = 0x15;
// 0x20 (MixBatch), 0x21 (HopOutput) and 0x23 (VerifyHop) carried the
// monolithic-frame hop and are retired (a whole batch is a one-chunk
// stream); the tags stay reserved so a stale peer gets a clean
// UnknownTag instead of a misparse.
const TAG_HOP_FAILURE: u8 = 0x22;
const TAG_VERIFY_RESULT: u8 = 0x24;
const TAG_MIX_BATCH_START: u8 = 0x25;
const TAG_MIX_BATCH_CHUNK: u8 = 0x26;
const TAG_MIX_BATCH_END: u8 = 0x27;
const TAG_HOP_OUTPUT_START: u8 = 0x28;
const TAG_HOP_OUTPUT_CHUNK: u8 = 0x29;
const TAG_HOP_OUTPUT_END: u8 = 0x2A;
const TAG_VERIFY_HOP_KEYS: u8 = 0x2B;
const TAG_MIX_FORWARD: u8 = 0x2C;
const TAG_HOP_FORWARDED: u8 = 0x2D;
const TAG_REVEAL_INNER_KEY: u8 = 0x30;
const TAG_INNER_KEY_REVEAL: u8 = 0x31;
const TAG_PREPARE_ROTATION: u8 = 0x32;
const TAG_ROTATION_SHARE: u8 = 0x33;
const TAG_ACTIVATE_ROTATION: u8 = 0x34;
const TAG_ACCUSE: u8 = 0x40;
const TAG_ACCUSATION: u8 = 0x41;
const TAG_REVEAL_SLOT: u8 = 0x42;
const TAG_SLOT_REVEAL: u8 = 0x43;
const TAG_DISPUTE_OPEN: u8 = 0x44;
const TAG_DISPUTE_EVIDENCE: u8 = 0x45;
const TAG_DISPUTE_VERDICT: u8 = 0x46;
const TAG_DELIVER: u8 = 0x50;
// 0x51 (Fetch) and 0x52 (MailboxContents) carried the old
// drain-everything fetch API and are retired; the tags stay reserved
// so a stale peer gets a clean UnknownTag instead of a misparse.
const TAG_FETCH_PAGE: u8 = 0x53;
const TAG_MAILBOX_PAGE: u8 = 0x54;
const TAG_FETCH_ACK: u8 = 0x55;

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// The frame could not be handled in the daemon's current state.
    pub const BAD_STATE: u16 = 1;
    /// A submission was rejected (bad proof of knowledge or size).
    pub const REJECTED_SUBMISSION: u16 = 2;
    /// The requested round is unknown to the daemon.
    pub const UNKNOWN_ROUND: u16 = 3;
    /// A rotation bundle failed verification.
    pub const BAD_ROTATION: u16 = 4;
    /// The daemon could not produce the requested blame material.
    pub const NO_BLAME_STATE: u16 = 5;
    /// The peer sent a frame this daemon does not serve.
    pub const UNSUPPORTED: u16 = 6;
    /// The client exceeded a submission quota or rate limit.
    pub const QUOTA_EXCEEDED: u16 = 7;
    /// The fetched/acked mailbox has never been delivered to on this
    /// shard (distinct from a known mailbox that is merely empty, which
    /// answers with an empty [`Frame::MailboxPage`](super::Frame::MailboxPage)).
    pub const UNKNOWN_MAILBOX: u16 = 8;
    /// The mailbox shard refused a delivery because it is at capacity.
    pub const MAILBOX_FULL: u16 = 9;
    /// The mailbox shard's persistent store failed an operation.
    pub const STORAGE: u16 = 10;
}

/// Claim codes carried by [`Frame::DisputeVerdict`]: what the accused
/// is alleged to have done.
pub mod dispute_claim {
    /// The accused published a hop attestation that does not verify.
    pub const BAD_PROOF: u8 = 0;
    /// The accused, acting as a verifier, rejected a valid attestation.
    pub const FALSE_VERDICT: u8 = 1;
    /// The accused's input-agreement digest dissented from the
    /// majority (equivocation, or a lossy submission link — digest
    /// evidence alone never convicts; see `docs/FAULTS.md`).
    pub const EQUIVOCATION: u8 = 2;
}

/// One message of the XRD wire protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Generic success acknowledgement.
    Ok,
    /// Generic failure with a machine code and human-readable detail.
    Error {
        /// One of [`error_code`]'s constants.
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// Liveness probe (answered with [`Frame::Pong`]): the cheapest
    /// possible health check, served by the reactor before any service
    /// logic so a wedged handler still distinguishes "process up" from
    /// "process gone".
    Ping,
    /// Reply to [`Frame::Ping`].
    Pong,
    /// Ask the daemon to exit after this connection.
    Shutdown,
    /// Scrape the daemon's metrics (answered with
    /// [`Frame::StatsReport`] by the reactor itself, so every daemon
    /// kind serves it without touching its service logic).
    StatsRequest,
    /// A point-in-time copy of the daemon's process-wide metric
    /// registry (boxed: it is bulky and rides the admin path only).
    StatsReport {
        /// Counters, gauges, histograms and the span ring.
        snapshot: Box<xrd_obs::Snapshot>,
    },

    /// Open the submission window for a round (coordinator → mix).
    OpenRound {
        /// Round number.
        round: u64,
    },
    /// One user submission for an open round (client → mix).
    Submit {
        /// Round the submission is sealed for.
        round: u64,
        /// The AHS submission.
        submission: Submission,
    },
    /// Close the window; the daemon fixes its canonical batch
    /// (coordinator → mix; answered with [`Frame::BatchDigest`]).
    CloseSubmissions {
        /// Round number.
        round: u64,
    },
    /// The daemon's input-agreement digest over its canonical batch.
    BatchDigest {
        /// Round number.
        round: u64,
        /// `input_digest` over the batch entries.
        digest: [u8; 32],
        /// Batch size.
        count: u64,
    },
    /// Request the canonical batch (coordinator → mix).
    GetBatch {
        /// Round number.
        round: u64,
    },
    /// The canonical submission batch, in agreed order.
    SubmissionBatch {
        /// Round number.
        round: u64,
        /// Submissions in canonical order.
        submissions: Vec<Submission>,
    },

    /// A hop halted on authentication failures (blame follows).
    HopFailure {
        /// Round number.
        round: u64,
        /// The halting server's position.
        position: u32,
        /// Failing indices into the hop's input batch.
        failed: Vec<u64>,
    },
    /// The verdict of a [`Frame::VerifyHopKeys`] request.
    VerifyResult {
        /// Whether the attestation verified.
        ok: bool,
    },

    /// Open a hop: the batch for `round` will arrive as
    /// [`Frame::MixBatchChunk`]s totalling `total` entries, closed by
    /// [`Frame::MixBatchEnd`] (coordinator → mix).  The daemon starts
    /// hop crypto on each chunk as it lands, while later chunks are
    /// still in flight; the response is a [`Frame::HopOutputStart`]
    /// stream (or [`Frame::HopFailure`]), emitted only after the End.
    MixBatchStart {
        /// Round number.
        round: u64,
        /// Total entries the stream will carry (≤ [`MAX_BATCH`]).
        total: u32,
    },
    /// One chunk of a streamed batch, in stream order.  Payload-
    /// compatible with [`Frame::HopOutputChunk`] (same bytes, different
    /// tag), so a relay can forward a received output chunk to the next
    /// hop by rewriting one byte.
    MixBatchChunk {
        /// The chunk's entries.
        entries: Vec<MixEntry>,
    },
    /// Close a streamed batch.  `digest` is the [`StreamDigest`] over
    /// every entry shipped, in stream order; a receiver whose own
    /// running digest disagrees rejects the whole stream.
    MixBatchEnd {
        /// Stream digest over all entries.
        digest: [u8; 32],
    },
    /// Start of a streamed hop response: `total` shuffled output
    /// entries follow as [`Frame::HopOutputChunk`]s, closed by
    /// [`Frame::HopOutputEnd`].
    HopOutputStart {
        /// Round number.
        round: u64,
        /// The prover's hop position.
        position: u32,
        /// Total entries the stream will carry.
        total: u32,
    },
    /// One chunk of a streamed hop output (see [`Frame::MixBatchChunk`]
    /// for the payload-compatibility guarantee).
    HopOutputChunk {
        /// The chunk's entries.
        entries: Vec<MixEntry>,
    },
    /// End of a streamed hop response: the stream digest over the
    /// output entries plus the hop's aggregate blinding attestation.
    HopOutputEnd {
        /// Stream digest over all output entries.
        digest: [u8; 32],
        /// Aggregate blinding attestation (§6.3 step 3).
        proof: DleqProof,
    },
    /// Ask a server to verify another server's hop attestation from
    /// its DH-key columns (coordinator → mix; answered with
    /// [`Frame::VerifyResult`]).  The §6.3 attestation binds products
    /// of the DH keys — ciphertexts never enter the statement — so the
    /// columns are all a verifier needs, at ~1/8 the wire cost of the
    /// full entries.  Sent at end of chain, once every hop has emitted.
    VerifyHopKeys {
        /// Round number.
        round: u64,
        /// The *prover's* position.
        position: u32,
        /// DH keys of the prover's inputs, in arrival order.
        input_dhs: Vec<GroupElement>,
        /// DH keys of the prover's outputs, in emission order.
        output_dhs: Vec<GroupElement>,
        /// The aggregate proof to check.
        proof: DleqProof,
    },
    /// Coordinator → every hop of a chain, before streaming the round's
    /// batch to hop 0: run this round in *forwarded* mode.  A hop with
    /// a configured successor streams its output chunks straight to
    /// that successor instead of replying with them, and reports only
    /// its keys-only attestation ([`Frame::HopForwarded`]) on the
    /// connection this frame arrived on; the last hop (no successor)
    /// reports its full output stream there instead.  Answered with
    /// [`Frame::Ok`]; the reports follow unsolicited once the hop
    /// completes.
    MixForward {
        /// Round number.
        round: u64,
    },
    /// A forwarding hop's keys-only attestation for a round it ran in
    /// forwarded mode: the same statement as [`Frame::VerifyHopKeys`]
    /// (§6.3 binds only the DH-key columns), pushed to the coordinator
    /// while the full entries travel daemon-to-daemon.
    HopForwarded {
        /// Round number.
        round: u64,
        /// The reporting hop's position.
        position: u32,
        /// DH keys of the hop's inputs, in arrival order.
        input_dhs: Vec<GroupElement>,
        /// DH keys of the hop's outputs, in emission order.
        output_dhs: Vec<GroupElement>,
        /// Aggregate blinding attestation (§6.3 step 3).
        proof: DleqProof,
    },

    /// Ask a server to reveal its per-round inner key (after the last
    /// hop verifies; answered with [`Frame::InnerKeyReveal`]).
    RevealInnerKey {
        /// Round number.
        round: u64,
    },
    /// A revealed inner key.
    InnerKeyReveal {
        /// The revealing server's position.
        position: u32,
        /// The inner secret `isk_i`.
        isk: Scalar,
    },
    /// Ask a server to generate fresh inner keys for a future round
    /// (answered with [`Frame::RotationShare`]).
    PrepareRotation {
        /// The inner-key epoch (round number) being prepared.
        inner_epoch: u64,
    },
    /// One server's inner-key rotation share.
    RotationShare {
        /// The epoch the share belongs to.
        inner_epoch: u64,
        /// The share: position, new `ipk`, knowledge proof.
        share: RotationShare,
    },
    /// Distribute the assembled rotated bundle and switch to it
    /// (answered with [`Frame::Ok`]).
    ActivateRotation {
        /// The verified bundle for the new epoch.
        keys: ChainPublicKeys,
    },

    /// Open the blame protocol for a slot that failed decryption
    /// (coordinator → accusing server; answered with
    /// [`Frame::Accusation`]).
    Accuse {
        /// Round number.
        round: u64,
        /// Failing index in the accuser's input order.
        input_index: u64,
    },
    /// The accuser's opening move (§6.4 step 4).
    Accusation {
        /// The accusation: entry, decryption key, proof.
        accusation: Accusation,
    },
    /// Ask an upstream server to reveal one traced slot (answered with
    /// [`Frame::SlotReveal`]).
    RevealSlot {
        /// Round number.
        round: u64,
        /// Index in the revealing server's *output* order.
        output_index: u64,
    },
    /// An upstream server's revelation for a traced slot; `None` if it
    /// cannot produce one (which convicts it).
    SlotReveal {
        /// The reveal, if the server produced one (boxed: it is by far
        /// the largest payload in the protocol).
        reveal: Option<Box<BlameReveal>>,
    },

    /// Open a dispute over one server's hop attestation (coordinator →
    /// every other server of the chain; answered with
    /// [`Frame::DisputeEvidence`]).  Carries the full disputed
    /// statement — the prover's input/output DH key columns and its
    /// aggregate DLEQ proof — so each witness re-checks it
    /// independently of its own round state.
    DisputeOpen {
        /// Round number.
        round: u64,
        /// The accused prover's position.
        accused: u32,
        /// DH keys of the accused's inputs, in arrival order.
        input_dhs: Vec<GroupElement>,
        /// DH keys of the accused's outputs, in emission order.
        output_dhs: Vec<GroupElement>,
        /// The disputed aggregate proof.
        proof: DleqProof,
    },
    /// One witness's signed verdict on a disputed attestation.
    DisputeEvidence {
        /// Round number.
        round: u64,
        /// The witness's position.
        position: u32,
        /// The accused prover's position (echoed from the open).
        accused: u32,
        /// `true` if the witness finds the attestation invalid (the
        /// accusation upheld).
        upheld: bool,
        /// Schnorr signature under the witness's mix key `mpk` over
        /// the dispute statement (see
        /// [`dispute_context`]) — transferable evidence
        /// another server can verify without trusting the collector.
        sig: SchnorrProof,
    },
    /// The dispute's outcome, gossiped to every server of the chain
    /// (answered with [`Frame::Ok`]).
    DisputeVerdict {
        /// Round number.
        round: u64,
        /// The convicted (or, for [`dispute_claim::EQUIVOCATION`],
        /// suspected) server's position.
        accused: u32,
        /// One of [`dispute_claim`]'s constants.
        claim: u8,
        /// Whether the accusation was upheld against `accused`.
        upheld: bool,
        /// How many witnesses' valid evidence upheld the accusation.
        votes: u32,
    },

    /// Deliver opened messages to a mailbox shard (answered with
    /// [`Frame::Ok`]).
    Deliver {
        /// Round number: the round these messages were mixed in, which
        /// recipients need to derive the unsealing nonce.
        round: u64,
        /// Sender-chosen batch id, unique per (round, sender, chunk).
        /// The shard remembers recent ids and answers a retried
        /// duplicate with [`Frame::Ok`] without re-storing, so a lost
        /// reply cannot double-deliver.
        batch: u64,
        /// The opened mailbox messages.
        messages: Vec<MailboxMessage>,
    },
    /// Read one page of a mailbox, non-destructively (client → mailbox;
    /// answered with [`Frame::MailboxPage`]).  Fetching never removes
    /// messages: the client retires what it has safely read with an
    /// explicit [`Frame::FetchAck`], giving at-least-once delivery
    /// across client crashes and lost replies.
    FetchPage {
        /// Mailbox id to read.
        mailbox: [u8; 32],
        /// Resume token: 0 for the oldest un-acked entry, else the
        /// `next_cursor` of the previous page.
        cursor: u64,
        /// Maximum entries the shard may return in this page.
        max: u32,
    },
    /// One page of a mailbox's un-acked entries, oldest first.
    MailboxPage {
        /// `(delivery_round, sealed)` per entry: each sealed payload
        /// must be opened against the round it was delivered in.
        sealed: Vec<(u64, Vec<u8>)>,
        /// Pass as `cursor` to continue, or as `upto` in a
        /// [`Frame::FetchAck`] to retire everything read so far.
        next_cursor: u64,
        /// Entries still pending past this page.
        remaining: u64,
    },
    /// Retire every entry below `upto` (client → mailbox; answered
    /// with [`Frame::Ok`]).  Idempotent: re-acking an already-acked
    /// prefix is a no-op success.
    FetchAck {
        /// Mailbox id to ack.
        mailbox: [u8; 32],
        /// Exclusive upper bound: the `next_cursor` of the last page
        /// the client has safely consumed.
        upto: u64,
    },
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(tag: u8) -> Writer {
        // Reserve the length prefix; filled in `finish`.
        Writer {
            buf: vec![0, 0, 0, 0, tag],
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= MAX_BYTES);
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    fn string(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn group(&mut self, p: &GroupElement) {
        self.raw(&p.encode());
    }

    fn scalar(&mut self, s: &Scalar) {
        self.raw(&s.to_bytes());
    }

    fn schnorr(&mut self, p: &SchnorrProof) {
        self.raw(&p.to_bytes());
    }

    fn dleq(&mut self, p: &DleqProof) {
        self.raw(&p.to_bytes());
    }

    fn seq_len(&mut self, n: usize) {
        debug_assert!(n <= MAX_BATCH);
        self.u32(n as u32);
    }

    fn mix_entry(&mut self, e: &MixEntry) {
        self.group(&e.dh);
        self.bytes(&e.ct);
    }

    fn mix_entries(&mut self, entries: &[MixEntry]) {
        self.seq_len(entries.len());
        // Each DH key pays one per-point encode here (~one invsqrt):
        // ristretto encoding has no batch fast path — see
        // `GroupElement::encode_all` for the bound.  Senders that hold
        // already-encoded wire bytes should forward those instead
        // (the streamed relay path does exactly that).
        for e in entries {
            self.raw(&e.dh.encode());
            self.bytes(&e.ct);
        }
    }

    fn groups(&mut self, points: &[GroupElement]) {
        self.seq_len(points.len());
        for enc in GroupElement::encode_all(points) {
            self.raw(&enc);
        }
    }

    fn submission(&mut self, s: &Submission) {
        self.group(&s.dh);
        self.schnorr(&s.pok);
        self.bytes(&s.ct);
    }

    fn mailbox_message(&mut self, m: &MailboxMessage) {
        self.raw(&m.mailbox);
        self.bytes(&m.sealed);
    }

    fn chain_keys(&mut self, k: &ChainPublicKeys) {
        debug_assert!(k.len() <= MAX_CHAIN_LEN);
        self.u64(k.epoch);
        self.u64(k.inner_epoch);
        self.u32(k.len() as u32);
        for p in &k.bpks {
            self.group(p);
        }
        for p in &k.mpks {
            self.group(p);
        }
        for p in &k.ipks {
            self.group(p);
        }
        for proofs in &k.proofs {
            self.schnorr(&proofs.bsk_pok);
            self.schnorr(&proofs.msk_pok);
            self.schnorr(&proofs.isk_pok);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn array32(&mut self) -> Result<[u8; 32], CodecError> {
        Ok(self.take(32)?.try_into().unwrap())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_BYTES {
            return Err(CodecError::Oversized {
                declared: len,
                cap: MAX_BYTES,
            });
        }
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadLength)
    }

    fn group(&mut self) -> Result<GroupElement, CodecError> {
        GroupElement::decode(&self.array32()?).ok_or(CodecError::InvalidGroupElement)
    }

    fn scalar(&mut self) -> Result<Scalar, CodecError> {
        Scalar::from_canonical_bytes(&self.array32()?).ok_or(CodecError::InvalidScalar)
    }

    fn schnorr(&mut self) -> Result<SchnorrProof, CodecError> {
        SchnorrProof::from_bytes(self.take(SCHNORR_PROOF_LEN)?).ok_or(CodecError::InvalidProof)
    }

    fn dleq(&mut self) -> Result<DleqProof, CodecError> {
        DleqProof::from_bytes(self.take(DLEQ_PROOF_LEN)?).ok_or(CodecError::InvalidProof)
    }

    fn metrics_len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_METRICS {
            return Err(CodecError::Oversized {
                declared: n,
                cap: MAX_METRICS,
            });
        }
        Ok(n)
    }

    fn seq_len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_BATCH {
            return Err(CodecError::Oversized {
                declared: n,
                cap: MAX_BATCH,
            });
        }
        Ok(n)
    }

    fn mix_entry(&mut self) -> Result<MixEntry, CodecError> {
        Ok(MixEntry {
            dh: self.group()?,
            ct: self.bytes()?,
        })
    }

    fn mix_entries(&mut self) -> Result<Vec<MixEntry>, CodecError> {
        let n = self.seq_len()?;
        (0..n).map(|_| self.mix_entry()).collect()
    }

    fn groups(&mut self) -> Result<Vec<GroupElement>, CodecError> {
        let n = self.seq_len()?;
        (0..n).map(|_| self.group()).collect()
    }

    fn submission(&mut self) -> Result<Submission, CodecError> {
        Ok(Submission {
            dh: self.group()?,
            pok: self.schnorr()?,
            ct: self.bytes()?,
        })
    }

    fn mailbox_message(&mut self) -> Result<MailboxMessage, CodecError> {
        let mailbox = self.array32()?;
        let sealed = self.bytes()?;
        if sealed.len() != MAILBOX_MSG_LEN - 32 {
            return Err(CodecError::BadLength);
        }
        Ok(MailboxMessage { mailbox, sealed })
    }

    fn chain_keys(&mut self) -> Result<ChainPublicKeys, CodecError> {
        let epoch = self.u64()?;
        let inner_epoch = self.u64()?;
        let k = self.u32()? as usize;
        if k == 0 || k > MAX_CHAIN_LEN {
            return Err(CodecError::Oversized {
                declared: k,
                cap: MAX_CHAIN_LEN,
            });
        }
        let bpks = (0..k + 1).map(|_| self.group()).collect::<Result<_, _>>()?;
        let mpks = (0..k).map(|_| self.group()).collect::<Result<_, _>>()?;
        let ipks = (0..k).map(|_| self.group()).collect::<Result<_, _>>()?;
        let proofs = (0..k)
            .map(|_| {
                Ok(ServerKeyProofs {
                    bsk_pok: self.schnorr()?,
                    msk_pok: self.schnorr()?,
                    isk_pok: self.schnorr()?,
                })
            })
            .collect::<Result<_, CodecError>>()?;
        Ok(ChainPublicKeys {
            epoch,
            inner_epoch,
            bpks,
            mpks,
            ipks,
            proofs,
        })
    }

    fn accusation(&mut self) -> Result<Accusation, CodecError> {
        Ok(Accusation {
            position: self.u32()? as usize,
            input_index: self.u64()? as usize,
            entry: self.mix_entry()?,
            dec_key: self.group()?,
            key_proof: self.dleq()?,
        })
    }

    fn blame_reveal(&mut self) -> Result<BlameReveal, CodecError> {
        Ok(BlameReveal {
            position: self.u32()? as usize,
            input_index: self.u64()? as usize,
            input: self.mix_entry()?,
            output_dh: self.group()?,
            blind_proof: self.dleq()?,
            dec_key: self.group()?,
            key_proof: self.dleq()?,
        })
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

fn write_snapshot(w: &mut Writer, s: &xrd_obs::Snapshot) {
    debug_assert!(
        s.counters.len() <= MAX_METRICS
            && s.gauges.len() <= MAX_METRICS
            && s.hists.len() <= MAX_METRICS
            && s.spans.len() <= MAX_METRICS
    );
    w.u64(s.uptime_us);
    w.u32(s.counters.len() as u32);
    for (name, v) in &s.counters {
        w.string(name);
        w.u64(*v);
    }
    w.u32(s.gauges.len() as u32);
    for (name, v) in &s.gauges {
        w.string(name);
        w.u64(*v as u64);
    }
    w.u32(s.hists.len() as u32);
    for (name, h) in &s.hists {
        w.string(name);
        w.u64(h.count);
        w.u64(h.sum);
        w.u64(h.min);
        w.u64(h.max);
        // Buckets ship sparse: most of the 252 log-scale buckets are
        // empty for any real latency distribution.
        let nonzero: Vec<(usize, u64)> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        w.u32(nonzero.len() as u32);
        for (i, n) in nonzero {
            w.u16(i as u16);
            w.u64(n);
        }
    }
    w.u32(s.spans.len() as u32);
    for span in &s.spans {
        w.string(&span.name);
        w.u64(span.round);
        w.u64(span.start_us);
        w.u64(span.dur_us);
    }
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<xrd_obs::Snapshot, CodecError> {
    let uptime_us = r.u64()?;
    let n = r.metrics_len()?;
    let counters = (0..n)
        .map(|_| Ok((r.string()?, r.u64()?)))
        .collect::<Result<_, CodecError>>()?;
    let n = r.metrics_len()?;
    let gauges = (0..n)
        .map(|_| Ok((r.string()?, r.u64()? as i64)))
        .collect::<Result<_, CodecError>>()?;
    let n = r.metrics_len()?;
    let hists = (0..n)
        .map(|_| {
            let name = r.string()?;
            let (count, sum, min, max) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
            let mut buckets = vec![0u64; xrd_obs::N_BUCKETS];
            let pairs = r.metrics_len()?;
            let mut last: Option<usize> = None;
            for _ in 0..pairs {
                let i = r.u16()? as usize;
                // Canonical sparse form: strictly increasing indices,
                // in range, no zero entries.
                if i >= xrd_obs::N_BUCKETS || last.is_some_and(|p| i <= p) {
                    return Err(CodecError::BadLength);
                }
                last = Some(i);
                let v = r.u64()?;
                if v == 0 {
                    return Err(CodecError::BadLength);
                }
                buckets[i] = v;
            }
            Ok((
                name,
                xrd_obs::HistSnapshot {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                },
            ))
        })
        .collect::<Result<_, CodecError>>()?;
    let n = r.metrics_len()?;
    let spans = (0..n)
        .map(|_| {
            Ok(xrd_obs::SpanEvent {
                name: r.string()?,
                round: r.u64()?,
                start_us: r.u64()?,
                dur_us: r.u64()?,
            })
        })
        .collect::<Result<_, CodecError>>()?;
    Ok(xrd_obs::Snapshot {
        uptime_us,
        counters,
        gauges,
        hists,
        spans,
    })
}

fn write_accusation(w: &mut Writer, a: &Accusation) {
    w.u32(a.position as u32);
    w.u64(a.input_index as u64);
    w.mix_entry(&a.entry);
    w.group(&a.dec_key);
    w.dleq(&a.key_proof);
}

fn write_blame_reveal(w: &mut Writer, r: &BlameReveal) {
    w.u32(r.position as u32);
    w.u64(r.input_index as u64);
    w.mix_entry(&r.input);
    w.group(&r.output_dh);
    w.dleq(&r.blind_proof);
    w.group(&r.dec_key);
    w.dleq(&r.key_proof);
}

impl Frame {
    /// Encode the full frame, including the 4-byte length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let w = match self {
            Frame::Ok => Writer::new(TAG_OK),
            Frame::Error { code, message } => {
                let mut w = Writer::new(TAG_ERROR);
                w.u16(*code);
                w.string(message);
                w
            }
            Frame::Ping => Writer::new(TAG_PING),
            Frame::Pong => Writer::new(TAG_PONG),
            Frame::Shutdown => Writer::new(TAG_SHUTDOWN),
            Frame::StatsRequest => Writer::new(TAG_STATS_REQUEST),
            Frame::StatsReport { snapshot } => {
                let mut w = Writer::new(TAG_STATS_REPORT);
                write_snapshot(&mut w, snapshot);
                w
            }
            Frame::OpenRound { round } => {
                let mut w = Writer::new(TAG_OPEN_ROUND);
                w.u64(*round);
                w
            }
            Frame::Submit { round, submission } => {
                let mut w = Writer::new(TAG_SUBMIT);
                w.u64(*round);
                w.submission(submission);
                w
            }
            Frame::CloseSubmissions { round } => {
                let mut w = Writer::new(TAG_CLOSE_SUBMISSIONS);
                w.u64(*round);
                w
            }
            Frame::BatchDigest {
                round,
                digest,
                count,
            } => {
                let mut w = Writer::new(TAG_BATCH_DIGEST);
                w.u64(*round);
                w.raw(digest);
                w.u64(*count);
                w
            }
            Frame::GetBatch { round } => {
                let mut w = Writer::new(TAG_GET_BATCH);
                w.u64(*round);
                w
            }
            Frame::SubmissionBatch { round, submissions } => {
                let mut w = Writer::new(TAG_SUBMISSION_BATCH);
                w.u64(*round);
                w.seq_len(submissions.len());
                for s in submissions {
                    w.raw(&s.dh.encode());
                    w.schnorr(&s.pok);
                    w.bytes(&s.ct);
                }
                w
            }
            Frame::HopFailure {
                round,
                position,
                failed,
            } => {
                let mut w = Writer::new(TAG_HOP_FAILURE);
                w.u64(*round);
                w.u32(*position);
                w.seq_len(failed.len());
                for i in failed {
                    w.u64(*i);
                }
                w
            }
            Frame::VerifyResult { ok } => {
                let mut w = Writer::new(TAG_VERIFY_RESULT);
                w.u8(*ok as u8);
                w
            }
            Frame::MixBatchStart { round, total } => {
                let mut w = Writer::new(TAG_MIX_BATCH_START);
                w.u64(*round);
                w.u32(*total);
                w
            }
            Frame::MixBatchChunk { entries } => {
                let mut w = Writer::new(TAG_MIX_BATCH_CHUNK);
                w.mix_entries(entries);
                w
            }
            Frame::MixBatchEnd { digest } => {
                let mut w = Writer::new(TAG_MIX_BATCH_END);
                w.raw(digest);
                w
            }
            Frame::HopOutputStart {
                round,
                position,
                total,
            } => {
                let mut w = Writer::new(TAG_HOP_OUTPUT_START);
                w.u64(*round);
                w.u32(*position);
                w.u32(*total);
                w
            }
            Frame::HopOutputChunk { entries } => {
                let mut w = Writer::new(TAG_HOP_OUTPUT_CHUNK);
                w.mix_entries(entries);
                w
            }
            Frame::HopOutputEnd { digest, proof } => {
                let mut w = Writer::new(TAG_HOP_OUTPUT_END);
                w.raw(digest);
                w.dleq(proof);
                w
            }
            Frame::VerifyHopKeys {
                round,
                position,
                input_dhs,
                output_dhs,
                proof,
            } => {
                let mut w = Writer::new(TAG_VERIFY_HOP_KEYS);
                w.u64(*round);
                w.u32(*position);
                w.groups(input_dhs);
                w.groups(output_dhs);
                w.dleq(proof);
                w
            }
            Frame::MixForward { round } => {
                let mut w = Writer::new(TAG_MIX_FORWARD);
                w.u64(*round);
                w
            }
            Frame::HopForwarded {
                round,
                position,
                input_dhs,
                output_dhs,
                proof,
            } => {
                let mut w = Writer::new(TAG_HOP_FORWARDED);
                w.u64(*round);
                w.u32(*position);
                w.groups(input_dhs);
                w.groups(output_dhs);
                w.dleq(proof);
                w
            }
            Frame::RevealInnerKey { round } => {
                let mut w = Writer::new(TAG_REVEAL_INNER_KEY);
                w.u64(*round);
                w
            }
            Frame::InnerKeyReveal { position, isk } => {
                let mut w = Writer::new(TAG_INNER_KEY_REVEAL);
                w.u32(*position);
                w.scalar(isk);
                w
            }
            Frame::PrepareRotation { inner_epoch } => {
                let mut w = Writer::new(TAG_PREPARE_ROTATION);
                w.u64(*inner_epoch);
                w
            }
            Frame::RotationShare { inner_epoch, share } => {
                let mut w = Writer::new(TAG_ROTATION_SHARE);
                w.u64(*inner_epoch);
                w.u32(share.position as u32);
                w.group(&share.ipk);
                w.schnorr(&share.pok);
                w
            }
            Frame::ActivateRotation { keys } => {
                let mut w = Writer::new(TAG_ACTIVATE_ROTATION);
                w.chain_keys(keys);
                w
            }
            Frame::Accuse { round, input_index } => {
                let mut w = Writer::new(TAG_ACCUSE);
                w.u64(*round);
                w.u64(*input_index);
                w
            }
            Frame::Accusation { accusation } => {
                let mut w = Writer::new(TAG_ACCUSATION);
                write_accusation(&mut w, accusation);
                w
            }
            Frame::RevealSlot {
                round,
                output_index,
            } => {
                let mut w = Writer::new(TAG_REVEAL_SLOT);
                w.u64(*round);
                w.u64(*output_index);
                w
            }
            Frame::SlotReveal { reveal } => {
                let mut w = Writer::new(TAG_SLOT_REVEAL);
                match reveal {
                    None => w.u8(0),
                    Some(r) => {
                        w.u8(1);
                        write_blame_reveal(&mut w, r);
                    }
                }
                w
            }
            Frame::DisputeOpen {
                round,
                accused,
                input_dhs,
                output_dhs,
                proof,
            } => {
                let mut w = Writer::new(TAG_DISPUTE_OPEN);
                w.u64(*round);
                w.u32(*accused);
                w.groups(input_dhs);
                w.groups(output_dhs);
                w.dleq(proof);
                w
            }
            Frame::DisputeEvidence {
                round,
                position,
                accused,
                upheld,
                sig,
            } => {
                let mut w = Writer::new(TAG_DISPUTE_EVIDENCE);
                w.u64(*round);
                w.u32(*position);
                w.u32(*accused);
                w.u8(*upheld as u8);
                w.schnorr(sig);
                w
            }
            Frame::DisputeVerdict {
                round,
                accused,
                claim,
                upheld,
                votes,
            } => {
                let mut w = Writer::new(TAG_DISPUTE_VERDICT);
                w.u64(*round);
                w.u32(*accused);
                w.u8(*claim);
                w.u8(*upheld as u8);
                w.u32(*votes);
                w
            }
            Frame::Deliver {
                round,
                batch,
                messages,
            } => {
                let mut w = Writer::new(TAG_DELIVER);
                w.u64(*round);
                w.u64(*batch);
                w.seq_len(messages.len());
                for m in messages {
                    w.mailbox_message(m);
                }
                w
            }
            Frame::FetchPage {
                mailbox,
                cursor,
                max,
            } => {
                let mut w = Writer::new(TAG_FETCH_PAGE);
                w.raw(mailbox);
                w.u64(*cursor);
                w.u32(*max);
                w
            }
            Frame::MailboxPage {
                sealed,
                next_cursor,
                remaining,
            } => {
                let mut w = Writer::new(TAG_MAILBOX_PAGE);
                w.u64(*next_cursor);
                w.u64(*remaining);
                w.seq_len(sealed.len());
                for (round, s) in sealed {
                    w.u64(*round);
                    w.bytes(s);
                }
                w
            }
            Frame::FetchAck { mailbox, upto } => {
                let mut w = Writer::new(TAG_FETCH_ACK);
                w.raw(mailbox);
                w.u64(*upto);
                w
            }
        };
        let out = w.finish();
        debug_assert!(
            out.len() - 4 <= MAX_FRAME_LEN,
            "frame exceeds MAX_FRAME_LEN"
        );
        out
    }

    /// Decode a frame from its body (everything after the length
    /// prefix: the tag byte plus the payload).
    pub fn decode(body: &[u8]) -> Result<Frame, CodecError> {
        if body.len() > MAX_FRAME_LEN {
            return Err(CodecError::Oversized {
                declared: body.len(),
                cap: MAX_FRAME_LEN,
            });
        }
        let mut r = Reader { buf: body };
        let tag = r.u8()?;
        let frame = match tag {
            TAG_OK => Frame::Ok,
            TAG_ERROR => Frame::Error {
                code: r.u16()?,
                message: r.string()?,
            },
            TAG_PING => Frame::Ping,
            TAG_PONG => Frame::Pong,
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_STATS_REQUEST => Frame::StatsRequest,
            TAG_STATS_REPORT => Frame::StatsReport {
                snapshot: Box::new(read_snapshot(&mut r)?),
            },
            TAG_OPEN_ROUND => Frame::OpenRound { round: r.u64()? },
            TAG_SUBMIT => Frame::Submit {
                round: r.u64()?,
                submission: r.submission()?,
            },
            TAG_CLOSE_SUBMISSIONS => Frame::CloseSubmissions { round: r.u64()? },
            TAG_BATCH_DIGEST => Frame::BatchDigest {
                round: r.u64()?,
                digest: r.array32()?,
                count: r.u64()?,
            },
            TAG_GET_BATCH => Frame::GetBatch { round: r.u64()? },
            TAG_SUBMISSION_BATCH => {
                let round = r.u64()?;
                let n = r.seq_len()?;
                let submissions = (0..n).map(|_| r.submission()).collect::<Result<_, _>>()?;
                Frame::SubmissionBatch { round, submissions }
            }
            TAG_HOP_FAILURE => {
                let round = r.u64()?;
                let position = r.u32()?;
                let n = r.seq_len()?;
                let failed = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
                Frame::HopFailure {
                    round,
                    position,
                    failed,
                }
            }
            TAG_VERIFY_RESULT => Frame::VerifyResult {
                ok: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::BadLength),
                },
            },
            TAG_MIX_BATCH_START => Frame::MixBatchStart {
                round: r.u64()?,
                total: r.u32()?,
            },
            TAG_MIX_BATCH_CHUNK => Frame::MixBatchChunk {
                entries: r.mix_entries()?,
            },
            TAG_MIX_BATCH_END => Frame::MixBatchEnd {
                digest: r.array32()?,
            },
            TAG_HOP_OUTPUT_START => Frame::HopOutputStart {
                round: r.u64()?,
                position: r.u32()?,
                total: r.u32()?,
            },
            TAG_HOP_OUTPUT_CHUNK => Frame::HopOutputChunk {
                entries: r.mix_entries()?,
            },
            TAG_HOP_OUTPUT_END => Frame::HopOutputEnd {
                digest: r.array32()?,
                proof: r.dleq()?,
            },
            TAG_VERIFY_HOP_KEYS => Frame::VerifyHopKeys {
                round: r.u64()?,
                position: r.u32()?,
                input_dhs: r.groups()?,
                output_dhs: r.groups()?,
                proof: r.dleq()?,
            },
            TAG_MIX_FORWARD => Frame::MixForward { round: r.u64()? },
            TAG_HOP_FORWARDED => Frame::HopForwarded {
                round: r.u64()?,
                position: r.u32()?,
                input_dhs: r.groups()?,
                output_dhs: r.groups()?,
                proof: r.dleq()?,
            },
            TAG_REVEAL_INNER_KEY => Frame::RevealInnerKey { round: r.u64()? },
            TAG_INNER_KEY_REVEAL => Frame::InnerKeyReveal {
                position: r.u32()?,
                isk: r.scalar()?,
            },
            TAG_PREPARE_ROTATION => Frame::PrepareRotation {
                inner_epoch: r.u64()?,
            },
            TAG_ROTATION_SHARE => Frame::RotationShare {
                inner_epoch: r.u64()?,
                share: RotationShare {
                    position: r.u32()? as usize,
                    ipk: r.group()?,
                    pok: r.schnorr()?,
                },
            },
            TAG_ACTIVATE_ROTATION => Frame::ActivateRotation {
                keys: r.chain_keys()?,
            },
            TAG_ACCUSE => Frame::Accuse {
                round: r.u64()?,
                input_index: r.u64()?,
            },
            TAG_ACCUSATION => Frame::Accusation {
                accusation: r.accusation()?,
            },
            TAG_REVEAL_SLOT => Frame::RevealSlot {
                round: r.u64()?,
                output_index: r.u64()?,
            },
            TAG_SLOT_REVEAL => Frame::SlotReveal {
                reveal: match r.u8()? {
                    0 => None,
                    1 => Some(Box::new(r.blame_reveal()?)),
                    _ => return Err(CodecError::BadLength),
                },
            },
            TAG_DISPUTE_OPEN => Frame::DisputeOpen {
                round: r.u64()?,
                accused: r.u32()?,
                input_dhs: r.groups()?,
                output_dhs: r.groups()?,
                proof: r.dleq()?,
            },
            TAG_DISPUTE_EVIDENCE => Frame::DisputeEvidence {
                round: r.u64()?,
                position: r.u32()?,
                accused: r.u32()?,
                upheld: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::BadLength),
                },
                sig: r.schnorr()?,
            },
            TAG_DISPUTE_VERDICT => Frame::DisputeVerdict {
                round: r.u64()?,
                accused: r.u32()?,
                claim: r.u8()?,
                upheld: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::BadLength),
                },
                votes: r.u32()?,
            },
            TAG_DELIVER => {
                let round = r.u64()?;
                let batch = r.u64()?;
                let n = r.seq_len()?;
                let messages = (0..n)
                    .map(|_| r.mailbox_message())
                    .collect::<Result<_, _>>()?;
                Frame::Deliver {
                    round,
                    batch,
                    messages,
                }
            }
            TAG_FETCH_PAGE => Frame::FetchPage {
                mailbox: r.array32()?,
                cursor: r.u64()?,
                max: r.u32()?,
            },
            TAG_MAILBOX_PAGE => {
                let next_cursor = r.u64()?;
                let remaining = r.u64()?;
                let n = r.seq_len()?;
                let sealed = (0..n)
                    .map(|_| {
                        let round = r.u64()?;
                        let s = r.bytes()?;
                        if s.len() != MAILBOX_MSG_LEN - 32 {
                            return Err(CodecError::BadLength);
                        }
                        Ok((round, s))
                    })
                    .collect::<Result<_, _>>()?;
                Frame::MailboxPage {
                    sealed,
                    next_cursor,
                    remaining,
                }
            }
            TAG_FETCH_ACK => Frame::FetchAck {
                mailbox: r.array32()?,
                upto: r.u64()?,
            },
            other => return Err(CodecError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// This frame's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Ok => TAG_OK,
            Frame::Error { .. } => TAG_ERROR,
            Frame::Ping => TAG_PING,
            Frame::Pong => TAG_PONG,
            Frame::Shutdown => TAG_SHUTDOWN,
            Frame::StatsRequest => TAG_STATS_REQUEST,
            Frame::StatsReport { .. } => TAG_STATS_REPORT,
            Frame::OpenRound { .. } => TAG_OPEN_ROUND,
            Frame::Submit { .. } => TAG_SUBMIT,
            Frame::CloseSubmissions { .. } => TAG_CLOSE_SUBMISSIONS,
            Frame::BatchDigest { .. } => TAG_BATCH_DIGEST,
            Frame::GetBatch { .. } => TAG_GET_BATCH,
            Frame::SubmissionBatch { .. } => TAG_SUBMISSION_BATCH,
            Frame::HopFailure { .. } => TAG_HOP_FAILURE,
            Frame::VerifyResult { .. } => TAG_VERIFY_RESULT,
            Frame::MixBatchStart { .. } => TAG_MIX_BATCH_START,
            Frame::MixBatchChunk { .. } => TAG_MIX_BATCH_CHUNK,
            Frame::MixBatchEnd { .. } => TAG_MIX_BATCH_END,
            Frame::HopOutputStart { .. } => TAG_HOP_OUTPUT_START,
            Frame::HopOutputChunk { .. } => TAG_HOP_OUTPUT_CHUNK,
            Frame::HopOutputEnd { .. } => TAG_HOP_OUTPUT_END,
            Frame::VerifyHopKeys { .. } => TAG_VERIFY_HOP_KEYS,
            Frame::MixForward { .. } => TAG_MIX_FORWARD,
            Frame::HopForwarded { .. } => TAG_HOP_FORWARDED,
            Frame::RevealInnerKey { .. } => TAG_REVEAL_INNER_KEY,
            Frame::InnerKeyReveal { .. } => TAG_INNER_KEY_REVEAL,
            Frame::PrepareRotation { .. } => TAG_PREPARE_ROTATION,
            Frame::RotationShare { .. } => TAG_ROTATION_SHARE,
            Frame::ActivateRotation { .. } => TAG_ACTIVATE_ROTATION,
            Frame::Accuse { .. } => TAG_ACCUSE,
            Frame::Accusation { .. } => TAG_ACCUSATION,
            Frame::RevealSlot { .. } => TAG_REVEAL_SLOT,
            Frame::SlotReveal { .. } => TAG_SLOT_REVEAL,
            Frame::DisputeOpen { .. } => TAG_DISPUTE_OPEN,
            Frame::DisputeEvidence { .. } => TAG_DISPUTE_EVIDENCE,
            Frame::DisputeVerdict { .. } => TAG_DISPUTE_VERDICT,
            Frame::Deliver { .. } => TAG_DELIVER,
            Frame::FetchPage { .. } => TAG_FETCH_PAGE,
            Frame::MailboxPage { .. } => TAG_MAILBOX_PAGE,
            Frame::FetchAck { .. } => TAG_FETCH_ACK,
        }
    }

    /// Human-readable name for a wire tag (the per-tag frame counters
    /// in the metrics registry are keyed by these), or `None` for a tag
    /// this protocol version does not know.
    pub fn tag_name(tag: u8) -> Option<&'static str> {
        Some(match tag {
            TAG_OK => "Ok",
            TAG_ERROR => "Error",
            TAG_PING => "Ping",
            TAG_PONG => "Pong",
            TAG_SHUTDOWN => "Shutdown",
            TAG_STATS_REQUEST => "StatsRequest",
            TAG_STATS_REPORT => "StatsReport",
            TAG_OPEN_ROUND => "OpenRound",
            TAG_SUBMIT => "Submit",
            TAG_CLOSE_SUBMISSIONS => "CloseSubmissions",
            TAG_BATCH_DIGEST => "BatchDigest",
            TAG_GET_BATCH => "GetBatch",
            TAG_SUBMISSION_BATCH => "SubmissionBatch",
            TAG_HOP_FAILURE => "HopFailure",
            TAG_VERIFY_RESULT => "VerifyResult",
            TAG_MIX_BATCH_START => "MixBatchStart",
            TAG_MIX_BATCH_CHUNK => "MixBatchChunk",
            TAG_MIX_BATCH_END => "MixBatchEnd",
            TAG_HOP_OUTPUT_START => "HopOutputStart",
            TAG_HOP_OUTPUT_CHUNK => "HopOutputChunk",
            TAG_HOP_OUTPUT_END => "HopOutputEnd",
            TAG_VERIFY_HOP_KEYS => "VerifyHopKeys",
            TAG_MIX_FORWARD => "MixForward",
            TAG_HOP_FORWARDED => "HopForwarded",
            TAG_REVEAL_INNER_KEY => "RevealInnerKey",
            TAG_INNER_KEY_REVEAL => "InnerKeyReveal",
            TAG_PREPARE_ROTATION => "PrepareRotation",
            TAG_ROTATION_SHARE => "RotationShare",
            TAG_ACTIVATE_ROTATION => "ActivateRotation",
            TAG_ACCUSE => "Accuse",
            TAG_ACCUSATION => "Accusation",
            TAG_REVEAL_SLOT => "RevealSlot",
            TAG_SLOT_REVEAL => "SlotReveal",
            TAG_DISPUTE_OPEN => "DisputeOpen",
            TAG_DISPUTE_EVIDENCE => "DisputeEvidence",
            TAG_DISPUTE_VERDICT => "DisputeVerdict",
            TAG_DELIVER => "Deliver",
            TAG_FETCH_PAGE => "FetchPage",
            TAG_MAILBOX_PAGE => "MailboxPage",
            TAG_FETCH_ACK => "FetchAck",
            _ => return None,
        })
    }
}

/// Serialize one mix server's launch configuration — its secrets plus
/// the chain's active public bundle — for distribution to a standalone
/// daemon process (`xrd-netd mix --config <file>`).
pub fn encode_server_config(
    secrets: &xrd_mixnet::chain_keys::ServerSecrets,
    public: &ChainPublicKeys,
) -> Vec<u8> {
    let mut w = Writer::new(0);
    w.u32(secrets.position as u32);
    w.scalar(&secrets.bsk);
    w.scalar(&secrets.msk);
    w.scalar(&secrets.isk);
    w.chain_keys(public);
    // Strip the frame header (length + tag): this is a file format, not
    // a wire frame.
    w.finish()[5..].to_vec()
}

/// Parse a [`encode_server_config`] blob.
pub fn decode_server_config(
    bytes: &[u8],
) -> Result<(xrd_mixnet::chain_keys::ServerSecrets, ChainPublicKeys), CodecError> {
    let mut r = Reader { buf: bytes };
    let position = r.u32()? as usize;
    let secrets = xrd_mixnet::chain_keys::ServerSecrets {
        position,
        bsk: r.scalar()?,
        msk: r.scalar()?,
        isk: r.scalar()?,
    };
    let public = r.chain_keys()?;
    r.finish()?;
    if position >= public.len() {
        return Err(CodecError::BadLength);
    }
    Ok((secrets, public))
}

// ---------------------------------------------------------------------
// Streamed batches: digest, builder, assembler
// ---------------------------------------------------------------------

/// The running digest a streamed batch is closed with
/// ([`Frame::MixBatchEnd`] / [`Frame::HopOutputEnd`]): Blake2b-256 over
/// the canonical wire encoding of every entry, in stream order.
///
/// Chunking-invariant by construction — the absorbed byte stream is the
/// concatenation of per-entry encodings (`dh ‖ u32 ct-len ‖ ct`), which
/// is independent of how the entries were cut into chunks.  A sender
/// or relay that holds the encoded chunk frames absorbs their payload
/// bytes for free ([`StreamDigest::absorb_chunk_payload`]); a receiver
/// that only holds decoded entries re-derives the same bytes
/// ([`StreamDigest::absorb_entries`], one batched encoding pass).
///
/// This is a *transport* integrity check (truncated, duplicated or
/// re-ordered chunks fail fast, before any blame machinery engages);
/// Byzantine tampering is caught by the hop attestations and the AEAD
/// layers regardless.
pub struct StreamDigest {
    h: xrd_crypto::Blake2b,
}

impl Default for StreamDigest {
    fn default() -> StreamDigest {
        StreamDigest::new()
    }
}

impl StreamDigest {
    /// A fresh digest (domain-separated from every other hash in XRD).
    pub fn new() -> StreamDigest {
        let mut h = xrd_crypto::Blake2b::new(32);
        h.update(b"xrd/stream-batch");
        StreamDigest { h }
    }

    /// Absorb entries by re-deriving their canonical encodings (one
    /// per-point encode each; prefer [`BatchAssembler::absorb_raw`]
    /// wherever the already-encoded wire bytes are at hand).
    pub fn absorb_entries(&mut self, entries: &[MixEntry]) {
        for e in entries {
            self.h.update(&e.dh.encode());
            self.h.update(&(e.ct.len() as u32).to_le_bytes());
            self.h.update(&e.ct);
        }
    }

    /// Absorb the payload bytes of an already-encoded chunk frame (the
    /// bytes after the tag and entry count — see
    /// [`ChunkedBatch::CHUNK_PAYLOAD_OFFSET`]).  Byte-identical to
    /// [`StreamDigest::absorb_entries`] on the decoded entries, because
    /// the wire only ever carries canonical encodings.
    pub fn absorb_chunk_payload(&mut self, payload: &[u8]) {
        self.h.update(payload);
    }

    /// The 32-byte stream digest.
    pub fn finalize(self) -> [u8; 32] {
        self.h.finalize_32()
    }
}

/// The signing context for [`Frame::DisputeEvidence`]: a
/// domain-separated hash binding the witness's verdict to the exact
/// disputed statement — round, accused position, the verdict bit, and
/// the full attestation (key columns plus proof).  Both sides derive
/// it independently: the witness signs it with its mix secret `msk`,
/// and any server verifies the signature against the witness's `mpk`,
/// so evidence is transferable without trusting the party relaying it.
pub fn dispute_context(
    round: u64,
    accused: u32,
    upheld: bool,
    input_dhs: &[GroupElement],
    output_dhs: &[GroupElement],
    proof: &DleqProof,
) -> [u8; 32] {
    let mut h = xrd_crypto::Blake2b::new(32);
    h.update(b"xrd/dispute-evidence");
    h.update(&round.to_le_bytes());
    h.update(&accused.to_le_bytes());
    h.update(&[upheld as u8]);
    h.update(&(input_dhs.len() as u32).to_le_bytes());
    for enc in GroupElement::encode_all(input_dhs) {
        h.update(&enc);
    }
    h.update(&(output_dhs.len() as u32).to_le_bytes());
    for enc in GroupElement::encode_all(output_dhs) {
        h.update(&enc);
    }
    h.update(&proof.to_bytes());
    h.finalize_32()
}

/// Why a chunked batch stream failed to assemble.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The Start frame's round does not match the round the receiver
    /// is assembling for.
    WrongRound {
        /// Round the Start frame declared.
        got: u64,
        /// Round the receiver expected.
        want: u64,
    },
    /// The Start frame declared more entries than [`MAX_BATCH`].
    TooLarge {
        /// Declared entry total.
        declared: usize,
    },
    /// Chunks carried more entries than the Start frame declared.
    Overrun {
        /// Entries received so far (after the offending chunk).
        received: usize,
        /// The declared total.
        total: usize,
    },
    /// The End frame arrived before the declared total was received.
    Incomplete {
        /// Entries received.
        received: usize,
        /// The declared total.
        total: usize,
    },
    /// The End frame's digest does not match the running digest over
    /// the received entries.
    DigestMismatch,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::WrongRound { got, want } => {
                write!(f, "stream for round {got}, expected round {want}")
            }
            StreamError::TooLarge { declared } => {
                write!(f, "stream declares {declared} entries, cap {MAX_BATCH}")
            }
            StreamError::Overrun { received, total } => {
                write!(f, "stream overran: {received} entries of {total} declared")
            }
            StreamError::Incomplete { received, total } => {
                write!(f, "stream ended early: {received} entries of {total}")
            }
            StreamError::DigestMismatch => write!(f, "stream digest mismatch"),
        }
    }
}

impl std::error::Error for StreamError {}

/// A batch cut into encoded streaming frames: one
/// [`Frame::MixBatchStart`], the [`Frame::MixBatchChunk`]s, and the
/// closing [`Frame::MixBatchEnd`] carrying the stream digest — the
/// sender half of a streamed hop.
///
/// Building encodes each entry exactly once and derives the digest
/// from the already-encoded chunk payloads, so the digest costs the
/// sender no second encoding pass.
///
/// ```
/// use xrd_net::codec::{ChunkedBatch, BatchAssembler, Frame};
/// use xrd_mixnet::message::MixEntry;
/// use xrd_crypto::{GroupElement, Scalar};
///
/// let entries: Vec<MixEntry> = (1..=5u64)
///     .map(|i| MixEntry {
///         dh: GroupElement::base_mul(&Scalar::from_u64(i)),
///         ct: vec![i as u8; 8],
///     })
///     .collect();
///
/// // Sender: cut the batch into 2-entry chunks.
/// let stream = ChunkedBatch::build(7, &entries, 2);
/// assert_eq!(stream.frames().len(), 2 + entries.len().div_ceil(2));
///
/// // Receiver: reassemble — any chunking yields the same batch.
/// let mut assembler: Option<BatchAssembler> = None;
/// let mut rebuilt = None;
/// for bytes in stream.frames() {
///     match Frame::decode(&bytes[4..]).unwrap() {
///         Frame::MixBatchStart { round, total } => {
///             assembler = Some(BatchAssembler::begin(round, total).unwrap());
///         }
///         Frame::MixBatchChunk { entries } => {
///             assembler.as_mut().unwrap().absorb(entries).unwrap();
///         }
///         Frame::MixBatchEnd { digest } => {
///             rebuilt = Some(assembler.take().unwrap().finish(digest).unwrap());
///         }
///         other => panic!("unexpected {other:?}"),
///     }
/// }
/// assert_eq!(rebuilt.unwrap(), entries);
/// ```
pub struct ChunkedBatch {
    frames: Vec<Vec<u8>>,
    digest: [u8; 32],
    total: usize,
}

impl ChunkedBatch {
    /// Offset of the digest-relevant payload inside an encoded chunk
    /// frame: 4-byte length prefix + 1-byte tag + 4-byte entry count.
    pub const CHUNK_PAYLOAD_OFFSET: usize = 9;

    /// Cut `entries` into `chunk_size`-entry streaming frames for
    /// `round`.  `chunk_size` is clamped to `1..=MAX_BATCH`; the batch
    /// itself must fit [`MAX_BATCH`].
    pub fn build(round: u64, entries: &[MixEntry], chunk_size: usize) -> ChunkedBatch {
        assert!(entries.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
        let (chunks, digest) = encode_chunk_frames(TAG_MIX_BATCH_CHUNK, entries, chunk_size);
        let mut frames = Vec::with_capacity(2 + chunks.len());
        frames.push(
            Frame::MixBatchStart {
                round,
                total: entries.len() as u32,
            }
            .encode(),
        );
        frames.extend(chunks);
        frames.push(Frame::MixBatchEnd { digest }.encode());
        ChunkedBatch {
            frames,
            digest,
            total: entries.len(),
        }
    }

    /// The encoded frames (length prefix included), in send order.
    pub fn frames(&self) -> &[Vec<u8>] {
        &self.frames
    }

    /// The stream digest the End frame carries.
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// Total entries across all chunks.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// The receiver half of a streamed batch: created from a Start frame,
/// fed each chunk's entries in arrival order, closed against the End
/// frame's digest.  Enforces the declared total and the running
/// digest, so any truncated, duplicated, over-long or re-ordered
/// stream errors out cleanly instead of assembling a wrong batch.
pub struct BatchAssembler {
    round: u64,
    total: usize,
    entries: Vec<MixEntry>,
    digest: StreamDigest,
}

impl BatchAssembler {
    /// Begin assembling a stream declared as `total` entries for
    /// `round` (from [`Frame::MixBatchStart`] /
    /// [`Frame::HopOutputStart`] fields).
    pub fn begin(round: u64, total: u32) -> Result<BatchAssembler, StreamError> {
        let total = total as usize;
        if total > MAX_BATCH {
            return Err(StreamError::TooLarge { declared: total });
        }
        Ok(BatchAssembler {
            round,
            total,
            entries: Vec::with_capacity(total),
            digest: StreamDigest::new(),
        })
    }

    /// [`BatchAssembler::begin`], additionally checking the stream's
    /// declared round against the round the receiver is running.
    pub fn begin_for_round(
        round: u64,
        total: u32,
        want: u64,
    ) -> Result<BatchAssembler, StreamError> {
        if round != want {
            return Err(StreamError::WrongRound { got: round, want });
        }
        BatchAssembler::begin(round, total)
    }

    /// The round this stream belongs to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The declared entry total.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Entries received so far.
    pub fn received(&self) -> usize {
        self.entries.len()
    }

    /// Absorb one chunk.  Returns the chunk's start index within the
    /// assembled batch (so callers can hand the exact slice to a
    /// worker while the stream continues).
    pub fn absorb(&mut self, entries: Vec<MixEntry>) -> Result<usize, StreamError> {
        self.digest.absorb_entries(&entries);
        self.absorb_predigested(entries)
    }

    /// [`BatchAssembler::absorb`] for callers that already hold the
    /// chunk's raw payload bytes (a relay): absorbs those into the
    /// digest instead of re-encoding the entries.  The caller is
    /// responsible for `payload` actually being the encoding of
    /// `entries` (true by construction when both came off one frame).
    pub fn absorb_raw(
        &mut self,
        entries: Vec<MixEntry>,
        payload: &[u8],
    ) -> Result<usize, StreamError> {
        self.digest.absorb_chunk_payload(payload);
        self.absorb_predigested(entries)
    }

    fn absorb_predigested(&mut self, entries: Vec<MixEntry>) -> Result<usize, StreamError> {
        let start = self.entries.len();
        if start + entries.len() > self.total {
            return Err(StreamError::Overrun {
                received: start + entries.len(),
                total: self.total,
            });
        }
        self.entries.extend(entries);
        Ok(start)
    }

    /// The entries assembled so far (in stream order).
    pub fn assembled(&self) -> &[MixEntry] {
        &self.entries
    }

    /// Close the stream against the End frame's digest, yielding the
    /// full batch.
    pub fn finish(self, digest: [u8; 32]) -> Result<Vec<MixEntry>, StreamError> {
        if self.entries.len() != self.total {
            return Err(StreamError::Incomplete {
                received: self.entries.len(),
                total: self.total,
            });
        }
        if self.digest.finalize() != digest {
            return Err(StreamError::DigestMismatch);
        }
        Ok(self.entries)
    }
}

/// Encode `entries` as a run of `tag`-framed chunk frames, returning
/// the encoded frames and the [`StreamDigest`] over their payloads —
/// the one loop both chunk-stream producers
/// ([`ChunkedBatch::build`], [`encode_hop_output_stream`]) share, so
/// the payload layout and digest discipline cannot diverge.
fn encode_chunk_frames(
    tag: u8,
    entries: &[MixEntry],
    chunk_size: usize,
) -> (Vec<Vec<u8>>, [u8; 32]) {
    let chunk_size = chunk_size.clamp(1, MAX_BATCH);
    let mut frames = Vec::with_capacity(entries.len().div_ceil(chunk_size));
    let mut digest = StreamDigest::new();
    for chunk in entries.chunks(chunk_size) {
        let mut w = Writer::new(tag);
        w.mix_entries(chunk);
        let encoded = w.finish();
        digest.absorb_chunk_payload(&encoded[ChunkedBatch::CHUNK_PAYLOAD_OFFSET..]);
        frames.push(encoded);
    }
    (frames, digest.finalize())
}

/// Default entries per streamed chunk.  Small enough that the first
/// chunk of a hop's output reaches the next hop (and its crypto
/// starts) long before the last chunk is even encoded; large enough
/// that per-chunk overheads (frame header, digest update, one job
/// dispatch) stay well under 1% of the chunk's kernel cost.
pub const STREAM_CHUNK: usize = 64;

/// Encode a streamed hop response — [`Frame::HopOutputStart`], the
/// [`Frame::HopOutputChunk`]s, and the closing [`Frame::HopOutputEnd`]
/// carrying the stream digest plus the hop's aggregate attestation —
/// as one contiguous byte string (what a deferred daemon job hands
/// back to the reactor).  Each entry is encoded exactly once; the
/// digest is derived from the encoded payloads.
pub fn encode_hop_output_stream(
    round: u64,
    position: u32,
    outputs: &[MixEntry],
    proof: &DleqProof,
    chunk_size: usize,
) -> Vec<u8> {
    let (chunks, digest) = encode_chunk_frames(TAG_HOP_OUTPUT_CHUNK, outputs, chunk_size);
    let mut wire = Frame::HopOutputStart {
        round,
        position,
        total: outputs.len() as u32,
    }
    .encode();
    for chunk in &chunks {
        wire.extend_from_slice(chunk);
    }
    wire.extend_from_slice(
        &Frame::HopOutputEnd {
            digest,
            proof: *proof,
        }
        .encode(),
    );
    wire
}

/// Rewrite a received [`Frame::HopOutputChunk`] *body* (tag byte plus
/// payload, as handed back by the raw receive path) into a complete
/// [`Frame::MixBatchChunk`] wire frame for the next hop — the relay's
/// forward path.  The two chunk frames are payload-compatible by
/// construction, so forwarding costs one byte rewrite and no
/// re-encoding.  Returns `None` if `body` is not a hop-output chunk.
pub fn reframe_output_chunk(body: &[u8]) -> Option<Vec<u8>> {
    if body.first() != Some(&TAG_HOP_OUTPUT_CHUNK) {
        return None;
    }
    let mut wire = Vec::with_capacity(4 + body.len());
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.push(TAG_MIX_BATCH_CHUNK);
    wire.extend_from_slice(&body[1..]);
    Some(wire)
}

// ---------------------------------------------------------------------
// Incremental decoding
// ---------------------------------------------------------------------

/// An incremental, non-blocking frame decoder: feed it bytes as they
/// arrive off a socket (in chunks of any size, down to one byte at a
/// time) and pull complete [`Frame`]s out as they become available.
///
/// This is the event-loop counterpart of [`read_frame`]: where
/// `read_frame` blocks until a whole frame is buffered, `FrameDecoder`
/// never blocks and never copies more than once — partial frames stay
/// buffered until completed by a later `feed`.
///
/// Error semantics mirror the blocking reader's:
///
/// * a malformed frame *body* (bad tag, bad encoding, trailing bytes)
///   is consumed and reported per frame — the stream itself is still
///   framed, so decoding could in principle continue;
/// * a bad *length prefix* (zero or over [`MAX_FRAME_LEN`]) means the
///   stream is desynchronized; the decoder latches the error and
///   reports it from every subsequent [`FrameDecoder::try_frame`].
///
/// ```
/// use xrd_net::codec::{Frame, FrameDecoder};
///
/// let wire: Vec<u8> = [Frame::Ping, Frame::OpenRound { round: 4 }]
///     .iter()
///     .flat_map(|f| f.encode())
///     .collect();
///
/// let mut decoder = FrameDecoder::new();
/// decoder.feed(&wire[..3]); // a partial length prefix…
/// assert!(decoder.try_frame().is_none()); // …is not a frame yet
/// decoder.feed(&wire[3..]);
/// assert_eq!(decoder.try_frame().unwrap().unwrap(), Frame::Ping);
/// assert_eq!(
///     decoder.try_frame().unwrap().unwrap(),
///     Frame::OpenRound { round: 4 }
/// );
/// assert!(decoder.try_frame().is_none());
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of un-consumed bytes in `buf` (consumed prefix is
    /// compacted away lazily, so pulling frames is O(frame), not
    /// O(buffer)).
    pos: usize,
    /// Latched framing-level failure (bad length prefix).
    desynced: Option<CodecError>,
}

impl FrameDecoder {
    /// A decoder with nothing buffered.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer `bytes` (a chunk read off the wire) for decoding.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 64 * 1024 {
            // Keep the consumed prefix from growing without bound on
            // long-lived connections.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to pull one complete frame out of the buffer.
    ///
    /// * `None` — not enough bytes yet; feed more.
    /// * `Some(Ok(frame))` — one frame, consumed from the buffer.
    /// * `Some(Err(_))` — a malformed frame (consumed) or a
    ///   desynchronized stream (latched; see type-level docs).
    pub fn try_frame(&mut self) -> Option<Result<Frame, CodecError>> {
        if let Some(e) = &self.desynced {
            return Some(Err(e.clone()));
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            let e = CodecError::Oversized {
                declared: len,
                cap: MAX_FRAME_LEN,
            };
            self.desynced = Some(e.clone());
            return Some(Err(e));
        }
        if avail.len() < 4 + len {
            return None;
        }
        let frame = Frame::decode(&avail[4..4 + len]);
        self.pos += 4 + len;
        Some(frame)
    }
}

/// Read one frame from a stream (blocking).  Returns `Ok(None)` on a
/// clean EOF at a frame boundary.
pub fn read_frame<R: std::io::Read>(
    stream: &mut R,
) -> std::io::Result<Option<Result<Frame, CodecError>>> {
    Ok(read_frame_with_len(stream)?.map(|r| r.map(|(frame, _)| frame)))
}

/// [`read_frame`], additionally reporting the frame's total size on the
/// wire (length prefix included) for byte accounting.
pub fn read_frame_with_len<R: std::io::Read>(
    stream: &mut R,
) -> std::io::Result<Option<Result<(Frame, u64), CodecError>>> {
    Ok(
        read_frame_with_body(stream)?
            .map(|r| r.map(|(frame, body)| (frame, 4 + body.len() as u64))),
    )
}

/// [`read_frame`], additionally returning the frame's *body* bytes
/// (tag plus payload, without the length prefix) — for relays that
/// forward a frame's payload verbatim (see [`reframe_output_chunk`])
/// or digest it without re-encoding.
#[allow(clippy::type_complexity)] // mirrors read_frame_with_len's shape
pub fn read_frame_with_body<R: std::io::Read>(
    stream: &mut R,
) -> std::io::Result<Option<Result<(Frame, Vec<u8>), CodecError>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match stream.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None), // clean EOF
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Ok(Some(Err(CodecError::Oversized {
            declared: len,
            cap: MAX_FRAME_LEN,
        })));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(Frame::decode(&body).map(|frame| (frame, body))))
}

/// Write one frame to a stream (blocking).  Refuses (with
/// `InvalidData`) to ship a frame the receiver would reject as
/// oversized — the runtime counterpart of the encoder's debug
/// assertions.
pub fn write_frame<W: std::io::Write>(stream: &mut W, frame: &Frame) -> std::io::Result<()> {
    let encoded = frame.encode();
    if encoded.len() - 4 > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", encoded.len() - 4),
        ));
    }
    stream.write_all(&encoded)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_frames_roundtrip() {
        for frame in [Frame::Ok, Frame::Ping, Frame::Shutdown] {
            let enc = frame.encode();
            let body = &enc[4..];
            assert_eq!(Frame::decode(body).unwrap(), frame);
        }
    }

    #[test]
    fn length_prefix_matches_body() {
        let frame = Frame::OpenRound { round: 99 };
        let enc = frame.encode();
        let len = u32::from_le_bytes(enc[..4].try_into().unwrap()) as usize;
        assert_eq!(len, enc.len() - 4);
    }

    #[test]
    fn error_frame_carries_code_and_message() {
        let frame = Frame::Error {
            code: error_code::REJECTED_SUBMISSION,
            message: "bad pok".into(),
        };
        let enc = frame.encode();
        assert_eq!(Frame::decode(&enc[4..]).unwrap(), frame);
    }

    #[test]
    fn stream_roundtrip() {
        let frames = vec![
            Frame::OpenRound { round: 3 },
            Frame::Ok,
            Frame::FetchPage {
                mailbox: [9; 32],
                cursor: 17,
                max: 64,
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for f in &frames {
            let got = read_frame(&mut cursor).unwrap().unwrap().unwrap();
            assert_eq!(&got, f);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut zero = std::io::Cursor::new(vec![0u8, 0, 0, 0]);
        assert!(matches!(
            read_frame(&mut zero).unwrap().unwrap(),
            Err(CodecError::Oversized { .. })
        ));
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes().to_vec();
        let mut huge = std::io::Cursor::new(huge);
        assert!(matches!(
            read_frame(&mut huge).unwrap().unwrap(),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn incremental_decoder_yields_frames_byte_at_a_time() {
        let frames = vec![
            Frame::OpenRound { round: 7 },
            Frame::Error {
                code: error_code::BAD_STATE,
                message: "nope".into(),
            },
            Frame::FetchAck {
                mailbox: [4; 32],
                upto: 9,
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        // Dribble the stream one byte at a time: each frame must appear
        // exactly when its last byte lands, never earlier.
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            decoder.feed(&[b]);
            while let Some(f) = decoder.try_frame() {
                got.push(f.expect("valid frame"));
            }
        }
        assert_eq!(got, frames);
        assert_eq!(decoder.buffered(), 0);
        assert!(decoder.try_frame().is_none());
    }

    #[test]
    fn incremental_decoder_handles_coalesced_frames() {
        // Several frames in one feed: all must come out, in order.
        let frames = vec![Frame::Ok, Frame::Ping, Frame::OpenRound { round: 1 }];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire);
        for f in &frames {
            assert_eq!(decoder.try_frame().unwrap().unwrap(), *f);
        }
        assert!(decoder.try_frame().is_none());
    }

    #[test]
    fn incremental_decoder_reports_malformed_body_and_recovers() {
        // A well-framed but bogus body (unknown tag) is consumed and
        // reported; the next frame on the stream still decodes.
        let mut wire = 3u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xEE, 1, 2]);
        wire.extend_from_slice(&Frame::Ping.encode());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire);
        assert_eq!(
            decoder.try_frame().unwrap(),
            Err(CodecError::UnknownTag(0xEE))
        );
        assert_eq!(decoder.try_frame().unwrap().unwrap(), Frame::Ping);
    }

    #[test]
    fn incremental_decoder_latches_on_bad_length_prefix() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        decoder.feed(&Frame::Ping.encode());
        // A desynchronized stream stays failed: the bytes after a bogus
        // length cannot be trusted as a frame boundary.
        for _ in 0..2 {
            assert!(matches!(
                decoder.try_frame().unwrap(),
                Err(CodecError::Oversized { .. })
            ));
        }
    }

    #[test]
    fn incremental_decoder_truncated_frame_stays_pending() {
        let enc = Frame::OpenRound { round: 3 }.encode();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&enc[..enc.len() - 1]);
        assert!(decoder.try_frame().is_none(), "missing final byte");
        assert_eq!(decoder.buffered(), enc.len() - 1);
        decoder.feed(&enc[enc.len() - 1..]);
        assert_eq!(
            decoder.try_frame().unwrap().unwrap(),
            Frame::OpenRound { round: 3 }
        );
    }

    #[test]
    fn eof_mid_frame_is_io_error() {
        // Length says 10 bytes, only 3 present.
        let mut wire = 10u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }
}
