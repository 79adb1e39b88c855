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
//! No serde, no external dependencies — and **one declaration per
//! frame**.  The `frames!` table below has a row per tag, `0xNN Name {
//! field: Type, … }` with the fields in wire order, and derives the
//! [`Frame`] variant, its [`Frame::encode`] and [`Frame::decode`] arms,
//! [`Frame::tag`], [`Frame::tag_name`] and [`Frame::TAGS`] from it.  A
//! field's type carries its layout through the private `Wire` trait
//! (`put` and `get` side by side, caps and canonical-encoding checks in
//! the `get` they guard), so an encode arm and a decode arm cannot
//! disagree: there is only the row.  Retired tags stay in the table as
//! `reserved` rows — never reused, and claiming one twice does not
//! compile.
//!
//! ## Adding a frame
//!
//! 1. Add its row to the `frames!` table at the next free tag of its
//!    group (never a `reserved` one), fields in wire order; a new field
//!    type needs a `Wire` impl.
//! 2. Add the row to `docs/PROTOCOL.md` §2
//!    (`protocol_doc_tag_tables_match_the_codec` fails until you do).
//! 3. Add a generator arm to `arb_frame` in `tests/common/mod.rs`
//!    (`every_table_row_has_a_generator_arm` fails until you do).
//! 4. Regenerate `GOLDEN_DIGEST` in `tests/codec_golden.rs` — the
//!    failing assertion prints the new value — in the same commit, and
//!    say so in the commit message: that digest moving is the record
//!    that the wire changed.
//!
//! Every frame round-trips exactly (`tests/codec_properties.rs`) and
//! encodes to pinned bytes (`tests/codec_golden.rs`).

use xrd_crypto::nizk::{DleqProof, SchnorrProof, DLEQ_PROOF_LEN, SCHNORR_PROOF_LEN};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;
use xrd_mixnet::blame::{Accusation, BlameReveal};
use xrd_mixnet::chain_keys::{ChainPublicKeys, RotationShare, ServerKeyProofs};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::{MailboxMessage, MixEntry, MAILBOX_MSG_LEN};
use xrd_mixnet::server::{CrossCheck, DhColumn, HopAttestation};

/// Hard cap on one frame's encoded size (tag + payload).  Sized so a
/// [`MAX_BATCH`]-entry batch of paper-scale onions (k ≈ 32, ~1 KiB per
/// entry) still fits: senders reject anything larger at runtime
/// (`Conn::send`) rather than shipping a frame the receiver must
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
/// is alleged to have done (decided by the chain pass).
pub use xrd_mixnet::pass::dispute_claim;

// ---------------------------------------------------------------------
// Point work: every Ristretto decode and encode this crate pays, counted
// ---------------------------------------------------------------------

/// Decode wire points, all in one [`GroupElement::decode_all`]: the one
/// way this crate turns bytes into points (a `Submit`'s is decoded by
/// its daemon's screening, [`Submission::decode_points`], and counted
/// there through [`count_decoded`]).
pub(crate) fn decode_points(encoded: &[[u8; 32]]) -> Vec<Option<GroupElement>> {
    count_decoded(encoded.len());
    GroupElement::decode_all(encoded)
}

/// Count `n` points decoded.
pub(crate) fn count_decoded(n: usize) {
    xrd_obs::counter!("codec.points_decoded").add(n as u64);
}

/// Encode points for the wire, all in one [`GroupElement::encode_all`]:
/// the one way this crate turns points into bytes.  Only a point the
/// process computed gets here; one that arrived as bytes travels on as
/// them.
pub(crate) fn encode_points(points: &[GroupElement]) -> Vec<[u8; 32]> {
    xrd_obs::counter!("codec.points_encoded").add(points.len() as u64);
    GroupElement::encode_all(points)
}

// ---------------------------------------------------------------------
// Writer / Reader: the byte sink and source every layout is written in
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

    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A `bytes` string: `u32` length, then the bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= MAX_BYTES);
        (bytes.len() as u32).put(self);
        self.raw(bytes);
    }

    /// A `u32` count, then the items ([`Wire::put_all`]).
    fn seq<T: Wire>(&mut self, items: &[T]) {
        (items.len() as u32).put(self);
        T::put_all(items, self);
    }

    fn finish(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// A declared `u32` length, checked against its cap *before*
    /// anything is allocated for it.
    fn count(&mut self, cap: usize) -> Result<usize, CodecError> {
        let declared = u32::get(self)? as usize;
        if declared > cap {
            return Err(CodecError::Oversized { declared, cap });
        }
        Ok(declared)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.count(MAX_BYTES)?;
        Ok(self.take(len)?.to_vec())
    }

    /// A sealed mailbox payload: `bytes` of exactly the one legal size.
    fn sealed(&mut self) -> Result<Vec<u8>, CodecError> {
        let sealed = self.bytes()?;
        if sealed.len() != MAILBOX_MSG_LEN - 32 {
            return Err(CodecError::BadLength);
        }
        Ok(sealed)
    }

    /// At most `cap` items, each parsed by `item`.
    fn seq<T>(
        &mut self,
        cap: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(cap)?;
        (0..n).map(|_| item(self)).collect()
    }

    /// `n` items whose layout opens with a group element, the rest of
    /// each parsed by `rest`: every item's point is read as bytes, then
    /// all of them are decoded in one [`GroupElement::decode_all`].  The
    /// result — error included — is a per-item parse's: parsing stops
    /// at the first failure, and if any point read before it is invalid
    /// that is the error, because on the wire that point came first.
    fn point_led<R, T>(
        &mut self,
        n: usize,
        mut rest: impl FnMut(&mut Self) -> Result<R, CodecError>,
        item: impl Fn([u8; 32], GroupElement, R) -> T,
    ) -> Result<Vec<T>, CodecError> {
        // Every item is at least its point: a hostile count cannot make
        // this allocate more than the frame already holds.
        let cap = n.min(self.buf.len() / 32);
        let (mut points, mut rests) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut failed = Ok(());
        for _ in 0..n {
            let parsed = self.array().and_then(|point| {
                points.push(point);
                rest(self)
            });
            match parsed {
                Ok(r) => rests.push(r),
                Err(e) => {
                    failed = Err(e);
                    break;
                }
            }
        }
        let decoded = decode_points(&points)
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(CodecError::InvalidGroupElement)?;
        failed?;
        Ok((points.into_iter().zip(decoded).zip(rests))
            .map(|((bytes, p), r)| item(bytes, p, r))
            .collect())
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

// ---------------------------------------------------------------------
// Wire: one layout per type, written once
// ---------------------------------------------------------------------

/// A type with exactly one wire layout.  `put` appends it and `get`
/// parses it back, side by side in one `impl` so the two halves cannot
/// drift apart; every cap and every canonical-encoding rejection lives
/// in the `get` of the type it guards.  The frame table below names
/// only field types, so a frame's layout *is* its row.
///
/// A sequence goes through `put_all`/`get_all`: by default `put`/`get`
/// per item, overridden by the types that hold a group element
/// ([`GroupElement`] itself and the point-led composites below) so a
/// sequence's points are encoded in one [`GroupElement::encode_all`] —
/// unless it carries their encodings, which go out as they are — and
/// decoded in one [`GroupElement::decode_all`].  Same bytes, same error:
/// the first failing item's, and within an item its point's before any
/// later field's.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    fn put_all(items: &[Self], w: &mut Writer) {
        for item in items {
            item.put(w);
        }
    }

    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, CodecError> {
        (0..n).map(|_| Self::get(r)).collect()
    }
}

macro_rules! wire_le_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn put(&self, w: &mut Writer) {
                w.raw(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<$int, CodecError> {
                Ok(<$int>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_le_int!(u8, u16, u32, u64);

/// One byte, `0` or `1`; anything else is rejected.
impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        (*self as u8).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, CodecError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadLength),
        }
    }
}

/// 32 raw bytes (digests, mailbox ids).
impl Wire for [u8; 32] {
    fn put(&self, w: &mut Writer) {
        w.raw(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<[u8; 32], CodecError> {
        r.array()
    }
}

/// `bytes` whose contents must be UTF-8.
impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, CodecError> {
        String::from_utf8(r.bytes()?).map_err(|_| CodecError::BadLength)
    }
}

impl Wire for GroupElement {
    fn put(&self, w: &mut Writer) {
        GroupElement::put_all(std::slice::from_ref(self), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<GroupElement, CodecError> {
        let mut point = Self::get_all(r, 1)?;
        Ok(point.pop().expect("one point read"))
    }
    fn put_all(points: &[GroupElement], w: &mut Writer) {
        for encoding in encode_points(points) {
            w.raw(&encoding);
        }
    }
    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<GroupElement>, CodecError> {
        r.point_led(n, |_| Ok(()), |_, point, ()| point)
    }
}

impl Wire for Scalar {
    fn put(&self, w: &mut Writer) {
        w.raw(&self.to_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Scalar, CodecError> {
        Scalar::from_canonical_bytes(&r.array()?).ok_or(CodecError::InvalidScalar)
    }
}

impl Wire for SchnorrProof {
    fn put(&self, w: &mut Writer) {
        w.raw(&self.to_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<SchnorrProof, CodecError> {
        SchnorrProof::from_bytes(r.take(SCHNORR_PROOF_LEN)?).ok_or(CodecError::InvalidProof)
    }
}

impl Wire for DleqProof {
    fn put(&self, w: &mut Writer) {
        w.raw(&self.to_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<DleqProof, CodecError> {
        DleqProof::from_bytes(r.take(DLEQ_PROOF_LEN)?).ok_or(CodecError::InvalidProof)
    }
}

/// `seq<T>`, at most [`MAX_BATCH`] items.  Byte strings are *not*
/// `Vec<u8>` rows: they go through `Writer::bytes`/`Reader::bytes`
/// (capped by [`MAX_BYTES`]) inside the composite that owns them.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        // The items go out through `T::put_all`, so a row of points (or
        // of point-led entries) pays one `encode_all` — eight per inverse
        // square root on a lane build — not one encode per point, and a
        // row that carries its encodings pays none.
        debug_assert!(self.len() <= MAX_BATCH);
        w.seq(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
        let n = r.count(MAX_BATCH)?;
        T::get_all(r, n)
    }
}

/// One presence byte (a `bool`), then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<T>, CodecError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Box<T>, CodecError> {
        T::get(r).map(Box::new)
    }
}

/// Composite layouts, each declared once: the fields in wire order,
/// carried by their own `Wire` impl unless marked `bytes` (a byte string
/// under [`MAX_BYTES`]), `sealed` (one of exactly the sealed mailbox
/// payload size) or `u32`/`u64` (a `usize` index at that wire width).
macro_rules! wire_structs {
    ($($ty:path { $($field:ident $(: $how:ident)?),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $( wire_structs!(@put w, self.$field $(, $how)?); )*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(Self { $( $field: wire_structs!(@get r $(, $how)?) ),* })
            }
        }
    )*};
    (@put $w:ident, $v:expr) => { $v.put($w) };
    (@put $w:ident, $v:expr, bytes) => { $w.bytes(&$v) };
    (@put $w:ident, $v:expr, sealed) => { $w.bytes(&$v) };
    (@put $w:ident, $v:expr, $int:ident) => { ($v as $int).put($w) };
    (@get $r:ident) => { Wire::get($r)? };
    (@get $r:ident, bytes) => { $r.bytes()? };
    (@get $r:ident, sealed) => { $r.sealed()? };
    (@get $r:ident, $int:ident) => { <$int>::get($r)? as usize };
}
wire_structs! {
    MailboxMessage { mailbox, sealed: sealed }
    RotationShare { position: u32, ipk, pok }
    Accusation { position: u32, input_index: u64, entry, dec_key, key_proof }
    BlameReveal { position: u32, input_index: u64, input, output_dh, blind_proof,
                  dec_key, key_proof }
    xrd_obs::SpanEvent { name, round, start_us, dur_us }
    HopAttestation { round, position: u32, input_dhs, output_dhs, proof }
    CrossCheck { round, proofs, columns }
}

/// `point bytes`: a batch entry, the layout every chunk of a batch
/// stream carries ([`StreamEntry`]).  A row's keys are encoded together
/// and decoded together.
impl Wire for MixEntry {
    fn put(&self, w: &mut Writer) {
        MixEntry::put_all(std::slice::from_ref(self), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<MixEntry, CodecError> {
        let mut entry = MixEntry::get_all(r, 1)?;
        Ok(entry.pop().expect("one entry read"))
    }
    fn put_all(entries: &[MixEntry], w: &mut Writer) {
        put_entries(entries, w);
    }
    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<MixEntry>, CodecError> {
        r.point_led(n, Reader::bytes, |_, dh, ct| MixEntry { dh, ct })
    }
}

/// Write `entries` in the batch-entry layout, `point bytes` — their keys
/// encoded, or read off the bytes they carry ([`StreamEntry`]) — and
/// return the keys' encodings.
fn put_entries<E: StreamEntry>(entries: &[E], w: &mut Writer) -> Vec<[u8; 32]> {
    let dhs = E::dh_encodings(entries);
    for (entry, dh) in entries.iter().zip(&dhs) {
        w.raw(dh);
        w.bytes(entry.ct());
    }
    dhs
}

/// `point pok bytes`.  The point goes out as the encoding the
/// submission carries.  Read back, a `SubmissionBatch` row's points are
/// decoded together and kept beside their bytes; a lone `Submit`'s are
/// not decoded at all — the daemon that screens it decodes a tick's
/// worth together ([`Submission::decode_points`]) and refuses one that
/// is no point.
impl Wire for Submission {
    fn put(&self, w: &mut Writer) {
        w.raw(self.encoded_dh());
        self.pok.put(w);
        w.bytes(&self.ct);
    }
    fn get(r: &mut Reader<'_>) -> Result<Submission, CodecError> {
        let encoded = r.array()?;
        let pok = Wire::get(r)?;
        Ok(Submission::undecoded(encoded, r.bytes()?, pok))
    }
    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Submission>, CodecError> {
        r.point_led(
            n,
            |r| Ok((Wire::get(r)?, r.bytes()?)),
            |encoded, dh, (pok, ct)| Submission::decoded(encoded, dh, ct, pok),
        )
    }
}

/// `seq<point>`, written as the encodings the column carries (a column
/// of computed keys is encoded here, together) and read back with its
/// encodings beside its keys — so a column received is sent on as the
/// bytes it came in.
impl Wire for DhColumn {
    fn put(&self, w: &mut Writer) {
        match self.encodings() {
            Some(encoded) => {
                debug_assert!(encoded.len() <= MAX_BATCH);
                (encoded.len() as u32).put(w);
                encoded.iter().for_each(|dh| w.raw(dh));
            }
            None => w.seq(&self[..]),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<DhColumn, CodecError> {
        let n = r.count(MAX_BATCH)?;
        let keys = r.point_led(n, |_| Ok(()), |encoded, dh, ()| (dh, encoded))?;
        let (points, encoded) = keys.into_iter().unzip();
        Ok(DhColumn::with_encodings(points, encoded))
    }
}

/// One [`Frame::MailboxPage`] entry: `(delivery_round, sealed)`.
impl Wire for (u64, Vec<u8>) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        w.bytes(&self.1);
    }
    fn get(r: &mut Reader<'_>) -> Result<(u64, Vec<u8>), CodecError> {
        Ok((Wire::get(r)?, r.sealed()?))
    }
}

impl Wire for ChainPublicKeys {
    fn put(&self, w: &mut Writer) {
        debug_assert!(self.len() <= MAX_CHAIN_LEN);
        self.epoch.put(w);
        self.inner_epoch.put(w);
        (self.len() as u32).put(w);
        let points = [&self.bpks[..], &self.mpks, &self.ipks].concat();
        GroupElement::put_all(&points, w);
        for proofs in &self.proofs {
            proofs.bsk_pok.put(w);
            proofs.msk_pok.put(w);
            proofs.isk_pok.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<ChainPublicKeys, CodecError> {
        let epoch = Wire::get(r)?;
        let inner_epoch = Wire::get(r)?;
        let k = u32::get(r)? as usize;
        if k == 0 || k > MAX_CHAIN_LEN {
            return Err(CodecError::Oversized {
                declared: k,
                cap: MAX_CHAIN_LEN,
            });
        }
        let mut groups = |n| GroupElement::get_all(r, n);
        let (bpks, mpks, ipks) = (groups(k + 1)?, groups(k)?, groups(k)?);
        let proofs = (0..k)
            .map(|_| {
                Ok(ServerKeyProofs {
                    bsk_pok: Wire::get(r)?,
                    msk_pok: Wire::get(r)?,
                    isk_pok: Wire::get(r)?,
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
}

/// `u64 uptime_us`, then four sections of at most [`MAX_METRICS`]
/// entries each: counters, gauges, histograms, spans.
impl Wire for xrd_obs::Snapshot {
    fn put(&self, w: &mut Writer) {
        debug_assert!(
            self.counters.len() <= MAX_METRICS
                && self.gauges.len() <= MAX_METRICS
                && self.hists.len() <= MAX_METRICS
                && self.spans.len() <= MAX_METRICS
        );
        self.uptime_us.put(w);
        (self.counters.len() as u32).put(w);
        for (name, v) in &self.counters {
            name.put(w);
            v.put(w);
        }
        (self.gauges.len() as u32).put(w);
        for (name, v) in &self.gauges {
            name.put(w);
            (*v as u64).put(w);
        }
        (self.hists.len() as u32).put(w);
        for (name, h) in &self.hists {
            name.put(w);
            for v in [h.count, h.sum, h.min, h.max] {
                v.put(w);
            }
            // Buckets ship sparse: most of the 252 log-scale buckets are
            // empty for any real latency distribution.
            let nonzero = h.buckets.iter().enumerate().filter(|&(_, &n)| n > 0);
            (nonzero.clone().count() as u32).put(w);
            for (i, n) in nonzero {
                (i as u16).put(w);
                n.put(w);
            }
        }
        w.seq(&self.spans);
    }
    fn get(r: &mut Reader<'_>) -> Result<xrd_obs::Snapshot, CodecError> {
        Ok(xrd_obs::Snapshot {
            uptime_us: Wire::get(r)?,
            counters: r.seq(MAX_METRICS, |r| Ok((Wire::get(r)?, Wire::get(r)?)))?,
            gauges: r.seq(MAX_METRICS, |r| Ok((Wire::get(r)?, u64::get(r)? as i64)))?,
            hists: r.seq(MAX_METRICS, |r| {
                let name = Wire::get(r)?;
                let (count, sum, min, max) =
                    (Wire::get(r)?, Wire::get(r)?, Wire::get(r)?, Wire::get(r)?);
                let mut buckets = vec![0u64; xrd_obs::N_BUCKETS];
                let mut last: Option<usize> = None;
                for _ in 0..r.count(MAX_METRICS)? {
                    let i = u16::get(r)? as usize;
                    // Canonical sparse form: strictly increasing indices,
                    // in range, no zero entries.
                    if i >= xrd_obs::N_BUCKETS || last.is_some_and(|p| i <= p) {
                        return Err(CodecError::BadLength);
                    }
                    last = Some(i);
                    buckets[i] = u64::get(r)?;
                    if buckets[i] == 0 {
                        return Err(CodecError::BadLength);
                    }
                }
                let hist = xrd_obs::HistSnapshot {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                };
                Ok((name, hist))
            })?,
            spans: r.seq(MAX_METRICS, Wire::get)?,
        })
    }
}

// ---------------------------------------------------------------------
// The frame table
// ---------------------------------------------------------------------

// Derive the whole per-frame surface from one table of rows
// `0xNN Name { field: Type, … },` (fields in wire order), `0xNN Name,`
// or `0xNN reserved,`.  The first two arms walk the rows — a reserved
// row only claims its tag in `TAGS`, any other row is also a variant —
// and the third emits everything.  Nothing else knows a frame's layout.
macro_rules! frames {
    (@rows [$($live:tt)*] [$($tags:tt)*] $tag:literal reserved, $($rest:tt)*) => {
        frames! { @rows [$($live)*] [$($tags)* ($tag, ""),] $($rest)* }
    };
    (@rows [$($live:tt)*] [$($tags:tt)*]
        $(#[$doc:meta])* $tag:literal $name:ident $({ $($fields:tt)* })?, $($rest:tt)*
    ) => {
        frames! { @rows
            [$($live)* $(#[$doc])* $tag $name $({ $($fields)* })?,]
            [$($tags)* ($tag, stringify!($name)),]
            $($rest)*
        }
    };
    (@rows
        [$(
            $(#[$doc:meta])* $tag:literal $name:ident
            $({ $( $(#[$fdoc:meta])* $field:ident: $ty:ty ),* $(,)? })?,
        )*]
        [$($tags:tt)*]
    ) => {
        /// One message of the XRD wire protocol.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Frame {
            $( $(#[$doc])* $name $({ $( $(#[$fdoc])* $field: $ty ),* })?, )*
        }

        /// Every live row's tag byte under its variant's name, for the
        /// sites that write raw frames (the chunk encoder).
        #[allow(non_upper_case_globals, dead_code)]
        mod tag {
            $( pub(super) const $name: u8 = $tag; )*
        }

        impl Frame {
            /// The frame table's rows, `(tag, variant name)` in
            /// ascending tag order.  A retired tag keeps its row with
            /// an empty name: it is reserved forever, never reused,
            /// and decodes as [`CodecError::UnknownTag`].
            pub const TAGS: &'static [(u8, &'static str)] = &[$($tags)*];

            /// Encode the full frame, including the 4-byte length prefix.
            pub fn encode(&self) -> Vec<u8> {
                let mut w = Writer::new(self.tag());
                match self {
                    $( Frame::$name $({ $($field),* })? => { $($( $field.put(&mut w); )*)? } )*
                }
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
                let frame = match u8::get(&mut r)? {
                    $( $tag => Frame::$name $({ $( $field: <$ty as Wire>::get(&mut r)? ),* })?, )*
                    other => return Err(CodecError::UnknownTag(other)),
                };
                r.finish()?;
                Ok(frame)
            }

            /// This frame's wire tag.
            pub fn tag(&self) -> u8 {
                match self {
                    $( Frame::$name { .. } => $tag, )*
                }
            }

            /// Human-readable name for a wire tag (the per-tag frame
            /// counters in the metrics registry are keyed by these), or
            /// `None` for a tag this protocol version does not know —
            /// reserved tags included.
            pub fn tag_name(tag: u8) -> Option<&'static str> {
                match tag {
                    $( $tag => Some(stringify!($name)), )*
                    _ => None,
                }
            }
        }
    };
    ($($rows:tt)*) => {
        frames! { @rows [] [] $($rows)* }
    };
}

frames! {
    // ---- Control (0x0*) ----
    /// Generic success acknowledgement.
    0x01 Ok,
    /// Generic failure with a machine code and human-readable detail.
    0x02 Error {
        /// One of [`error_code`]'s constants.
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// Liveness probe (answered with [`Frame::Pong`]): the cheapest
    /// possible health check, served by the reactor before any service
    /// logic so a wedged handler still distinguishes "process up" from
    /// "process gone".
    0x03 Ping,
    /// Ask the daemon to exit after this connection.
    0x04 Shutdown,
    /// Scrape the daemon's metrics (answered with
    /// [`Frame::StatsReport`] by the reactor itself, so every daemon
    /// kind serves it without touching its service logic).
    0x05 StatsRequest,
    /// A point-in-time copy of the daemon's process-wide metric
    /// registry (boxed: it is bulky and rides the admin path only).
    0x06 StatsReport {
        /// Counters, gauges, histograms and the span ring.
        snapshot: Box<xrd_obs::Snapshot>,
    },
    /// Reply to [`Frame::Ping`].
    0x07 Pong,

    // ---- Submission window (0x1*) ----
    /// Open the submission window for a round (coordinator → mix).
    0x10 OpenRound {
        /// Round number.
        round: u64,
    },
    /// One user submission for an open round (client → mix).
    0x11 Submit {
        /// Round the submission is sealed for.
        round: u64,
        /// The AHS submission.
        submission: Submission,
    },
    /// Close the window; the daemon fixes its canonical batch
    /// (coordinator → mix; answered with [`Frame::BatchDigest`]).
    0x12 CloseSubmissions {
        /// Round number.
        round: u64,
    },
    /// The daemon's input-agreement digests over its canonical batch
    /// ([`WindowDigest`](xrd_mixnet::server::WindowDigest)).
    0x13 BatchDigest {
        /// Round number.
        round: u64,
        /// `input_digest` over the batch entries.
        digest: [u8; 32],
        /// `column_digest` over the batch's `g^x`, in canonical order:
        /// what hop 0's input column must hash to.
        column: [u8; 32],
        /// Batch size.
        count: u64,
    },
    /// Request the canonical batch (coordinator → mix): for blame, or
    /// to stream it to a hop 0 that holds no window for the round.
    0x14 GetBatch {
        /// Round number.
        round: u64,
    },
    /// The canonical submission batch, in agreed order.
    0x15 SubmissionBatch {
        /// Round number.
        round: u64,
        /// Submissions in canonical order.
        submissions: Vec<Submission>,
    },
    /// Ask hop 0 to mix the batch its window fixed for `round`, less
    /// the users blame `removed` (coordinator → mix).  Answered with
    /// [`Frame::WindowColumn`], then what a [`Frame::MixBatchStart`]
    /// stream is answered with; a daemon holding no window for the
    /// round answers [`error_code::UNKNOWN_ROUND`] alone.
    0x16 MixWindow {
        /// Round number.
        round: u64,
        /// Indices into the canonical batch, ascending.
        removed: Vec<u64>,
    },
    /// The head of hop 0's reply to [`Frame::MixWindow`]: the key
    /// column `c_0` of what it mixes, as the bytes its window's
    /// submissions came in.
    0x17 WindowColumn {
        /// Round number.
        round: u64,
        /// `g^x` of each submission mixed, in mix order.
        column: DhColumn,
    },

    // ---- Mixing (0x2*) ----
    // 0x20 (MixBatch), 0x21 (HopOutput) and 0x23 (VerifyHop) carried the
    // monolithic-frame hop and are retired: a whole batch is a one-chunk
    // stream.  A stale peer gets a clean UnknownTag instead of a misparse.
    0x20 reserved,
    0x21 reserved,
    /// A hop halted on authentication failures (blame follows).
    0x22 HopFailure {
        /// Round number.
        round: u64,
        /// The halting server's position.
        position: u32,
        /// Failing indices into the hop's input batch.
        failed: Vec<u64>,
    },
    0x23 reserved,
    /// A verifier's answer to [`Frame::VerifyHopKeys`].
    0x24 VerifyResult {
        /// Whether each other hop of the chain verified, in hop order.
        verdicts: Vec<bool>,
    },
    /// Open a batch stream: the batch for `round` will arrive as
    /// [`Frame::MixBatchChunk`]s totalling `total` entries, closed by
    /// [`Frame::MixBatchEnd`].  Sent to a hop, it opens the hop: the
    /// daemon starts hop crypto on each chunk as it lands, while later
    /// chunks are still in flight, and answers after the End with a
    /// [`Frame::HopProof`] followed by its output as the same kind of
    /// stream (or with [`Frame::HopFailure`]).
    0x25 MixBatchStart {
        /// Round number.
        round: u64,
        /// Total entries the stream will carry (≤ [`MAX_BATCH`]).
        total: u32,
    },
    /// One chunk of a streamed batch, in stream order.
    0x26 MixBatchChunk {
        /// The chunk's entries.
        entries: Vec<MixEntry>,
    },
    /// Close a streamed batch.  `digest` is the [`StreamDigest`] over
    /// every entry shipped, in stream order; a receiver whose own
    /// running digest disagrees rejects the whole stream.
    0x27 MixBatchEnd {
        /// Stream digest over all entries.
        digest: [u8; 32],
    },
    // 0x28–0x2A carried a hop's output in a stream format of its own
    // and are retired: a hop answers with HopProof and then the same
    // batch stream it was sent, which a relay passes on unchanged.
    0x28 reserved,
    0x29 reserved,
    0x2A reserved,
    /// Ask the server at position `v` to verify the other hops of its
    /// chain at once (coordinator → mix; answered with
    /// [`Frame::VerifyResult`]).  The §6.3 attestation binds products
    /// of the DH keys — ciphertexts never enter the statement — so the
    /// key columns are all a verifier needs, at ~1/8 the wire cost of
    /// the full entries, and it holds two of them itself: the columns
    /// its own hop consumed and emitted, which it checks the hops on
    /// either side against.  Sent at end of chain, once every hop has
    /// emitted.
    0x2B VerifyHopKeys {
        /// The round, the other hops' proofs and the key columns the
        /// verifier does not hold.
        check: CrossCheck,
    },
    // 0x2C and 0x2D carried daemon-to-daemon forwarding and are
    // retired: the coordinator relays every hop's output.
    0x2C reserved,
    0x2D reserved,
    /// The opening frame of a hop's reply: its aggregate blinding
    /// attestation (§6.3 step 3), followed by the hop's output as a
    /// [`Frame::MixBatchStart`]/[`Frame::MixBatchChunk`]/[`Frame::MixBatchEnd`]
    /// stream — the very frames a relay sends on to the next hop.
    0x2E HopProof {
        /// Round number.
        round: u64,
        /// The prover's hop position.
        position: u32,
        /// Aggregate blinding attestation over the batch it was sent
        /// and the batch that follows.
        proof: DleqProof,
    },

    // ---- Inner keys and rotation (0x3*) ----
    /// Ask a server to reveal its per-round inner key (after the last
    /// hop verifies; answered with [`Frame::InnerKeyReveal`]).
    0x30 RevealInnerKey {
        /// Round number.
        round: u64,
    },
    /// A revealed inner key.
    0x31 InnerKeyReveal {
        /// The revealing server's position.
        position: u32,
        /// The inner secret `isk_i`.
        isk: Scalar,
    },
    /// Ask a server to generate fresh inner keys for a future round
    /// (answered with [`Frame::RotationShare`]).
    0x32 PrepareRotation {
        /// The inner-key epoch (round number) being prepared.
        inner_epoch: u64,
    },
    /// One server's inner-key rotation share.
    0x33 RotationShare {
        /// The epoch the share belongs to.
        inner_epoch: u64,
        /// The share: position, new `ipk`, knowledge proof.
        share: RotationShare,
    },
    /// Distribute the assembled rotated bundle and switch to it
    /// (answered with [`Frame::Ok`]).
    0x34 ActivateRotation {
        /// The verified bundle for the new epoch.
        keys: ChainPublicKeys,
    },

    // ---- Blame and disputes (0x4*) ----
    /// Open the blame protocol for a slot that failed decryption
    /// (coordinator → accusing server; answered with
    /// [`Frame::Accusation`]).
    0x40 Accuse {
        /// Round number.
        round: u64,
        /// Failing index in the accuser's input order.
        input_index: u64,
    },
    /// The accuser's opening move (§6.4 step 4).
    0x41 Accusation {
        /// The accusation: entry, decryption key, proof.
        accusation: Accusation,
    },
    /// Ask an upstream server to reveal one traced slot (answered with
    /// [`Frame::SlotReveal`]).
    0x42 RevealSlot {
        /// Round number.
        round: u64,
        /// Index in the revealing server's *output* order.
        output_index: u64,
    },
    /// An upstream server's revelation for a traced slot; `None` if it
    /// cannot produce one (which convicts it).
    0x43 SlotReveal {
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
    0x44 DisputeOpen {
        /// The disputed statement; its position is the accused's.
        attestation: HopAttestation,
    },
    /// One witness's signed verdict on a disputed attestation.
    0x45 DisputeEvidence {
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
        /// [`HopAttestation::sign_verdict`]) — transferable evidence
        /// another server can verify without trusting the collector.
        sig: SchnorrProof,
    },
    /// The dispute's outcome, gossiped to every server of the chain
    /// (answered with [`Frame::Ok`]).
    0x46 DisputeVerdict {
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

    // ---- Mailboxes (0x5*) ----
    /// Deliver opened messages to a mailbox shard (answered with
    /// [`Frame::Ok`]).
    0x50 Deliver {
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
    // 0x51 (Fetch) and 0x52 (MailboxContents) carried the old
    // drain-everything fetch API and are retired.
    0x51 reserved,
    0x52 reserved,
    /// Read one page of a mailbox, non-destructively (client → mailbox;
    /// answered with [`Frame::MailboxPage`]).  Fetching never removes
    /// messages: the client retires what it has safely read with an
    /// explicit [`Frame::FetchAck`], giving at-least-once delivery
    /// across client crashes and lost replies.
    0x53 FetchPage {
        /// Mailbox id to read.
        mailbox: [u8; 32],
        /// Resume token: 0 for the oldest un-acked entry, else the
        /// `next_cursor` of the previous page.
        cursor: u64,
        /// Maximum entries the shard may return in this page.
        max: u32,
    },
    /// One page of a mailbox's un-acked entries, oldest first.
    0x54 MailboxPage {
        /// Pass as `cursor` to continue, or as `upto` in a
        /// [`Frame::FetchAck`] to retire everything read so far.
        next_cursor: u64,
        /// Entries still pending past this page.
        remaining: u64,
        /// `(delivery_round, sealed)` per entry: each sealed payload
        /// must be opened against the round it was delivered in.
        sealed: Vec<(u64, Vec<u8>)>,
    },
    /// Retire every entry below `upto` (client → mailbox; answered
    /// with [`Frame::Ok`]).  Idempotent: re-acking an already-acked
    /// prefix is a no-op success.
    0x55 FetchAck {
        /// Mailbox id to ack.
        mailbox: [u8; 32],
        /// Exclusive upper bound: the `next_cursor` of the last page
        /// the client has safely consumed.
        upto: u64,
    },
}

// Rows ascend strictly by tag, so claiming a tag twice — live or
// reserved — does not compile.
const _: () = {
    let mut i = 1;
    while i < Frame::TAGS.len() {
        assert!(
            Frame::TAGS[i - 1].0 < Frame::TAGS[i].0,
            "frame table rows must be in ascending tag order, each tag once"
        );
        i += 1;
    }
};

/// Serialize one mix server's launch configuration — its secrets plus
/// the chain's active public bundle — for distribution to a standalone
/// daemon process (`xrd-netd mix --config <file>`).  A file format, not
/// a wire frame: no length prefix, no tag.
pub fn encode_server_config(
    secrets: &xrd_mixnet::chain_keys::ServerSecrets,
    public: &ChainPublicKeys,
) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    (secrets.position as u32).put(&mut w);
    secrets.bsk.put(&mut w);
    secrets.msk.put(&mut w);
    secrets.isk.put(&mut w);
    public.put(&mut w);
    w.buf
}

/// Parse a [`encode_server_config`] blob.
pub fn decode_server_config(
    bytes: &[u8],
) -> Result<(xrd_mixnet::chain_keys::ServerSecrets, ChainPublicKeys), CodecError> {
    let mut r = Reader { buf: bytes };
    let secrets = xrd_mixnet::chain_keys::ServerSecrets {
        position: u32::get(&mut r)? as usize,
        bsk: Wire::get(&mut r)?,
        msk: Wire::get(&mut r)?,
        isk: Wire::get(&mut r)?,
    };
    let public = ChainPublicKeys::get(&mut r)?;
    r.finish()?;
    if secrets.position >= public.len() {
        return Err(CodecError::BadLength);
    }
    Ok((secrets, public))
}

// ---------------------------------------------------------------------
// Streamed batches: digest, builder, assembler
// ---------------------------------------------------------------------

/// The running digest a streamed batch is closed with
/// ([`Frame::MixBatchEnd`]): Blake2b-256 over
/// the canonical wire encoding of every entry, in stream order.
///
/// Chunking-invariant by construction — the absorbed byte stream is the
/// concatenation of per-entry encodings (`dh ‖ u32 ct-len ‖ ct`), which
/// is independent of how the entries were cut into chunks.  Sender,
/// relay and receiver all hold the encoded chunk frames, and absorb
/// their payload bytes ([`StreamDigest::absorb_chunk_payload`]): the
/// digest never costs an encoding.
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

    /// Absorb the payload bytes of an already-encoded chunk frame (the
    /// bytes after the tag and entry count — see
    /// [`ChunkedBatch::CHUNK_PAYLOAD_OFFSET`]).
    pub fn absorb_chunk_payload(&mut self, payload: &[u8]) {
        self.h.update(payload);
    }

    /// The 32-byte stream digest.
    pub fn finalize(self) -> [u8; 32] {
        self.h.finalize_32()
    }
}

/// Why a chunked batch stream failed to assemble.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
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
/// Building encodes each entry's key at most once — a hop's outputs a
/// chunk at a time, hop 0's submissions not at all ([`StreamEntry`]) —
/// and derives the digest from the encoded chunk payloads, so the
/// digest costs the sender no second encoding pass.
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
///         Frame::MixBatchStart { total, .. } => {
///             assembler = Some(BatchAssembler::begin(total).unwrap());
///         }
///         Frame::MixBatchChunk { entries } => {
///             let payload = &bytes[ChunkedBatch::CHUNK_PAYLOAD_OFFSET..];
///             assembler.as_mut().unwrap().absorb(entries, payload).unwrap();
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
    /// The entries' DH-key encodings, as the chunks carry them.
    dhs: Vec<[u8; 32]>,
}

/// An entry a batch stream carries, in the [`MixEntry`] layout `point
/// bytes` ([`ChunkedBatch::build`]).  A [`MixEntry`] — a hop's output,
/// keys the hop computed — has its keys encoded, a chunk's in one
/// [`GroupElement::encode_all`]; a [`Submission`] — hop 0's input —
/// writes the encoding it carries.
pub trait StreamEntry: Sized {
    /// The encodings of `entries`' DH keys, in order.
    fn dh_encodings(entries: &[Self]) -> Vec<[u8; 32]>;
    /// The entry's onion.
    fn ct(&self) -> &[u8];
}

impl StreamEntry for MixEntry {
    fn dh_encodings(entries: &[MixEntry]) -> Vec<[u8; 32]> {
        let dhs: Vec<GroupElement> = entries.iter().map(|e| e.dh).collect();
        encode_points(&dhs)
    }
    fn ct(&self) -> &[u8] {
        &self.ct
    }
}

impl StreamEntry for Submission {
    fn dh_encodings(submissions: &[Submission]) -> Vec<[u8; 32]> {
        submissions.iter().map(|s| *s.encoded_dh()).collect()
    }
    fn ct(&self) -> &[u8] {
        &self.ct
    }
}

impl ChunkedBatch {
    /// Offset of the digest-relevant payload inside an encoded chunk
    /// frame: 4-byte length prefix + 1-byte tag + 4-byte entry count.
    pub const CHUNK_PAYLOAD_OFFSET: usize = 9;

    /// Cut `entries` into `chunk_size`-entry streaming frames for
    /// `round`.  `chunk_size` is clamped to `1..=MAX_BATCH`; the batch
    /// itself must fit [`MAX_BATCH`].
    pub fn build<E: StreamEntry>(round: u64, entries: &[E], chunk_size: usize) -> ChunkedBatch {
        assert!(entries.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
        let chunk_size = chunk_size.clamp(1, MAX_BATCH);
        let mut frames = Vec::with_capacity(2 + entries.len().div_ceil(chunk_size));
        frames.push(
            Frame::MixBatchStart {
                round,
                total: entries.len() as u32,
            }
            .encode(),
        );
        let mut digest = StreamDigest::new();
        let mut dhs = Vec::with_capacity(entries.len());
        for chunk in entries.chunks(chunk_size) {
            let mut w = Writer::new(tag::MixBatchChunk);
            (chunk.len() as u32).put(&mut w);
            dhs.extend(put_entries(chunk, &mut w));
            let encoded = w.finish();
            digest.absorb_chunk_payload(&encoded[Self::CHUNK_PAYLOAD_OFFSET..]);
            frames.push(encoded);
        }
        let digest = digest.finalize();
        frames.push(Frame::MixBatchEnd { digest }.encode());
        ChunkedBatch {
            frames,
            digest,
            dhs,
        }
    }

    /// The DH-key encodings inside one chunk's `payload` (what follows
    /// [`ChunkedBatch::CHUNK_PAYLOAD_OFFSET`] in its frame), `entries`
    /// being that chunk decoded: read where they lie in the `point
    /// bytes` records, nothing decoded or encoded.
    pub fn payload_dhs<'p>(
        entries: &'p [MixEntry],
        payload: &'p [u8],
    ) -> impl Iterator<Item = [u8; 32]> + 'p {
        let mut at = 0;
        entries.iter().map(move |entry| {
            let dh = payload[at..at + 32].try_into();
            at += 32 + 4 + entry.ct.len();
            dh.expect("a record opens with its key")
        })
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
        self.dhs.len()
    }

    /// The entries' DH-key encodings, in stream order, as the chunks
    /// carry them.
    pub fn dh_encodings(&self) -> &[[u8; 32]] {
        &self.dhs
    }
}

/// The receiver half of a streamed batch: created from a Start frame,
/// fed each chunk's entries in arrival order, closed against the End
/// frame's digest.  Enforces the declared total and the running
/// digest, so any truncated, duplicated, over-long or re-ordered
/// stream errors out cleanly instead of assembling a wrong batch.
pub struct BatchAssembler {
    total: usize,
    entries: Vec<MixEntry>,
    digest: StreamDigest,
}

impl BatchAssembler {
    /// Begin assembling a stream declared as `total` entries (the
    /// [`Frame::MixBatchStart`] field).
    pub fn begin(total: u32) -> Result<BatchAssembler, StreamError> {
        let total = total as usize;
        if total > MAX_BATCH {
            return Err(StreamError::TooLarge { declared: total });
        }
        Ok(BatchAssembler {
            total,
            entries: Vec::with_capacity(total),
            digest: StreamDigest::new(),
        })
    }

    /// Absorb one chunk: its decoded `entries` and its raw `payload`
    /// bytes, what follows [`ChunkedBatch::CHUNK_PAYLOAD_OFFSET`] in the
    /// frame they came off (the digest reads those, never re-encoding
    /// the entries).  Returns the chunk's start index within the
    /// assembled batch (so callers can hand the exact slice to a worker
    /// while the stream continues).
    pub fn absorb(&mut self, entries: Vec<MixEntry>, payload: &[u8]) -> Result<usize, StreamError> {
        let start = self.entries.len();
        if start + entries.len() > self.total {
            return Err(StreamError::Overrun {
                received: start + entries.len(),
                total: self.total,
            });
        }
        self.digest.absorb_chunk_payload(payload);
        self.entries.extend(entries);
        Ok(start)
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

/// Default entries per streamed chunk.  Small enough that the first
/// chunk of a hop's output reaches the next hop (and its crypto
/// starts) long before the last chunk is even encoded; large enough
/// that per-chunk overheads (frame header, digest update, one job
/// dispatch) stay well under 1% of the chunk's kernel cost.
pub const STREAM_CHUNK: usize = 64;

/// Encode a hop's whole reply — [`Frame::HopProof`], then its output
/// as the [`ChunkedBatch`] stream the next hop is sent — as one
/// contiguous byte string (what a deferred daemon job hands back to
/// the reactor).  Each entry is encoded exactly once.
pub fn encode_hop_output_stream(
    round: u64,
    position: u32,
    outputs: &[MixEntry],
    proof: &DleqProof,
    chunk_size: usize,
) -> Vec<u8> {
    let mut wire = Frame::HopProof {
        round,
        position,
        proof: *proof,
    }
    .encode();
    for frame in ChunkedBatch::build(round, outputs, chunk_size).frames() {
        wire.extend_from_slice(frame);
    }
    wire
}

// ---------------------------------------------------------------------
// Incremental decoding
// ---------------------------------------------------------------------

/// An incremental, non-blocking frame decoder: feed it bytes as they
/// arrive off a socket (in chunks of any size, down to one byte at a
/// time) and pull complete [`Frame`]s out as they become available.
///
/// It is the crate's one frame decoder: every connection — the
/// reactors' and the blocking [`crate::Conn`]'s — feeds one (through
/// `framed.rs`).  It never blocks and never copies more than once —
/// partial frames stay buffered until completed by a later `feed`.
///
/// Errors:
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
        self.try_frame_wire().map(|r| r.map(|(frame, _)| frame))
    }

    /// [`FrameDecoder::try_frame`], also lending the frame's wire bytes
    /// (length prefix, tag and payload) — what a relay sends on byte
    /// for byte, or digests without re-encoding.
    pub fn try_frame_wire(&mut self) -> Option<Result<(Frame, &[u8]), CodecError>> {
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
        let wire = &self.buf[self.pos..self.pos + 4 + len];
        self.pos += 4 + len;
        Some(Frame::decode(&wire[4..]).map(|frame| (frame, wire)))
    }
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
        let frames = [Frame::OpenRound { round: 3 }, Frame::Ok, Frame::Ping];
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frames.iter().flat_map(Frame::encode).collect::<Vec<u8>>());
        for f in &frames {
            let (got, wire) = decoder.try_frame_wire().unwrap().unwrap();
            assert_eq!((&got, wire), (f, &f.encode()[..]));
        }
        // At a frame boundary: an EOF here is a clean one.
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        for len in [0, MAX_FRAME_LEN as u32 + 1] {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&len.to_le_bytes());
            let rejected = decoder.try_frame().unwrap();
            assert!(matches!(rejected, Err(CodecError::Oversized { .. })));
        }
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
}
