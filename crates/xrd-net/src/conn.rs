//! Client side of an XRD wire-protocol connection: a persistent TCP
//! stream carrying request/response [`Frame`] pairs, with byte
//! accounting for throughput reporting.
//!
//! The client side stays deliberately simple — one [`Conn`] per daemon
//! endpoint: the crate's one framed socket (`framed.rs`, the one the
//! reactors drive) over a single blocking descriptor, its reads and
//! writes bounded by the [`ConnTimeouts`] deadlines.  The event-driven
//! daemons answer a connection's requests strictly in order and apply
//! backpressure by not reading ahead, so *pipelining* — several
//! [`Conn::send`]s before collecting responses with [`Conn::recv`] —
//! works as long as the in-flight requests plus their responses fit in
//! the kernel socket buffers (small frames like `Submit`/`Ok`).  Do not
//! pipeline behind a request with a large response (`GetBatch`): the
//! daemon stops reading until that response drains, and a client still
//! blocked in `send` never reaches `recv` — both sides would wait on
//! full buffers forever.
//!
//! A mix hop (`MixBatchStart/Chunk…/End`, [`Conn::stream_hop`]) is the
//! sanctioned exception to the one-request-one-response shape: many
//! request frames, one multi-frame response that begins only after the
//! End — so the sender never competes with its own response stream.  The
//! response is a `HopProof` followed by the hop's output in the format
//! it was sent, so a relay checks each frame and passes its bytes on to
//! the next hop unchanged ([`Conn::recv_hop_reply`]).  These rules are
//! spec, not implementation detail: see `docs/PROTOCOL.md` §6
//! ("Connection semantics, backpressure and pipelining").

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use xrd_crypto::nizk::DleqProof;
use xrd_mixnet::message::MixEntry;
use xrd_mixnet::server::DhColumn;

use crate::codec::{BatchAssembler, ChunkedBatch, CodecError, Frame, StreamError};
use crate::framed::{Flush, Framed};

/// Errors surfaced by wire operations.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not parse as a frame.
    Codec(CodecError),
    /// The peer closed the connection mid-exchange.
    Disconnected,
    /// A blocking socket operation exceeded its deadline (see
    /// [`ConnTimeouts`]).  The stream may be mid-frame afterwards, so
    /// the connection must be dropped or reconnected — not reused.
    Timeout {
        /// Which operation timed out (`"connect"`, `"read"`, `"write"`).
        op: &'static str,
    },
    /// The peer answered with [`Frame::Error`].
    Remote {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// The peer answered with an unexpected frame type.
    Protocol(String),
    /// A pipelined or multi-frame exchange lost its framing: a frame
    /// is missing or out of sequence, or a chunk stream fails
    /// reassembly — what a dropped or mangled frame on a faulty wire
    /// leaves behind.  Nothing read so far can be trusted and the
    /// stream cannot be resumed, but the exchange can be repeated.
    Desync(String),
}

impl NetError {
    /// Whether retrying the enclosing exchange on a fresh connection
    /// could plausibly succeed.  Transport-level trouble (socket
    /// errors, desynced streams, hangups, deadlines) is retryable; a
    /// daemon that *rejected* the request semantically is not — with
    /// the exception of `BAD_STATE`, which a corrupted-in-flight
    /// stream also produces (the daemon rejects the garbled chunk).
    pub fn retryable(&self) -> bool {
        match self {
            NetError::Io(_) | NetError::Codec(_) | NetError::Disconnected => true,
            NetError::Timeout { .. } | NetError::Desync(_) => true,
            NetError::Remote { code, .. } => *code == crate::codec::error_code::BAD_STATE,
            NetError::Protocol(_) => false,
        }
    }

    fn from_io(e: std::io::Error, op: &'static str) -> NetError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                NetError::Timeout { op }
            }
            _ => NetError::Io(e),
        }
    }
}

/// What the chain pass found wrong in the daemons' answers (a column
/// seam, a failure naming no slot): a protocol violation.
impl From<xrd_mixnet::Breach> for NetError {
    fn from(breach: xrd_mixnet::Breach) -> NetError {
        NetError::Protocol(breach.to_string())
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout { op } => write!(f, "{op} deadline exceeded"),
            NetError::Remote { code, message } => {
                write!(f, "remote error {code}: {message}")
            }
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Desync(msg) => write!(f, "exchange desynchronized: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::from_io(e, "read")
    }
}

/// Deadlines for one connection's blocking socket operations.
///
/// Defaults are deliberately generous — they exist to turn a stalled
/// or byzantine peer into an error instead of an eternal hang, not to
/// police latency.  Debug-build crypto on large batches is slow, so
/// the read deadline leaves ample headroom.
#[derive(Clone, Copy, Debug)]
pub struct ConnTimeouts {
    /// Deadline for the TCP connect itself.
    pub connect: Duration,
    /// Deadline for each blocking read (time with *no* bytes arriving;
    /// a slow-but-flowing peer resets it with every read).
    pub read: Duration,
    /// Deadline for each blocking write.
    pub write: Duration,
}

impl Default for ConnTimeouts {
    fn default() -> ConnTimeouts {
        ConnTimeouts {
            connect: Duration::from_secs(5),
            read: Duration::from_secs(60),
            write: Duration::from_secs(30),
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> NetError {
        NetError::Codec(e)
    }
}

/// What a mix daemon answered to one hop's batch stream.
#[derive(Clone, Debug, PartialEq)]
pub enum HopReply {
    /// The hop completed: its shuffled outputs (reassembled and checked
    /// against the stream digest) plus the aggregate attestation.
    Output {
        /// The prover's hop position.
        position: u32,
        /// Shuffled, decrypted, blinded entries.
        outputs: Vec<MixEntry>,
        /// Aggregate blinding attestation (§6.3 step 3).
        proof: DleqProof,
    },
    /// The hop halted on authentication failures (blame follows).
    Failure {
        /// The halting server's position.
        position: u32,
        /// Failing indices into the hop's input batch.
        failed: Vec<u64>,
    },
}

/// A hop reply's frame where another was `expected`: the peer's
/// [`Frame::Error`] as [`NetError::Remote`], anything else a desync.
fn unexpected(frame: Frame, expected: &str) -> NetError {
    match frame {
        Frame::Error { code, message } => NetError::Remote { code, message },
        other => NetError::Desync(format!(
            "expected {expected}, got {}",
            Frame::tag_name(other.tag()).unwrap_or("?")
        )),
    }
}

/// A reply that must be [`Frame::Ok`].
pub(crate) fn expect_ok(reply: Result<Frame, NetError>) -> Result<(), NetError> {
    match reply? {
        Frame::Ok => Ok(()),
        other => Err(NetError::Protocol(format!("expected Ok, got {other:?}"))),
    }
}

/// A persistent request/response connection to one daemon.
pub struct Conn {
    framed: Framed,
    peer: SocketAddr,
    timeouts: ConnTimeouts,
    bytes_sent: u64,
    bytes_received: u64,
}

impl Conn {
    /// Connect to a daemon with the default [`ConnTimeouts`].
    pub fn connect(addr: SocketAddr) -> Result<Conn, NetError> {
        Conn::connect_with(addr, ConnTimeouts::default())
    }

    /// Connect to a daemon with explicit deadlines.
    pub fn connect_with(addr: SocketAddr, timeouts: ConnTimeouts) -> Result<Conn, NetError> {
        let stream = TcpStream::connect_timeout(&addr, timeouts.connect)
            .map_err(|e| NetError::from_io(e, "connect"))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeouts.read))?;
        stream.set_write_timeout(Some(timeouts.write))?;
        Ok(Conn {
            framed: Framed::new(stream),
            peer: addr,
            timeouts,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// The deadlines this connection was opened with.
    pub fn timeouts(&self) -> ConnTimeouts {
        self.timeouts
    }

    /// Drop the current stream and dial the same peer again with the
    /// same deadlines, preserving byte accounting.  The recovery move
    /// after a [`NetError::Timeout`] or codec desync left the old
    /// stream unusable.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        self.framed = Conn::connect_with(self.peer, self.timeouts)?.framed;
        Ok(())
    }

    /// The daemon's address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Bytes written so far (frame bytes, including prefixes).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes read so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Fire one frame without awaiting a response.  Responses to
    /// pipelined sends arrive in send order; collect each with
    /// [`Conn::recv`].
    pub fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let encoded = frame.encode();
        if encoded.len() - 4 > crate::codec::MAX_FRAME_LEN {
            return Err(NetError::Codec(CodecError::Oversized {
                declared: encoded.len() - 4,
                cap: crate::codec::MAX_FRAME_LEN,
            }));
        }
        self.push(encoded)
    }

    /// Await one frame.
    pub fn recv(&mut self) -> Result<Frame, NetError> {
        self.recv_then(|frame, _| Ok(frame))
    }

    /// Await one frame and hand it, with its wire bytes (length prefix
    /// included — what a relay sends on byte for byte), to `then`.
    fn recv_then<R>(
        &mut self,
        then: impl FnOnce(Frame, &[u8]) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        let mut scratch = [0u8; 8 * 1024]; // on the stack: a `BufReader`'s 8 KiB
        loop {
            match self.framed.next_frame_wire() {
                Some(Ok((frame, wire))) => {
                    let taken = then(frame, wire);
                    self.framed.rest(); // an idle `Conn` holds no buffers
                    return taken;
                }
                Some(Err(e)) => {
                    xrd_obs::counter!("conn.err.codec").incr();
                    xrd_obs::debug!("peer {} sent an unparseable frame: {e}", self.peer);
                    return Err(e.into());
                }
                None => {}
            }
            match self.framed.read(&mut scratch) {
                Ok(0) if self.framed.mid_frame() => {
                    return Err(NetError::Io(std::io::ErrorKind::UnexpectedEof.into()))
                }
                Ok(0) => {
                    xrd_obs::counter!("conn.err.disconnected").incr();
                    xrd_obs::debug!("peer {} disconnected mid-exchange", self.peer);
                    return Err(NetError::Disconnected);
                }
                Ok(n) => self.bytes_received += n as u64,
                Err(e) => return Err(NetError::from_io(e, "read")),
            }
        }
    }

    /// Fire pre-encoded wire bytes (one or more complete frames,
    /// length prefixes included) without awaiting responses — the send
    /// half of the relay's raw-forward path, and of streamed batches
    /// built once with [`crate::codec::ChunkedBatch`].
    pub fn send_encoded(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.push(bytes.to_vec())
    }

    /// Write `bytes` out, blocking up to the write deadline.
    fn push(&mut self, bytes: Vec<u8>) -> Result<(), NetError> {
        self.bytes_sent += bytes.len() as u64;
        self.framed.queue_encoded(bytes);
        match self.framed.flush().0 {
            Flush::Drained => Ok(()),
            Flush::Blocked => Err(NetError::Timeout { op: "write" }),
            Flush::Dead(e) => Err(NetError::from_io(e, "write")),
        }
    }

    /// The send half of a hop exchange: ship `entries` to the daemon as
    /// a `chunk`-entry [`ChunkedBatch`] stream for `round`.
    pub fn send_batch(
        &mut self,
        round: u64,
        entries: &[MixEntry],
        chunk: usize,
    ) -> Result<(), NetError> {
        let stream = ChunkedBatch::build(round, entries, chunk);
        stream
            .frames()
            .iter()
            .try_for_each(|bytes| self.send_encoded(bytes))
    }

    /// One whole hop exchange: [`Conn::send_batch`], then collect the
    /// daemon's reply.
    pub fn stream_hop(
        &mut self,
        round: u64,
        entries: &[MixEntry],
        chunk: usize,
    ) -> Result<HopReply, NetError> {
        self.send_batch(round, entries, chunk)?;
        self.recv_hop_reply(round, entries.len(), None)
    }

    /// The receive half of a hop exchange: a [`Frame::HopProof`] for
    /// `round`, then the hop's output as one `MixBatchStart/Chunk…/End`
    /// stream carrying exactly `total` entries, reassembled and checked
    /// against its digest — or the [`Frame::HopFailure`] or
    /// [`Frame::Error`] sent in its place.
    ///
    /// With `next`, the stream is relayed to the chain's next hop as it
    /// arrives: each batch frame, once checked here, goes out **byte for
    /// byte** as received — it is already the request the next hop
    /// expects — so the next hop's crypto starts while this one is
    /// still emitting.
    pub fn recv_hop_reply(
        &mut self,
        round: u64,
        total: usize,
        next: Option<&mut Conn>,
    ) -> Result<HopReply, NetError> {
        let (reply, _) = self.recv_hop_output(round, total, next)?;
        Ok(reply)
    }

    /// The head of hop 0's reply to [`Frame::MixWindow`]: the key column
    /// of what it mixes ([`Frame::WindowColumn`]), its encodings beside
    /// its keys.  A refusal comes back as [`NetError::Remote`]; the hop
    /// reply follows as to a stream ([`Conn::recv_hop_reply`]).
    pub(crate) fn recv_window_column(&mut self, round: u64) -> Result<DhColumn, NetError> {
        match self.recv()? {
            Frame::WindowColumn { round: r, column } if r == round => Ok(column),
            other => Err(unexpected(
                other,
                &format!("WindowColumn for round {round}"),
            )),
        }
    }

    /// [`Conn::recv_hop_reply`], also returning the encodings of the
    /// output entries' DH keys as they arrived (read off the chunk
    /// payloads, in stream order; empty unless the reply is an
    /// [`HopReply::Output`]) — the hop's output column, to go on the
    /// wire again without an encode.
    pub(crate) fn recv_hop_output(
        &mut self,
        round: u64,
        total: usize,
        mut next: Option<&mut Conn>,
    ) -> Result<(HopReply, Vec<[u8; 32]>), NetError> {
        let (position, proof) = match self.recv()? {
            Frame::HopProof {
                round: r,
                position,
                proof,
            } if r == round => (position, proof),
            Frame::HopFailure {
                round: r,
                position,
                failed,
            } if r == round => return Ok((HopReply::Failure { position, failed }, Vec::new())),
            other => {
                let expected = format!("HopProof/HopFailure for round {round}");
                return Err(unexpected(other, &expected));
            }
        };
        let bad_stream = |e: StreamError| NetError::Desync(format!("hop output stream: {e}"));
        let mut relay = |wire: &[u8]| match next.as_deref_mut() {
            Some(next) => next.send_encoded(wire),
            None => Ok(()),
        };
        let mut assembler = self.recv_then(|frame, wire| match frame {
            Frame::MixBatchStart {
                round: r,
                total: declared,
            } if r == round => {
                if declared as usize != total {
                    return Err(NetError::Protocol(format!(
                        "hop {position} answered {declared} entries to a {total}-entry batch"
                    )));
                }
                let assembler = BatchAssembler::begin(declared).map_err(bad_stream)?;
                relay(wire)?;
                Ok(assembler)
            }
            other => Err(unexpected(other, "MixBatchStart")),
        })?;
        let mut encoded = Vec::with_capacity(total);
        loop {
            let end = self.recv_then(|frame, wire| match frame {
                Frame::MixBatchChunk { entries } => {
                    let payload = &wire[ChunkedBatch::CHUNK_PAYLOAD_OFFSET..];
                    encoded.extend(ChunkedBatch::payload_dhs(&entries, payload));
                    assembler.absorb(entries, payload).map_err(bad_stream)?;
                    relay(wire)?;
                    Ok(None)
                }
                Frame::MixBatchEnd { digest } => Ok(Some((digest, wire.to_vec()))),
                other => Err(unexpected(other, "MixBatchChunk/End")),
            })?;
            if let Some((digest, wire)) = end {
                let outputs = assembler.finish(digest).map_err(bad_stream)?;
                relay(&wire)?;
                let reply = HopReply::Output {
                    position,
                    outputs,
                    proof,
                };
                return Ok((reply, encoded));
            }
        }
    }

    /// One request/response exchange.  [`Frame::Error`] responses are
    /// turned into [`NetError::Remote`].
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        self.send(frame)?;
        self.recv_reply()
    }

    /// Await the reply to a request already sent, [`Frame::Error`]
    /// turned into [`NetError::Remote`].
    pub(crate) fn recv_reply(&mut self) -> Result<Frame, NetError> {
        match self.recv()? {
            Frame::Error { code, message } => {
                xrd_obs::counter!("conn.err.remote").incr();
                xrd_obs::debug!("peer {} answered error {code}: {message}", self.peer);
                Err(NetError::Remote { code, message })
            }
            other => Ok(other),
        }
    }

    /// Request and insist on [`Frame::Ok`].
    pub fn request_ok(&mut self, frame: &Frame) -> Result<(), NetError> {
        expect_ok(self.request(frame))
    }

    /// One [`Frame::Ping`]→[`Frame::Pong`] liveness probe (served by
    /// the daemon's reactor itself, so it answers even mid-round).
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.request(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(NetError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{ErrorKind, Write};

    /// A [`Conn`] to a peer that writes `bytes` and hangs up.
    fn conn_to_peer_writing(bytes: Vec<u8>) -> Conn {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound");
        std::thread::spawn(move || listener.accept().expect("accepts").0.write_all(&bytes));
        Conn::connect(addr).expect("connects")
    }

    #[test]
    fn frames_then_a_clean_eof_is_disconnected() {
        let wire = [Frame::Ok.encode(), Frame::OpenRound { round: 3 }.encode()].concat();
        let mut conn = conn_to_peer_writing(wire.clone());
        assert_eq!(conn.recv().unwrap(), Frame::Ok);
        assert_eq!(conn.recv().unwrap(), Frame::OpenRound { round: 3 });
        assert!(matches!(conn.recv(), Err(NetError::Disconnected)));
        assert_eq!(conn.bytes_received(), wire.len() as u64);
    }

    #[test]
    fn eof_mid_frame_is_io_error() {
        // Length says 10 bytes, only 3 arrive.
        let got = conn_to_peer_writing(vec![10, 0, 0, 0, 1, 2, 3]).recv();
        assert!(matches!(got, Err(NetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof));
    }
}
