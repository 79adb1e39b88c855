//! Client side of an XRD wire-protocol connection: a persistent TCP
//! stream carrying request/response [`Frame`] pairs, with byte
//! accounting for throughput reporting.
//!
//! The client side stays deliberately simple — blocking sockets, one
//! [`Conn`] per daemon endpoint.  The event-driven daemons answer a
//! connection's requests strictly in order and apply backpressure by
//! not reading ahead, so *pipelining* — several [`Conn::send`]s before
//! collecting responses with [`Conn::recv`] — works as long as the
//! in-flight requests plus their responses fit in the kernel socket
//! buffers (small frames like `Submit`/`Ok`).  Do not pipeline behind
//! a request with a large response (`GetBatch`): the daemon stops
//! reading until that response drains, and a client still blocked in
//! `send` never reaches `recv` — both sides would wait on full buffers
//! forever.
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

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use xrd_crypto::nizk::DleqProof;
use xrd_mixnet::message::MixEntry;
use xrd_mixnet::server::HopAttestation;

use crate::codec::{BatchAssembler, ChunkedBatch, CodecError, Frame, StreamError};

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
    /// a slow-but-flowing peer resets it with every buffered refill).
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

/// Client-side error counters, resolved once per process.  Every path
/// that gives up on a connection (or a request) is counted by cause
/// and debug-logs the peer — a client that silently drops a daemon
/// connection is as opaque as a daemon that silently drops a client.
fn conn_metrics() -> &'static ConnMetrics {
    static METRICS: std::sync::OnceLock<ConnMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ConnMetrics {
        err_codec: xrd_obs::counter("conn.err.codec"),
        err_disconnected: xrd_obs::counter("conn.err.disconnected"),
        err_remote: xrd_obs::counter("conn.err.remote"),
    })
}

struct ConnMetrics {
    /// Responses that did not parse as a frame (stream desync).
    err_codec: &'static xrd_obs::Counter,
    /// Peers that hung up mid-exchange.
    err_disconnected: &'static xrd_obs::Counter,
    /// [`Frame::Error`] responses received.
    err_remote: &'static xrd_obs::Counter,
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
    /// The hop completed and pushed its outputs straight to its
    /// successor ([`Frame::HopForwarded`]): only the statement comes
    /// back — the DH-key columns it proved over, never the ciphertexts.
    Attested(HopAttestation),
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

/// Whether a connection between exchanges is fit to carry the next one:
/// a non-blocking `peek` on `stream` finds nothing to read yet.  EOF,
/// an error or bytes nobody asked for mean the peer hung up or the
/// stream is out of step.  `stream` must be in non-blocking mode.
pub(crate) fn at_rest(stream: &TcpStream) -> bool {
    match stream.peek(&mut [0u8; 1]) {
        Err(e) => matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
        ),
        Ok(_) => false,
    }
}

/// A persistent request/response connection to one daemon.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
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
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
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
        let fresh = Conn::connect_with(self.peer, self.timeouts)?;
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        Ok(())
    }

    /// Whether this connection, idle since its last exchange, can carry
    /// the next one: nothing is buffered unread and its socket is
    /// [`at_rest`].
    pub(crate) fn is_at_rest(&self) -> bool {
        if !self.reader.buffer().is_empty() || self.writer.set_nonblocking(true).is_err() {
            return false;
        }
        let rest = at_rest(&self.writer);
        self.writer.set_nonblocking(false).is_ok() && rest
    }

    /// The daemon's address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Bytes written so far (frame bytes, including prefixes).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes read so far (approximate: counted per decoded frame).
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
        self.send_encoded(&encoded)
    }

    /// Await one frame.
    pub fn recv(&mut self) -> Result<Frame, NetError> {
        self.recv_wire().map(|(frame, _)| frame)
    }

    /// Await one frame, also returning its wire bytes (length prefix
    /// included) — what a relay sends on byte for byte.
    fn recv_wire(&mut self) -> Result<(Frame, Vec<u8>), NetError> {
        match crate::codec::read_frame(&mut self.reader)? {
            None => {
                conn_metrics().err_disconnected.incr();
                xrd_obs::debug!("peer {} disconnected mid-exchange", self.peer);
                Err(NetError::Disconnected)
            }
            Some(Err(e)) => {
                conn_metrics().err_codec.incr();
                xrd_obs::debug!("peer {} sent an unparseable frame: {e}", self.peer);
                Err(e.into())
            }
            Some(Ok((frame, wire))) => {
                self.bytes_received += wire.len() as u64;
                Ok((frame, wire))
            }
        }
    }

    /// Fire pre-encoded wire bytes (one or more complete frames,
    /// length prefixes included) without awaiting responses — the send
    /// half of the relay's raw-forward path, and of streamed batches
    /// built once with [`crate::codec::ChunkedBatch`].
    pub fn send_encoded(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.bytes_sent += bytes.len() as u64;
        self.writer
            .write_all(bytes)
            .map_err(|e| NetError::from_io(e, "write"))
    }

    /// The send half of a hop exchange: ship `entries` to the daemon as
    /// a `chunk`-entry [`ChunkedBatch`] stream for `round`.
    pub fn send_batch(
        &mut self,
        round: u64,
        entries: &[MixEntry],
        chunk: usize,
    ) -> Result<(), NetError> {
        for bytes in ChunkedBatch::build(round, entries, chunk).frames() {
            self.send_encoded(bytes)?;
        }
        Ok(())
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
    /// against its digest — or the [`Frame::HopForwarded`] (the hop
    /// sent its output to its successor instead), [`Frame::HopFailure`]
    /// or [`Frame::Error`] sent in its place.
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
        mut next: Option<&mut Conn>,
    ) -> Result<HopReply, NetError> {
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
            } if r == round => return Ok(HopReply::Failure { position, failed }),
            Frame::HopForwarded { attestation } if attestation.round == round => {
                return Ok(HopReply::Attested(attestation))
            }
            other => {
                let expected = format!("HopProof/HopForwarded/HopFailure for round {round}");
                return Err(unexpected(other, &expected));
            }
        };
        let bad_stream = |e: StreamError| NetError::Desync(format!("hop output stream: {e}"));
        let mut relay = |wire: &[u8]| match next.as_deref_mut() {
            Some(next) => next.send_encoded(wire),
            None => Ok(()),
        };
        let mut assembler = match self.recv_wire()? {
            (
                Frame::MixBatchStart {
                    round: r,
                    total: declared,
                },
                wire,
            ) if r == round => {
                if declared as usize != total {
                    return Err(NetError::Protocol(format!(
                        "hop {position} answered {declared} entries to a {total}-entry batch"
                    )));
                }
                let assembler = BatchAssembler::begin(declared).map_err(bad_stream)?;
                relay(&wire)?;
                assembler
            }
            (other, _) => return Err(unexpected(other, "MixBatchStart")),
        };
        loop {
            match self.recv_wire()? {
                (Frame::MixBatchChunk { entries }, wire) => {
                    let payload = &wire[ChunkedBatch::CHUNK_PAYLOAD_OFFSET..];
                    assembler.absorb_raw(entries, payload).map_err(bad_stream)?;
                    relay(&wire)?;
                }
                (Frame::MixBatchEnd { digest }, wire) => {
                    let outputs = assembler.finish(digest).map_err(bad_stream)?;
                    relay(&wire)?;
                    return Ok(HopReply::Output {
                        position,
                        outputs,
                        proof,
                    });
                }
                (other, _) => return Err(unexpected(other, "MixBatchChunk/End")),
            }
        }
    }

    /// One request/response exchange.  [`Frame::Error`] responses are
    /// turned into [`NetError::Remote`].
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        self.send(frame)?;
        match self.recv()? {
            Frame::Error { code, message } => {
                conn_metrics().err_remote.incr();
                xrd_obs::debug!("peer {} answered error {code}: {message}", self.peer);
                Err(NetError::Remote { code, message })
            }
            other => Ok(other),
        }
    }

    /// Request and insist on [`Frame::Ok`].
    pub fn request_ok(&mut self, frame: &Frame) -> Result<(), NetError> {
        match self.request(frame)? {
            Frame::Ok => Ok(()),
            other => Err(NetError::Protocol(format!("expected Ok, got {other:?}"))),
        }
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
