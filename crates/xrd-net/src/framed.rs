//! One framed connection — the one place in this crate where frames
//! meet a socket.  The daemon reactor's connections and the client
//! reactor's wires drive it nonblocking, [`crate::Conn`] blocking with
//! deadlines; each keeps its own protocol state and metrics, counted
//! from the byte counts returned here.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;

use crate::codec::{CodecError, Frame, FrameDecoder};
use crate::reactor::sys::Poller;

/// The reactors' socket read chunk: one syscall per chunk, 64 KiB to
/// amortize it over batch frames and mailbox pages.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// How far a [`Framed::flush`] got.
pub(crate) enum Flush {
    /// Everything queued is on the wire.
    Drained,
    /// The socket takes no more for now: `WouldBlock` on a nonblocking
    /// socket, the write deadline on a blocking one.
    Blocked,
    /// The connection is dead.
    Dead(io::Error),
}

/// A socket with its one [`FrameDecoder`], its outbound buffer and the
/// readiness interest registered for it with a poller.
pub(crate) struct Framed {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Queued bytes; `outpos` marks the prefix already written.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Interest registered with the poller, if registered.
    registered: Option<u32>,
}

impl Framed {
    pub(crate) fn new(stream: TcpStream) -> Framed {
        Framed {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            outpos: 0,
            registered: None,
        }
    }

    /// A reactor's connection: nonblocking, no Nagle delay.
    pub(crate) fn nonblocking(stream: TcpStream) -> io::Result<Framed> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Framed::new(stream))
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub(crate) fn queue(&mut self, frame: &Frame) {
        self.queue_encoded(frame.encode());
    }

    /// Queue bytes that are already encoded (one or more whole frames):
    /// with nothing queued they become the buffer, uncopied.
    pub(crate) fn queue_encoded(&mut self, bytes: Vec<u8>) {
        if self.outbuf.is_empty() {
            self.outbuf = bytes;
        } else {
            self.outbuf.extend_from_slice(&bytes);
        }
    }

    pub(crate) fn has_pending_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Write queued bytes as far as the socket takes them; also returns
    /// how many bytes that wrote.
    pub(crate) fn flush(&mut self) -> (Flush, usize) {
        let mut written = 0;
        while self.has_pending_output() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return (Flush::Dead(ErrorKind::WriteZero.into()), written),
                Ok(n) => {
                    self.outpos += n;
                    written += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return (Flush::Blocked, written),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return (Flush::Dead(e), written),
            }
        }
        self.outbuf.clear();
        self.outpos = 0;
        (Flush::Drained, written)
    }

    /// One read off the socket into the decoder, through `scratch`:
    /// the byte count, 0 meaning EOF.
    pub(crate) fn read(&mut self, scratch: &mut [u8]) -> io::Result<usize> {
        let n = loop {
            match self.stream.read(scratch) {
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                read => break read?,
            }
        };
        self.decoder.feed(&scratch[..n]);
        Ok(n)
    }

    /// The next decoded frame, if a whole one has arrived.
    pub(crate) fn next_frame(&mut self) -> Option<Result<Frame, CodecError>> {
        self.decoder.try_frame()
    }

    /// [`Framed::next_frame`] with the frame's wire bytes, for a relay
    /// that sends it on byte for byte.
    pub(crate) fn next_frame_wire(&mut self) -> Option<Result<(Frame, &[u8]), CodecError>> {
        self.decoder.try_frame_wire()
    }

    /// Part of a frame is buffered: an EOF now is not a clean one.
    pub(crate) fn mid_frame(&self) -> bool {
        self.decoder.buffered() > 0
    }

    /// Have `poller` report `wanted` under `token`: the first call
    /// registers the socket, later ones re-register it only if `wanted`
    /// changed.  Every change of token in this crate comes with a
    /// change of interest (parking), so the interest alone decides.
    pub(crate) fn watch(&mut self, poller: &mut Poller, token: u64, wanted: u32) -> io::Result<()> {
        let fd = self.stream.as_raw_fd();
        match self.registered {
            Some(registered) if registered == wanted => return Ok(()),
            Some(_) => poller.modify(fd, token, wanted)?,
            None => poller.add(fd, token, wanted)?,
        }
        self.registered = Some(wanted);
        Ok(())
    }

    pub(crate) fn deregister(&self, poller: &mut Poller) {
        let _ = poller.remove(self.stream.as_raw_fd());
    }

    /// Release the buffers the last frames grew, if nothing is buffered
    /// either way: an idle connection costs a socket, not its largest
    /// frame.
    pub(crate) fn rest(&mut self) {
        if !self.mid_frame() && !self.has_pending_output() {
            self.decoder = FrameDecoder::new();
            self.outbuf = Vec::new();
            self.outpos = 0;
        }
    }

    /// Whether this connection, between exchanges, is fit to carry the
    /// next one: nothing buffered in either direction, and a `peek`
    /// finds nothing to read yet.  EOF, an error or bytes nobody asked
    /// for mean the peer hung up or the stream is out of step.  The
    /// socket must be nonblocking for the `peek`.
    pub(crate) fn is_at_rest(&self) -> bool {
        if self.mid_frame() || self.has_pending_output() {
            return false;
        }
        match self.stream.peek(&mut [0u8; 1]) {
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
            Ok(_) => false,
        }
    }
}
