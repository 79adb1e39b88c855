//! A hand-rolled, dependency-free event-driven reactor for the XRD
//! daemons: one thread, thousands of connections.
//!
//! The daemons used to burn one OS thread per client connection, which
//! caps a single daemon far below the paper's per-server client
//! populations (§8 assumes hundreds of thousands of submitters per
//! round).  The reactor replaces that with the classic single-threaded
//! readiness loop:
//!
//! * every socket (listener included) is nonblocking;
//! * a `Poller` — raw `epoll` syscalls on Linux/x86-64, a degraded
//!   sweep poller on other unix targets, no external crates either
//!   way — reports which sockets are ready;
//! * each connection is the crate's one framed socket (`framed.rs`: an
//!   incremental [`crate::codec::FrameDecoder`] accumulating request
//!   bytes, an outbound buffer drained as the socket accepts them)
//!   under a tiny request/response state machine.
//!
//! A peer that dribbles a frame one byte at a time, stalls mid-frame,
//! or stops reading its responses costs the daemon nothing but a
//! buffer: the loop simply moves on to whichever socket is ready next.
//! Backpressure is structural — a connection's next request is not
//! *processed* (or even read off the kernel buffer) until its previous
//! response has fully drained, so a slow reader throttles itself via
//! TCP flow control instead of ballooning daemon memory.
//!
//! Cheap frames (submission checks, mailbox ops, stream bookkeeping)
//! are handled inline on the reactor thread.  Heavy frames — hop
//! crypto, attestation verification — are **offloaded**: the
//! [`Service`] returns [`Outcome::Defer`] and the reactor runs the job
//! on a small fixed-size [`WorkerPool`], parking that connection's
//! request stream in a *pending response slot* until the job's frames
//! come back (over a self-pipe wakeup, so completions are picked up
//! immediately, not at the next poll timeout).  The loop itself never
//! blocks on crypto: submissions keep flowing on other connections
//! while a hop is in flight.
//!
//! A service with something to do **once per tick** before certain
//! replies may leave returns the third outcome,
//! [`Outcome::ReplyAfterCommit`]: the reactor holds the encoded reply
//! (the connection's pending slot is occupied, so its request/response
//! order is untouched) and, at the end of every loop iteration that held
//! anything, calls [`Service::commit`] **once** — the service's
//! once-per-tick point: an `fdatasync` for a persistent mailbox shard;
//! one batched proof-of-knowledge check over every submission the tick
//! queued for a mix daemon, plus its journal's sync if it has one — then
//! releases the held replies.  The commit may settle individual held
//! replies by connection ([`Settled`]: the submissions whose proof
//! failed read their rejection where the others read `Ok`, and one
//! whose point did not decode is answered and closed as an unparseable
//! frame), or refuse the lot with one error frame (a failed sync).  One
//! iteration is therefore: readiness → handlers → one `commit` →
//! release.  Nothing lingers and no batch size is configured: the group
//! is whatever became readable while the previous commit ran (as many
//! connections as one poller wait reports — its event buffer holds
//! 256), so a lone request pays exactly one commit and waits for no
//! company, and a herd shares its syncs, its point decodes and its
//! multiscalar multiplications.
//!
//! A refused commit is final.  What it covered is in the service's
//! memory but not on its disk, so nothing may be acknowledged from it:
//! the reactor answers every later request, on every connection, with
//! the same refusal and never hands the service another frame (counted
//! as `reactor.err.commit`).  `Ping`, `StatsRequest` and `Shutdown`,
//! which the reactor answers itself, are still served, so a failed
//! daemon stays observable.  Recovery is a restart, which replays the
//! disk.
//!
//! A connection that has gone quiet — nothing buffered either way,
//! blocked on its next request — gives its decode and output buffers
//! back: clients keep their connections across rounds, and thousands of
//! idle sockets must not each pin the buffers their last frame grew.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use xrd_obs::Counter;

use crate::codec::{error_code, CodecError, Frame};
use crate::framed::{Flush, Framed, READ_CHUNK};

/// Identifies one connection for the lifetime of a reactor (tokens are
/// never reused, so a stale id can never address a newer connection).
pub type ConnId = u64;

/// A deferred response computation, run on the [`WorkerPool`].  It
/// returns *encoded* wire bytes (one or more complete frames,
/// concatenated — see [`Frame::encode`]), which the reactor queues to
/// the deferring connection verbatim.  Returning bytes rather than
/// frames keeps response encoding — a per-entry batched group encode
/// for hop outputs — off the reactor thread, and lets a streamed
/// response derive its digest from the encoded payloads it just
/// built.
pub type Job = Box<dyn FnOnce() -> Vec<u8> + Send + 'static>;

/// What a [`Service`] wants done with one request frame.
pub enum Outcome {
    /// Respond with these frames, in order.  An empty vector means "no
    /// response; keep serving" — how streamed request chunks are
    /// acknowledged (they aren't: the stream's End gets the response).
    Reply(Vec<Frame>),
    /// Produce the response asynchronously: the reactor parks this
    /// connection's request stream (its *pending slot* is occupied),
    /// runs the job on the worker pool, and queues whatever frames it
    /// returns once complete.  Other connections are served
    /// throughout.
    Defer(Job),
    /// Respond with these frames once the service's next
    /// [`Service::commit`] has returned: the reactor holds the encoded
    /// reply with this connection's pending slot occupied, commits once
    /// at the end of the loop iteration for every reply held in it, and
    /// then releases them — each as it was held, unless the commit
    /// replaced it (by connection) or refused them all.  For replies
    /// that acknowledge what only the commit settles: a write it makes
    /// durable, a submission it screens.
    ReplyAfterCommit(Vec<Frame>),
}

impl Outcome {
    /// Shorthand for a single-frame reply.
    pub fn reply(frame: Frame) -> Outcome {
        Outcome::Reply(vec![frame])
    }
}

/// Per-daemon frame service: maps each request frame of a connection
/// to an [`Outcome`].  `conn` distinguishes connections (for stateful
/// exchanges like streamed batches); `workers` lets the service spawn
/// fire-and-forget side jobs (chunk crypto) that feed its own state
/// rather than producing response frames.
pub trait Service: Send + Sync + 'static {
    /// Handle one request frame from connection `conn`.  `wire` is the
    /// frame as it arrived — length prefix, tag and payload — for a
    /// service that digests or passes on its bytes rather than encode
    /// the frame again.
    fn handle(&self, conn: ConnId, frame: Frame, wire: &[u8], workers: &Arc<WorkerPool>)
        -> Outcome;

    /// Connection `conn` is gone (peer hung up, protocol error, or
    /// reactor shutdown).  Drop any per-connection state.
    fn on_close(&self, conn: ConnId) {
        let _ = conn;
    }

    /// The service's once-per-tick point: settle whatever the handlers
    /// of this loop iteration left pending behind an
    /// [`Outcome::ReplyAfterCommit`] — sync what they wrote, screen what
    /// they queued.  Called once at the end of every iteration in which
    /// a handler returned one, on the reactor thread, before any of
    /// those replies is released.  `Ok(settled)` releases every held
    /// reply as it stands except those of the listed connections, which
    /// are settled as [`Settled`] says (a connection holds at most one
    /// reply, so the id names it); `Err(frame)` sends `frame` in place
    /// of every held reply and of every request after them, for good
    /// (see the [module docs](self)).  Default: nothing to settle.
    // The refusals are the cold path; `Ok(vec![])` is what runs every
    // tick, and an empty vector allocates nothing.
    #[allow(clippy::result_large_err)]
    fn commit(&self) -> Result<Vec<(ConnId, Settled)>, Frame> {
        Ok(Vec::new())
    }
}

/// How a commit settles a held reply other than releasing it as held.
// A cold path, one per refused request: no box for the frame.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Settled {
    /// Send this frame instead (a refused submission).
    Instead(Frame),
    /// The request turned out not to parse — a check the codec leaves
    /// to the service (a `Submit`'s point, decoded by the tick's
    /// screening): answered and closed exactly as a frame that fails
    /// to decode on arrival.
    Malformed(CodecError),
}

/// The reply to a frame that does not parse; the connection closes
/// once it drains (the stream may be desynchronized).
fn bad_frame(e: &CodecError) -> Frame {
    crate::daemon::err(error_code::BAD_STATE, format!("bad frame: {e}"))
}

/// Wrap a plain request→response function as a [`Service`]: every
/// response inline, no per-connection state, no deferral.
pub fn service_fn<F>(f: F) -> Arc<dyn Service>
where
    F: Fn(Frame) -> Frame + Send + Sync + 'static,
{
    struct ServiceFn<F>(F);
    impl<F: Fn(Frame) -> Frame + Send + Sync + 'static> Service for ServiceFn<F> {
        fn handle(
            &self,
            _conn: ConnId,
            frame: Frame,
            _wire: &[u8],
            _workers: &Arc<WorkerPool>,
        ) -> Outcome {
            Outcome::reply((self.0)(frame))
        }
    }
    Arc::new(ServiceFn(f))
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// A small fixed-size thread pool for batch-boundary crypto, so the
/// reactor thread never runs a hop inline.  One FIFO queue: jobs run
/// in submission order, which is a *correctness* property — a streamed
/// hop's End job is enqueued after all of its chunk jobs, so by the
/// time a worker dequeues it, every chunk job has at least started,
/// and its completion latch cannot deadlock (at any pool size ≥ 1).
///
/// Threads are spawned lazily on the first submitted job: a daemon
/// that never defers (a mailbox shard) stays a single-thread process.
pub struct WorkerPool {
    state: Mutex<PoolState>,
    cv: Condvar,
    size: usize,
}

struct PoolState {
    /// `(enqueued-at, job)` — the timestamp feeds the job-wait
    /// histogram when a worker picks the job up.
    queue: VecDeque<(Instant, Box<dyn FnOnce() + Send + 'static>)>,
    spawned: bool,
    shutdown: bool,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    pub(crate) fn new(size: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                spawned: false,
                shutdown: false,
                threads: Vec::new(),
            }),
            cv: Condvar::new(),
            size: size.max(1),
        })
    }

    /// Number of worker threads this pool runs at (once spawned).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submit a fire-and-forget job.  Jobs are dequeued in FIFO order;
    /// a job that needs results of previously submitted jobs may block
    /// on them safely (see the type-level ordering argument).
    pub fn spawn_job(self: &Arc<Self>, job: impl FnOnce() + Send + 'static) {
        let mut state = self.state.lock().expect("pool poisoned");
        if state.shutdown {
            return; // reactor is tearing down; drop the work
        }
        if !state.spawned {
            state.spawned = true;
            for _ in 0..self.size {
                let pool = Arc::clone(self);
                state.threads.push(std::thread::spawn(move || pool.run()));
            }
        }
        state.queue.push_back((Instant::now(), Box::new(job)));
        xrd_obs::gauge!("pool.queue_depth").incr();
        drop(state);
        self.cv.notify_one();
    }

    fn run(&self) {
        loop {
            let (enqueued, job) = {
                let mut state = self.state.lock().expect("pool poisoned");
                loop {
                    if let Some(item) = state.queue.pop_front() {
                        break item;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = self.cv.wait(state).expect("pool poisoned");
                }
            };
            xrd_obs::gauge!("pool.queue_depth").decr();
            xrd_obs::hist!("pool.job_wait_us").record_duration(enqueued.elapsed());
            let started = Instant::now();
            // A panicking job must not take the worker thread with it:
            // a shrunken pool would strand queued jobs forever (and
            // the reactor's shutdown join with them).  Defer jobs are
            // additionally wrapped by the reactor so the waiting
            // connection gets an error response.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            xrd_obs::hist!("pool.job_run_us").record_duration(started.elapsed());
        }
    }

    /// Stop accepting work, let queued jobs finish (they may be
    /// dependencies of running ones), and join the workers.
    fn shutdown(&self) {
        let threads = {
            let mut state = self.state.lock().expect("pool poisoned");
            state.shutdown = true;
            std::mem::take(&mut state.threads)
        };
        self.cv.notify_all();
        for t in threads {
            let _ = t.join();
        }
    }
}

/// How long one readiness wait may block before re-checking the stop
/// flag or a deadline (a latency bound, not a busy-poll interval); the
/// client reactor waits the same.
pub(crate) const WAIT_MS: i32 = 100;

// ---------------------------------------------------------------------
// Poller: epoll on Linux/x86-64, a sweep fallback elsewhere
// ---------------------------------------------------------------------

/// Readable/writable interest and readiness bits (epoll encoding; the
/// fallback poller uses the same constants).
pub mod interest {
    /// Readable (`EPOLLIN`).
    pub const READ: u32 = 0x001;
    /// Writable (`EPOLLOUT`).
    pub const WRITE: u32 = 0x004;
    /// Error condition (`EPOLLERR`); always reported, never requested.
    pub const ERROR: u32 = 0x008;
    /// Peer hung up (`EPOLLHUP`); always reported, never requested.
    pub const HANGUP: u32 = 0x010;
    /// Peer closed its write half (`EPOLLRDHUP`).
    pub const READ_HANGUP: u32 = 0x2000;
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) mod sys {
    //! `epoll` via raw x86-64 Linux syscalls — the workspace links no
    //! libc-style crate, and `std` does not expose readiness APIs, so
    //! the three syscalls the reactor needs are issued directly.
    //! `pub(crate)`: the client-side swarm reactor drives its own loop
    //! over the same poller, and raises its descriptor limit through
    //! the same `syscall4`.

    use std::io;
    use std::os::fd::RawFd;

    const SYS_CLOSE: i64 = 3;
    const SYS_LISTEN: i64 = 50;
    const SYS_EPOLL_WAIT: i64 = 232;
    const SYS_EPOLL_CTL: i64 = 233;
    const SYS_EPOLL_CREATE1: i64 = 291;

    const EPOLL_CLOEXEC: i64 = 0o2000000;
    const EPOLL_CTL_ADD: i64 = 1;
    const EPOLL_CTL_DEL: i64 = 2;
    const EPOLL_CTL_MOD: i64 = 3;
    const EINTR: i64 = 4;

    /// `struct epoll_event` — packed on x86-64 (no padding between the
    /// 32-bit event mask and the 64-bit user data).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// One `syscall` instruction, kernel convention: args in
    /// rdi/rsi/rdx/r10, number in rax, result in rax (negative errno on
    /// failure); rcx and r11 are clobbered by the instruction itself.
    #[inline]
    pub unsafe fn syscall4(n: i64, a1: i64, a2: i64, a3: i64, a4: i64) -> i64 {
        let ret;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    /// Re-issue `listen(2)` on an already-listening socket to widen its
    /// accept backlog (Linux applies the new value in place).  `std`
    /// hard-codes a 128-entry backlog, which a thousand-client connect
    /// storm overflows in milliseconds on a loaded host — every
    /// overflow costs the client a ~1 s SYN retransmit.
    pub fn widen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
        check(unsafe { syscall4(SYS_LISTEN, fd as i64, backlog as i64, 0, 0) })?;
        Ok(())
    }

    /// An epoll instance.
    pub struct Poller {
        epfd: RawFd,
        /// Reused kernel-facing event buffer.
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })?;
            Ok(Poller {
                epfd: epfd as RawFd,
                events: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i64, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let ev = EpollEvent {
                events,
                data: token,
            };
            check(unsafe {
                syscall4(
                    SYS_EPOLL_CTL,
                    self.epfd as i64,
                    op,
                    fd as i64,
                    std::ptr::addr_of!(ev) as i64,
                )
            })?;
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, events)
        }

        pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, events)
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait up to `timeout_ms` and append `(token, readiness)`
        /// pairs to `out`.  A signal interruption reports no events.
        pub fn wait(&mut self, out: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()> {
            let n = unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    self.epfd as i64,
                    self.events.as_mut_ptr() as i64,
                    self.events.len() as i64,
                    timeout_ms as i64,
                )
            };
            if n == -EINTR {
                return Ok(());
            }
            let n = check(n)? as usize;
            for ev in &self.events[..n] {
                out.push((ev.data, ev.events));
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                let _ = syscall4(SYS_CLOSE, self.epfd as i64, 0, 0, 0);
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!(
    "xrd-net's reactor needs raw file descriptors (std::os::fd); \
     only unix targets are supported"
);

#[cfg(all(unix, not(all(target_os = "linux", target_arch = "x86_64"))))]
pub(crate) mod sys {
    //! Portable fallback: a sweep poller.  With no readiness syscall
    //! available dependency-free, every registered socket is reported
    //! ready each tick and the reactor's nonblocking I/O turns
    //! spurious readiness into cheap `WouldBlock`s.  Degraded (a ~1 ms
    //! sweep cadence instead of true wakeups) but correct — the state
    //! machines never rely on readiness being genuine.

    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    pub struct Poller {
        registered: Vec<(RawFd, u64, u32)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Vec::new(),
            })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.registered.push((fd, token, events));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            for entry in &mut self.registered {
                if entry.0 == fd {
                    *entry = (fd, token, events);
                }
            }
            Ok(())
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.retain(|&(f, _, _)| f != fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()> {
            std::thread::sleep(Duration::from_millis((timeout_ms as u64).min(1)));
            for &(_, token, events) in &self.registered {
                // A zero-interest registration solicits nothing (e.g. a
                // half-closed connection awaiting its deferred
                // response): reporting it would read as the unmaskable
                // ERR/HUP, which this poller cannot actually detect.
                if events != 0 {
                    out.push((token, events));
                }
            }
            Ok(())
        }
    }
}

use std::os::fd::AsRawFd;

use sys::Poller;

// ---------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------

/// What a connection's state machine wants done with it after being
/// driven as far as the socket allows.
enum Action {
    /// Still alive; wait for the readiness the machine is blocked on.
    Keep,
    /// Still alive with work already buffered: hit the per-event frame
    /// budget ([`FRAMES_PER_EVENT`]).  Re-drive it next loop iteration
    /// — do *not* wait for readiness, which may never fire again for
    /// bytes that already left the kernel buffer.
    Yield,
    /// Still alive, parked behind a reply held for this iteration's
    /// commit.  The release drives it again before the loop next waits,
    /// so its poller registration is left as it is.
    Held,
    /// Finished or failed; deregister and close.
    Drop,
    /// This connection's [`Frame::Shutdown`] acknowledgement has fully
    /// drained: stop the whole daemon.
    Stop,
}

/// Frames one connection may consume per visit before the reactor
/// moves on.  Without the budget, a peer that keeps small pipelined
/// frames flowing (and drains its responses) would keep `advance`'s
/// flush→process→read loop running and monopolize the reactor thread,
/// starving every other connection.
const FRAMES_PER_EVENT: usize = 64;

/// The per-tag `frames.in.<TagName>` counters, tag-indexed: their
/// names are computed, so each is looked up on first sight of its tag
/// (once per tag per reactor) and kept here.
struct FramesByTag([Option<&'static Counter>; 256]);

impl FramesByTag {
    /// Count one decoded frame, total and per tag.
    fn count(&mut self, tag: u8) {
        xrd_obs::counter!("reactor.frames_in").incr();
        let counter = match self.0[tag as usize] {
            Some(c) => c,
            None => {
                let name = Frame::tag_name(tag).unwrap_or("Unknown");
                let c = xrd_obs::counter(&format!("frames.in.{name}"));
                self.0[tag as usize] = Some(c);
                c
            }
        };
        counter.incr();
    }
}

struct Connection {
    framed: Framed,
    /// Close once the output drains (protocol error or shutdown ack).
    closing: bool,
    /// This connection carried [`Frame::Shutdown`]: stop the daemon
    /// once the acknowledgement is flushed.
    is_shutdown: bool,
    /// The pending response slot: a deferred job is computing this
    /// connection's next response on the worker pool, or the response
    /// is held for the iteration's commit.  While occupied, no further
    /// requests are processed (or even read) — the completion re-opens
    /// the slot and queues its frames.
    pending: bool,
    /// The peer closed its write half (EOF on read).  It may still be
    /// reading: a half-closing request/response client must receive
    /// its pending deferred response before the connection drops.
    read_closed: bool,
}

impl Connection {
    /// The readiness this connection should be registered for: drain
    /// output first; only solicit (and therefore read) new requests
    /// once the previous response is fully on the wire.  While a
    /// deferred response is pending, solicit nothing; once the peer
    /// has half-closed, its hangup is old news — stop soliciting even
    /// that, or the level-triggered poller re-reports it forever
    /// (errors and full hangups are delivered regardless of the mask).
    fn wanted_interest(&self) -> u32 {
        let hangup = if self.read_closed {
            0
        } else {
            interest::READ_HANGUP
        };
        if self.framed.has_pending_output() {
            interest::WRITE | hangup
        } else if self.pending || self.read_closed {
            hangup
        } else {
            interest::READ | hangup
        }
    }

    /// Count and log a request that did not parse; the caller answers
    /// it with [`bad_frame`] and closes the connection after.
    fn malformed(&self, token: ConnId, e: &CodecError) {
        xrd_obs::counter!("reactor.err.malformed_frame").incr();
        xrd_obs::debug!(
            "dropping conn {token} ({:?}): bad frame: {e}",
            self.framed.stream().peer_addr()
        );
    }

    /// Drive this connection as far as the socket allows or the frame
    /// budget permits: flush pending output, process buffered frames
    /// (one at a time — the next request is handled only after the
    /// previous response has drained), read newly arrived bytes,
    /// repeat.  Deferred jobs the service produced are appended to
    /// `deferred` for the reactor to submit, replies it wants held for
    /// the commit to `held` (either way the connection is already
    /// marked pending).  Once a commit has been refused (`failed`), the
    /// service is not asked again: every request reads that refusal.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        token: ConnId,
        service: &Arc<dyn Service>,
        workers: &Arc<WorkerPool>,
        read_buf: &mut [u8],
        deferred: &mut Vec<(ConnId, Job)>,
        held: &mut Vec<Completion>,
        failed: Option<&Frame>,
        frames_in: &mut FramesByTag,
    ) -> Action {
        let mut frames_this_visit = 0;
        loop {
            // 1. Flush whatever output is pending.
            let (flushed, written) = self.framed.flush();
            xrd_obs::counter!("reactor.bytes_out").add(written as u64);
            match flushed {
                Flush::Drained => {}
                Flush::Blocked => {
                    xrd_obs::counter!("reactor.write_stalls").incr();
                    return Action::Keep;
                }
                Flush::Dead(_) => {
                    xrd_obs::counter!("reactor.err.io").incr();
                    return Action::Drop;
                }
            }
            if self.closing {
                return if self.is_shutdown {
                    Action::Stop
                } else {
                    Action::Drop
                };
            }
            // A pending slot whose peer half-closed solicits only the
            // unmaskable ERR/HUP: a visit means the response has no reader
            // (its completion is discarded), and keeping the connection
            // would busy-spin the loop on the level-triggered hangup.
            if self.pending && self.read_closed {
                return Action::Drop;
            }

            // 2. Process one buffered request, if complete — unless the
            // slot is pending (nothing is processed until it re-opens) or
            // this visit's budget is spent, in which case yield the
            // thread to the other connections and resume next tick.
            let next = if self.pending {
                None
            } else if frames_this_visit >= FRAMES_PER_EVENT {
                xrd_obs::counter!("reactor.budget_yields").incr();
                return Action::Yield;
            } else {
                frames_this_visit += 1;
                self.framed.next_frame_wire()
            };
            match next {
                Some(Ok((Frame::Shutdown, _))) => {
                    frames_in.count(Frame::Shutdown.tag());
                    self.framed.queue(&Frame::Ok);
                    self.closing = true;
                    self.is_shutdown = true;
                    continue;
                }
                Some(Ok((Frame::Ping, _))) => {
                    // Liveness probe, answered by the reactor itself so
                    // "process up and reading its socket" is observable
                    // even while the service is busy in a deferred job.
                    frames_in.count(Frame::Ping.tag());
                    self.framed.queue(&Frame::Pong);
                    continue;
                }
                Some(Ok((Frame::StatsRequest, _))) => {
                    // Answered by the reactor itself — like Shutdown —
                    // so every daemon kind serves scrapes without its
                    // service knowing the frame exists.
                    frames_in.count(Frame::StatsRequest.tag());
                    self.framed.queue(&Frame::StatsReport {
                        snapshot: Box::new(xrd_obs::global().snapshot()),
                    });
                    continue;
                }
                Some(Ok((frame, wire))) => {
                    frames_in.count(frame.tag());
                    if let Some(refusal) = failed {
                        self.framed.queue(refusal);
                        continue;
                    }
                    match service.handle(token, frame, wire, workers) {
                        Outcome::Reply(frames) => {
                            frames.iter().for_each(|frame| self.framed.queue(frame))
                        }
                        Outcome::Defer(job) => {
                            self.pending = true;
                            xrd_obs::counter!("reactor.deferred_jobs").incr();
                            deferred.push((token, job));
                        }
                        Outcome::ReplyAfterCommit(frames) => {
                            self.pending = true;
                            held.push(Completion {
                                conn: token,
                                bytes: frames.iter().flat_map(Frame::encode).collect(),
                                closes: false,
                            });
                            return Action::Held;
                        }
                    }
                    continue;
                }
                Some(Err(e)) => {
                    // Unparseable bytes: count, log the peer, report,
                    // and close (the stream may be desynchronized) —
                    // after the report drains.
                    self.malformed(token, &e);
                    self.framed.queue(&bad_frame(&e));
                    self.closing = true;
                    continue;
                }
                None => {}
            }

            // 3. Pull newly arrived bytes off the socket — for a pending
            // slot only a probe: a *half*-closing request/response client
            // (EOF here) still gets its response, and stray bytes are
            // buffered, not processed.
            match self.framed.read(read_buf) {
                Ok(0) if self.pending => {
                    self.read_closed = true;
                    return Action::Keep;
                }
                Ok(0) => return Action::Drop, // peer hung up
                Ok(n) => {
                    xrd_obs::counter!("reactor.bytes_in").add(n as u64);
                    if self.pending {
                        return Action::Keep;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.framed.rest();
                    return Action::Keep;
                }
                Err(_) => {
                    xrd_obs::counter!("reactor.err.io").incr();
                    return Action::Drop;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;

/// Token of the self-pipe's read end (worker-pool completions wake the
/// poller through it); connections get `2..`.
const WAKE_TOKEN: u64 = 1;

/// Worker threads per daemon when not specified: enough to keep hop
/// crypto off the reactor thread and use a few cores, capped so a
/// many-daemon loopback deployment stays at O(daemons) threads.
fn default_pool_size() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

/// Wakes the reactor's poller from worker threads by writing a byte
/// into its self-pipe (a loopback TCP pair — portable, std-only).  A
/// full pipe means a wakeup is already pending, so `WouldBlock` is
/// success.
struct Waker {
    tx: Mutex<TcpStream>,
}

impl Waker {
    fn wake(&self) {
        if let Ok(tx) = self.tx.lock() {
            let _ = (&*tx).write(&[1u8]);
        }
    }
}

/// Bytes awaiting delivery to a connection, re-opening its pending
/// slot: a deferred job's response or a reply released by a commit.
struct Completion {
    conn: ConnId,
    bytes: Vec<u8>,
    /// The connection closes once these bytes drain (a commit found
    /// its request malformed).
    closes: bool,
}

/// Completed deferred jobs awaiting delivery.
type Completions = Mutex<Vec<Completion>>;

/// The event loop serving every connection of one daemon from a single
/// thread.  Built by [`Reactor::bind`], consumed by [`Reactor::run`]
/// (which the daemon runs on one spawned thread).
pub struct Reactor {
    poller: Poller,
    listener: TcpListener,
    addr: SocketAddr,
    conns: HashMap<u64, Connection>,
    next_token: u64,
    service: Arc<dyn Service>,
    workers: Arc<WorkerPool>,
    /// Read end of the self-pipe; drained whenever it turns readable.
    wake_rx: TcpStream,
    waker: Arc<Waker>,
    completions: Arc<Completions>,
    stop: Arc<AtomicBool>,
    /// A [`Frame::Shutdown`] is being acknowledged: refuse new
    /// connections while it drains.
    draining: bool,
    /// The refusal of the commit that failed, answered to every later
    /// request; cleared only by a restart.
    failed: Option<Frame>,
    /// The per-tag frame counters.
    frames_in: FramesByTag,
}

impl Reactor {
    /// Bind `addr` (nonblocking) and prepare the loop; no thread is
    /// spawned here, so the bound address is known before `run`.  The
    /// worker pool defaults to `min(4, available_parallelism)` threads
    /// (spawned lazily on the first deferred job).
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Arc<dyn Service>) -> std::io::Result<Reactor> {
        Reactor::bind_with_workers(addr, service, default_pool_size())
    }

    /// [`Reactor::bind`] with an explicit worker-pool size.
    pub fn bind_with_workers<A: ToSocketAddrs>(
        addr: A,
        service: Arc<dyn Service>,
        workers: usize,
    ) -> std::io::Result<Reactor> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        // Best-effort: absorb whole connect storms in the accept queue
        // instead of making late clients retransmit SYNs.
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        let _ = sys::widen_backlog(listener.as_raw_fd(), 4096);
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        // The self-pipe: a loopback TCP pair private to this reactor.
        // The temporary listener closes as soon as the pair exists.
        let pipe_listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let tx = TcpStream::connect(pipe_listener.local_addr()?)?;
        let (wake_rx, _) = pipe_listener.accept()?;
        wake_rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let waker = Arc::new(Waker { tx: Mutex::new(tx) });
        let completions: Arc<Completions> = Arc::new(Mutex::new(Vec::new()));
        Ok(Reactor {
            poller,
            listener,
            addr,
            conns: HashMap::new(),
            next_token: WAKE_TOKEN + 1,
            service,
            workers: WorkerPool::new(workers),
            wake_rx,
            waker,
            completions,
            stop: Arc::new(AtomicBool::new(false)),
            draining: false,
            failed: None,
            frames_in: FramesByTag([None; 256]),
        })
    }

    /// The bound address (useful with port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stop flag: set it and poke the listener (one throwaway
    /// connect) to make `run` return promptly; `run` also re-checks it
    /// at least every 100 ms (`WAIT_MS`) on its own.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Run the event loop until the stop flag is set or a peer's
    /// [`Frame::Shutdown`] is acknowledged.  Consumes the reactor; all
    /// sockets close on return (the worker pool is drained and joined
    /// first).
    pub fn run(mut self) {
        let mut poller = self.poller;
        if poller
            .add(self.listener.as_raw_fd(), LISTENER_TOKEN, interest::READ)
            .is_err()
        {
            return;
        }
        if poller
            .add(self.wake_rx.as_raw_fd(), WAKE_TOKEN, interest::READ)
            .is_err()
        {
            return;
        }
        let mut read_buf = vec![0u8; READ_CHUNK];
        let mut events: Vec<(u64, u32)> = Vec::with_capacity(256);
        // Connections that hit their frame budget mid-visit: they have
        // work buffered in user space, so readiness may never fire for
        // it again — re-drive them every iteration until they block.
        let mut yielded: Vec<u64> = Vec::new();
        // Jobs the service deferred during an `advance`, submitted to
        // the pool right after (collected here to keep `advance`'s
        // borrows simple).
        let mut deferred: Vec<(ConnId, Job)> = Vec::new();
        // Replies held for this iteration's commit, and the ones the
        // last commit released: those are delivered like any other
        // completion at the top of the next iteration, after a
        // non-blocking poll has gathered whatever became readable while
        // the commit ran — the next group.
        let mut held: Vec<Completion> = Vec::new();
        let mut released: Vec<Completion> = Vec::new();

        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            // With yielded work or released replies pending, poll
            // without blocking so they move at event-loop cadence.
            let timeout = if yielded.is_empty() && released.is_empty() {
                WAIT_MS
            } else {
                0
            };
            if poller.wait(&mut events, timeout).is_err() {
                break;
            }
            xrd_obs::counter!("reactor.wakes").incr();
            xrd_obs::counter!("reactor.ready_events").add(events.len() as u64);
            // Deliver completed deferred responses and committed replies,
            // re-opening each connection's pending slot: queue the bytes
            // and drive the connection this iteration.
            let mut done: Vec<Completion> =
                std::mem::take(&mut *self.completions.lock().expect("completions poisoned"));
            done.append(&mut released);
            for completion in done {
                let Some(conn) = self.conns.get_mut(&completion.conn) else {
                    continue; // connection died while its job ran
                };
                conn.pending = false;
                conn.closing |= completion.closes;
                conn.framed.queue_encoded(completion.bytes);
                events.push((completion.conn, 0));
            }
            // Budget-limited connections first (fairness: they were cut
            // off last iteration), then fresh readiness.
            events.splice(0..0, yielded.drain(..).map(|t| (t, 0)));
            for &(token, _readiness) in &events {
                if token == WAKE_TOKEN {
                    // Drain the self-pipe; the completions it announced
                    // were collected above (or will be next iteration).
                    while let Ok(1..) = self.wake_rx.read(&mut read_buf[..64]) {}
                    continue;
                }
                if token == LISTENER_TOKEN {
                    // Drain the whole accept backlog: nonblocking, so a
                    // connect storm costs one registration each, not a
                    // thread each.
                    loop {
                        match self.listener.accept() {
                            Ok((stream, _)) => {
                                let framed = match Framed::nonblocking(stream) {
                                    Ok(framed) if !self.draining => framed,
                                    _ => {
                                        xrd_obs::counter!("reactor.accepts_rejected").incr();
                                        continue; // drop it
                                    }
                                };
                                let token = self.next_token;
                                self.next_token += 1;
                                let mut conn = Connection {
                                    framed,
                                    closing: false,
                                    is_shutdown: false,
                                    pending: false,
                                    read_closed: false,
                                };
                                let idle = interest::READ | interest::READ_HANGUP;
                                if conn.framed.watch(&mut poller, token, idle).is_ok() {
                                    self.conns.insert(token, conn);
                                    xrd_obs::counter!("reactor.accepts").incr();
                                    xrd_obs::gauge!("reactor.conns_open").incr();
                                } else {
                                    xrd_obs::counter!("reactor.accepts_rejected").incr();
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue; // already dropped this iteration
                };
                let action = conn.advance(
                    token,
                    &self.service,
                    &self.workers,
                    &mut read_buf,
                    &mut deferred,
                    &mut held,
                    self.failed.as_ref(),
                    &mut self.frames_in,
                );
                match action {
                    Action::Keep => {
                        let wanted = conn.wanted_interest();
                        let _ = conn.framed.watch(&mut poller, token, wanted);
                        if conn.is_shutdown {
                            self.draining = true;
                        }
                    }
                    Action::Yield => yielded.push(token),
                    Action::Held => {}
                    Action::Drop => {
                        let conn = self.conns.remove(&token).expect("present");
                        conn.framed.deregister(&mut poller);
                        xrd_obs::counter!("reactor.conns_closed").incr();
                        xrd_obs::gauge!("reactor.conns_open").decr();
                        self.service.on_close(token);
                    }
                    Action::Stop => {
                        // Leave the event pass, not the iteration: what
                        // it held is still committed and released below.
                        self.stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                // Ship whatever the service deferred: the job's frames
                // come back through `completions` + the self-pipe.
                for (token, job) in deferred.drain(..) {
                    let completions = Arc::clone(&self.completions);
                    let waker = Arc::clone(&self.waker);
                    self.workers.spawn_job(move || {
                        let bytes = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                            .unwrap_or_else(|_| {
                                crate::daemon::err(
                                    error_code::BAD_STATE,
                                    "deferred handler panicked",
                                )
                                .encode()
                            });
                        completions
                            .lock()
                            .expect("completions poisoned")
                            .push(Completion {
                                conn: token,
                                bytes,
                                closes: false,
                            });
                        waker.wake();
                    });
                }
            }
            // The commit phase: one `commit` covers every reply held in
            // this iteration; only then may any of them reach a socket.
            if !held.is_empty() {
                let started = Instant::now();
                let committed = self.service.commit();
                xrd_obs::hist!("reactor.commit_us").record_duration(started.elapsed());
                xrd_obs::counter!("reactor.commits").incr();
                xrd_obs::hist!("reactor.commit.held").record(held.len() as u64);
                match committed {
                    Ok(settled) if settled.is_empty() => {}
                    Ok(settled) => {
                        let mut settled: HashMap<ConnId, Settled> = settled.into_iter().collect();
                        for reply in &mut held {
                            let frame = match settled.remove(&reply.conn) {
                                None => continue,
                                Some(Settled::Instead(frame)) => frame,
                                Some(Settled::Malformed(e)) => {
                                    if let Some(conn) = self.conns.get(&reply.conn) {
                                        conn.malformed(reply.conn, &e);
                                    }
                                    reply.closes = true;
                                    bad_frame(&e)
                                }
                            };
                            reply.bytes = frame.encode();
                        }
                    }
                    Err(frame) => {
                        xrd_obs::counter!("reactor.err.commit").incr();
                        let refusal = frame.encode();
                        for reply in &mut held {
                            reply.bytes.clone_from(&refusal);
                        }
                        self.failed = Some(frame);
                    }
                }
                released.append(&mut held);
            }
        }
        // Replies committed by the final iteration (a `Shutdown` or the
        // stop flag ended the loop) still go out, as far as each socket
        // takes them without blocking.
        for reply in released {
            if let Some(conn) = self.conns.get_mut(&reply.conn) {
                conn.framed.queue_encoded(reply.bytes);
                let (_, written) = conn.framed.flush();
                xrd_obs::counter!("reactor.bytes_out").add(written as u64);
            }
        }
        // Let in-flight and queued jobs finish, then join the workers —
        // only then close the sockets (peers see EOF, not RST).
        self.workers.shutdown();
        for &token in self.conns.keys() {
            self.service.on_close(token);
        }
        // The process-wide gauge must not keep counting sockets this
        // (possibly in-process, as in tests) reactor is about to close.
        xrd_obs::gauge!("reactor.conns_open").add(-(self.conns.len() as i64));
        xrd_obs::counter!("reactor.conns_closed").add(self.conns.len() as u64);
        // Dropping `self.conns` and the listener closes every socket;
        // peers see EOF.
    }
}
