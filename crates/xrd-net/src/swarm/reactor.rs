//! The client-side reactor: one thread driving tens of thousands of
//! per-user connection state machines — the §8-scale counterpart of the
//! daemon reactor in [`crate::reactor`].
//!
//! A single event loop owns every user's connection — a thread apiece
//! would cap one load-generator process at a few thousand emulated
//! users:
//!
//! * each session is a [`SessionMachine`] — a pure state machine fed
//!   one decoded response [`Frame`] at a time, answering with what to
//!   send next ([`Step`]);
//! * the loop reuses the daemon reactor's syscall layer (`epoll` on
//!   Linux/x86-64, the sweep poller elsewhere) and its framed socket
//!   (`framed.rs`: the incremental [`crate::codec::FrameDecoder`], the
//!   outbound buffer, the flush and the read), so a daemon that
//!   dribbles responses or stalls mid-frame costs the client nothing
//!   but a buffer, and a full kernel send buffer never blocks the loop;
//! * a session whose machine panics fails *that session* — the loop
//!   and every other session keep running;
//! * a session whose connection is lost mid-exchange is retried from
//!   the top of its current exchange, a bounded number of times; a
//!   peer that cannot be *dialed* is redialed after a doubling backoff.
//!
//! Sessions are sequential: a machine talks to one address at a time
//! (submit to hop 0, then hop 1, …; page its mailbox shard), which
//! mirrors a real client device and keeps the connections *in flight*
//! at one per session.  [`fetch_sessions`] is the crate's one mailbox
//! fetch walk: a [`FetchSession`] per mailbox.
//!
//! The loop is a value, [`ClientReactor`], that can outlive one drive:
//! it owns the poller and the connections, parks a connection whose
//! exchange ended instead of closing it, and hands it to the same
//! lane's next session that wants the same address — so a deployment
//! that drives its users through one reactor every round
//! ([`crate::RemoteDeployment`]) dials its daemons once.
//! [`drive_sessions`] is the same loop — there is exactly one in this
//! crate — on a reactor that lives for the call and keeps nothing.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xrd_core::mailbox::shard_of;

use crate::codec::{error_code, Frame};
use crate::conn::NetError;
use crate::framed::{Flush, Framed, READ_CHUNK};
use crate::reactor::sys::Poller;
use crate::reactor::{interest, WAIT_MS};

/// What a [`SessionMachine`] wants done after handling one frame.
#[derive(Debug)]
pub enum Step {
    /// Send these frames on the current connection, then keep reading.
    Send(Vec<Frame>),
    /// Nothing to send; keep reading.
    Continue,
    /// The current exchange is complete: hang up and dial
    /// [`SessionMachine::target`]'s next address (session complete if
    /// it returns `None`).
    NextTarget,
    /// The session failed; the error is recorded and the connection
    /// dropped.
    Fail(NetError),
}

/// One emulated client: a state machine the reactor drives through a
/// sequence of connect → request/response exchanges.
///
/// The driver calls [`target`](SessionMachine::target) to learn where
/// to dial, [`on_connect`](SessionMachine::on_connect) once the
/// connection is up (the frames it returns are the exchange's opening
/// requests), then [`on_frame`](SessionMachine::on_frame) per decoded
/// response.  After a [`Step::NextTarget`], `target` is consulted
/// again — a new address continues the session, `None` completes it.
///
/// "Connect" and "hang up" are the machine's view: the reactor may put
/// an exchange on a connection the lane kept from an earlier one, and
/// park the connection afterwards instead of closing it.
///
/// **Restart discipline**: a connection lost mid-exchange is retried
/// by reconnecting and calling `on_connect` again, so an exchange must
/// be written to be restartable from its opening requests (the XRD
/// client exchanges all are: submissions are deduplicated server-side,
/// fetch pages are non-destructive reads, acks are idempotent
/// watermarks).
pub trait SessionMachine {
    /// Where the session wants to dial now (`None`: session complete).
    fn target(&self) -> Option<SocketAddr>;

    /// The connection to [`target`](SessionMachine::target) is up;
    /// returns the exchange's opening request frames.
    fn on_connect(&mut self) -> Vec<Frame>;

    /// One response frame arrived.
    fn on_frame(&mut self, frame: Frame) -> Step;
}

/// Knobs for one [`drive_sessions`] run.
#[derive(Clone, Debug)]
pub struct DriveConfig {
    /// Reconnect attempts per session after a lost connection (each
    /// retry restarts the session's current exchange).
    pub max_retries: u32,
    /// Per-dial connect timeout.
    pub connect_timeout: Duration,
    /// Whole-run deadline: sessions still incomplete when it expires
    /// fail with [`NetError::Timeout`].
    pub deadline: Duration,
    /// Per-connection idle ceiling: a wire that moves no bytes in
    /// either direction for this long mid-exchange is torn down and the
    /// session redialed against its retry budget — the event-loop
    /// analog of [`crate::ConnTimeouts::read`].  Without it a response
    /// lost in transit (a lossy network, a wedged daemon) leaves the
    /// socket open but forever silent, and the session hangs until the
    /// whole-run `deadline` fails it outright instead of retrying.
    pub exchange_timeout: Duration,
    /// Most sessions concurrently holding a live connection.  Sessions
    /// beyond the cap wait in the dial queue until completions free
    /// slots, so a population larger than the process's fd budget
    /// drains in waves instead of dying on `EMFILE` mid-storm.
    /// [`DriveConfig::within_fd_budget`] fits it to the process's
    /// `RLIMIT_NOFILE` for a [`drive_sessions`] call; a
    /// [`ClientReactor`] that keeps connections has a budget of its own
    /// — parked and live together — and applies the smaller of the two.
    pub max_in_flight: usize,
}

impl Default for DriveConfig {
    fn default() -> DriveConfig {
        DriveConfig {
            max_retries: 3,
            connect_timeout: Duration::from_secs(5),
            deadline: Duration::from_secs(300),
            exchange_timeout: Duration::from_secs(60),
            max_in_flight: MAX_IN_FLIGHT,
        }
    }
}

impl DriveConfig {
    /// This config for a run of `sessions` sessions, fitted to the
    /// process's descriptor budget: `RLIMIT_NOFILE` is raised towards
    /// what holding them all at once would take, and `max_in_flight`
    /// is capped by [`in_flight_cap`] of the limit actually achieved.
    pub fn within_fd_budget(self, sessions: usize) -> DriveConfig {
        let fd_limit = raise_nofile_limit(2 * sessions as u64 + FD_RESERVE);
        DriveConfig {
            max_in_flight: self.max_in_flight.min(in_flight_cap(fd_limit)),
            ..self
        }
    }
}

/// The default [`DriveConfig::max_in_flight`].
const MAX_IN_FLIGHT: usize = 12_000;

/// Descriptors [`in_flight_cap`] leaves to the rest of the process
/// (coordinator connections, listeners, pollers, log segments).
const FD_RESERVE: u64 = 256;

/// Most sessions that may hold a connection at once in a process whose
/// `RLIMIT_NOFILE` is `fd_limit` — the one place the fd budget is
/// computed.  A session costs **two** descriptors: its own socket, and
/// the accepted end when the peer is a daemon in this same process
/// (every loopback cluster), which a budget of one apiece overdraws
/// into `EMFILE` at half the limit.
pub fn in_flight_cap(fd_limit: u64) -> usize {
    let budget = (fd_limit.saturating_sub(FD_RESERVE) / 2).max(64);
    MAX_IN_FLIGHT.min(budget as usize)
}

/// What one [`drive_sessions`] run produced.  The driven machines come
/// back in input order so callers can harvest per-session results.
pub struct RunOutcome<S> {
    /// The machines, in the order they were passed in.
    pub sessions: Vec<S>,
    /// Sessions that ran to completion.
    pub completed: usize,
    /// `(session index, error)` for every failed session.
    pub failed: Vec<(usize, NetError)>,
    /// Wall clock driving the event loop to quiescence.
    pub drive_elapsed: Duration,
}

/// Sessions put on a connection per loop iteration (staggers reconnect
/// bursts so the daemon's accept backlog absorbs them).
const CONNECTS_PER_TICK: usize = 512;

/// Frames one session may consume per visit before yielding the loop
/// to the other sessions.
const FRAMES_PER_VISIT: usize = 32;

/// How often the idle sweep walks the active wires.  Bounds how much a
/// wire can overstay [`DriveConfig::exchange_timeout`]; the walk is a
/// tag-match and clock compare per slot, noise even at 50k sessions.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Wait before redialing a peer that could not be *dialed* (refused,
/// out of descriptors, connect timeout), doubling per retry the session
/// has already spent — [`crate::RetryPolicy::default`]'s schedule.  A
/// daemon being respawned is back in tens of milliseconds; without the
/// wait a session burns its whole retry budget inside one loop tick.
const REDIAL_BACKOFF: Duration = Duration::from_millis(25);

/// Run a session's callback, converting a panic into a session
/// failure instead of a crashed storm.
fn guard<T>(f: impl FnOnce() -> T) -> Result<T, NetError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| NetError::Protocol("session state machine panicked".into()))
}

/// One live client connection.
struct Wire {
    framed: Framed,
    /// The address it is connected to (what it parks under).
    addr: SocketAddr,
    /// Last instant any byte moved on this wire (either direction);
    /// the idle sweep compares it against
    /// [`DriveConfig::exchange_timeout`].
    last_progress: Instant,
    /// Picked up parked, and no byte has come back on it since: if it
    /// turns out dead now, it died in the parking lot (daemon
    /// restarted, proxy dropped it), not in this exchange — replaced by
    /// a fresh dial at no charge to the session's retry budget.
    unproven: bool,
}

/// What a wire with nothing to write is registered for.
const IDLE_INTEREST: u32 = interest::READ | interest::READ_HANGUP;

enum SlotState {
    /// Waiting in the dial queue (or backing off before rejoining it).
    Dialing,
    Active(Wire),
    Finished,
    Failed,
}

struct Slot<S> {
    session: S,
    state: SlotState,
    retries_left: u32,
}

/// What driving one connection as far as its socket allows concluded.
enum Drove {
    /// Blocked on readiness.
    Keep,
    /// Frame budget spent with bytes still buffered; revisit next tick.
    Yield,
    /// The machine finished its exchange; consult `target` and connect
    /// again (or complete).
    StageDone,
    /// The connection died mid-exchange (candidate for a retry).
    Lost(NetError),
    /// The machine failed the session.
    Failed(NetError),
}

/// A connection between exchanges: the framed socket, its buffers
/// released, and what it parks under.
struct Parked {
    lane: usize,
    addr: SocketAddr,
    framed: Framed,
}

/// Poller-token bit marking a parked connection (the rest is its
/// parking id); a live wire's token is its slot index.
const PARKED: u64 = 1 << 63;

/// The client event loop as a value that outlives one drive: it owns
/// the poller and the connections, so a deployment that drives its
/// users' sessions through the same reactor every round keeps their
/// connections across rounds.
///
/// Sessions are numbered by their position in a drive — their **lane**.
/// When a lane's exchange ends, its connection is *parked*: registered
/// for hang-up only, its buffers released, filed under `(lane,
/// address)`.  The next session on that lane — later in the same
/// drive, or in the next one — that wants the same address picks it up
/// instead of dialing, so a population that talks to the same daemons
/// every round dials them once.  Two lanes never share a socket: the
/// lane is part of the key.
///
/// Parked and in-flight connections together stay within one
/// descriptor budget, fixed when the reactor is built
/// ([`in_flight_cap`] of the `RLIMIT_NOFILE` it could raise to): at the
/// budget, the least recently parked connection is closed before a
/// dial, so a population larger than the budget still drains in waves.
/// A parked connection whose peer hangs up is closed as soon as a
/// drive's poller reports it.  One that is not at rest at pick-up —
/// dead, or holding bytes nobody asked for, which its hang-up-only
/// registration never reports — is closed and replaced by a fresh dial
/// without charging the session's retries, as is one found dead only
/// once its exchange is under way.
pub struct ClientReactor {
    poller: Poller,
    /// Parked connections by parking id.  Ids count up, so the first
    /// entry is the least recently used.
    parked: BTreeMap<u64, Parked>,
    /// `(lane, address)` → parking id.
    parked_at: HashMap<(usize, SocketAddr), u64>,
    next_parking_id: u64,
    /// Most connections held at once, parked and in flight together.
    conn_cap: usize,
    /// Whether a finished exchange parks its connection (a reactor
    /// that lives for one drive closes it: nobody will come back).
    keeps: bool,
}

impl ClientReactor {
    /// A reactor that keeps connections between exchanges and drives,
    /// budgeted to this process's descriptor limit — which is raised
    /// here, once, towards what the default in-flight cap would take.
    pub fn new() -> std::io::Result<ClientReactor> {
        let fd_limit = raise_nofile_limit(2 * MAX_IN_FLIGHT as u64 + FD_RESERVE);
        ClientReactor::with_conn_cap(in_flight_cap(fd_limit))
    }

    /// [`ClientReactor::new`] with an explicit connection budget
    /// instead of the one derived from `RLIMIT_NOFILE`.
    pub fn with_conn_cap(conn_cap: usize) -> std::io::Result<ClientReactor> {
        Ok(ClientReactor {
            poller: Poller::new()?,
            parked: BTreeMap::new(),
            parked_at: HashMap::new(),
            next_parking_id: 0,
            conn_cap: conn_cap.max(1),
            keeps: true,
        })
    }

    /// Connections parked right now.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Deregister and close a live wire.
    fn close(&mut self, wire: Wire) {
        wire.framed.deregister(&mut self.poller);
    }

    /// A lane's exchange ended cleanly: park its connection for the
    /// lane's next exchange with that address — or close it, if this
    /// reactor does not keep connections.  Whether it can carry that
    /// exchange is asked when it is picked up.
    fn park(&mut self, lane: usize, mut wire: Wire) {
        if !self.keeps {
            return self.close(wire);
        }
        let id = self.next_parking_id;
        let watched = wire
            .framed
            .watch(&mut self.poller, PARKED | id, interest::READ_HANGUP);
        if watched.is_err() {
            return self.close(wire);
        }
        self.next_parking_id += 1;
        wire.framed.rest();
        let Wire { framed, addr, .. } = wire;
        let displaced = self.parked_at.insert((lane, addr), id);
        debug_assert!(
            displaced.is_none(),
            "a lane picks its parked connection up before it dials"
        );
        self.parked.insert(id, Parked { lane, addr, framed });
    }

    /// The connection `lane` parked with `addr`, if it still has one
    /// and it is at rest; one that is not is closed here.
    fn pick_up(&mut self, lane: usize, addr: SocketAddr) -> Option<Framed> {
        let id = self.parked_at.remove(&(lane, addr))?;
        let parked = self.parked.remove(&id)?;
        if parked.framed.is_at_rest() {
            xrd_obs::counter!("swarm.conns_reused").incr();
            return Some(parked.framed);
        }
        parked.framed.deregister(&mut self.poller);
        None
    }

    /// Close parked connection `id` and forget it.
    fn unpark(&mut self, id: u64) {
        if let Some(parked) = self.parked.remove(&id) {
            self.parked_at.remove(&(parked.lane, parked.addr));
            parked.framed.deregister(&mut self.poller);
        }
    }

    /// The poller reported parked connection `id`.  Only a hang-up is
    /// solicited from it, but readiness is never trusted to be genuine
    /// (the sweep poller reports everything): ask the socket, and end
    /// the connection unless it is at rest.  Readiness for one since
    /// picked up is stale.
    fn check_parked(&mut self, id: u64) {
        if self.parked.get(&id).is_some_and(|p| !p.framed.is_at_rest()) {
            self.unpark(id);
        }
    }

    /// Drive every session to completion (or failure) on the calling
    /// thread — one poller, zero spawned threads, any number of
    /// sessions.  Session `i` runs on lane `i`.
    ///
    /// Failures are per-session: a machine that panics, a daemon that
    /// rejects a request, a connection that dies past its retry budget
    /// — each marks *its* session failed in [`RunOutcome::failed`] and
    /// the rest of the swarm keeps running.  Only a poller-level error
    /// aborts the run as a whole.
    pub fn drive<S: SessionMachine>(
        &mut self,
        sessions: Vec<S>,
        config: &DriveConfig,
    ) -> std::io::Result<RunOutcome<S>> {
        let started = Instant::now();
        let mut slots: Vec<Slot<S>> = sessions
            .into_iter()
            .map(|session| Slot {
                session,
                state: SlotState::Dialing,
                retries_left: config.max_retries,
            })
            .collect();
        let mut run = Run {
            reactor: self,
            config,
            completed: 0,
            failed: Vec::new(),
            dial_queue: VecDeque::new(),
            backoff: BinaryHeap::new(),
            active: 0,
            ready: Vec::new(),
        };

        // Sessions with no target at all complete on the spot.
        for (i, slot) in slots.iter_mut().enumerate() {
            run.enqueue(slot, i);
        }

        let mut read_buf = vec![0u8; READ_CHUNK];
        let mut events: Vec<(u64, u32)> = Vec::with_capacity(1024);
        let mut last_sweep = Instant::now();

        loop {
            // Sessions whose redial backoff has run out rejoin the
            // queue; then connect (and reconnect) in bounded batches
            // per tick.
            let now = Instant::now();
            while let Some(&Reverse((due, i))) = run.backoff.peek() {
                if due > now {
                    break;
                }
                run.backoff.pop();
                run.enqueue(&mut slots[i], i);
            }
            run.connect_batch(&mut slots);

            if run.active == 0 && run.dial_queue.is_empty() && run.backoff.is_empty() {
                break;
            }

            if started.elapsed() > config.deadline {
                for (i, slot) in slots.iter_mut().enumerate() {
                    match &slot.state {
                        SlotState::Active(_) => run.hang_up(slot),
                        SlotState::Dialing => {}
                        SlotState::Finished | SlotState::Failed => continue,
                    }
                    let op = "swarm reactor deadline";
                    run.fail(slot, i, NetError::Timeout { op });
                }
                break;
            }

            // The idle sweep: a silent wire gets no readiness events,
            // so only a clock can notice it.  Idle past the exchange
            // timeout is handled exactly like a lost connection — tear
            // down, charge a retry, redial (the machines restart their
            // current exchange) — so a dropped response heals instead
            // of pinning its session until the whole-run deadline.
            if last_sweep.elapsed() >= SWEEP_EVERY {
                last_sweep = Instant::now();
                for (i, slot) in slots.iter_mut().enumerate() {
                    let SlotState::Active(wire) = &slot.state else {
                        continue;
                    };
                    if wire.last_progress.elapsed() <= config.exchange_timeout {
                        continue;
                    }
                    run.hang_up(slot);
                    let op = "client exchange idle";
                    run.retry(slot, i, NetError::Timeout { op }, None);
                }
            }

            events.clear();
            // Ready sessions and queued connects demand an immediate
            // pass; a queue blocked on the in-flight cap does not —
            // only a completion (a readiness event) can unblock it.  A
            // session backing off wakes the loop when its redial falls
            // due.
            let connects_ready = !run.dial_queue.is_empty() && run.active < run.max_active();
            let timeout = if !run.ready.is_empty() || connects_ready {
                0
            } else if let Some(&Reverse((due, _))) = run.backoff.peek() {
                let until_due = due.saturating_duration_since(Instant::now());
                (until_due.as_millis() as i32 + 1).min(WAIT_MS)
            } else {
                WAIT_MS
            };
            run.reactor.poller.wait(&mut events, timeout)?;
            events.splice(0..0, run.ready.drain(..).map(|t| (t, 0)));

            for &(token, _readiness) in &events {
                if token & PARKED != 0 {
                    run.reactor.check_parked(token & !PARKED);
                    continue;
                }
                let i = token as usize;
                let Some(slot) = slots.get_mut(i) else {
                    continue;
                };
                let SlotState::Active(wire) = &mut slot.state else {
                    continue; // stale readiness for a closed connection
                };
                match drive_wire(wire, &mut slot.session, &mut read_buf) {
                    Drove::Keep => {
                        let mut wanted = IDLE_INTEREST;
                        if wire.framed.has_pending_output() {
                            wanted |= interest::WRITE;
                        }
                        let _ = wire.framed.watch(&mut run.reactor.poller, token, wanted);
                    }
                    Drove::Yield => run.ready.push(token),
                    Drove::StageDone => {
                        let wire = run.detach(slot);
                        run.reactor.park(i, wire);
                        run.enqueue(slot, i);
                    }
                    Drove::Lost(e) => {
                        let wire = run.detach(slot);
                        let died_parked = wire.unproven;
                        run.reactor.close(wire);
                        if died_parked {
                            run.enqueue(slot, i);
                        } else {
                            run.retry(slot, i, e, None);
                        }
                    }
                    Drove::Failed(e) => {
                        run.hang_up(slot);
                        run.fail(slot, i, e);
                    }
                }
            }
        }

        let Run {
            completed,
            mut failed,
            ..
        } = run;
        failed.sort_by_key(|(i, _)| *i);
        Ok(RunOutcome {
            sessions: slots.into_iter().map(|s| s.session).collect(),
            completed,
            failed,
            drive_elapsed: started.elapsed(),
        })
    }
}

/// One drive's bookkeeping — what the event loop and the dialer both
/// move — over the reactor it runs on.
struct Run<'a> {
    reactor: &'a mut ClientReactor,
    config: &'a DriveConfig,
    completed: usize,
    failed: Vec<(usize, NetError)>,
    /// Sessions waiting for a connection, with the address they want.
    dial_queue: VecDeque<(usize, SocketAddr)>,
    /// Sessions whose last dial failed, by the instant they may rejoin
    /// the dial queue.
    backoff: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Live connections right now; the in-flight gate.
    active: usize,
    /// Slots to drive on the next pass without waiting for readiness:
    /// just connected (opening requests queued, the socket all but
    /// surely writable), or cut off by the frame budget with bytes
    /// already buffered.
    ready: Vec<u64>,
}

impl Run<'_> {
    fn fail<S>(&mut self, slot: &mut Slot<S>, i: usize, e: NetError) {
        slot.state = SlotState::Failed;
        self.failed.push((i, e));
    }

    /// Queue slot `i` for a connection to its machine's current target;
    /// a machine with no target left has completed its session.
    fn enqueue<S: SessionMachine>(&mut self, slot: &mut Slot<S>, i: usize) {
        match guard(|| slot.session.target()) {
            Ok(Some(addr)) => {
                slot.state = SlotState::Dialing;
                self.dial_queue.push_back((i, addr));
            }
            Ok(None) => {
                slot.state = SlotState::Finished;
                self.completed += 1;
            }
            Err(e) => self.fail(slot, i, e),
        }
    }

    /// Slot `i` lost its connection, or could not get one: charge a
    /// retry and redial — after `wait`, if any — or, the budget spent,
    /// fail the session with `e`.
    fn retry<S: SessionMachine>(
        &mut self,
        slot: &mut Slot<S>,
        i: usize,
        e: NetError,
        wait: Option<Duration>,
    ) {
        if slot.retries_left == 0 {
            return self.fail(slot, i, e);
        }
        slot.retries_left -= 1;
        match wait {
            Some(wait) => {
                slot.state = SlotState::Dialing;
                self.backoff.push(Reverse((Instant::now() + wait, i)));
            }
            None => self.enqueue(slot, i),
        }
    }

    /// Take the live wire out of `slot` (whose next state the caller
    /// sets).
    fn detach<S>(&mut self, slot: &mut Slot<S>) -> Wire {
        self.active -= 1;
        match std::mem::replace(&mut slot.state, SlotState::Dialing) {
            SlotState::Active(wire) => wire,
            _ => unreachable!("only a live wire is detached"),
        }
    }

    /// Close `slot`'s live connection.
    fn hang_up<S>(&mut self, slot: &mut Slot<S>) {
        let wire = self.detach(slot);
        self.reactor.close(wire);
    }

    /// Most connections in flight at once: the drive's own cap, within
    /// the reactor's budget.
    fn max_active(&self) -> usize {
        self.config.max_in_flight.min(self.reactor.conn_cap)
    }

    /// Connect queued sessions, at most [`CONNECTS_PER_TICK`] of them,
    /// while the in-flight cap has room — so the wave never outruns the
    /// fd budget.
    fn connect_batch<S: SessionMachine>(&mut self, slots: &mut [Slot<S>]) {
        for _ in 0..CONNECTS_PER_TICK {
            if self.active >= self.max_active() {
                break;
            }
            let Some((i, addr)) = self.dial_queue.pop_front() else {
                break;
            };
            self.connect(&mut slots[i], i, addr);
        }
    }

    /// Put slot `i` on a connection to `addr` — the one its lane parked
    /// there, else a fresh dial (closing the least recently parked
    /// connections first if the reactor is at its budget) — and queue
    /// the exchange's opening requests on it.  A failed dial charges a
    /// retry or fails the session.
    fn connect<S: SessionMachine>(&mut self, slot: &mut Slot<S>, i: usize, addr: SocketAddr) {
        let token = i as u64;
        let kept = self.reactor.pick_up(i, addr);
        let reused = kept.is_some();
        let framed = match kept {
            Some(framed) => framed,
            None => {
                let reactor = &mut *self.reactor;
                while reactor.parked.len() + self.active >= reactor.conn_cap {
                    let Some((&oldest, _)) = reactor.parked.first_key_value() else {
                        break;
                    };
                    reactor.unpark(oldest);
                    xrd_obs::counter!("swarm.conns_evicted").incr();
                }
                xrd_obs::counter!("swarm.dials").incr();
                match TcpStream::connect_timeout(&addr, self.config.connect_timeout)
                    .and_then(Framed::nonblocking)
                {
                    Ok(framed) => framed,
                    Err(e) => {
                        let spent = self.config.max_retries - slot.retries_left;
                        let wait = REDIAL_BACKOFF * 2u32.saturating_pow(spent.min(8));
                        return self.retry(slot, i, NetError::Io(e), Some(wait));
                    }
                }
            }
        };
        let mut wire = Wire {
            framed,
            addr,
            last_progress: Instant::now(),
            unproven: reused,
        };
        // Registered as idle, driven as ready: the first pass writes the
        // opening requests without waiting to be told the socket is
        // writable, and only a write that blocks asks for that.
        let registered = wire
            .framed
            .watch(&mut self.reactor.poller, token, IDLE_INTEREST);
        if registered.is_err() {
            self.reactor.close(wire);
            let e = NetError::Protocol("poller registration failed (fd limit?)".into());
            return self.fail(slot, i, e);
        }
        match guard(|| slot.session.on_connect()) {
            Ok(frames) => frames.iter().for_each(|frame| wire.framed.queue(frame)),
            Err(e) => {
                self.reactor.close(wire);
                return self.fail(slot, i, e);
            }
        }
        slot.state = SlotState::Active(wire);
        self.active += 1;
        self.ready.push(token);
    }
}

/// Drive every session to completion (or failure) on the calling
/// thread, on a [`ClientReactor`] that lives for this call and closes
/// each connection when its exchange ends — see
/// [`ClientReactor::drive`], which this is.
pub fn drive_sessions<S: SessionMachine>(
    sessions: Vec<S>,
    config: &DriveConfig,
) -> std::io::Result<RunOutcome<S>> {
    let mut reactor = ClientReactor {
        keeps: false,
        ..ClientReactor::with_conn_cap(usize::MAX)?
    };
    reactor.drive(sessions, config)
}

/// Drive one connection as far as its socket and frame budget allow:
/// flush, process decoded frames through the machine, read, repeat.
fn drive_wire<S: SessionMachine>(wire: &mut Wire, session: &mut S, read_buf: &mut [u8]) -> Drove {
    let mut frames_this_visit = 0;
    loop {
        // 1. Flush pending output.
        let (flushed, written) = wire.framed.flush();
        if written > 0 {
            wire.last_progress = Instant::now();
        }
        match flushed {
            Flush::Drained => {}
            Flush::Blocked => return Drove::Keep,
            Flush::Dead(e) => return Drove::Lost(NetError::Io(e)),
        }

        // 2. Hand one decoded frame to the machine.
        if frames_this_visit >= FRAMES_PER_VISIT {
            return Drove::Yield;
        }
        match wire.framed.next_frame() {
            Some(Ok(frame)) => {
                frames_this_visit += 1;
                match guard(|| session.on_frame(frame)) {
                    Ok(Step::Send(frames)) => {
                        frames.iter().for_each(|frame| wire.framed.queue(frame))
                    }
                    Ok(Step::Continue) => {}
                    Ok(Step::NextTarget) => return Drove::StageDone,
                    Ok(Step::Fail(e)) => return Drove::Failed(e),
                    Err(e) => return Drove::Failed(e),
                }
                continue;
            }
            Some(Err(e)) => return Drove::Failed(NetError::Codec(e)),
            None => {}
        }

        // 3. Pull newly arrived bytes off the socket.
        match wire.framed.read(read_buf) {
            Ok(0) => return Drove::Lost(NetError::Disconnected),
            Ok(_) => {
                wire.last_progress = Instant::now();
                wire.unproven = false;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Drove::Keep,
            Err(e) => return Drove::Lost(NetError::Io(e)),
        }
    }
}

// ---------------------------------------------------------------------
// The XRD client machines
// ---------------------------------------------------------------------

/// A user's submission leg: one sealed submission delivered to every
/// daemon of its chain (the §4 input-agreement fan-out), for each of
/// the user's submissions, one exchange at a time.
pub struct SubmitSession {
    /// `(daemon, Submit frame)` exchanges, in order; each awaits `Ok`.
    exchanges: Vec<(SocketAddr, Frame)>,
    next: usize,
}

impl SubmitSession {
    /// A session delivering each `(addr, frame)` exchange in order.
    pub fn new(exchanges: Vec<(SocketAddr, Frame)>) -> SubmitSession {
        SubmitSession { exchanges, next: 0 }
    }

    /// Exchanges acknowledged so far.
    pub fn acknowledged(&self) -> usize {
        self.next
    }
}

impl SessionMachine for SubmitSession {
    fn target(&self) -> Option<SocketAddr> {
        self.exchanges.get(self.next).map(|(addr, _)| *addr)
    }

    fn on_connect(&mut self) -> Vec<Frame> {
        match self.exchanges.get(self.next) {
            Some((_, frame)) => vec![frame.clone()],
            None => Vec::new(),
        }
    }

    fn on_frame(&mut self, frame: Frame) -> Step {
        match frame {
            // Pong closes an exchange too: tests (and health sweeps)
            // drive sessions of bare Pings through the same machinery.
            Frame::Ok | Frame::Pong => {
                self.next += 1;
                Step::NextTarget
            }
            Frame::Error { code, message } => Step::Fail(NetError::Remote { code, message }),
            other => Step::Fail(NetError::Protocol(format!(
                "expected Ok for submission, got {other:?}"
            ))),
        }
    }
}

/// A user's fetch leg: page the mailbox down from its shard with
/// cursor-bounded [`Frame::FetchPage`]s, then ack the watermark —
/// restartable at any point (reads are non-destructive, acks are
/// idempotent).
pub struct FetchSession {
    shard: SocketAddr,
    mailbox: [u8; 32],
    page_max: u32,
    cursor: u64,
    entries: Vec<(u64, Vec<u8>)>,
    /// The ack went out; only its `Ok` is outstanding.
    acked: bool,
    done: bool,
}

impl FetchSession {
    /// A session draining `mailbox` from the shard daemon at `shard`.
    pub fn new(shard: SocketAddr, mailbox: [u8; 32], page_max: u32) -> FetchSession {
        FetchSession {
            shard,
            mailbox,
            page_max,
            cursor: 0,
            entries: Vec::new(),
            acked: false,
            done: false,
        }
    }

    /// The mailbox this session drains.
    pub fn mailbox(&self) -> [u8; 32] {
        self.mailbox
    }

    /// The fetched `(delivery_round, sealed)` entries, oldest first.
    pub fn into_entries(self) -> Vec<(u64, Vec<u8>)> {
        self.entries
    }
}

impl SessionMachine for FetchSession {
    fn target(&self) -> Option<SocketAddr> {
        if self.done {
            None
        } else {
            Some(self.shard)
        }
    }

    fn on_connect(&mut self) -> Vec<Frame> {
        if self.acked {
            // The walk finished and the ack may or may not have been
            // applied before the connection died: resend it (an
            // idempotent watermark).
            return vec![Frame::FetchAck {
                mailbox: self.mailbox,
                upto: self.cursor,
            }];
        }
        // (Re)start the walk from the shard's watermark: nothing has
        // been acked, so a retry re-reads everything.
        self.cursor = 0;
        self.entries.clear();
        vec![Frame::FetchPage {
            mailbox: self.mailbox,
            cursor: 0,
            max: self.page_max,
        }]
    }

    fn on_frame(&mut self, frame: Frame) -> Step {
        match frame {
            Frame::MailboxPage {
                sealed,
                next_cursor,
                remaining,
            } => {
                if self.acked || next_cursor < self.cursor {
                    return Step::Fail(NetError::Protocol("mailbox page out of sequence".into()));
                }
                self.entries.extend(sealed);
                self.cursor = next_cursor;
                if remaining > 0 {
                    Step::Send(vec![Frame::FetchPage {
                        mailbox: self.mailbox,
                        cursor: self.cursor,
                        max: self.page_max,
                    }])
                } else if self.entries.is_empty() {
                    self.done = true;
                    Step::NextTarget
                } else {
                    self.acked = true;
                    Step::Send(vec![Frame::FetchAck {
                        mailbox: self.mailbox,
                        upto: self.cursor,
                    }])
                }
            }
            Frame::Ok if self.acked => {
                self.done = true;
                Step::NextTarget
            }
            Frame::Error { code, .. } if code == error_code::UNKNOWN_MAILBOX => {
                // Never delivered to: empty from this user's point of
                // view.
                self.done = true;
                Step::NextTarget
            }
            Frame::Error { code, message } => Step::Fail(NetError::Remote { code, message }),
            other => Step::Fail(NetError::Protocol(format!(
                "unexpected fetch response: {other:?}"
            ))),
        }
    }
}

/// Largest page a mailbox walk asks its shard for.
pub const FETCH_PAGE_MAX: u32 = 256;

/// One [`FetchSession`] per listed mailbox, each aimed at the shard
/// that owns it (`shards[s]` is shard `s`): a user downloading her own
/// mailbox over her own connection (§5.1).  Driven, the sessions come
/// back in the order listed, so `sessions[i].into_entries()` is
/// `mailboxes[i]`'s mail; one that failed beyond its retries is in
/// [`RunOutcome::failed`] and the others are unaffected.
///
/// This is the only mailbox fetch walk in the crate: a round's fetch
/// phase drives these sessions on the deployment's reactor, the mailbox
/// storm through [`drive_sessions`].
pub fn fetch_sessions(shards: &[SocketAddr], mailboxes: &[[u8; 32]]) -> Vec<FetchSession> {
    mailboxes
        .iter()
        .map(|mailbox| {
            let shard = shards[shard_of(mailbox, shards.len())];
            FetchSession::new(shard, *mailbox, FETCH_PAGE_MAX)
        })
        .collect()
}

// ---------------------------------------------------------------------
// File-descriptor headroom
// ---------------------------------------------------------------------

/// Best-effort `RLIMIT_NOFILE` raise (a 50k-user reactor wants 50k+
/// descriptors; typical soft limits sit far lower).  Returns the
/// resulting soft limit — unchanged if the raise was refused — via raw
/// `prlimit64`, mirroring the reactor's no-libc discipline.  On
/// targets without the syscall, a no-op returning `want`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn raise_nofile_limit(want: u64) -> u64 {
    const SYS_PRLIMIT64: i64 = 302;
    const RLIMIT_NOFILE: i64 = 7;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct RLimit64 {
        cur: u64,
        max: u64,
    }

    // `prlimit64(0, RLIMIT_NOFILE, new, old)` — pid 0 is "this
    // process" — on the daemon reactor's syscall layer.
    let prlimit = |new: *const RLimit64, old: *mut RLimit64| unsafe {
        crate::reactor::sys::syscall4(SYS_PRLIMIT64, 0, RLIMIT_NOFILE, new as i64, old as i64)
    };

    let mut current = RLimit64 { cur: 0, max: 0 };
    if prlimit(std::ptr::null(), &mut current) < 0 {
        return 0;
    }
    if current.cur >= want {
        return current.cur;
    }
    // Privileged processes may raise the hard limit too; unprivileged
    // ones can still lift the soft limit to the hard cap.
    let attempts = [
        RLimit64 {
            cur: want,
            max: current.max.max(want),
        },
        RLimit64 {
            cur: want.min(current.max),
            max: current.max,
        },
    ];
    for attempt in &attempts {
        if prlimit(attempt, std::ptr::null_mut()) == 0 {
            return attempt.cur;
        }
    }
    current.cur
}

/// Best-effort `RLIMIT_NOFILE` raise — no-op on this target.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn raise_nofile_limit(want: u64) -> u64 {
    want
}
