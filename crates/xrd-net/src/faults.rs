//! Deterministic fault injection for adversarial deployment testing:
//! a frame-aware TCP proxy ([`FaultProxy`]) that sits between a
//! coordinator (or client) and one daemon and misdelivers traffic
//! according to a [`FaultPlan`].
//!
//! The proxy understands the wire protocol's `[u32 len | u8 tag |
//! payload]` framing just enough to target faults at specific frame
//! types without parsing payloads: it can drop, corrupt, delay,
//! truncate, reorder or stall individual frames, or cut the
//! connection outright.  Every injected fault bumps a
//! `fault.injected.<kind>` counter, so a chaos run's injected-fault
//! budget is visible in the same metrics scrape as the dispute
//! counters it is expected to trigger (see `docs/FAULTS.md`).
//!
//! Plans are deterministic: rule matching is pure counting (`skip`
//! then `count` matching frames, in traffic order) and the only
//! randomness — which payload byte a `corrupt` flips — comes from the
//! plan's seed.  Re-running the same workload against the same plan
//! injects the same faults.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{Frame, MAX_FRAME_LEN};

/// What a matching [`FaultRule`] does to a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the frame entirely.
    Drop,
    /// Flip one payload byte (seed-chosen) and forward the frame.
    Corrupt,
    /// Forward the frame after sleeping `ms`.
    Delay,
    /// Forward the length prefix and half the body, then cut the
    /// connection — the peer is left mid-frame.
    Truncate,
    /// Hold the frame and emit it after the next frame in the same
    /// direction (a two-frame swap).
    Reorder,
    /// Stop forwarding in this direction without closing, for `ms`
    /// (or until shutdown when `ms` is 0) — what a wedged peer looks
    /// like; read deadlines are the intended victim.
    Stall,
    /// Cut the connection immediately, both directions.
    Disconnect,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Delay => "delay",
            FaultKind::Truncate => "truncate",
            FaultKind::Reorder => "reorder",
            FaultKind::Stall => "stall",
            FaultKind::Disconnect => "disconnect",
        }
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultKind, String> {
        match s {
            "drop" => Ok(FaultKind::Drop),
            "corrupt" => Ok(FaultKind::Corrupt),
            "delay" => Ok(FaultKind::Delay),
            "truncate" => Ok(FaultKind::Truncate),
            "reorder" => Ok(FaultKind::Reorder),
            "stall" => Ok(FaultKind::Stall),
            "disconnect" => Ok(FaultKind::Disconnect),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// Which pump direction a rule watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client → daemon (requests, submissions, chunks).
    Up,
    /// Daemon → client (responses, hop outputs).
    Down,
    /// Either direction.
    Both,
}

impl Direction {
    fn matches(self, up: bool) -> bool {
        match self {
            Direction::Up => up,
            Direction::Down => !up,
            Direction::Both => true,
        }
    }
}

/// One fault: fires on the `skip+1`-th through `skip+count`-th frames
/// that match its tag filter and direction, across all of the proxy's
/// connections in traffic order.
#[derive(Clone, Copy, Debug)]
pub struct FaultRule {
    /// What to do to matching frames.
    pub kind: FaultKind,
    /// Only frames with this wire tag match (`None`: every frame).
    pub tag: Option<u8>,
    /// Matching frames to let through untouched first.
    pub skip: u32,
    /// Matching frames to fault after the skip (0 disables the rule).
    pub count: u32,
    /// Milliseconds for [`FaultKind::Delay`]/[`FaultKind::Stall`].
    pub ms: u64,
    /// Which pump direction the rule watches.
    pub dir: Direction,
}

impl FaultRule {
    /// A rule faulting the first frame of `kind` (any tag, both
    /// directions); builder-style setters refine it.
    pub fn new(kind: FaultKind) -> FaultRule {
        FaultRule {
            kind,
            tag: None,
            skip: 0,
            count: 1,
            ms: 0,
            dir: Direction::Both,
        }
    }

    /// Only fault frames with this wire tag.
    pub fn tag(mut self, tag: u8) -> FaultRule {
        self.tag = Some(tag);
        self
    }

    /// Let this many matching frames through first.
    pub fn skip(mut self, n: u32) -> FaultRule {
        self.skip = n;
        self
    }

    /// Fault this many matching frames (after the skip).
    pub fn count(mut self, n: u32) -> FaultRule {
        self.count = n;
        self
    }

    /// Delay/stall duration in milliseconds.
    pub fn ms(mut self, ms: u64) -> FaultRule {
        self.ms = ms;
        self
    }

    /// Restrict the rule to one pump direction.
    pub fn dir(mut self, dir: Direction) -> FaultRule {
        self.dir = dir;
        self
    }
}

/// A seeded schedule of [`FaultRule`]s for one proxy.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the plan's randomness (corrupt-byte choice).
    pub seed: u64,
    /// The rules, evaluated in order per frame; the first match fires.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (a faithful proxy).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule.
    pub fn with(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Parse a plan from its config-file syntax: one rule per line,
    /// `<kind> [tag=FrameName|tag=0xNN] [skip=N] [count=N] [ms=N]
    /// [dir=up|down|both]`, with `#` comments and a `seed=N` line.
    ///
    /// ```text
    /// seed=42
    /// # lose the third submission on its way in
    /// drop tag=Submit skip=2 dir=up
    /// corrupt tag=MixBatchChunk
    /// stall tag=MixBatchEnd ms=500
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(seed) = line.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|e| format!("line {}: bad seed: {e}", lineno + 1))?;
                continue;
            }
            let mut words = line.split_whitespace();
            let kind: FaultKind = words
                .next()
                .expect("non-empty line has a first word")
                .parse()
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let mut rule = FaultRule::new(kind);
            for word in words {
                let (key, value) = word.split_once('=').ok_or_else(|| {
                    format!("line {}: expected key=value, got {word:?}", lineno + 1)
                })?;
                match key {
                    "tag" => {
                        rule.tag = Some(
                            parse_tag(value).map_err(|e| format!("line {}: {e}", lineno + 1))?,
                        )
                    }
                    "skip" => {
                        rule.skip = value
                            .parse()
                            .map_err(|e| format!("line {}: bad skip: {e}", lineno + 1))?
                    }
                    "count" => {
                        rule.count = value
                            .parse()
                            .map_err(|e| format!("line {}: bad count: {e}", lineno + 1))?
                    }
                    "ms" => {
                        rule.ms = value
                            .parse()
                            .map_err(|e| format!("line {}: bad ms: {e}", lineno + 1))?
                    }
                    "dir" => {
                        rule.dir = match value {
                            "up" => Direction::Up,
                            "down" => Direction::Down,
                            "both" => Direction::Both,
                            other => {
                                return Err(format!(
                                    "line {}: bad dir {other:?} (up|down|both)",
                                    lineno + 1
                                ))
                            }
                        }
                    }
                    other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
                }
            }
            plan.rules.push(rule);
        }
        Ok(plan)
    }
}

/// `tag=` values: a frame name as printed by the protocol docs
/// (`Submit`, `MixBatchChunk`, …) or a raw `0xNN` byte.
fn parse_tag(value: &str) -> Result<u8, String> {
    if let Some(hex) = value.strip_prefix("0x") {
        return u8::from_str_radix(hex, 16).map_err(|e| format!("bad tag {value:?}: {e}"));
    }
    (0..=u8::MAX)
        .find(|&t| Frame::tag_name(t) == Some(value))
        .ok_or_else(|| format!("unknown frame name {value:?}"))
}

/// Live matching state of one rule (skip/count consumed so far).
struct RuleState {
    rule: FaultRule,
    skipped: u32,
    fired: u32,
}

/// State shared by every pump of one proxy: per-rule counters plus the
/// plan's RNG.  Global across connections so `skip`/`count` index the
/// proxy's whole traffic stream, matching how an operator reads a plan.
struct PlanState {
    rules: Vec<RuleState>,
    rng: StdRng,
}

impl PlanState {
    /// Decide what happens to one frame: the first rule that matches
    /// (direction, tag, past its skip, under its count) fires.
    /// Returns the action plus the faulted byte index for corruption.
    fn decide(&mut self, up: bool, tag: u8, body_len: usize) -> Option<(FaultKind, u64, usize)> {
        for state in &mut self.rules {
            let r = &state.rule;
            if !r.dir.matches(up) || r.tag.is_some_and(|t| t != tag) || state.fired >= r.count {
                continue;
            }
            if state.skipped < r.skip {
                state.skipped += 1;
                continue;
            }
            state.fired += 1;
            // Prefer flipping a payload byte (keeps the stream framed
            // but the content wrong); a tagless frame gets its tag
            // flipped, which desyncs the peer's decoder instead.
            let corrupt_at = if body_len > 1 {
                1 + self.rng.gen_range(0..body_len - 1)
            } else {
                0
            };
            return Some((r.kind, r.ms, corrupt_at));
        }
        None
    }
}

/// The `fault.injected.<kind>` counter.
fn fault_counter(kind: FaultKind) -> &'static xrd_obs::Counter {
    match kind {
        FaultKind::Drop => xrd_obs::counter!("fault.injected.drop"),
        FaultKind::Corrupt => xrd_obs::counter!("fault.injected.corrupt"),
        FaultKind::Delay => xrd_obs::counter!("fault.injected.delay"),
        FaultKind::Truncate => xrd_obs::counter!("fault.injected.truncate"),
        FaultKind::Reorder => xrd_obs::counter!("fault.injected.reorder"),
        FaultKind::Stall => xrd_obs::counter!("fault.injected.stall"),
        FaultKind::Disconnect => xrd_obs::counter!("fault.injected.disconnect"),
    }
}

/// A running fault proxy: every connection accepted on its listen
/// address is bridged to the upstream daemon through two frame-aware
/// pumps that consult the [`FaultPlan`] per frame.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Bridge `listen` to the daemon at `upstream` under `plan`.
    pub fn spawn<A: ToSocketAddrs>(
        listen: A,
        upstream: SocketAddr,
        plan: FaultPlan,
    ) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(PlanState {
            rules: plan
                .rules
                .iter()
                .map(|&rule| RuleState {
                    rule,
                    skipped: 0,
                    fired: 0,
                })
                .collect(),
            rng: StdRng::seed_from_u64(plan.seed),
        }));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = incoming else { continue };
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                spawn_pump(&client, &server, true, &state, &accept_stop);
                spawn_pump(&server, &client, false, &state, &accept_stop);
            }
        });
        Ok(FaultProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — what clients dial instead of the
    /// daemon.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop.  Existing pumps die
    /// with their connections (stalled pumps poll the stop flag).
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One direction's pump: read frames from `from`, apply the plan,
/// write survivors to `to`.  EOF or error on either side closes both.
fn spawn_pump(
    from: &TcpStream,
    to: &TcpStream,
    up: bool,
    state: &Arc<Mutex<PlanState>>,
    stop: &Arc<AtomicBool>,
) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
        return;
    };
    let state = Arc::clone(state);
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        pump(from, to, up, &state, &stop);
    });
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    up: bool,
    state: &Arc<Mutex<PlanState>>,
    stop: &Arc<AtomicBool>,
) {
    // A frame held back by an active Reorder rule, emitted after its
    // successor (or at stream end).
    let mut held: Option<Vec<u8>> = None;
    while let Some(frame) = read_raw_frame(&mut from) {
        let tag = frame[4];
        let action = state
            .lock()
            .expect("fault plan poisoned")
            .decide(up, tag, frame.len() - 4);
        let verdict = match action {
            None => Ok(Some(frame)),
            Some((kind, ms, corrupt_at)) => {
                fault_counter(kind).incr();
                xrd_obs::debug!(
                    "fault injected: {} on {} frame (dir {})",
                    kind.name(),
                    Frame::tag_name(tag).unwrap_or("?"),
                    if up { "up" } else { "down" },
                );
                match kind {
                    FaultKind::Drop => Ok(None),
                    FaultKind::Corrupt => {
                        let mut frame = frame;
                        frame[4 + corrupt_at] ^= 0xA5;
                        Ok(Some(frame))
                    }
                    FaultKind::Delay => {
                        std::thread::sleep(Duration::from_millis(ms));
                        Ok(Some(frame))
                    }
                    FaultKind::Truncate => {
                        let cut = 4 + (frame.len() - 4) / 2;
                        let _ = to.write_all(&frame[..cut]);
                        Err(())
                    }
                    FaultKind::Reorder => {
                        if held.is_none() {
                            held = Some(frame);
                            Ok(None)
                        } else {
                            // Two simultaneous holds degenerate to
                            // pass-through; one swap at a time.
                            Ok(Some(frame))
                        }
                    }
                    FaultKind::Stall => {
                        let deadline =
                            (ms > 0).then(|| std::time::Instant::now() + Duration::from_millis(ms));
                        while !stop.load(Ordering::SeqCst)
                            && deadline.is_none_or(|d| std::time::Instant::now() < d)
                        {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        // A bounded stall resumes (deadline passed);
                        // an unbounded one only ends at shutdown.
                        if deadline.is_some() {
                            Ok(Some(frame))
                        } else {
                            Err(())
                        }
                    }
                    FaultKind::Disconnect => Err(()),
                }
            }
        };
        match verdict {
            Ok(Some(frame)) => {
                if to.write_all(&frame).is_err() {
                    break;
                }
                if let Some(held_frame) = held.take() {
                    if to.write_all(&held_frame).is_err() {
                        break;
                    }
                }
            }
            Ok(None) => {}
            Err(()) => break,
        }
    }
    if let Some(held_frame) = held {
        let _ = to.write_all(&held_frame);
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Read one raw wire frame (length prefix included).  `None` on EOF,
/// error, or an over-cap length (treated as peer desync).
fn read_raw_frame(from: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    from.read_exact(&mut len_bytes).ok()?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return None;
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&len_bytes);
    from.read_exact(&mut frame[4..]).ok()?;
    Some(frame)
}
