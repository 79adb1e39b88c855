//! A client swarm for load-driving a networked deployment: hundreds of
//! users submitting concurrently over TCP, with per-round wall-clock
//! latency and throughput reporting — the reproduction's stand-in for
//! the paper's §8 client fleet.
//!
//! Two entry points live here:
//!
//! * [`run_swarm`] — a full-deployment swarm: real users, whole rounds,
//!   delivery verification.  On a one-server, one-hop, one-shard
//!   cluster (`xrd-netd demo --servers 1 --chain-len 1 --shards 1`) it
//!   is also the single-daemon connection probe: the first round's
//!   window includes every user's dial, later rounds ride the kept
//!   connections, so the difference between the two rows prices the
//!   connects;
//! * [`mailbox_storm`] — the mailbox-tier probe: paper-scale mailbox
//!   counts delivered to a set of shard daemons and fetched back the
//!   way a round's users fetch — each mailbox walked and acked over its
//!   own connection — with a user-churn leg exercising ack-driven
//!   retention at scale.
//!
//! Every client connection — a user submitting, a user fetching — is a
//! session machine on the single-threaded client reactor in
//! [`reactor`]: one epoll loop emulating the whole user population.

pub mod reactor;

use std::time::{Duration, Instant};

use rand::RngCore;

use xrd_core::user::{Received, User};
use xrd_mixnet::client::{seal_ahs, Submission};
use xrd_mixnet::message::{MailboxMessage, MAILBOX_MSG_LEN};

use crate::conn::{Conn, NetError};
use crate::remote::RemoteDeployment;

/// Swarm shape.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Number of users.
    pub n_users: usize,
    /// Rounds to run.
    pub rounds: u64,
    /// Fraction of users in pairwise conversations (the rest idle and
    /// send loopback cover traffic only).
    pub conversing_fraction: f64,
}

impl Default for SwarmConfig {
    fn default() -> SwarmConfig {
        SwarmConfig {
            n_users: 128,
            rounds: 3,
            conversing_fraction: 0.5,
        }
    }
}

/// Timing and delivery accounting for one swarm round.
#[derive(Clone, Debug)]
pub struct SwarmRoundStats {
    /// Round number.
    pub round: u64,
    /// Wall-clock latency of the whole round (submit → fetch).
    pub latency: Duration,
    /// Submissions mixed.
    pub messages_mixed: usize,
    /// Messages delivered to mailboxes.
    pub delivered: usize,
    /// Chat payloads received by the intended partners this round.
    pub chats_received: usize,
    /// End-to-end mailbox messages per second for this round.
    pub msgs_per_sec: f64,
}

/// Whole-run accounting.
#[derive(Clone, Debug)]
pub struct SwarmReport {
    /// Per-round stats.
    pub rounds: Vec<SwarmRoundStats>,
    /// Total bytes exchanged with the daemons.
    pub bytes_on_wire: u64,
    /// Total users driven.
    pub n_users: usize,
    /// End-of-run snapshot of the process-wide metrics registry —
    /// round spans, hop-phase histograms and reactor counters for the
    /// rounds this swarm drove (the deployment's daemons run in this
    /// process, so their series are all here).
    pub stats: xrd_obs::Snapshot,
}

impl SwarmReport {
    /// Mean round latency.
    pub fn mean_latency(&self) -> Duration {
        if self.rounds.is_empty() {
            return Duration::ZERO;
        }
        self.rounds.iter().map(|r| r.latency).sum::<Duration>() / self.rounds.len() as u32
    }

    /// Mean delivered messages per second across rounds.
    pub fn mean_throughput(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.msgs_per_sec).sum::<f64>() / self.rounds.len() as f64
    }
}

/// Drive a swarm of users through `config.rounds` rounds of the
/// networked deployment, verifying chat delivery along the way.
/// Returns an error if the deployment loses a whole round
/// ([`xrd_core::RoundError`]); single-chain degradation only shows up
/// in the per-round numbers.
///
/// Panics if a conversing user fails to receive a queued chat — the
/// swarm doubles as an end-to-end correctness check under load.
pub fn run_swarm<R: RngCore + ?Sized>(
    rng: &mut R,
    deployment: &mut RemoteDeployment,
    config: &SwarmConfig,
) -> Result<SwarmReport, xrd_core::RoundError> {
    let mut users: Vec<User> = (0..config.n_users).map(|_| User::new(rng)).collect();
    // Pair the first `conversing_fraction` of users: (0,1), (2,3), …
    let paired = ((config.n_users as f64 * config.conversing_fraction) as usize) & !1;
    for i in (0..paired).step_by(2) {
        let (a, b) = (users[i].pk(), users[i + 1].pk());
        users[i].start_conversation(b);
        users[i + 1].start_conversation(a);
    }

    let mut rounds = Vec::with_capacity(config.rounds as usize);
    for _ in 0..config.rounds {
        let round = deployment.round();
        // Fresh chat content every round, tagged for verification.
        for i in (0..paired).step_by(2) {
            users[i].queue_chat(format!("r{round} {i}→{}", i + 1).into_bytes());
            users[i + 1].queue_chat(format!("r{round} {}→{i}", i + 1).into_bytes());
        }

        let start = Instant::now();
        let (report, fetched) = deployment.run_round(rng, &mut users)?;
        let latency = start.elapsed();

        // Verify: every paired user received their partner's tagged
        // chat; every user received exactly ℓ messages.
        let ell = deployment.topology().ell();
        let mut chats_received = 0;
        for (i, user) in users.iter().enumerate() {
            let got = &fetched[&user.mailbox_id()];
            assert_eq!(got.len(), ell, "user {i} mailbox count");
            if i < paired {
                let partner = if i % 2 == 0 { i + 1 } else { i - 1 };
                let expect = format!("r{round} {partner}→{i}").into_bytes();
                assert!(
                    got.iter().any(|r| matches!(
                        r,
                        Received::Chat { data, .. } if *data == expect
                    )),
                    "user {i} missing chat from {partner} in round {round}"
                );
                chats_received += 1;
            }
        }

        rounds.push(SwarmRoundStats {
            round,
            latency,
            messages_mixed: report.messages_mixed,
            delivered: report.delivered,
            chats_received,
            msgs_per_sec: report.delivered as f64 / latency.as_secs_f64().max(1e-9),
        });
    }

    Ok(SwarmReport {
        rounds,
        bytes_on_wire: deployment.bytes_on_wire(),
        n_users: config.n_users,
        stats: xrd_obs::global().snapshot(),
    })
}

/// `n` distinct, fully valid sealed submissions for `round` (distinct
/// mailbox → distinct onion) — the fixture tests and benches drive a
/// daemon's window and hop with.
pub fn sealed_submissions<R: RngCore + ?Sized>(
    rng: &mut R,
    public: &xrd_mixnet::chain_keys::ChainPublicKeys,
    round: u64,
    n: usize,
) -> Vec<Submission> {
    (0..n)
        .map(|i| {
            let mut mailbox = [0u8; 32];
            mailbox[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let msg = MailboxMessage {
                mailbox,
                sealed: vec![0u8; MAILBOX_MSG_LEN - 32],
            };
            seal_ahs(rng, public, round, &msg)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Mailbox storm
// ---------------------------------------------------------------------

/// Shape of a [`mailbox_storm`] run.
#[derive(Clone, Debug)]
pub struct MailboxStormConfig {
    /// Mailbox shard daemons to spawn.
    pub shards: usize,
    /// Distinct mailboxes (paper-scale runs use 100 000+).
    pub mailboxes: usize,
    /// Messages delivered per mailbox per round.
    pub per_box: usize,
    /// Fraction of mailboxes whose owner is offline in round 0: their
    /// mail is *not* fetched (so it must survive, acked by nobody)
    /// until round 1 fetches both rounds' worth.
    pub offline_fraction: f64,
    /// Spawn the shards on the log-structured persistent store rooted
    /// here instead of in memory.
    pub persist_dir: Option<std::path::PathBuf>,
    /// Seed for the synthetic sealed payloads.
    pub seed: u64,
}

impl Default for MailboxStormConfig {
    fn default() -> MailboxStormConfig {
        MailboxStormConfig {
            shards: 4,
            mailboxes: 100_000,
            per_box: 1,
            offline_fraction: 0.1,
            persist_dir: None,
            seed: 7,
        }
    }
}

/// One round of a [`mailbox_storm`].
#[derive(Clone, Debug)]
pub struct MailboxStormRound {
    /// Delivery wall clock: one coordinator connection per shard, one
    /// thread each.
    pub deliver: Duration,
    /// Fetch wall clock: every fetching mailbox walked and acked by its
    /// own session, pagination included.
    pub fetch: Duration,
    /// Entries the fetch read.
    pub fetched: u64,
}

/// What one [`mailbox_storm`] measured.
#[derive(Clone, Debug)]
pub struct MailboxStormReport {
    /// Shards driven.
    pub shards: usize,
    /// Distinct mailboxes.
    pub mailboxes: usize,
    /// Messages delivered per round (mailboxes × per_box).
    pub messages_per_round: usize,
    /// Round 0 (the online mailboxes fetch) and round 1 (every mailbox
    /// fetches; the offline ones return two rounds of mail).
    pub rounds: [MailboxStormRound; 2],
    /// Entries that should have arrived but did not (must be 0).
    pub lost: u64,
    /// Entries that arrived more than once (must be 0).
    pub duplicated: u64,
    /// The process-wide metrics registry as round 1 ended, the shard
    /// daemons (which run in this process) still up: `reactor.accepts`
    /// is one per shard for delivery plus one per mailbox fetched.
    pub stats: xrd_obs::Snapshot,
}

/// The `i`-th storm mailbox id.
fn storm_mailbox(i: usize) -> [u8; 32] {
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&(i as u64).to_le_bytes());
    id[8..16].copy_from_slice(&(!(i as u64)).to_le_bytes());
    id
}

/// One round's synthetic deliveries.
fn storm_deliveries(config: &MailboxStormConfig, rng: &mut impl RngCore) -> Vec<MailboxMessage> {
    let mut messages = Vec::with_capacity(config.mailboxes * config.per_box);
    for i in 0..config.mailboxes {
        let mailbox = storm_mailbox(i);
        for _ in 0..config.per_box {
            let mut sealed = vec![0u8; MAILBOX_MSG_LEN - 32];
            rng.fill_bytes(&mut sealed);
            messages.push(MailboxMessage { mailbox, sealed });
        }
    }
    messages
}

/// Drive the mailbox tier at paper scale, on the path a deployment's
/// round runs: two rounds of `mailboxes × per_box` deliveries into
/// `shards` shard daemons (the coordinator's side: one connection per
/// shard, every shard asked at once), each followed by the users' side
/// — every fetching mailbox walked with cursor pagination and acked by
/// its own [`reactor::FetchSession`].  An `offline_fraction` of users
/// sits out round 0 and drains a two-round backlog in round 1 (§5.3.3
/// churn at scale).
///
/// Every entry is accounted, per mailbox, in both rounds: the report's
/// `lost`/`duplicated` are hard zeros or the storm's invariants are
/// broken.
///
/// It stays beside the round's own `deliver` and `fetch` because no
/// one-chain round reaches 100 000 users: a chain's window holds at most
/// [`MAX_BATCH`](crate::codec::MAX_BATCH) = 32 768 submissions, and
/// `xrd-netd demo --servers 1 --chain-len 1 --users 100000` fails round
/// 0 with `submission window full`.
pub fn mailbox_storm(config: &MailboxStormConfig) -> Result<MailboxStormReport, NetError> {
    use crate::daemon::MailboxDaemon;
    use rand::SeedableRng;

    assert!(config.shards >= 1 && config.mailboxes >= 1);

    // Spawn the shard daemons (in-memory or persistent).
    let mut daemons = Vec::with_capacity(config.shards);
    for shard in 0..config.shards {
        let daemon = match &config.persist_dir {
            Some(dir) => MailboxDaemon::spawn_persistent(
                "127.0.0.1:0",
                shard,
                config.shards,
                dir.join(format!("shard-{shard}")),
                xrd_core::mailbox::LogStoreConfig::default(),
            )?,
            None => MailboxDaemon::spawn("127.0.0.1:0", shard, config.shards)?,
        };
        daemons.push(daemon);
    }
    let addrs: Vec<std::net::SocketAddr> = daemons.iter().map(|d| d.addr()).collect();
    let mut conns = addrs
        .iter()
        .map(|&addr| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;

    // Offline set: the tail of the id space sits out round 0.
    let n_offline = ((config.mailboxes as f64) * config.offline_fraction.clamp(0.0, 1.0)) as usize;
    let first_offline = config.mailboxes - n_offline;
    let mailboxes: Vec<[u8; 32]> = (0..config.mailboxes).map(storm_mailbox).collect();

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let retry = crate::coordinator::RetryPolicy::default();
    let drive = reactor::DriveConfig::default().within_fd_budget(config.mailboxes);
    let per_box = config.per_box as u64;
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut run_round = |round: u64| -> Result<MailboxStormRound, NetError> {
        let deliveries = storm_deliveries(config, &mut rng);
        let start = Instant::now();
        crate::remote::deliver_shards(&mut conns, round, deliveries, retry)?;
        let deliver = start.elapsed();

        let fetching = if round == 0 {
            &mailboxes[..first_offline]
        } else {
            &mailboxes[..]
        };
        let start = Instant::now();
        let sessions = reactor::fetch_sessions(&addrs, fetching);
        let outcome = reactor::drive_sessions(sessions, &drive).map_err(NetError::Io)?;
        let fetch = start.elapsed();
        if let Some((i, e)) = outcome.failed.into_iter().next() {
            return Err(NetError::Protocol(format!(
                "storm round {round}: mailbox {i} fetch failed: {e}"
            )));
        }

        // Exact accounting: every entry once, churn backlog included.
        let mut fetched = 0u64;
        for (i, session) in outcome.sessions.into_iter().enumerate() {
            let got = session.into_entries().len() as u64;
            let expected = if i < first_offline {
                per_box
            } else {
                (round + 1) * per_box
            };
            fetched += got;
            lost += expected.saturating_sub(got);
            duplicated += got.saturating_sub(expected);
        }
        Ok(MailboxStormRound {
            deliver,
            fetch,
            fetched,
        })
    };
    let rounds = [run_round(0)?, run_round(1)?];

    Ok(MailboxStormReport {
        shards: config.shards,
        mailboxes: config.mailboxes,
        messages_per_round: config.mailboxes * config.per_box,
        rounds,
        lost,
        duplicated,
        stats: xrd_obs::global().snapshot(),
    })
}
