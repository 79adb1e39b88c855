//! [`RemoteDeployment`]: the full XRD round protocol against networked
//! daemons, presenting the same [`RoundBackend`] face as the in-process
//! `Deployment` — plus [`launch_local`], which spins a whole deployment
//! up on loopback TCP (one daemon per mix-server hop and per mailbox
//! shard, each on its own port).

use std::collections::HashMap;
use std::net::SocketAddr;

use rand::RngCore;

use xrd_core::backend::{collect_submissions, open_fetched, CoverStore, RoundBackend, RoundError};
use xrd_core::deployment::{DeploymentConfig, FetchResults, RoundReport};
use xrd_core::mailbox::shard_of;
use xrd_core::user::User;
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys, ChainPublicKeys};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::MailboxMessage;
use xrd_mixnet::{verify_hops_batched_multi, ChainAudit, ChainRoundOutcome, HopRecord};
use xrd_topology::{Beacon, Topology};

use crate::codec::{error_code, Frame, MAX_BATCH};
use crate::conn::{Conn, ConnTimeouts, NetError};
use crate::coordinator::{request_retry, ChainClient, MixPhase, PendingChainRound, RetryPolicy};
use crate::daemon::{DaemonHandle, MailboxDaemon, MixServerDaemon};
use crate::faults::{FaultPlan, FaultProxy};
use crate::swarm::reactor as client_reactor;

/// A chain's result from a scoped parallel phase: the outer `String`
/// is a panicked worker thread, the inner `Result` the chain's own
/// transport outcome.
type ChainPhase<T> = Result<Result<T, NetError>, String>;

/// Round-progress metric handles, resolved once per process.
fn round_metrics() -> &'static RoundMetrics {
    static METRICS: std::sync::OnceLock<RoundMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| RoundMetrics {
        degraded: xrd_obs::counter("round.degraded"),
        chain_failures: xrd_obs::counter("round.chain_failures"),
    })
}

struct RoundMetrics {
    /// Rounds that completed without one or more chains.
    degraded: &'static xrd_obs::Counter,
    /// Individual chain failures across all rounds.
    chain_failures: &'static xrd_obs::Counter,
}

/// A deployment whose chains and mailboxes live behind TCP endpoints.
pub struct RemoteDeployment {
    topo: Topology,
    chains: Vec<ChainClient>,
    /// Daemon addresses per chain (hop order) — what submitting clients
    /// connect to.
    chain_addrs: Vec<Vec<SocketAddr>>,
    mailbox_addrs: Vec<SocketAddr>,
    /// Coordinator-side connections to the mailbox daemons (delivery;
    /// users fetch over connections of their own).
    mailbox_conns: Vec<Conn>,
    round: u64,
    current_keys: Vec<ChainPublicKeys>,
    next_keys: Vec<ChainPublicKeys>,
    cover_store: CoverStore,
    /// Raw submissions injected for the next round (attack testing).
    injected: Vec<(xrd_topology::ChainId, Submission)>,
    /// Chains whose key schedule fell out of sync after a failed
    /// rotation: excluded from every subsequent round.
    dead: Vec<bool>,
    /// Retry policy for delivery batches (deduplicated on the daemon
    /// side) and, as a redial budget, for the users' sessions.
    retry: RetryPolicy,
    /// Per-connection deadlines: the coordinator's own connections
    /// (chain daemons, mailbox delivery) block under them, and the
    /// users' submit and fetch sessions on the client reactor take the
    /// connect and read deadlines as their dial and idle ceilings.
    timeouts: ConnTimeouts,
    /// The users' side of the wire: every round's submit and fetch
    /// sessions are driven through this one reactor, which keeps each
    /// lane's connections between rounds — a steady-state round dials
    /// nothing.
    clients: client_reactor::ClientReactor,
}

impl RemoteDeployment {
    /// Connect to a running deployment: `chain_addrs[c]` are chain `c`'s
    /// daemons in hop order with active bundle `chain_keys[c]`;
    /// `mailbox_addrs[s]` is shard `s`.  Prepares the round-1 inner-key
    /// rotation so §5.3.3 covers can be sealed immediately.
    pub fn connect(
        topo: Topology,
        chain_addrs: Vec<Vec<SocketAddr>>,
        chain_keys: Vec<ChainPublicKeys>,
        mailbox_addrs: Vec<SocketAddr>,
    ) -> Result<RemoteDeployment, NetError> {
        RemoteDeployment::connect_with(
            topo,
            chain_addrs,
            chain_keys,
            mailbox_addrs,
            ConnTimeouts::default(),
            RetryPolicy::default(),
        )
    }

    /// [`RemoteDeployment::connect`] with explicit per-connection
    /// deadlines and retry policy, applied to every coordinator
    /// connection (chain daemons and mailbox shards alike).  Chaos
    /// tests and latency-sensitive deployments shrink the deadlines so
    /// a stalled daemon is detected in milliseconds rather than the
    /// defaults' minutes.
    pub fn connect_with(
        topo: Topology,
        chain_addrs: Vec<Vec<SocketAddr>>,
        chain_keys: Vec<ChainPublicKeys>,
        mailbox_addrs: Vec<SocketAddr>,
        timeouts: ConnTimeouts,
        retry: RetryPolicy,
    ) -> Result<RemoteDeployment, NetError> {
        assert_eq!(chain_addrs.len(), topo.n_chains());
        assert_eq!(chain_keys.len(), topo.n_chains());
        let n_chains = topo.n_chains();
        let mut chains = Vec::with_capacity(chain_addrs.len());
        for (addrs, keys) in chain_addrs.iter().zip(chain_keys.iter()) {
            assert!(keys.verify(), "chain bundle must verify");
            chains.push(ChainClient::connect_with(
                addrs,
                keys.clone(),
                timeouts,
                retry,
            )?);
        }
        let mailbox_conns = mailbox_addrs
            .iter()
            .map(|&a| Conn::connect_with(a, timeouts))
            .collect::<Result<Vec<_>, _>>()?;

        let mut deployment = RemoteDeployment {
            topo,
            chains,
            chain_addrs,
            mailbox_addrs,
            mailbox_conns,
            round: 0,
            current_keys: chain_keys,
            next_keys: Vec::new(),
            cover_store: CoverStore::new(),
            injected: Vec::new(),
            dead: vec![false; n_chains],
            retry,
            timeouts,
            clients: client_reactor::ClientReactor::new()?,
        };
        // Pre-publish round-1 inner keys (§5.3.3: covers for ρ+1 are
        // sealed while ρ runs).
        deployment.next_keys = deployment
            .chains
            .iter_mut()
            .map(|c| c.prepare_rotation(1))
            .collect::<Result<_, _>>()?;
        Ok(deployment)
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The public key bundles of all chains for the current round.
    pub fn chain_keys(&self) -> &[ChainPublicKeys] {
        &self.current_keys
    }

    /// The pre-published bundles for the next round.
    pub fn next_chain_keys(&self) -> &[ChainPublicKeys] {
        &self.next_keys
    }

    /// Daemon addresses per chain, hop order (for external submitters).
    pub fn chain_addrs(&self) -> &[Vec<SocketAddr>] {
        &self.chain_addrs
    }

    /// Mailbox shard addresses (for external fetchers).
    pub fn mailbox_addrs(&self) -> &[SocketAddr] {
        &self.mailbox_addrs
    }

    /// Total bytes exchanged with all daemons so far.
    pub fn bytes_on_wire(&self) -> u64 {
        let chain_bytes: u64 = self.chains.iter().map(|c| c.bytes_on_wire()).sum();
        let mailbox_bytes: u64 = self
            .mailbox_conns
            .iter()
            .map(|c| c.bytes_sent() + c.bytes_received())
            .sum();
        chain_bytes + mailbox_bytes
    }

    /// Select how every chain ships batches hop to hop (default
    /// [`crate::Transport::default`]: relayed chunk streams).
    pub fn set_transport(&mut self, transport: crate::Transport) {
        for chain in &mut self.chains {
            chain.set_transport(transport);
        }
    }

    /// Queue a raw submission for the next round (simulating a user
    /// that does not follow the protocol).  Fault-injection hook for
    /// tests, mirroring `Deployment::inject_submission`.
    #[doc(hidden)]
    pub fn inject_submission(&mut self, chain: xrd_topology::ChainId, submission: Submission) {
        self.injected.push((chain, submission));
    }

    /// Execute one full round over the wire: submission window → k hops
    /// with cross-server verification (and blame) → inner-key reveal →
    /// mailbox delivery → fetch → key rotation.
    ///
    /// A chain that fails — transport trouble its bounded retries could
    /// not heal, a convicted server, a coordinator-side panic — is
    /// *dropped from the round*, recorded in
    /// [`RoundReport::failed_chains`], and the round completes for the
    /// surviving chains (`round.degraded` counter).  Only deployment-
    /// wide trouble is an error: every chain failing at once
    /// ([`RoundError::AllChainsFailed`]) or the shared mailbox layer
    /// failing ([`RoundError::Infrastructure`]).
    pub fn run_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), RoundError> {
        let round = self.round;
        let n_chains = self.chains.len();
        // Per-chain failure slots for this round: a `Some` drops the
        // chain from every later phase.
        let mut failed: Vec<Option<String>> = (0..n_chains)
            .map(|c| {
                self.dead[c].then(|| "chain dead since an earlier failed rotation".to_string())
            })
            .collect();

        // Client side: seal ℓ submissions per user (+ covers for ρ+1).
        let mut per_chain = collect_submissions(
            rng,
            &self.topo,
            &self.current_keys,
            &self.next_keys,
            round,
            &mut self.cover_store,
            users,
        );
        for (chain, sub) in self.injected.drain(..) {
            per_chain[chain.0 as usize].push(sub);
        }

        // Submission window: open on every live chain, submit
        // concurrently, then close and run input agreement.
        {
            let _span = xrd_obs::span_timer("round.submit_window", round);
            for (c, chain) in self.chains.iter_mut().enumerate() {
                if failed[c].is_some() {
                    continue;
                }
                if let Err(e) = chain.open_round(round) {
                    failed[c] = Some(format!("opening the window: {e}"));
                }
            }
            self.submit_reactor(round, &per_chain, &mut failed);
        }

        // Drive every chain's mix in parallel — each chain is an
        // independent set of machines.  The coordinator's own audit is
        // deferred: each chain returns its clean pass's attestations,
        // and all `n_chains × k` hop proofs of the round are folded
        // into ONE batched multiscalar mul below before any chain
        // reveals its inner keys.
        let mut report = RoundReport {
            round,
            ..Default::default()
        };
        let mix_span = xrd_obs::span_timer("round.mix", round);
        let phases: Vec<(usize, ChainPhase<(usize, MixPhase)>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .chains
                .iter_mut()
                .enumerate()
                .filter(|(c, _)| failed[*c].is_none())
                .map(|(c, chain)| {
                    let handle = scope.spawn(move || {
                        let batch = chain.close_and_agree(round)?;
                        let phase = chain.mix_round_deferred(round, &batch)?;
                        Ok((batch.len(), phase))
                    });
                    (c, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(c, h)| {
                    // A panicking coordinator thread fails its
                    // chain, not the process.
                    (
                        c,
                        h.join()
                            .map_err(|_| "chain coordinator thread panicked".to_string()),
                    )
                })
                .collect()
        });

        drop(mix_span);

        // Split final outcomes from audit-pending chains; transport
        // failures and panics drop their chain from the round.
        let mut outcomes: Vec<(usize, ChainRoundOutcome)> = Vec::new();
        let mut pendings: Vec<(usize, PendingChainRound)> = Vec::new();
        for (c, result) in phases {
            match result {
                Ok(Ok((mixed, phase))) => {
                    report.messages_mixed += mixed;
                    match phase {
                        MixPhase::Done(outcome) => outcomes.push((c, outcome)),
                        MixPhase::AwaitingAudit(pending) => pendings.push((c, pending)),
                    }
                }
                Ok(Err(e)) => failed[c] = Some(format!("mix phase: {e}")),
                Err(msg) => failed[c] = Some(msg),
            }
        }

        // The deployment-level audit: every pending chain's hop proofs
        // in a single batched DLEQ verification.
        let audit_ok = {
            let _span = xrd_obs::span_timer("round.audit", round);
            let record_sets: Vec<(usize, Vec<HopRecord>)> = pendings
                .iter()
                .map(|(c, pending)| (*c, pending.records()))
                .collect();
            let audits: Vec<ChainAudit> = record_sets
                .iter()
                .map(|(c, records)| ChainAudit {
                    public: self.chains[*c].public(),
                    round,
                    hops: records,
                })
                .collect();
            verify_hops_batched_multi(&audits)
        };
        // Conclude audited chains in parallel again (reveal RTTs +
        // envelope opening are per-chain independent; only the audit
        // itself needed the barrier).
        let reveal_span = xrd_obs::span_timer("round.reveal", round);
        let concluded: Vec<(usize, ChainPhase<ChainRoundOutcome>)> = std::thread::scope(|scope| {
            let mut slots: Vec<Option<&mut ChainClient>> =
                self.chains.iter_mut().map(Some).collect();
            let handles: Vec<_> = pendings
                .into_iter()
                .map(|(c, pending)| {
                    let chain = slots[c].take().expect("one pending per chain");
                    let handle =
                        scope.spawn(move || chain.conclude_audited(round, pending, audit_ok));
                    (c, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(c, h)| {
                    (
                        c,
                        h.join()
                            .map_err(|_| "chain conclusion thread panicked".to_string()),
                    )
                })
                .collect()
        });
        drop(reveal_span);
        for (c, result) in concluded {
            match result {
                Ok(Ok(outcome)) => outcomes.push((c, outcome)),
                Ok(Err(e)) => failed[c] = Some(format!("concluding the round: {e}")),
                Err(msg) => failed[c] = Some(msg),
            }
        }

        let mut delivered: Vec<MailboxMessage> = Vec::new();
        for (c, outcome) in outcomes {
            // A chain only counts as aborted if server misbehavior
            // actually cost it the round; a chain that convicted a
            // lying verifier and still delivered merely shrank.
            if !outcome.misbehaving_servers.is_empty() && outcome.delivered.is_empty() {
                report.aborted_chains.push(c as u32);
            }
            if !outcome.malicious_users.is_empty() {
                report
                    .malicious_by_chain
                    .insert(c as u32, outcome.malicious_users.len());
            }
            report.delivered += outcome.delivered.len();
            delivered.extend(outcome.delivered);
        }

        // Fold the dispute/blame verdicts every chain accumulated into
        // the report (chains that later failed still localized liars).
        for (c, chain) in self.chains.iter_mut().enumerate() {
            let (convicted, suspected) = chain.take_round_verdicts();
            if !convicted.is_empty() {
                report
                    .convicted_by_chain
                    .insert(c as u32, convicted.into_iter().map(|p| p as u32).collect());
            }
            if !suspected.is_empty() {
                report
                    .suspected_by_chain
                    .insert(c as u32, suspected.into_iter().map(|p| p as u32).collect());
            }
        }

        // Record this round's chain failures before touching the
        // shared mailbox layer; an entirely failed round is an error,
        // a partially failed one only degrades.
        for (c, failure) in failed.iter().enumerate() {
            if let Some(msg) = failure {
                round_metrics().chain_failures.incr();
                xrd_obs::error!("round {round}: chain {c} failed: {msg}");
                report.failed_chains.push(c as u32);
            }
        }
        if !report.failed_chains.is_empty() {
            round_metrics().degraded.incr();
            if report.failed_chains.len() == n_chains {
                return Err(RoundError::AllChainsFailed { round });
            }
        }

        // Deliver to mailbox shards, one worker thread per shard.  The
        // mailbox layer is shared by every chain, so trouble here is
        // deployment infrastructure failure, not chain degradation.
        let n_shards = self.mailbox_conns.len();
        {
            let _span = xrd_obs::span_timer("round.deliver", round);
            let mut per_shard: Vec<Vec<MailboxMessage>> = vec![Vec::new(); n_shards];
            for msg in delivered {
                per_shard[shard_of(&msg.mailbox, n_shards)].push(msg);
            }
            deliver_shards(&mut self.mailbox_conns, round, per_shard, self.retry).map_err(|e| {
                RoundError::Infrastructure {
                    round,
                    message: format!("mailbox delivery: {e}"),
                }
            })?;
        }

        // Fetch: every online user's mailbox is paged down (and acked
        // once safely read) from its shard, then decryption runs from
        // the prefetched map.
        let fetch_span = xrd_obs::span_timer("round.fetch", round);
        let mut prefetched = self.fetch_reactor(round, users)?;
        let fetched = open_fetched(&self.topo, round, users, |mailbox| {
            Ok(prefetched.remove(mailbox).unwrap_or_default())
        })?;
        drop(fetch_span);

        // Advance the key schedule: activate ρ+1, pre-publish ρ+2.
        // Rotation is attempted even for chains that failed this round
        // (their daemons may be healthy again); a chain whose rotation
        // fails is out of sync with its daemons and stays dead.
        self.round += 1;
        for (c, chain) in self.chains.iter_mut().enumerate() {
            if self.dead[c] {
                continue;
            }
            let rotated = chain
                .activate_rotation()
                .and_then(|()| chain.prepare_rotation(self.round + 1));
            match rotated {
                Ok(next) => {
                    self.current_keys[c] = chain.public().clone();
                    self.next_keys[c] = next;
                }
                Err(e) => {
                    round_metrics().chain_failures.incr();
                    xrd_obs::error!("round {round}: chain {c} failed to rotate, now dead: {e}");
                    self.dead[c] = true;
                    if !report.failed_chains.contains(&(c as u32)) {
                        report.failed_chains.push(c as u32);
                    }
                }
            }
        }
        if self.dead.iter().all(|&d| d) {
            return Err(RoundError::AllChainsFailed { round });
        }

        Ok((report, fetched))
    }

    /// The reactor drive knobs, derived from the deployment's own
    /// deadlines and retry policy so reactor-driven clients fail (and
    /// heal) on the same clock as the blocking coordinator conns: the
    /// connect/read deadlines become the dial and idle ceilings, the
    /// retry budget matches the request policy.  Chaos tests shrink the
    /// deployment's timeouts to milliseconds — a dropped response must
    /// redial immediately, not stall until the reactor's whole-run
    /// deadline.  The fd budget is the reactor's, not a drive's: it
    /// holds the kept connections too.
    fn drive_config(&self) -> client_reactor::DriveConfig {
        let defaults = client_reactor::DriveConfig::default();
        client_reactor::DriveConfig {
            max_retries: self.retry.attempts.saturating_sub(1),
            connect_timeout: self.timeouts.connect,
            exchange_timeout: self.timeouts.read,
            // A deployment configured for long silent stretches (scale
            // runs on oversubscribed hosts) needs the whole-run cap to
            // sit above its own idle ceiling, or healthy-but-slow runs
            // die on the deadline instead.
            deadline: defaults.deadline.max(self.timeouts.read * 4),
            ..defaults
        }
    }

    /// The submission window: one [`client_reactor::SubmitSession`] per
    /// sealed submission, each fanning out to every daemon of its chain
    /// (the paper's input-agreement fan-out), all pumped concurrently
    /// from a single epoll thread.  A daemon refusing a *malformed*
    /// submission skips that submission without failing the chain; any
    /// other refusal, or transport trouble the session's bounded
    /// retries could not heal, fails the chain.
    fn submit_reactor(
        &mut self,
        round: u64,
        per_chain: &[Vec<Submission>],
        failed: &mut [Option<String>],
    ) {
        let mut chain_of: Vec<usize> = Vec::new();
        let mut sessions: Vec<client_reactor::SubmitSession> = Vec::new();
        for (c, subs) in per_chain.iter().enumerate() {
            // A failed chain's submissions still take their lanes (as
            // sessions with nothing to send), so every other
            // submission's lane — and with it the connections the lane
            // kept — is where it was last round.
            let addrs: &[SocketAddr] = match failed[c] {
                None => &self.chain_addrs[c],
                Some(_) => &[],
            };
            for submission in subs {
                let exchanges: Vec<(SocketAddr, Frame)> = addrs
                    .iter()
                    .map(|&addr| {
                        (
                            addr,
                            Frame::Submit {
                                round,
                                submission: submission.clone(),
                            },
                        )
                    })
                    .collect();
                chain_of.push(c);
                sessions.push(client_reactor::SubmitSession::new(exchanges));
            }
        }
        let config = self.drive_config();
        match self.clients.drive(sessions, &config) {
            Ok(outcome) => {
                for (i, e) in outcome.failed {
                    let c = chain_of[i];
                    match e {
                        // The daemon refusing a *malformed* onion is
                        // the protocol working: only injected attack
                        // traffic can trip it (the coordinator seals
                        // real users' onions correctly), and the
                        // round must proceed without the reject.
                        NetError::Remote {
                            code: error_code::REJECTED_SUBMISSION,
                            message,
                        } => {
                            xrd_obs::debug!(
                                "round {round}: chain {c} daemon rejected a \
                                 submission ({message})"
                            );
                        }
                        // Any other rejection of well-formed traffic
                        // (quota, closed window) means the message
                        // definitively did NOT land — swallowing it
                        // would be silent per-user message loss at
                        // fetch time.  An undersized submission
                        // window surfaces as a failed chain instead.
                        e => {
                            failed[c].get_or_insert(format!("submission window: {e}"));
                        }
                    }
                }
            }
            // Only the poller itself failing to come up lands here;
            // without it no chain got any traffic.
            Err(e) => {
                for slot in failed.iter_mut() {
                    slot.get_or_insert(format!("submission reactor: {e}"));
                }
            }
        }
    }

    /// The fetch phase: every online user walks and acks her own
    /// mailbox — one [`client_reactor::FetchSession`] apiece, see
    /// [`client_reactor::fetch_sessions`].  The mailbox tier is shared
    /// infrastructure, so any session failing beyond its bounded
    /// retries is a round-level [`RoundError::Infrastructure`].
    fn fetch_reactor(&mut self, round: u64, users: &[User]) -> Result<Prefetched, RoundError> {
        let mailboxes: Vec<[u8; 32]> = users
            .iter()
            .filter(|u| u.online)
            .map(User::mailbox_id)
            .collect();
        let sessions = client_reactor::fetch_sessions(&self.mailbox_addrs, &mailboxes);
        let config = self.drive_config();
        let outcome =
            self.clients
                .drive(sessions, &config)
                .map_err(|e| RoundError::Infrastructure {
                    round,
                    message: format!("mailbox fetch reactor: {e}"),
                })?;
        if let Some((i, e)) = outcome.failed.into_iter().next() {
            return Err(RoundError::Infrastructure {
                round,
                message: format!("mailbox fetch session {i}: {e}"),
            });
        }
        Ok(outcome
            .sessions
            .into_iter()
            .map(|s| (s.mailbox(), s.into_entries()))
            .collect())
    }
}

/// What the fetch phase hands to decryption: each online mailbox's
/// `(delivery_round, sealed)` entries, oldest first.
type Prefetched = HashMap<[u8; 32], Vec<(u64, Vec<u8>)>>;

/// Deliver every shard's messages, one worker thread per shard
/// connection (`per_shard[s]` goes to `conns[s]`).
pub(crate) fn deliver_shards(
    conns: &mut [Conn],
    round: u64,
    per_shard: Vec<Vec<MailboxMessage>>,
    retry: RetryPolicy,
) -> Result<(), NetError> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(per_shard)
            .map(|(conn, messages)| {
                scope.spawn(move || deliver_shard(conn, round, messages, retry))
            })
            .collect();
        workers.into_iter().try_for_each(|worker| {
            worker
                .join()
                .unwrap_or_else(|_| Err(NetError::Protocol("delivery worker panicked".into())))
        })
    })
}

/// Deliver one shard's messages, in codec-bounded chunks.  Each chunk
/// carries a batch id unique within the round **on this shard's
/// daemon**, so a retry after a lost `Ok` is answered from the dedup
/// window instead of double-storing (which would break the per-user
/// message-count uniformity the protocol relies on).
fn deliver_shard(
    conn: &mut Conn,
    round: u64,
    messages: Vec<MailboxMessage>,
    retry: RetryPolicy,
) -> Result<(), NetError> {
    let mut messages = messages;
    let mut batch = 0u64;
    while !messages.is_empty() {
        let rest = messages.split_off(messages.len().min(MAX_BATCH));
        let frame = Frame::Deliver {
            round,
            batch,
            messages,
        };
        match request_retry(conn, &frame, retry)? {
            Frame::Ok => {}
            other => {
                return Err(NetError::Protocol(format!(
                    "expected Ok to Deliver, got {other:?}"
                )))
            }
        }
        messages = rest;
        batch += 1;
    }
    Ok(())
}

impl RoundBackend for RemoteDeployment {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn chain_keys(&self) -> &[ChainPublicKeys] {
        &self.current_keys
    }

    fn run_round(
        &mut self,
        rng: &mut dyn RngCore,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), RoundError> {
        RemoteDeployment::run_round(self, rng, users)
    }
}

/// Handles for a deployment launched by [`launch_local`]; dropping it
/// shuts every daemon down.
pub struct LocalCluster {
    /// `mix[c][i]` is hop `i` of chain `c`.
    pub mix: Vec<Vec<DaemonHandle>>,
    /// One handle per mailbox shard.
    pub mailboxes: Vec<DaemonHandle>,
}

impl LocalCluster {
    /// Total daemon count (mix servers + mailbox shards).
    pub fn n_daemons(&self) -> usize {
        self.mix.iter().map(|c| c.len()).sum::<usize>() + self.mailboxes.len()
    }

    /// Stop every daemon.
    pub fn shutdown(&mut self) {
        for chain in &mut self.mix {
            for daemon in chain {
                daemon.shutdown();
            }
        }
        for daemon in &mut self.mailboxes {
            daemon.shutdown();
        }
    }
}

/// Launch a complete deployment on loopback TCP: one daemon per mix
/// hop (`n_chains × k` of them) and one per mailbox shard, each bound
/// to its own OS-assigned port — then connect a [`RemoteDeployment`]
/// to it.
///
/// The topology and key schedule match `Deployment::new` for the same
/// config, so the two backends are directly comparable.
pub fn launch_local<R: RngCore + ?Sized>(
    rng: &mut R,
    config: &DeploymentConfig,
) -> std::io::Result<(LocalCluster, RemoteDeployment)> {
    let spawned = spawn_cluster(rng, config)?;
    let deployment = RemoteDeployment::connect(
        spawned.topo,
        spawned.chain_addrs,
        spawned.chain_keys,
        spawned.mailbox_addrs,
    )
    .map_err(|e| std::io::Error::other(format!("connect failed: {e}")))?;
    Ok((spawned.cluster, deployment))
}

/// Like [`launch_local`], but every mix daemon sits behind its own
/// [`FaultProxy`] running a copy of `plan` (seeds offset per proxy so
/// corrupt-byte choices differ), and the deployment dials the proxies.
/// All coordinator and submission traffic crosses the fault layer;
/// mailbox shards are left unproxied so delivered-mail assertions
/// measure the mix path, not the fetch path.
///
/// Dropping the returned proxies severs the deployment from its
/// daemons — keep them alive alongside the cluster.
pub fn launch_local_faulty<R: RngCore + ?Sized>(
    rng: &mut R,
    config: &DeploymentConfig,
    plan: &FaultPlan,
) -> std::io::Result<(LocalCluster, Vec<FaultProxy>, RemoteDeployment)> {
    launch_local_faulty_with(
        rng,
        config,
        plan,
        ConnTimeouts::default(),
        RetryPolicy::default(),
    )
}

/// [`launch_local_faulty`] with explicit coordinator deadlines and
/// retry policy — chaos tests shrink both so injected stalls and drops
/// are detected in milliseconds.
pub fn launch_local_faulty_with<R: RngCore + ?Sized>(
    rng: &mut R,
    config: &DeploymentConfig,
    plan: &FaultPlan,
    timeouts: ConnTimeouts,
    retry: RetryPolicy,
) -> std::io::Result<(LocalCluster, Vec<FaultProxy>, RemoteDeployment)> {
    let mut spawned = spawn_cluster(rng, config)?;
    let mut proxies: Vec<FaultProxy> = Vec::new();
    for chain in &mut spawned.chain_addrs {
        for addr in chain.iter_mut() {
            let mut plan = plan.clone();
            plan.seed = plan.seed.wrapping_add(proxies.len() as u64);
            let proxy = FaultProxy::spawn("127.0.0.1:0", *addr, plan)?;
            *addr = proxy.addr();
            proxies.push(proxy);
        }
    }
    let deployment = RemoteDeployment::connect_with(
        spawned.topo,
        spawned.chain_addrs,
        spawned.chain_keys,
        spawned.mailbox_addrs,
        timeouts,
        retry,
    )
    .map_err(|e| std::io::Error::other(format!("connect failed: {e}")))?;
    Ok((spawned.cluster, proxies, deployment))
}

/// Like [`launch_local`], but every **mailbox shard** sits behind its
/// own [`FaultProxy`] running a copy of `plan` (seeds offset per
/// proxy), while mix daemons are dialed directly — the mirror image of
/// [`launch_local_faulty`], for exercising the fetch/delivery path's
/// loss and duplication tolerance in isolation from the mix path.
pub fn launch_local_with_mailbox_faults<R: RngCore + ?Sized>(
    rng: &mut R,
    config: &DeploymentConfig,
    plan: &FaultPlan,
    timeouts: ConnTimeouts,
    retry: RetryPolicy,
) -> std::io::Result<(LocalCluster, Vec<FaultProxy>, RemoteDeployment)> {
    let mut spawned = spawn_cluster(rng, config)?;
    let mut proxies: Vec<FaultProxy> = Vec::new();
    for addr in spawned.mailbox_addrs.iter_mut() {
        let mut plan = plan.clone();
        plan.seed = plan.seed.wrapping_add(proxies.len() as u64);
        let proxy = FaultProxy::spawn("127.0.0.1:0", *addr, plan)?;
        *addr = proxy.addr();
        proxies.push(proxy);
    }
    let deployment = RemoteDeployment::connect_with(
        spawned.topo,
        spawned.chain_addrs,
        spawned.chain_keys,
        spawned.mailbox_addrs,
        timeouts,
        retry,
    )
    .map_err(|e| std::io::Error::other(format!("connect failed: {e}")))?;
    Ok((spawned.cluster, proxies, deployment))
}

/// The daemons of a loopback deployment before anything connects to
/// them: handles plus the addresses/keys a [`RemoteDeployment`] (or a
/// fault-proxy layer) needs.
struct SpawnedCluster {
    topo: Topology,
    cluster: LocalCluster,
    chain_addrs: Vec<Vec<SocketAddr>>,
    chain_keys: Vec<ChainPublicKeys>,
    mailbox_addrs: Vec<SocketAddr>,
}

fn spawn_cluster<R: RngCore + ?Sized>(
    rng: &mut R,
    config: &DeploymentConfig,
) -> std::io::Result<SpawnedCluster> {
    let beacon = Beacon::from_u64(config.seed);
    let k = config
        .chain_len
        .unwrap_or_else(|| xrd_topology::chain_length(config.f, config.n_servers, 64));
    let topo = Topology::build_with(&beacon, 0, config.n_servers, config.n_servers, k, config.f);

    let mut mix = Vec::with_capacity(topo.n_chains());
    let mut chain_addrs = Vec::with_capacity(topo.n_chains());
    let mut chain_keys = Vec::with_capacity(topo.n_chains());
    for c in 0..topo.n_chains() {
        // Long-term keys for epoch `c` (chain identity), inner keys
        // rotated to round 0 — the same schedule as the in-process
        // deployment.
        let (mut secrets, mut public) = generate_chain_keys(rng, k, c as u64);
        rotate_inner_keys(rng, &mut secrets, &mut public, 0);
        // Spawn in reverse hop order so each daemon knows its
        // successor's bound address; the links sit unused until a
        // round runs under [`crate::Transport::Forwarded`].
        let mut daemons = Vec::with_capacity(k);
        let mut addrs = Vec::with_capacity(k);
        let mut successor: Option<SocketAddr> = None;
        for server_secrets in secrets.into_iter().rev() {
            let daemon = MixServerDaemon::spawn_with_successor(
                "127.0.0.1:0",
                server_secrets,
                public.clone(),
                rng.next_u64(),
                successor,
            )?;
            successor = Some(daemon.addr());
            addrs.push(daemon.addr());
            daemons.push(daemon);
        }
        daemons.reverse();
        addrs.reverse();
        mix.push(daemons);
        chain_addrs.push(addrs);
        chain_keys.push(public);
    }

    let mut mailboxes = Vec::with_capacity(config.n_mailbox_shards);
    let mut mailbox_addrs = Vec::with_capacity(config.n_mailbox_shards);
    for shard in 0..config.n_mailbox_shards {
        let daemon = MailboxDaemon::spawn("127.0.0.1:0", shard, config.n_mailbox_shards)?;
        mailbox_addrs.push(daemon.addr());
        mailboxes.push(daemon);
    }

    Ok(SpawnedCluster {
        topo,
        cluster: LocalCluster { mix, mailboxes },
        chain_addrs,
        chain_keys,
        mailbox_addrs,
    })
}
