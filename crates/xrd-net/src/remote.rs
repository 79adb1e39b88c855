//! [`RemoteDeployment`]: XRD rounds against networked daemons — the
//! shared round driver ([`xrd_core::backend::run_round`]) over a
//! [`Cluster`] whose servers live behind TCP, so it presents the same
//! [`RoundBackend`](xrd_core::RoundBackend) face as the in-process
//! `Deployment` by construction — plus [`launch_local`], which spins a
//! whole deployment up on loopback TCP (one daemon per mix-server hop
//! and per mailbox shard, each on its own port).
//!
//! Each chain mixes on a thread of its own; its daemons, and a round's
//! mailbox shards, are asked all at once (`coordinator::ask`).

use std::iter::repeat;
use std::net::SocketAddr;

use rand::RngCore;

use xrd_core::backend::{
    run_round, ChainMixed, Cluster, FetchResults, Prefetched, RoundError, RoundParts, RoundReport,
    RoundState,
};
use xrd_core::deployment::DeploymentConfig;
use xrd_core::mailbox::shard_of;
use xrd_core::user::User;
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys, ChainPublicKeys};
use xrd_mixnet::client::Submission;
use xrd_mixnet::message::MailboxMessage;
use xrd_mixnet::{verify_hops_batched_multi, ChainAudit, ChainRoundOutcome, HopRecord};
use xrd_topology::{Beacon, ChainId, Topology};

use crate::codec::{error_code, Frame, MAX_BATCH};
use crate::conn::{expect_ok, Conn, ConnTimeouts, NetError};
use crate::coordinator::{ask, ChainClient, MixPhase, RetryPolicy, NO_RETRY};
use crate::daemon::{DaemonHandle, MailboxDaemon, MixServerDaemon};
use crate::faults::{FaultPlan, FaultProxy};
use crate::swarm::reactor as client_reactor;

/// A deployment whose chains and mailboxes live behind TCP endpoints.
pub struct RemoteDeployment {
    state: RoundState,
    cluster: Wire,
}

/// The servers of a [`RemoteDeployment`], as the coordinator and its
/// users reach them.
pub struct Wire {
    chains: Vec<ChainClient>,
    /// Daemon addresses per chain (hop order) — what submitting clients
    /// connect to.
    chain_addrs: Vec<Vec<SocketAddr>>,
    mailbox_addrs: Vec<SocketAddr>,
    /// Coordinator-side connections to the mailbox daemons (delivery;
    /// users fetch over connections of their own).
    mailbox_conns: Vec<Conn>,
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
        // One `Ping` per shard before returning, as the chains' rotation
        // exchange does for theirs: a shard has then accepted the
        // connection, and nothing it counts arrives later than this.
        let mut mailbox_conns = mailbox_addrs
            .iter()
            .map(|&a| Conn::connect_with(a, timeouts))
            .collect::<Result<Vec<_>, NetError>>()?;
        let ping = Frame::Ping.encode();
        let pongs = ask(&mut mailbox_conns, repeat(Some(&ping[..])), NO_RETRY);
        for pong in pongs.into_iter().flatten() {
            match pong? {
                Frame::Pong => {}
                other => return Err(NetError::Protocol(format!("expected Pong, got {other:?}"))),
            }
        }
        // Pre-publish round-1 inner keys (§5.3.3: covers for ρ+1 are
        // sealed while ρ runs).
        let next_keys = chains
            .iter_mut()
            .map(|c| c.prepare_rotation(1))
            .collect::<Result<_, _>>()?;
        Ok(RemoteDeployment {
            state: RoundState::new(topo, chain_keys, next_keys),
            cluster: Wire {
                chains,
                chain_addrs,
                mailbox_addrs,
                mailbox_conns,
                retry,
                timeouts,
                clients: client_reactor::ClientReactor::new()?,
            },
        })
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        &self.state.topo
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.state.round
    }

    /// The public key bundles of all chains for the current round.
    pub fn chain_keys(&self) -> &[ChainPublicKeys] {
        &self.state.current_keys
    }

    /// The pre-published bundles for the next round.
    pub fn next_chain_keys(&self) -> &[ChainPublicKeys] {
        &self.state.next_keys
    }

    /// Daemon addresses per chain, hop order (for external submitters).
    pub fn chain_addrs(&self) -> &[Vec<SocketAddr>] {
        &self.cluster.chain_addrs
    }

    /// Mailbox shard addresses (for external fetchers).
    pub fn mailbox_addrs(&self) -> &[SocketAddr] {
        &self.cluster.mailbox_addrs
    }

    /// Total bytes exchanged with all daemons so far.
    pub fn bytes_on_wire(&self) -> u64 {
        let chain_bytes: u64 = self.cluster.chains.iter().map(|c| c.bytes_on_wire()).sum();
        let mailbox_bytes: u64 = self
            .cluster
            .mailbox_conns
            .iter()
            .map(|c| c.bytes_sent() + c.bytes_received())
            .sum();
        chain_bytes + mailbox_bytes
    }

    /// Queue a raw submission for the next round (simulating a user
    /// that does not follow the protocol).  Fault-injection hook for
    /// tests, mirroring `Deployment::inject_submission`.
    #[doc(hidden)]
    pub fn inject_submission(&mut self, chain: ChainId, submission: Submission) {
        self.state.injected.push((chain, submission));
    }

    /// Execute one full round over the wire:
    /// [`xrd_core::backend::run_round`] on the networked [`Cluster`].
    /// A chain that fails — transport trouble its bounded retries could
    /// not heal, a coordinator-side panic — degrades the round
    /// ([`RoundReport::failed_chains`]); every chain failing at once
    /// ([`RoundError::AllChainsFailed`]) or the shared mailbox layer
    /// failing ([`RoundError::Infrastructure`]) is an error.
    pub fn run_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), RoundError> {
        run_round(&mut self.state, &mut self.cluster, rng, users)
    }
}

impl RoundParts for RemoteDeployment {
    type Cluster = Wire;

    fn state(&self) -> &RoundState {
        &self.state
    }

    fn parts(&mut self) -> (&mut RoundState, &mut Wire) {
        (&mut self.state, &mut self.cluster)
    }
}

/// Run `work` on each `(chain, input)` job, every chain on a thread of
/// its own — each is an independent set of machines — and collect
/// `(chain, result)`.  A failure reads "`phase`: why"; a panicking
/// worker fails its chain, not the process.
fn each_chain<I: Send, T: Send>(
    chains: &mut [ChainClient],
    phase: &str,
    jobs: Vec<(usize, I)>,
    work: impl Fn(&mut ChainClient, I) -> Result<T, NetError> + Sync,
) -> Vec<(usize, Result<T, String>)> {
    let mut slots: Vec<Option<&mut ChainClient>> = chains.iter_mut().map(Some).collect();
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(c, input)| {
                let chain = slots[c].take().expect("one job per chain");
                (c, scope.spawn(move || work(chain, input)))
            })
            .collect();
        handles
            .into_iter()
            .map(|(c, handle)| {
                let result = match handle.join() {
                    Ok(Ok(done)) => Ok(done),
                    Ok(Err(e)) => Err(format!("{phase}: {e}")),
                    Err(_) => Err(format!("{phase}: coordinator thread panicked")),
                };
                (c, result)
            })
            .collect()
    })
}

/// A chain's standing within one round's mix phase: empty while it is
/// live and unfinished, an `Err` drops it from every later step.
type Slot = Option<Result<(usize, ChainRoundOutcome), String>>;

impl Cluster for Wire {
    /// Submission window → mix → audit → reveal, in `round.*` spans of
    /// those names.  The daemons draw their own randomness.
    fn mix<R: RngCore + ?Sized>(
        &mut self,
        _rng: &mut R,
        round: u64,
        per_chain: Vec<Vec<Submission>>,
        dead: &[bool],
    ) -> Vec<ChainMixed> {
        let mut slots: Vec<Slot> = dead
            .iter()
            .map(|&dead| dead.then(|| Err("dead".to_string())))
            .collect();

        // Submission window: open on every live chain, submit
        // concurrently (closing and input agreement open the mix).
        let bad_poks = {
            let _span = xrd_obs::span_timer("round.submit_window", round);
            for (chain, slot) in self.chains.iter_mut().zip(&mut slots) {
                if slot.is_none() {
                    if let Err(e) = chain.open_round(round) {
                        *slot = Some(Err(format!("opening the window: {e}")));
                    }
                }
            }
            self.submit_reactor(round, &per_chain, &mut slots)
        };

        // Drive every chain's mix in parallel.  The coordinator's own
        // audit is deferred: each chain returns its clean pass's
        // attestations, and all `n_chains × k` hop proofs of the round
        // are folded into ONE batched multiscalar mul below before any
        // chain reveals its inner keys.
        let mix_span = xrd_obs::span_timer("round.mix", round);
        let live = (0..slots.len())
            .filter(|&c| slots[c].is_none())
            .map(|c| (c, ()))
            .collect();
        let mixed = each_chain(&mut self.chains, "mix phase", live, |chain, ()| {
            let agreement = chain.close_and_agree(round)?;
            Ok((
                agreement.len(),
                chain.mix_round_deferred(round, &agreement)?,
            ))
        });
        drop(mix_span);
        // Convicted on evidence, per chain: the mix phase's verdicts
        // stand even if the conclusion then fails.
        let mut convicted: Vec<Vec<usize>> = vec![Vec::new(); slots.len()];
        let mut pendings = Vec::new();
        for (c, result) in mixed {
            match result {
                Ok((entered, MixPhase::AwaitingAudit(pending))) => {
                    convicted[c].clone_from(&pending.outcome.misbehaving_servers);
                    pendings.push((c, (entered, pending)))
                }
                Ok((entered, MixPhase::Done(outcome))) => slots[c] = Some(Ok((entered, outcome))),
                Err(why) => slots[c] = Some(Err(why)),
            }
        }

        // The deployment-level audit: every pending chain's hop proofs
        // in a single batched DLEQ verification.
        let audit_ok = {
            let _span = xrd_obs::span_timer("round.audit", round);
            let record_sets: Vec<(usize, Vec<HopRecord>)> = pendings
                .iter()
                .map(|(c, (_, pending))| (*c, pending.records()))
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
        let conclude = |chain: &mut ChainClient, (entered, pending)| {
            Ok((entered, chain.conclude_audited(round, pending, audit_ok)?))
        };
        let concluded = each_chain(&mut self.chains, "concluding the round", pendings, conclude);
        drop(reveal_span);
        for (c, concluded) in concluded {
            slots[c] = Some(concluded);
        }

        let chains = self.chains.iter_mut().zip(slots).zip(bad_poks);
        chains
            .zip(convicted)
            .map(|(((chain, slot), bad_poks), mut convicted)| {
                let mut result =
                    slot.unwrap_or_else(|| Err("neither concluded nor failed".to_string()));
                if let Ok((_, outcome)) = &mut result {
                    convicted.clone_from(&outcome.misbehaving_servers);
                    // What the daemons refused at the window for a bad
                    // proof of knowledge never reached the coordinator:
                    // enter it in the chain's ledger here, where
                    // `ChainRunner` enters its own screening's rejects.
                    outcome.stats.rejected_pok += bad_poks.len();
                    outcome.malicious_users.extend(bad_poks);
                }
                ChainMixed {
                    result,
                    convicted,
                    suspected: chain.take_suspects(),
                }
            })
            .collect()
    }

    /// Every shard's chunks go out at once (see `deliver_shards`).
    fn deliver(&mut self, round: u64, messages: Vec<MailboxMessage>) -> Result<(), RoundError> {
        deliver_shards(&mut self.mailbox_conns, round, messages, self.retry).map_err(|e| {
            RoundError::Infrastructure {
                round,
                message: format!("mailbox delivery: {e}"),
            }
        })
    }

    /// Every user walks and acks her own mailbox — one
    /// [`client_reactor::FetchSession`] apiece, see
    /// [`client_reactor::fetch_sessions`].  The mailbox tier is shared
    /// infrastructure, so any session failing beyond its bounded
    /// retries is a round-level [`RoundError::Infrastructure`].
    fn fetch(&mut self, round: u64, mailboxes: &[[u8; 32]]) -> Result<Prefetched, RoundError> {
        let sessions = client_reactor::fetch_sessions(&self.mailbox_addrs, mailboxes);
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

    /// A chain whose rotation fails is out of sync with its daemons.
    fn rotate<R: RngCore + ?Sized>(
        &mut self,
        _rng: &mut R,
        chain: usize,
        inner_epoch: u64,
    ) -> Result<ChainPublicKeys, String> {
        let chain = &mut self.chains[chain];
        chain
            .activate_rotation()
            .and_then(|()| chain.prepare_rotation(inner_epoch))
            .map_err(|e| e.to_string())
    }
}

impl Wire {
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
    ///
    /// Returns, per chain, the refused submissions (indices into
    /// `per_chain[c]`) whose proof of knowledge really is bad — checked
    /// here, so that no submitter is called malicious on one server's
    /// word.  A daemon that refuses a *valid* proof is only skipped,
    /// and shows as digest dissent.
    fn submit_reactor(
        &mut self,
        round: u64,
        per_chain: &[Vec<Submission>],
        slots: &mut [Slot],
    ) -> Vec<Vec<usize>> {
        let mut origin: Vec<(usize, usize)> = Vec::new();
        let mut sessions: Vec<client_reactor::SubmitSession> = Vec::new();
        for (c, subs) in per_chain.iter().enumerate() {
            // A failed chain's submissions still take their lanes (as
            // sessions with nothing to send), so every other
            // submission's lane — and with it the connections the lane
            // kept — is where it was last round.
            let addrs: &[SocketAddr] = match slots[c] {
                None => &self.chain_addrs[c],
                Some(_) => &[],
            };
            for (i, submission) in subs.iter().enumerate() {
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
                origin.push((c, i));
                sessions.push(client_reactor::SubmitSession::new(exchanges));
            }
        }
        let mut bad_poks: Vec<Vec<usize>> = vec![Vec::new(); per_chain.len()];
        let config = self.drive_config();
        match self.clients.drive(sessions, &config) {
            Ok(outcome) => {
                for (session, e) in outcome.failed {
                    let (c, i) = origin[session];
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
                            if !per_chain[c][i].verify_pok(round) {
                                bad_poks[c].push(i);
                            }
                        }
                        // Any other rejection of well-formed traffic
                        // (quota, closed window) means the message
                        // definitively did NOT land — swallowing it
                        // would be silent per-user message loss at
                        // fetch time.  An undersized submission
                        // window surfaces as a failed chain instead.
                        e => {
                            slots[c].get_or_insert_with(|| Err(format!("submission window: {e}")));
                        }
                    }
                }
            }
            // Only the poller itself failing to come up lands here;
            // without it no chain got any traffic.
            Err(e) => {
                for slot in slots.iter_mut() {
                    slot.get_or_insert_with(|| Err(format!("submission reactor: {e}")));
                }
            }
        }
        bad_poks
    }
}

/// Deliver `messages` to their mailboxes' shards (shard `s` behind
/// `conns[s]`) in codec-bounded chunks, from the calling thread: each
/// wave asks every shard with messages left for its next chunk at once,
/// one request in flight per connection.  Chunk `b` of a shard carries
/// batch id `b`, unique within the round **on that shard's daemon**, so
/// a retry after a lost `Ok` is answered from the dedup window instead
/// of double-storing (which would break the per-user message-count
/// uniformity the protocol relies on).
pub(crate) fn deliver_shards(
    conns: &mut [Conn],
    round: u64,
    messages: Vec<MailboxMessage>,
    retry: RetryPolicy,
) -> Result<(), NetError> {
    let mut per_shard: Vec<Vec<MailboxMessage>> = vec![Vec::new(); conns.len()];
    for msg in messages {
        per_shard[shard_of(&msg.mailbox, conns.len())].push(msg);
    }
    let waves = per_shard.iter().map(|m| m.len().div_ceil(MAX_BATCH)).max();
    for batch in 0..waves.unwrap_or(0) as u64 {
        let wave: Vec<Option<Vec<u8>>> = per_shard
            .iter_mut()
            .map(|left| {
                let rest = left.split_off(left.len().min(MAX_BATCH));
                let messages = std::mem::replace(left, rest);
                (!messages.is_empty()).then(|| {
                    Frame::Deliver {
                        round,
                        batch,
                        messages,
                    }
                    .encode()
                })
            })
            .collect();
        let replies = ask(conns, wave.iter().map(Option::as_deref), retry);
        replies.into_iter().flatten().try_for_each(expect_ok)?;
    }
    Ok(())
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
    spawn_cluster(rng, config)?.connect(ConnTimeouts::default(), RetryPolicy::default())
}

/// Like [`launch_local`], but every mix daemon sits behind its own
/// [`FaultProxy`] running a copy of `plan` (seeds offset per proxy so
/// corrupt-byte choices differ), and the deployment dials the proxies
/// with the given coordinator deadlines and retry policy — chaos tests
/// shrink both so injected stalls and drops are detected in
/// milliseconds.  All coordinator and submission traffic crosses the
/// fault layer; mailbox shards are left unproxied so delivered-mail
/// assertions measure the mix path, not the fetch path.
///
/// Dropping the returned proxies severs the deployment from its
/// daemons — keep them alive alongside the cluster.
pub fn launch_local_faulty_with<R: RngCore + ?Sized>(
    rng: &mut R,
    config: &DeploymentConfig,
    plan: &FaultPlan,
    timeouts: ConnTimeouts,
    retry: RetryPolicy,
) -> std::io::Result<(LocalCluster, Vec<FaultProxy>, RemoteDeployment)> {
    let mut spawned = spawn_cluster(rng, config)?;
    let proxies = proxy_each(spawned.chain_addrs.iter_mut().flatten(), plan)?;
    let (cluster, deployment) = spawned.connect(timeouts, retry)?;
    Ok((cluster, proxies, deployment))
}

/// Like [`launch_local`], but every **mailbox shard** sits behind its
/// own [`FaultProxy`] running a copy of `plan` (seeds offset per
/// proxy), while mix daemons are dialed directly — the mirror image of
/// [`launch_local_faulty_with`], for exercising the fetch/delivery
/// path's loss and duplication tolerance in isolation from the mix
/// path.
pub fn launch_local_with_mailbox_faults<R: RngCore + ?Sized>(
    rng: &mut R,
    config: &DeploymentConfig,
    plan: &FaultPlan,
    timeouts: ConnTimeouts,
    retry: RetryPolicy,
) -> std::io::Result<(LocalCluster, Vec<FaultProxy>, RemoteDeployment)> {
    let mut spawned = spawn_cluster(rng, config)?;
    let proxies = proxy_each(spawned.mailbox_addrs.iter_mut(), plan)?;
    let (cluster, deployment) = spawned.connect(timeouts, retry)?;
    Ok((cluster, proxies, deployment))
}

/// Put a [`FaultProxy`] running a copy of `plan` in front of each of
/// `addrs` (seeds offset per proxy), rewriting each address to its
/// proxy's.
fn proxy_each<'a>(
    addrs: impl Iterator<Item = &'a mut SocketAddr>,
    plan: &FaultPlan,
) -> std::io::Result<Vec<FaultProxy>> {
    let mut proxies: Vec<FaultProxy> = Vec::new();
    for addr in addrs {
        let mut plan = plan.clone();
        plan.seed = plan.seed.wrapping_add(proxies.len() as u64);
        let proxy = FaultProxy::spawn("127.0.0.1:0", *addr, plan)?;
        *addr = proxy.addr();
        proxies.push(proxy);
    }
    Ok(proxies)
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

impl SpawnedCluster {
    /// Connect a [`RemoteDeployment`] to the (possibly proxied)
    /// addresses.
    fn connect(
        self,
        timeouts: ConnTimeouts,
        retry: RetryPolicy,
    ) -> std::io::Result<(LocalCluster, RemoteDeployment)> {
        let deployment = RemoteDeployment::connect_with(
            self.topo,
            self.chain_addrs,
            self.chain_keys,
            self.mailbox_addrs,
            timeouts,
            retry,
        )
        .map_err(|e| std::io::Error::other(format!("connect failed: {e}")))?;
        Ok((self.cluster, deployment))
    }
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
        let daemons = (secrets.into_iter())
            .map(|s| MixServerDaemon::spawn("127.0.0.1:0", s, public.clone(), rng.next_u64()))
            .collect::<std::io::Result<Vec<_>>>()?;
        let addrs = daemons.iter().map(DaemonHandle::addr).collect();
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
