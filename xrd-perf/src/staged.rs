//! The two ways a round is run.
//!
//! **Opaque**: one call to the entry point a user of the system calls
//! (`Deployment::run_round`, `RemoteDeployment::run_round`).  This is
//! what the end-to-end metrics time; nothing is recorded inside it.
//!
//! **Staged**: the same round on the same inputs, but driven by the
//! harness phase by phase through each layer's public functions, with
//! a span around every call.  The staged drivers below follow the
//! opaque implementations step for step (same order, same
//! parallelism, same reactor settings), so that the spans add up to
//! the opaque round; `trace.attributed_share` measures how well they
//! do, and `*.glue_ms` what is left over.

use std::collections::HashMap;
use std::net::SocketAddr;

use rand::rngs::StdRng;

use xrd_core::backend::{collect_submissions, open_fetched, CoverStore};
use xrd_core::mailbox::{drain, shard_of};
use xrd_core::{
    Deployment, DeploymentConfig, FetchResults, MailboxHub, MailboxStore, RoundBackend,
    RoundReport, User,
};
use xrd_mixnet::{
    verify_hops_batched_multi, ChainAudit, ChainPublicKeys, ChainRoundOutcome, ChainRunner,
    HopRecord, MailboxMessage,
};
use xrd_net::codec::MAX_BATCH;
use xrd_net::swarm::reactor::{
    drive_sessions, raise_nofile_limit, DriveConfig, FetchSession, SubmitSession,
};
use xrd_net::{
    launch_local, ChainClient, Conn, ConnTimeouts, Frame, LocalCluster, MixPhase, RemoteDeployment,
    RetryPolicy,
};
use xrd_topology::{Beacon, Topology};

use crate::trace::{span_if, SpanId, Tracer};

/// Which deployment a `round_*` workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Every hop a function call (`xrd-core`).
    InProc,
    /// Every hop a loopback TCP exchange (`xrd-net`).
    Tcp,
}

/// The deployment shape every workload uses: 6 chains × k=3, ℓ=3,
/// 2 mailbox shards.
pub fn shape() -> DeploymentConfig {
    DeploymentConfig::small(6, 3)
}

/// A deployment run through its opaque entry point.
pub enum Opaque {
    /// The in-process deployment.
    InProc(Box<Deployment>),
    /// A loopback cluster and the deployment connected to it.  The
    /// cluster's daemons stop when it drops.
    Tcp {
        /// Daemon handles (kept alive, never read).
        cluster: LocalCluster,
        /// The coordinator side.
        deployment: Box<RemoteDeployment>,
    },
}

impl Opaque {
    /// Generate keys and bring the deployment up.
    pub fn launch(backend: Backend, rng: &mut StdRng) -> Opaque {
        match backend {
            Backend::InProc => Opaque::InProc(Box::new(Deployment::new(rng, shape()))),
            Backend::Tcp => {
                let (cluster, deployment) =
                    launch_local(rng, &shape()).expect("loopback cluster launches");
                Opaque::Tcp {
                    cluster,
                    deployment: Box::new(deployment),
                }
            }
        }
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        match self {
            Opaque::InProc(d) => d.topology(),
            Opaque::Tcp { deployment, .. } => deployment.topology(),
        }
    }

    /// The next round number.
    pub fn round(&self) -> u64 {
        match self {
            Opaque::InProc(d) => d.round(),
            Opaque::Tcp { deployment, .. } => deployment.round(),
        }
    }

    /// One round through the public entry point.
    pub fn run_round(
        &mut self,
        rng: &mut StdRng,
        users: &mut [User],
    ) -> (RoundReport, FetchResults) {
        let backend: &mut dyn RoundBackend = match self {
            Opaque::InProc(d) => d.as_mut(),
            Opaque::Tcp { deployment, .. } => deployment.as_mut(),
        };
        backend
            .run_round(rng, users)
            .expect("no fault is injected, so the round completes")
    }

    /// Bytes the coordinator has exchanged with its daemons so far
    /// (`None` in process: there is no wire).
    pub fn bytes_on_wire(&self) -> Option<u64> {
        match self {
            Opaque::InProc(_) => None,
            Opaque::Tcp { deployment, .. } => Some(deployment.bytes_on_wire()),
        }
    }
}

/// A deployment the harness drives phase by phase.
pub enum Staged {
    /// Mirrors `Deployment::run_round`.
    InProc(Box<StagedInProc>),
    /// Mirrors `RemoteDeployment::run_round`.
    Tcp(Box<StagedTcp>),
}

impl Staged {
    /// Generate keys and bring the deployment up.
    pub fn launch(backend: Backend, rng: &mut StdRng) -> Staged {
        match backend {
            Backend::InProc => Staged::InProc(Box::new(StagedInProc::new(rng))),
            Backend::Tcp => Staged::Tcp(Box::new(StagedTcp::launch(rng))),
        }
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        match self {
            Staged::InProc(s) => &s.topo,
            Staged::Tcp(s) => &s.topo,
        }
    }

    /// The next round number.
    pub fn round(&self) -> u64 {
        match self {
            Staged::InProc(s) => s.round,
            Staged::Tcp(s) => s.round,
        }
    }

    /// One round, every phase inside a span parented to a `round` span.
    pub fn run_round(
        &mut self,
        tracer: &Tracer,
        rng: &mut StdRng,
        users: &mut [User],
    ) -> (RoundReport, FetchResults) {
        let round = self.round();
        tracer.span("round", round, None, |root| match self {
            Staged::InProc(s) => s.run_round(tracer, root, rng, users),
            Staged::Tcp(s) => s.run_round(tracer, root, rng, users),
        })
    }
}

/// Page size of the in-process mailbox walk (`Deployment` uses the same).
const FETCH_PAGE: usize = 64;

/// The in-process deployment, taken apart: what `Deployment` holds
/// privately, held here so each step can be timed from outside.
pub struct StagedInProc {
    topo: Topology,
    chains: Vec<ChainRunner>,
    mailboxes: MailboxHub,
    round: u64,
    current_keys: Vec<ChainPublicKeys>,
    next_keys: Vec<ChainPublicKeys>,
    cover_store: CoverStore,
}

impl StagedInProc {
    fn new(rng: &mut StdRng) -> StagedInProc {
        let config = shape();
        // The topology `Deployment::new` builds for this config.
        let k = config.chain_len.expect("the shape fixes k");
        let n = config.n_servers;
        let topo = Topology::build_with(&Beacon::from_u64(config.seed), 0, n, n, k, config.f);
        let mut chains: Vec<ChainRunner> = (0..topo.n_chains())
            .map(|c| ChainRunner::new(rng, k, c as u64))
            .collect();
        let mut current_keys = Vec::with_capacity(chains.len());
        let mut next_keys = Vec::with_capacity(chains.len());
        for chain in &mut chains {
            chain.prepare_inner_rotation(rng, 0);
            chain.activate_inner_rotation();
            current_keys.push(chain.public().clone());
            next_keys.push(chain.prepare_inner_rotation(rng, 1));
        }
        StagedInProc {
            topo,
            chains,
            mailboxes: MailboxHub::new(config.n_mailbox_shards),
            round: 0,
            current_keys,
            next_keys,
            cover_store: CoverStore::new(),
        }
    }

    fn run_round(
        &mut self,
        tracer: &Tracer,
        root: SpanId,
        rng: &mut StdRng,
        users: &mut [User],
    ) -> (RoundReport, FetchResults) {
        let round = self.round;
        let root = Some(root);

        let per_chain = tracer.span("mixnet.client.seal", round, root, |_| {
            collect_submissions(
                rng,
                &self.topo,
                &self.current_keys,
                &self.next_keys,
                round,
                &mut self.cover_store,
                users,
            )
        });

        let mut report = RoundReport {
            round,
            ..Default::default()
        };
        let outcomes: Vec<ChainRoundOutcome> =
            tracer.span("mixnet.runner.chains", round, root, |chains_span| {
                self.chains
                    .iter_mut()
                    .zip(&per_chain)
                    .map(|(chain, subs)| {
                        tracer.span(
                            "mixnet.runner.chain_round",
                            round,
                            Some(chains_span),
                            |_| chain.run_round(rng, round, subs),
                        )
                    })
                    .collect()
            });

        tracer.span("core.mailbox.put", round, root, |_| {
            for (c, (subs, outcome)) in per_chain.iter().zip(outcomes).enumerate() {
                report.messages_mixed += subs.len();
                if !outcome.misbehaving_servers.is_empty() {
                    report.aborted_chains.push(c as u32);
                }
                for msg in outcome.delivered {
                    report.delivered += 1;
                    self.mailboxes
                        .put(round, msg)
                        .expect("unbounded in-memory hub accepts every put");
                }
            }
        });

        let mailboxes = &mut self.mailboxes;
        let fetched = tracer.span("core.user.open", round, root, |open_span| {
            open_fetched(&self.topo, round, users, |mailbox| {
                tracer.span("core.mailbox.drain", round, Some(open_span), |_| {
                    Ok(drain(mailboxes, mailbox, FETCH_PAGE)
                        .expect("unbounded in-memory hub serves every walk"))
                })
            })
            .expect("the fetch closure never fails")
        });

        tracer.span("core.deployment.rotate", round, root, |_| {
            self.round += 1;
            for (c, chain) in self.chains.iter_mut().enumerate() {
                chain.activate_inner_rotation();
                self.current_keys[c] = chain.public().clone();
                self.next_keys[c] = chain.prepare_inner_rotation(rng, self.round + 1);
            }
        });
        (report, fetched)
    }
}

/// Largest page a fetch session asks for (`RemoteDeployment`'s default).
const FETCH_PAGE_MAX: u32 = 256;

/// The client-reactor settings `RemoteDeployment` derives from its
/// default deadlines and retry policy, for `sessions` concurrent
/// sessions.
fn drive_config(sessions: usize) -> DriveConfig {
    let timeouts = ConnTimeouts::default();
    let fd_limit = raise_nofile_limit(sessions as u64 + 64);
    let headroom = fd_limit.saturating_sub(256).max(64) as usize;
    let defaults = DriveConfig::default();
    DriveConfig {
        max_retries: RetryPolicy::default().attempts.saturating_sub(1),
        connect_timeout: timeouts.connect,
        exchange_timeout: timeouts.read,
        max_in_flight: defaults.max_in_flight.min(headroom),
        deadline: defaults.deadline.max(timeouts.read * 4),
        ..defaults
    }
}

/// Deliver `messages` to one shard over `conn`, in codec-bounded
/// `Deliver` batches, each awaited.
fn deliver_shard(conn: &mut Conn, round: u64, mut messages: Vec<MailboxMessage>) {
    let mut batch = 0u64;
    while !messages.is_empty() {
        let rest = messages.split_off(messages.len().min(MAX_BATCH));
        let frame = Frame::Deliver {
            round,
            batch,
            messages,
        };
        match conn.request(&frame).expect("mailbox shard answers Deliver") {
            Frame::Ok => {}
            other => panic!("expected Ok to Deliver, got {other:?}"),
        }
        messages = rest;
        batch += 1;
    }
}

/// Deliver each shard's messages on its own thread (one blocking
/// connection per shard), inside one `net.mailbox.deliver_shard` span
/// each when traced.
pub fn deliver_all(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    conns: &mut [Conn],
    round: u64,
    per_shard: Vec<Vec<MailboxMessage>>,
) {
    std::thread::scope(|scope| {
        for (conn, messages) in conns.iter_mut().zip(per_shard) {
            scope.spawn(move || {
                span_if(tracer, "net.mailbox.deliver_shard", round, parent, |_| {
                    deliver_shard(conn, round, messages)
                })
            });
        }
    });
}

/// Walk and ack every listed mailbox from its shard: one
/// `FetchSession` each, all driven from one client-reactor thread.
/// Returns each mailbox's entries, in the order listed.
pub fn fetch_all(mailbox_addrs: &[SocketAddr], mailboxes: &[[u8; 32]]) -> Vec<Vec<(u64, Vec<u8>)>> {
    let sessions: Vec<FetchSession> = mailboxes
        .iter()
        .map(|mailbox| {
            let shard = mailbox_addrs[shard_of(mailbox, mailbox_addrs.len())];
            FetchSession::new(shard, *mailbox, FETCH_PAGE_MAX)
        })
        .collect();
    if sessions.is_empty() {
        return Vec::new();
    }
    let config = drive_config(sessions.len());
    let outcome = drive_sessions(sessions, &config).expect("client reactor comes up");
    if let Some((i, e)) = outcome.failed.first() {
        panic!("fetch session {i} failed: {e}");
    }
    outcome
        .sessions
        .into_iter()
        .map(FetchSession::into_entries)
        .collect()
}

/// A loopback cluster driven by the harness: `RemoteDeployment`'s
/// private state, held here.
pub struct StagedTcp {
    /// Daemon handles (kept alive, never read).
    _cluster: LocalCluster,
    topo: Topology,
    chains: Vec<ChainClient>,
    chain_addrs: Vec<Vec<SocketAddr>>,
    mailbox_addrs: Vec<SocketAddr>,
    mailbox_conns: Vec<Conn>,
    round: u64,
    current_keys: Vec<ChainPublicKeys>,
    next_keys: Vec<ChainPublicKeys>,
    cover_store: CoverStore,
    /// Submit sessions that failed, over the deployment's life.
    pub sessions_failed: u64,
}

impl StagedTcp {
    fn launch(rng: &mut StdRng) -> StagedTcp {
        // `launch_local` is the only way to a loopback cluster; the
        // coordinator it connects is read for the cluster's addresses
        // and keys and then dropped, and the harness dials its own.
        let (cluster, remote) = launch_local(rng, &shape()).expect("loopback cluster launches");
        let topo = remote.topology().clone();
        let chain_addrs = remote.chain_addrs().to_vec();
        let mailbox_addrs = remote.mailbox_addrs().to_vec();
        let current_keys = remote.chain_keys().to_vec();
        drop(remote);

        let mut chains: Vec<ChainClient> = chain_addrs
            .iter()
            .zip(&current_keys)
            .map(|(addrs, keys)| {
                ChainClient::connect(addrs, keys.clone()).expect("chain daemons accept")
            })
            .collect();
        let mailbox_conns = mailbox_addrs
            .iter()
            .map(|&addr| Conn::connect(addr).expect("mailbox daemon accepts"))
            .collect();
        let next_keys = chains
            .iter_mut()
            .map(|chain| chain.prepare_rotation(1).expect("rotation prepares"))
            .collect();
        StagedTcp {
            _cluster: cluster,
            topo,
            chains,
            chain_addrs,
            mailbox_addrs,
            mailbox_conns,
            round: 0,
            current_keys,
            next_keys,
            cover_store: CoverStore::new(),
            sessions_failed: 0,
        }
    }

    fn run_round(
        &mut self,
        tracer: &Tracer,
        root: SpanId,
        rng: &mut StdRng,
        users: &mut [User],
    ) -> (RoundReport, FetchResults) {
        let round = self.round;
        let root = Some(root);
        let mut report = RoundReport {
            round,
            ..Default::default()
        };

        let per_chain = tracer.span("mixnet.client.seal", round, root, |_| {
            collect_submissions(
                rng,
                &self.topo,
                &self.current_keys,
                &self.next_keys,
                round,
                &mut self.cover_store,
                users,
            )
        });

        tracer.span("net.coordinator.open", round, root, |_| {
            for chain in &mut self.chains {
                chain.open_round(round).expect("window opens");
            }
        });

        // One session per sealed submission, each fanning out to every
        // daemon of its chain, all on one client-reactor thread.
        tracer.span("net.swarm.submit", round, root, |_| {
            let sessions: Vec<SubmitSession> = per_chain
                .iter()
                .zip(&self.chain_addrs)
                .flat_map(|(subs, addrs)| {
                    subs.iter().map(move |submission| {
                        let exchanges = addrs
                            .iter()
                            .map(|&addr| {
                                let frame = Frame::Submit {
                                    round,
                                    submission: submission.clone(),
                                };
                                (addr, frame)
                            })
                            .collect();
                        SubmitSession::new(exchanges)
                    })
                })
                .collect();
            let config = drive_config(sessions.len());
            let outcome = drive_sessions(sessions, &config).expect("client reactor comes up");
            self.sessions_failed += outcome.failed.len() as u64;
        });

        // Every chain closes, agrees and mixes on its own thread; the
        // audit of all chains' proofs is one batched check afterwards.
        let pendings = tracer.span("net.coordinator.mix_phase", round, root, |phase| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .chains
                    .iter_mut()
                    .map(|chain| {
                        scope.spawn(move || {
                            let batch = tracer
                                .span("net.coordinator.agree", round, Some(phase), |_| {
                                    chain.close_and_agree(round)
                                })
                                .expect("input agreement");
                            let mixed = tracer
                                .span("net.coordinator.mix", round, Some(phase), |_| {
                                    chain.mix_round_deferred(round, &batch)
                                })
                                .expect("mix pass");
                            (batch.len(), mixed)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chain thread"))
                    .map(|(mixed, phase)| {
                        report.messages_mixed += mixed;
                        match phase {
                            MixPhase::AwaitingAudit(pending) => pending,
                            MixPhase::Done(_) => {
                                panic!("an honest chain ends its mix awaiting audit")
                            }
                        }
                    })
                    .collect::<Vec<_>>()
            })
        });

        let audit_ok = tracer.span("mixnet.server.audit", round, root, |_| {
            let records: Vec<Vec<HopRecord>> = pendings.iter().map(|p| p.records()).collect();
            let audits: Vec<ChainAudit> = records
                .iter()
                .zip(&self.chains)
                .map(|(hops, chain)| ChainAudit {
                    public: chain.public(),
                    round,
                    hops,
                })
                .collect();
            verify_hops_batched_multi(&audits)
        });
        assert!(audit_ok, "honest hop proofs verify");

        let outcomes: Vec<ChainRoundOutcome> =
            tracer.span("net.coordinator.reveal", round, root, |_| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .chains
                        .iter_mut()
                        .zip(pendings)
                        .map(|(chain, pending)| {
                            scope.spawn(move || chain.conclude_audited(round, pending, audit_ok))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("chain thread").expect("reveal"))
                        .collect()
                })
            });

        let n_shards = self.mailbox_conns.len();
        tracer.span("net.mailbox.deliver", round, root, |deliver| {
            let mut per_shard: Vec<Vec<MailboxMessage>> = vec![Vec::new(); n_shards];
            for msg in outcomes.into_iter().flat_map(|o| o.delivered) {
                report.delivered += 1;
                per_shard[shard_of(&msg.mailbox, n_shards)].push(msg);
            }
            deliver_all(
                Some(tracer),
                Some(deliver),
                &mut self.mailbox_conns,
                round,
                per_shard,
            );
        });

        let mut prefetched: HashMap<[u8; 32], Vec<(u64, Vec<u8>)>> =
            tracer.span("net.swarm.fetch", round, root, |_| {
                let ids: Vec<[u8; 32]> = users
                    .iter()
                    .filter(|u| u.online)
                    .map(User::mailbox_id)
                    .collect();
                let entries = fetch_all(&self.mailbox_addrs, &ids);
                ids.into_iter().zip(entries).collect()
            });

        let fetched = tracer.span("core.user.open", round, root, |_| {
            open_fetched(&self.topo, round, users, |mailbox| {
                Ok(prefetched.remove(mailbox).unwrap_or_default())
            })
            .expect("the fetch closure never fails")
        });

        tracer.span("net.coordinator.rotate", round, root, |_| {
            self.round += 1;
            for (c, chain) in self.chains.iter_mut().enumerate() {
                chain.activate_rotation().expect("rotation activates");
                self.current_keys[c] = chain.public().clone();
                self.next_keys[c] = chain
                    .prepare_rotation(self.round + 1)
                    .expect("rotation prepares");
            }
        });
        (report, fetched)
    }
}
