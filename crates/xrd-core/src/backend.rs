//! One round, written once.
//!
//! The paper defines a single round (Figure 1, §5): users seal ℓ
//! submissions plus next-round covers → chains mix → mailboxes fill →
//! users fetch → inner keys rotate a round ahead (§5.3.3).  That
//! lifecycle is [`run_round`], over the two things a deployment is
//! made of: a [`RoundState`], the same wherever the servers live, and
//! a [`Cluster`] — the servers, behind the four calls that differ when
//! a hop is a function call or a daemon.  Everything else has one
//! definition here: sealing and the cover store
//! ([`collect_submissions`]), the fold into a [`RoundReport`],
//! degrading versus [`RoundError::AllChainsFailed`], fetch-and-open
//! ([`open_fetched`]), the key-schedule advance with its dead-chain
//! bookkeeping, a `round.*` span per phase.
//!
//! The in-process [`Deployment`](crate::Deployment) and `xrd-net`'s
//! `RemoteDeployment` are each a `RoundState` plus their cluster, and
//! [`RoundBackend`]s through the one `impl` below — parity by
//! construction.  A scripted cluster in this module's tests checks the
//! driver's failure logic without a server.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use rand::{RngCore, SeedableRng};

use xrd_crypto::ChaChaRng;
use xrd_mixnet::client::{ChainSealer, SealRandomness, Submission};
use xrd_mixnet::{par, ChainPublicKeys, ChainRoundOutcome, MailboxMessage};
use xrd_topology::{ChainId, Topology};

use crate::mailbox::MailboxError;
use crate::user::{Received, User};

/// Stored §5.3.3 cover submissions, keyed by mailbox id: what the
/// servers replay for a user who went offline after round ρ.
pub type CoverStore = HashMap<[u8; 32], Vec<(ChainId, Submission)>>;

/// What [`Cluster::fetch`] hands to decryption: each asked-for
/// mailbox's `(delivery_round, sealed)` entries, oldest first.
pub type Prefetched = HashMap<[u8; 32], Vec<(u64, Vec<u8>)>>;

/// What each user got back this round, keyed by mailbox id.
pub type FetchResults = HashMap<[u8; 32], Vec<Received>>;

/// Report for one executed round.  Filled in by [`run_round`] alone, so
/// every field means the same on every backend.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Round number executed.
    pub round: u64,
    /// Submissions that entered a chain's mix batch: everything offered
    /// to a chain that mixed, minus what was refused up front for a bad
    /// proof of knowledge.
    pub messages_mixed: usize,
    /// Messages delivered to mailboxes.
    pub delivered: usize,
    /// Malicious submitters per chain (by chain index): refused for a
    /// bad proof of knowledge, or removed by the blame protocol.
    pub malicious_by_chain: HashMap<u32, usize>,
    /// Chains where a server misbehaved *and* nothing was delivered.  A
    /// chain that convicted a lying verifier and still delivered merely
    /// shrank.
    pub aborted_chains: Vec<u32>,
    /// Chains that dropped out for infrastructure reasons (a daemon
    /// down, a timed-out pass, a failed key rotation) — the round
    /// degraded to the surviving chains.  Chains of an in-process
    /// deployment cannot fail this way.
    pub failed_chains: Vec<u32>,
    /// Server positions convicted on evidence (blame, dispute, a bad
    /// key reveal), per chain, ascending.  A conviction does not imply
    /// the chain aborted: a lying verifier is convicted and excluded
    /// while its chain's round completes.
    pub convicted_by_chain: HashMap<u32, Vec<u32>>,
    /// Server positions whose input-agreement digest dissented from
    /// the majority, per chain, ascending — suspects (equivocation or a
    /// lossy link), recorded but never convicted on digest evidence
    /// alone.  In process there is one digest and so no dissent.
    pub suspected_by_chain: HashMap<u32, Vec<u32>>,
}

/// A round that could not complete at all.
///
/// Per-chain trouble — a dead daemon, a convicted liar, a timed-out
/// mix pass — does *not* produce a `RoundError`: the driver degrades
/// the round to the surviving chains and reports the casualties in
/// [`RoundReport::failed_chains`].  A `RoundError` means the round's
/// outputs are unusable as a whole: the mailbox layer was unreachable
/// (no user can fetch, so delivery cannot be claimed for anyone), or
/// every chain failed before delivery.
#[derive(Debug)]
pub enum RoundError {
    /// Shared infrastructure (mailbox shards, fetch path) failed at the
    /// transport layer.
    Infrastructure {
        /// The round that failed.
        round: u64,
        /// What broke, in human terms.
        message: String,
    },
    /// The mailbox tier itself refused or failed an operation (typed:
    /// an overfull shard, a storage failure, a client cursor bug) —
    /// see [`MailboxError`].
    Mailbox {
        /// The round that failed.
        round: u64,
        /// The store's typed error.
        error: MailboxError,
    },
    /// Every chain in the deployment failed this round; nothing was
    /// delivered.
    AllChainsFailed {
        /// The round that failed.
        round: u64,
    },
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::Infrastructure { round, message } => {
                write!(f, "round {round} infrastructure failure: {message}")
            }
            RoundError::Mailbox { round, error } => {
                write!(f, "round {round} mailbox failure: {error}")
            }
            RoundError::AllChainsFailed { round } => {
                write!(f, "round {round}: every chain failed")
            }
        }
    }
}

impl std::error::Error for RoundError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoundError::Mailbox { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Anything that can run XRD rounds for a set of users — the
/// object-safe face tests and harnesses hold a deployment by.
pub trait RoundBackend {
    /// The network shape this backend executes on.
    fn topology(&self) -> &Topology;

    /// The next round number to be executed.
    fn round(&self) -> u64;

    /// The chain key bundles for the current round (what fresh
    /// submissions are sealed against).
    fn chain_keys(&self) -> &[ChainPublicKeys];

    /// Execute one full round (Figure 1) and return the report plus
    /// each online user's decrypted mailbox contents.
    ///
    /// `Err` is reserved for failures that void the whole round (see
    /// [`RoundError`]); chains that fail while others survive degrade
    /// the round instead and are listed in
    /// [`RoundReport::failed_chains`].
    fn run_round(
        &mut self,
        rng: &mut dyn RngCore,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), RoundError>;
}

/// What a deployment is made of.  Handing the parts out is all it
/// does to be a [`RoundBackend`]: the `impl` below runs [`run_round`].
pub trait RoundParts {
    /// Where this deployment's servers live.
    type Cluster: Cluster;

    /// The deployment's round state.
    fn state(&self) -> &RoundState;

    /// The round state and the cluster, for a round to borrow both.
    fn parts(&mut self) -> (&mut RoundState, &mut Self::Cluster);
}

impl<D: RoundParts> RoundBackend for D {
    fn topology(&self) -> &Topology {
        &self.state().topo
    }

    fn round(&self) -> u64 {
        self.state().round
    }

    fn chain_keys(&self) -> &[ChainPublicKeys] {
        &self.state().current_keys
    }

    fn run_round(
        &mut self,
        rng: &mut dyn RngCore,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), RoundError> {
        let (state, cluster) = self.parts();
        run_round(state, cluster, rng, users)
    }
}

/// The part of a deployment that is the same wherever its servers
/// live: what [`run_round`] reads and advances.  Every per-chain list
/// is indexed by chain.
pub struct RoundState {
    /// The network shape.
    pub topo: Topology,
    /// The next round to be executed.
    pub round: u64,
    /// Inner-key bundles active for the current round.
    pub current_keys: Vec<ChainPublicKeys>,
    /// Inner-key bundles for the *next* round, published a round ahead
    /// so cover messages can be sealed against them (§5.3.3).
    pub next_keys: Vec<ChainPublicKeys>,
    /// Cover submissions stored at round ρ for use in round ρ+1.
    pub cover_store: CoverStore,
    /// Raw submissions queued for the next round, simulating users who
    /// do not follow the protocol (tests and demos only).
    pub injected: Vec<(ChainId, Submission)>,
    /// Chains whose key schedule fell out of step with their servers in
    /// a failed rotation: left out of every later round.
    pub dead: Vec<bool>,
}

impl RoundState {
    /// The state before round 0: each chain's active bundle and the one
    /// its servers have pre-published for round 1.
    pub fn new(
        topo: Topology,
        current_keys: Vec<ChainPublicKeys>,
        next_keys: Vec<ChainPublicKeys>,
    ) -> RoundState {
        assert_eq!(current_keys.len(), topo.n_chains(), "one bundle per chain");
        assert_eq!(next_keys.len(), topo.n_chains(), "one bundle per chain");
        RoundState {
            dead: vec![false; topo.n_chains()],
            topo,
            round: 0,
            current_keys,
            next_keys,
            cover_store: CoverStore::new(),
            injected: Vec::new(),
        }
    }
}

/// One chain's share of a round's mix phase, as its [`Cluster`] found
/// it.
pub struct ChainMixed {
    /// How many submissions entered the chain's mix batch (offered
    /// minus refused for a bad proof of knowledge) and the chain
    /// round's outcome, whose `malicious_users` lists every submitter
    /// refused or blamed (only their number is read) — or why the chain
    /// dropped out of the round.
    pub result: Result<(usize, ChainRoundOutcome), String>,
    /// Server positions convicted on evidence.  Apart from `result`: a
    /// chain that then failed still localized its liar.
    pub convicted: Vec<usize>,
    /// Server positions whose input digest dissented from the majority.
    pub suspected: Vec<usize>,
}

/// The servers of a deployment — what differs when a hop is a function
/// call or a daemon, and nothing else.  Static dispatch.  The RNG is
/// for the cluster whose servers draw from the caller's (in process:
/// one seed per chain for `mix`, in chain order, then the draws of each
/// `rotate`); daemons have their own.
pub trait Cluster {
    /// Run `round` on every chain not marked `dead`: `per_chain[c]`
    /// goes in through chain `c`'s submission window and through the k
    /// hops with every proof verified (blame and retry included), then
    /// audit, inner-key reveal, opening.  One [`ChainMixed`] per chain,
    /// in chain order; a dead chain's is not read.  A chain's trouble
    /// is its own `Err`, never the round's.
    fn mix<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        round: u64,
        per_chain: Vec<Vec<Submission>>,
        dead: &[bool],
    ) -> Vec<ChainMixed>;

    /// Put `messages` into their owners' mailboxes as `round`'s
    /// delivery.  The mailbox tier is shared by every chain, so failing
    /// here fails the round.
    fn deliver(&mut self, round: u64, messages: Vec<MailboxMessage>) -> Result<(), RoundError>;

    /// Read and acknowledge everything waiting in each of `mailboxes`
    /// (one never delivered to is empty, not an error).
    fn fetch(&mut self, round: u64, mailboxes: &[[u8; 32]]) -> Result<Prefetched, RoundError>;

    /// Advance `chain`'s key schedule: its servers switch to the bundle
    /// they pre-published last time and pre-publish the one for
    /// `inner_epoch`, returned.  `Err` leaves the chain out of step
    /// with its servers, and the driver marks it dead.
    fn rotate<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        chain: usize,
        inner_epoch: u64,
    ) -> Result<ChainPublicKeys, String>;
}

/// Execute one full round (Figure 1) of `state` on `cluster`: seal →
/// mix → deliver → fetch → open → rotate, each in a `round.*` span (the
/// cluster times the inside of its mix phase itself).
///
/// A chain that fails is dropped from the round and listed in
/// [`RoundReport::failed_chains`] (`round.degraded` counter).  Only
/// deployment-wide trouble is an error: every chain failing before
/// anything was delivered, or the shared mailbox tier failing.  A round
/// whose mail was fetched is `Ok` whatever rotation then does — the
/// mailboxes are acked, the chats marked sent; a chain that fails to
/// rotate is reported failed, stays dead, and it is the next round
/// that finds no chain left.
///
/// The RNG is consumed in a fixed order — a sealing seed per online
/// user, then what the cluster draws to mix (in process: one 32-byte
/// seed per chain, in chain order, each chain then drawing from a
/// stream of its own while the chains run side by side), then what each
/// chain's rotation draws, in chain order — so a seeded in-process run
/// is reproducible, on any number of cores.
pub fn run_round<C: Cluster, R: RngCore + ?Sized>(
    state: &mut RoundState,
    cluster: &mut C,
    rng: &mut R,
    users: &mut [User],
) -> Result<(RoundReport, FetchResults), RoundError> {
    let round = state.round;
    let n_chains = state.topo.n_chains();

    let per_chain = {
        let _span = xrd_obs::span_timer("round.seal", round);
        let mut per_chain = collect_submissions(
            rng,
            &state.topo,
            &state.current_keys,
            &state.next_keys,
            round,
            &mut state.cover_store,
            users,
        );
        for (chain, submission) in state.injected.drain(..) {
            per_chain[chain.0 as usize].push(submission);
        }
        per_chain
    };

    let mixed = cluster.mix(rng, round, per_chain, &state.dead);
    assert_eq!(mixed.len(), n_chains, "one mix result per chain");

    let mut report = RoundReport {
        round,
        ..Default::default()
    };
    let mut delivered: Vec<MailboxMessage> = Vec::new();
    for (chain, mixed) in (0u32..).zip(mixed) {
        for (positions, by_chain) in [
            (mixed.convicted, &mut report.convicted_by_chain),
            (mixed.suspected, &mut report.suspected_by_chain),
        ] {
            let mut positions: Vec<u32> = positions.into_iter().map(|p| p as u32).collect();
            positions.sort_unstable();
            positions.dedup();
            if !positions.is_empty() {
                by_chain.insert(chain, positions);
            }
        }
        let result = if state.dead[chain as usize] {
            Err("dead since an earlier failed rotation".to_string())
        } else {
            mixed.result
        };
        match result {
            Ok((entered, outcome)) => {
                report.messages_mixed += entered;
                if !outcome.misbehaving_servers.is_empty() && outcome.delivered.is_empty() {
                    report.aborted_chains.push(chain);
                }
                if !outcome.malicious_users.is_empty() {
                    let malicious = outcome.malicious_users.len();
                    report.malicious_by_chain.insert(chain, malicious);
                }
                report.delivered += outcome.delivered.len();
                delivered.extend(outcome.delivered);
            }
            Err(why) => {
                xrd_obs::counter("round.chain_failures").incr();
                xrd_obs::error!("round {round}: chain {chain} failed: {why}");
                report.failed_chains.push(chain);
            }
        }
    }
    // An entirely failed round is an error, before the shared mailbox
    // tier is touched; a partially failed one only degrades.
    if !report.failed_chains.is_empty() {
        xrd_obs::counter("round.degraded").incr();
        if report.failed_chains.len() == n_chains {
            return Err(RoundError::AllChainsFailed { round });
        }
    }

    {
        let _span = xrd_obs::span_timer("round.deliver", round);
        cluster.deliver(round, delivered)?;
    }
    let mut prefetched = {
        let _span = xrd_obs::span_timer("round.fetch", round);
        let online: Vec<[u8; 32]> = users
            .iter()
            .filter(|u| u.online)
            .map(User::mailbox_id)
            .collect();
        cluster.fetch(round, &online)?
    };
    let fetched = {
        let _span = xrd_obs::span_timer("round.open", round);
        open_fetched(&state.topo, round, users, |mailbox| {
            Ok(prefetched.remove(mailbox).unwrap_or_default())
        })?
    };

    // Advance the key schedule: activate ρ+1, pre-publish ρ+2 — also on
    // chains that failed this round (their servers may be back).
    let _span = xrd_obs::span_timer("round.rotate", round);
    state.round += 1;
    for chain in 0..n_chains {
        if state.dead[chain] {
            continue;
        }
        match cluster.rotate(rng, chain, state.round + 1) {
            Ok(next) => {
                state.current_keys[chain] = std::mem::replace(&mut state.next_keys[chain], next);
            }
            Err(why) => {
                xrd_obs::counter("round.chain_failures").incr();
                xrd_obs::error!("round {round}: chain {chain} failed to rotate, now dead: {why}");
                state.dead[chain] = true;
                if !report.failed_chains.contains(&(chain as u32)) {
                    report.failed_chains.push(chain as u32);
                }
            }
        }
    }
    Ok((report, fetched))
}

/// Build the per-chain submission batches for one round: online users
/// seal fresh messages for `round` and store covers for `round + 1`;
/// offline users fall back to their stored covers (§5.3.3).
///
/// Sealing is bulk work against a handful of fixed keys, and its unit
/// is *a chain's next messages*, not a user.  Every online user's
/// messages are staged first — which message of hers, for which chain,
/// with its onion's randomness drawn from an RNG of her own (seeded
/// with 32 bytes drawn from `rng` in user order, and read in her
/// message order) — then sealed per `(chain, bundle)`,
/// [`par::ENTRY_CHUNK`] to a [`ChainSealer::seal_all`] call, on every
/// core ([`par::map_chunks`]), and handed back in user order.  A
/// submission depends on its message and its randomness alone, so the
/// result depends on `rng` alone — not on how messages were grouped,
/// how many workers ran or in which order they finished.  Each chain
/// that is sealed against gets a [`ChainSealer`] pair for the call —
/// `k + 1` fixed-base tables for this round's bundle, one more for the
/// next round's (the mixing-key tables are shared).
///
/// What is staged is small and short-lived: a mailbox message is built
/// by the worker that seals it, a unit at a time, and a worker *takes*
/// its unit, so the randomness is freed as the submissions appear and
/// nothing staged outlives the call.
pub fn collect_submissions<R: RngCore + ?Sized>(
    rng: &mut R,
    topo: &Topology,
    current_keys: &[ChainPublicKeys],
    next_keys: &[ChainPublicKeys],
    round: u64,
    cover_store: &mut CoverStore,
    users: &[User],
) -> Vec<Vec<Submission>> {
    /// One message awaiting its onion: `user`'s `position`-th of the
    /// round; `seq` is its place in user order.
    struct Job<'a> {
        seq: usize,
        user: &'a User,
        position: usize,
        randomness: SealRandomness,
    }
    // Every online user's jobs — fresh messages, then covers — filed
    // under their (chain, bundle), and per user how many of each kind
    // (`None`: offline).
    let mut buckets: Vec<[Vec<Job>; 2]> =
        (0..topo.n_chains()).map(|_| Default::default()).collect();
    let mut n_jobs = 0;
    let staged: Vec<Option<[usize; 2]>> = users
        .iter()
        .map(|user| {
            user.online.then(|| {
                let mut seed = [0u8; 32];
                rng.fill_bytes(&mut seed);
                let mut rng = ChaChaRng::from_seed(seed);
                let my_chains = topo.chains_of_user(&user.mailbox_id());
                [false, true].map(|cover| {
                    for (position, &chain) in my_chains.iter().enumerate() {
                        buckets[chain.0 as usize][cover as usize].push(Job {
                            seq: n_jobs,
                            user,
                            position,
                            randomness: SealRandomness::draw(&mut rng),
                        });
                        n_jobs += 1;
                    }
                    my_chains.len()
                })
            })
        })
        .collect();

    // Per chain: (this round's sealer, the cover sealer), built by
    // whichever worker first seals against the chain.
    let sealers: Vec<OnceLock<(ChainSealer, ChainSealer)>> =
        (0..topo.n_chains()).map(|_| OnceLock::new()).collect();
    let sealers_of = |chain: ChainId| {
        let c = chain.0 as usize;
        sealers[c].get_or_init(|| {
            let current = ChainSealer::new(&current_keys[c]);
            let cover = current.for_bundle(&next_keys[c]);
            (current, cover)
        })
    };

    // A chain's batch is at least its fresh messages: room for them up
    // front, not by doubling while everything sealed is still held.
    let mut per_chain: Vec<Vec<Submission>> = (buckets.iter())
        .map(|[fresh, _]| Vec::with_capacity(fresh.len()))
        .collect();

    // Units of work: (chain, cover?, the bucket's next jobs), each for
    // one worker to take.
    type Unit<'a> = Mutex<Option<(ChainId, bool, Vec<Job<'a>>)>>;
    let mut units: Vec<Unit> = Vec::new();
    for (chain, bundles) in (0u32..).map(ChainId).zip(buckets) {
        for (cover, jobs) in [false, true].into_iter().zip(bundles) {
            let mut jobs = jobs.into_iter().peekable();
            while jobs.peek().is_some() {
                let unit = jobs.by_ref().take(par::ENTRY_CHUNK).collect();
                units.push(Mutex::new(Some((chain, cover, unit))));
            }
        }
    }
    // Boxed: a submission is a few hundred bytes, and what is gathered,
    // sorted and scattered here should be pointers to them.
    let mut sealed: Vec<(usize, ChainId, Box<Submission>)> = par::map_chunks(&units, 1, |unit| {
        let (chain, cover, jobs) = (unit[0].lock())
            .expect("a unit's lock is held only to take it")
            .take()
            .expect("every unit is handed out once");
        let (current, covers) = sealers_of(chain);
        let (sealer, for_round) = if cover {
            (covers, round + 1)
        } else {
            (current, round)
        };
        let seqs: Vec<usize> = jobs.iter().map(|job| job.seq).collect();
        let jobs = jobs.into_iter().map(|job| {
            let (_, msg) = (job.user).build_round_message(topo, for_round, cover, job.position);
            (job.randomness, msg)
        });
        let sealed = sealer.seal_all(for_round, jobs.collect());
        (seqs.into_iter().zip(sealed))
            .map(|(seq, sub)| (seq, chain, Box::new(sub)))
            .collect()
    });
    debug_assert_eq!(sealed.len(), n_jobs);
    sealed.sort_unstable_by_key(|(seq, ..)| *seq);
    let mut sealed = sealed.into_iter().map(|(_, chain, sub)| (chain, *sub));

    for (user, staged) in users.iter().zip(staged) {
        let submissions: Vec<(ChainId, Submission)> = match staged {
            Some([fresh, covers]) => {
                let fresh = sealed.by_ref().take(fresh).collect();
                let covers = sealed.by_ref().take(covers).collect();
                cover_store.insert(user.mailbox_id(), covers);
                fresh
            }
            None => match cover_store.remove(&user.mailbox_id()) {
                Some(cover) => cover,
                None => continue, // offline with no cover: absent
            },
        };
        for (chain, sub) in submissions {
            per_chain[chain.0 as usize].push(sub);
        }
    }
    per_chain
}

/// The fetch-and-decrypt half of a round: every online user opens the
/// sealed blobs `fetch` returns for her mailbox, conversation
/// bookkeeping advances, and partners who signalled offline are dropped
/// (§5.3.3).  `fetch` is the only backend-specific part — a local
/// mailbox drain or a paginated exchange with a mailbox daemon — and is
/// fallible: the first error aborts the fetch phase for the round.
///
/// Each fetched entry carries the **round it was delivered in**
/// (mailbox sealing nonces are round-scoped): a user reconnecting
/// after missing rounds opens each accumulated entry with its own
/// delivery round, not the current one.
pub fn open_fetched(
    topo: &Topology,
    _round: u64,
    users: &mut [User],
    mut fetch: impl FnMut(&[u8; 32]) -> Result<Vec<(u64, Vec<u8>)>, RoundError>,
) -> Result<FetchResults, RoundError> {
    let mut fetched: FetchResults = HashMap::new();
    for user in users.iter_mut() {
        if !user.online {
            continue;
        }
        let sealed = fetch(&user.mailbox_id())?;
        let mut received = Vec::with_capacity(sealed.len());
        for delivered in sealed.chunk_by(|a, b| a.0 == b.0) {
            let blobs: Vec<&[u8]> = delivered.iter().map(|(_, blob)| &blob[..]).collect();
            received.extend(user.open_mailbox(topo, delivered[0].0, &blobs));
        }
        // Conversation bookkeeping: consume the queued chats that went
        // out this round.
        if user.partner().is_some() {
            user.mark_round_sent();
        }
        // Partner-offline handling: stop conversing with exactly the
        // partner who left (§5.3.3).
        let offline: Vec<[u8; 32]> = received
            .iter()
            .filter_map(|r| match r {
                Received::PartnerOffline { partner } => Some(*partner),
                _ => None,
            })
            .collect();
        for partner in offline {
            user.end_conversation_with(&partner);
        }
        fetched.insert(user.mailbox_id(), received);
    }
    Ok(fetched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, DeploymentConfig};
    use rand::rngs::StdRng;

    /// Two rounds of `collect_submissions` with every fan-out forced
    /// onto `workers` workers: all users online, then user 3 offline
    /// with a stored cover and user 5 offline with none.
    fn two_rounds(workers: usize) -> (Vec<Vec<Submission>>, Vec<Vec<Submission>>, CoverStore) {
        let mut rng = StdRng::seed_from_u64(11);
        let deployment = Deployment::new(&mut rng, DeploymentConfig::small(6, 2));
        let mut users: Vec<User> = (0..30).map(|_| User::new(&mut rng)).collect();
        let (a, b) = (users[0].pk(), users[3].pk());
        users[0].start_conversation(b);
        users[3].start_conversation(a);
        let topo = deployment.topology();
        let (current, next) = (deployment.chain_keys(), deployment.next_chain_keys());
        let mut store = CoverStore::new();
        par::with_workers(workers, || {
            let first = collect_submissions(&mut rng, topo, current, next, 0, &mut store, &users);
            users[3].online = false;
            users[5].online = false;
            store.remove(&users[5].mailbox_id());
            let second = collect_submissions(&mut rng, topo, next, next, 1, &mut store, &users);
            (first, second, store)
        })
    }

    #[test]
    fn submissions_do_not_depend_on_the_worker_count() {
        let (first, second, store) = two_rounds(1);
        let ell = xrd_topology::ell_for_chains(6);
        assert_eq!(first.iter().map(Vec::len).sum::<usize>(), 30 * ell);
        assert!(first.iter().flatten().all(|s| s.verify_pok(0)));
        // Round 1: user 3 rides on her stored covers (sealed in round 0
        // *for* round 1), user 5 is absent, neither has a cover left.
        assert_eq!(second.iter().map(Vec::len).sum::<usize>(), 29 * ell);
        assert!(second.iter().flatten().all(|s| s.verify_pok(1)));
        assert_eq!(store.len(), 28);

        let (first4, second4, store4) = two_rounds(4);
        assert_eq!(first, first4);
        assert_eq!(second, second4);
        assert_eq!(store, store4);
    }

    /// A cluster that is a script: no server, nothing decrypts.  Every
    /// chain whose mix succeeds "delivers" one blob to each of
    /// `recipients`, whatever it was offered, and everything the driver
    /// asks of the cluster is written down.
    #[derive(Default)]
    struct Scripted {
        /// The bundle `rotate` pre-publishes, per chain (the same every
        /// round).
        keys: Vec<ChainPublicKeys>,
        recipients: Vec<[u8; 32]>,
        /// Chains whose mix fails, every round.
        mix_fails: Vec<usize>,
        /// Chains whose rotation fails.
        rotate_fails: Vec<usize>,
        /// What a chain's next mix reports in place of the default.
        next_mix: HashMap<usize, ChainMixed>,
        /// The batches the last `mix` was offered.
        batches: Vec<Vec<Submission>>,
        /// The `dead` list of every `mix`.
        mix_saw_dead: Vec<Vec<bool>>,
        /// Every `rotate`, as `(chain, inner_epoch)`.
        rotated: Vec<(usize, u64)>,
        /// The round of every `deliver`.
        deliver_rounds: Vec<u64>,
        /// The mailboxes every `fetch` asked for.
        fetch_asked: Vec<Vec<[u8; 32]>>,
        stored: Prefetched,
    }

    impl Cluster for Scripted {
        fn mix<R: RngCore + ?Sized>(
            &mut self,
            _rng: &mut R,
            _round: u64,
            per_chain: Vec<Vec<Submission>>,
            dead: &[bool],
        ) -> Vec<ChainMixed> {
            self.mix_saw_dead.push(dead.to_vec());
            self.batches = per_chain;
            (0..self.batches.len())
                .map(|c| {
                    if let Some(scripted) = self.next_mix.remove(&c) {
                        return scripted;
                    }
                    let result = if self.mix_fails.contains(&c) {
                        Err("scripted mix failure".to_string())
                    } else {
                        Ok((self.batches[c].len(), self.delivers(c)))
                    };
                    ChainMixed {
                        result,
                        convicted: Vec::new(),
                        suspected: Vec::new(),
                    }
                })
                .collect()
        }

        fn deliver(&mut self, round: u64, messages: Vec<MailboxMessage>) -> Result<(), RoundError> {
            self.deliver_rounds.push(round);
            for msg in messages {
                let mailbox = self.stored.entry(msg.mailbox).or_default();
                mailbox.push((round, msg.sealed));
            }
            Ok(())
        }

        fn fetch(&mut self, _round: u64, mailboxes: &[[u8; 32]]) -> Result<Prefetched, RoundError> {
            self.fetch_asked.push(mailboxes.to_vec());
            Ok(mailboxes
                .iter()
                .map(|m| (*m, self.stored.remove(m).unwrap_or_default()))
                .collect())
        }

        fn rotate<R: RngCore + ?Sized>(
            &mut self,
            _rng: &mut R,
            chain: usize,
            inner_epoch: u64,
        ) -> Result<ChainPublicKeys, String> {
            self.rotated.push((chain, inner_epoch));
            if self.rotate_fails.contains(&chain) {
                return Err("scripted rotation failure".to_string());
            }
            Ok(self.keys[chain].clone())
        }
    }

    impl Scripted {
        /// The outcome of chain `c` delivering one blob per recipient.
        fn delivers(&self, c: usize) -> ChainRoundOutcome {
            ChainRoundOutcome {
                delivered: self
                    .recipients
                    .iter()
                    .map(|&mailbox| MailboxMessage {
                        mailbox,
                        sealed: vec![c as u8],
                    })
                    .collect(),
                ..Default::default()
            }
        }

        fn offered(&self) -> usize {
            self.batches.iter().map(Vec::len).sum()
        }
    }

    const CHAINS: usize = 4;
    const USERS: usize = 5;

    /// Four one-hop chains, five users, a script that fails nothing.
    fn scripted() -> (StdRng, RoundState, Scripted, Vec<User>) {
        let mut rng = StdRng::seed_from_u64(7);
        let beacon = xrd_topology::Beacon::from_u64(0);
        let topo = Topology::build_with(&beacon, 0, CHAINS, CHAINS, 1, 0.2);
        let keys: Vec<ChainPublicKeys> = (0..CHAINS)
            .map(|c| xrd_mixnet::generate_chain_keys(&mut rng, 1, c as u64).1)
            .collect();
        let users: Vec<User> = (0..USERS).map(|_| User::new(&mut rng)).collect();
        let cluster = Scripted {
            keys: keys.clone(),
            recipients: users.iter().map(User::mailbox_id).collect(),
            ..Default::default()
        };
        let state = RoundState::new(topo, keys.clone(), keys);
        (rng, state, cluster, users)
    }

    #[test]
    fn one_chain_failing_to_mix_degrades_the_round() {
        let (mut rng, mut state, mut cluster, mut users) = scripted();
        cluster.mix_fails = vec![2];
        let (report, fetched) =
            run_round(&mut state, &mut cluster, &mut rng, &mut users).expect("round degrades");
        assert_eq!(report.failed_chains, vec![2]);
        assert!(report.aborted_chains.is_empty());
        // The other chains' mail is counted, delivered and fetched.
        assert_eq!(
            report.messages_mixed,
            cluster.offered() - cluster.batches[2].len()
        );
        assert_eq!(report.delivered, (CHAINS - 1) * USERS);
        assert_eq!(cluster.deliver_rounds, vec![0]);
        for user in &users {
            assert_eq!(
                fetched[&user.mailbox_id()],
                vec![Received::Opaque; CHAINS - 1]
            );
        }
        // The failed chain still rotates: its servers may be back.
        assert_eq!(state.round, 1);
        assert_eq!(cluster.rotated, vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
    }

    #[test]
    fn every_chain_failing_to_mix_is_an_error_before_anything_is_delivered() {
        let (mut rng, mut state, mut cluster, mut users) = scripted();
        cluster.mix_fails = (0..CHAINS).collect();
        let outcome = run_round(&mut state, &mut cluster, &mut rng, &mut users);
        assert!(matches!(
            outcome,
            Err(RoundError::AllChainsFailed { round: 0 })
        ));
        assert!(cluster.deliver_rounds.is_empty());
        assert!(cluster.fetch_asked.is_empty());
        assert!(cluster.rotated.is_empty());
        assert_eq!(state.round, 0, "the round did not happen");
    }

    #[test]
    fn a_chain_that_fails_to_rotate_is_left_out_from_then_on() {
        let (mut rng, mut state, mut cluster, mut users) = scripted();
        cluster.rotate_fails = vec![1];
        let (report, _) = run_round(&mut state, &mut cluster, &mut rng, &mut users).unwrap();
        // It mixed and delivered this round, and is reported failed.
        assert_eq!(report.delivered, CHAINS * USERS);
        assert_eq!(report.failed_chains, vec![1]);

        cluster.rotate_fails.clear(); // healthy again: too late
        for round in 1..3u64 {
            cluster.rotated.clear();
            let (report, fetched) =
                run_round(&mut state, &mut cluster, &mut rng, &mut users).unwrap();
            assert_eq!(
                cluster.mix_saw_dead[round as usize],
                [false, true, false, false]
            );
            assert_eq!(report.failed_chains, vec![1]);
            // The script mixes the dead chain anyway; the driver does
            // not read what it says.
            assert_eq!(
                report.messages_mixed,
                cluster.offered() - cluster.batches[1].len()
            );
            assert_eq!(report.delivered, (CHAINS - 1) * USERS);
            assert_eq!(fetched[&users[0].mailbox_id()].len(), CHAINS - 1);
            assert!(cluster.rotated.iter().all(|&(chain, _)| chain != 1));
            assert_eq!(cluster.rotated.len(), CHAINS - 1);
        }
    }

    #[test]
    fn a_fetched_round_is_ok_even_if_no_chain_rotates() {
        let (mut rng, mut state, mut cluster, mut users) = scripted();
        let (a, b) = (users[0].pk(), users[1].pk());
        users[0].start_conversation(b);
        users[1].start_conversation(a);
        users[0].queue_chat(b"sent once");
        cluster.rotate_fails = (0..CHAINS).collect();

        // The mailboxes are acked and the chat marked sent: the round
        // happened, and says which chains it lost.
        let (report, fetched) = run_round(&mut state, &mut cluster, &mut rng, &mut users)
            .expect("a completed round is not thrown away");
        assert_eq!(report.delivered, CHAINS * USERS);
        assert_eq!(report.failed_chains, vec![0, 1, 2, 3]);
        assert_eq!(fetched.len(), USERS);
        assert_eq!(state.round, 1);

        // It is the next round that finds no chain left.
        let outcome = run_round(&mut state, &mut cluster, &mut rng, &mut users);
        assert!(matches!(
            outcome,
            Err(RoundError::AllChainsFailed { round: 1 })
        ));
        assert_eq!(cluster.deliver_rounds, vec![0]);
    }

    #[test]
    fn verdicts_and_aborts_land_under_their_chain() {
        let (mut rng, mut state, mut cluster, mut users) = scripted();
        // Chain 0 convicts a lying verifier and still delivers.
        let mut shrank = cluster.delivers(0);
        shrank.misbehaving_servers = vec![2];
        cluster.next_mix.insert(
            0,
            ChainMixed {
                result: Ok((3, shrank)),
                convicted: vec![2, 0, 2],
                suspected: Vec::new(),
            },
        );
        // Chain 1 loses its round to a misbehaving server, and blames
        // two submitters on the way.
        let aborted = ChainRoundOutcome {
            malicious_users: vec![4, 9],
            misbehaving_servers: vec![1],
            ..Default::default()
        };
        cluster.next_mix.insert(
            1,
            ChainMixed {
                result: Ok((7, aborted)),
                convicted: vec![1],
                suspected: Vec::new(),
            },
        );
        // Chain 3 fails, having seen a digest dissent first.
        cluster.next_mix.insert(
            3,
            ChainMixed {
                result: Err("scripted".to_string()),
                convicted: Vec::new(),
                suspected: vec![1],
            },
        );
        let (report, _) = run_round(&mut state, &mut cluster, &mut rng, &mut users).unwrap();
        assert_eq!(report.aborted_chains, vec![1]);
        assert_eq!(report.failed_chains, vec![3]);
        assert_eq!(
            report.convicted_by_chain,
            HashMap::from([(0, vec![0, 2]), (1, vec![1])])
        );
        assert_eq!(report.suspected_by_chain, HashMap::from([(3, vec![1])]));
        assert_eq!(report.malicious_by_chain, HashMap::from([(1, 2)]));
        assert_eq!(report.messages_mixed, 3 + 7 + cluster.batches[2].len());
        assert_eq!(report.delivered, 2 * USERS);
    }

    #[test]
    fn an_injected_submission_reaches_its_chains_batch_once() {
        let (mut rng, mut state, mut cluster, mut users) = scripted();
        let ell = state.topo.ell();
        let raw = xrd_mixnet::testutil::malicious_submission(&mut rng, &cluster.keys[2], 0, 0);
        state.injected.push((ChainId(2), raw.clone()));
        let (report, _) = run_round(&mut state, &mut cluster, &mut rng, &mut users).unwrap();
        assert_eq!(cluster.batches[2].last(), Some(&raw));
        assert_eq!(report.messages_mixed, USERS * ell + 1);
        run_round(&mut state, &mut cluster, &mut rng, &mut users).unwrap();
        assert_eq!(cluster.offered(), USERS * ell);
    }

    #[test]
    fn an_offline_user_rides_her_stored_cover_once() {
        let (mut rng, mut state, mut cluster, mut users) = scripted();
        let ell = state.topo.ell();
        let gone = users[0].mailbox_id();
        for (round, expect_offered) in [USERS * ell, USERS * ell, (USERS - 1) * ell]
            .into_iter()
            .enumerate()
        {
            users[0].online = round == 0;
            let (report, fetched) =
                run_round(&mut state, &mut cluster, &mut rng, &mut users).unwrap();
            assert_eq!(cluster.offered(), expect_offered, "round {round}");
            assert_eq!(report.messages_mixed, expect_offered);
            // Covers were sealed for the round they are replayed in.
            assert!(cluster
                .batches
                .iter()
                .flatten()
                .all(|s| s.verify_pok(round as u64)));
            assert_eq!(fetched.contains_key(&gone), round == 0);
            assert_eq!(cluster.fetch_asked[round].contains(&gone), round == 0);
        }
    }
}
