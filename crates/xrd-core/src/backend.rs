//! The round-protocol backend abstraction.
//!
//! A *backend* is anything that can execute one XRD round for a set of
//! users: the in-process [`Deployment`](crate::Deployment) (every hop a
//! function call) or a networked deployment (every hop a TCP exchange,
//! see the `xrd-net` crate).  Tests and experiment harnesses written
//! against [`RoundBackend`] run unchanged on either, which is how the
//! two are held to identical protocol semantics.
//!
//! The *user side* of a round — sealing ℓ submissions per user against
//! the current keys, pre-sealing §5.3.3 covers against the next round's
//! keys, and decrypting fetched mailboxes — is the same regardless of
//! where the servers live, so it is implemented once here
//! ([`collect_submissions`], [`open_fetched`]) and shared by every
//! backend.

use std::collections::HashMap;
use std::sync::OnceLock;

use rand::{RngCore, SeedableRng};

use xrd_crypto::ChaChaRng;
use xrd_mixnet::client::{ChainSealer, Submission};
use xrd_mixnet::{par, ChainPublicKeys};
use xrd_topology::{ChainId, Topology};

use crate::deployment::{FetchResults, RoundReport};
use crate::mailbox::MailboxError;
use crate::user::{Received, User};

/// Stored §5.3.3 cover submissions, keyed by mailbox id: what the
/// servers replay for a user who went offline after round ρ.
pub type CoverStore = HashMap<[u8; 32], Vec<(ChainId, Submission)>>;

/// A round that could not complete at all.
///
/// Per-chain trouble — a dead daemon, a convicted liar, a timed-out
/// mix pass — does *not* produce a `RoundError`: the backend degrades
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
    /// mixed or delivered.
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

/// Anything that can run XRD rounds for a set of users.
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

/// Users per worker chunk of [`collect_submissions`]: 2ℓ seals each,
/// a few milliseconds of work per chunk.
const SEAL_CHUNK: usize = 8;

/// Build the per-chain submission batches for one round: online users
/// seal fresh messages for `round` and store covers for `round + 1`;
/// offline users fall back to their stored covers (§5.3.3).
///
/// Sealing is bulk work against a handful of fixed keys, so each chain
/// that is sealed against gets a [`ChainSealer`] pair for the call —
/// `k + 1` fixed-base tables for this round's bundle, one more for the
/// next round's (the mixing-key tables are shared) — and users are
/// sealed on every core ([`par::map_chunks`]).  Each online user seals
/// from an RNG of her own, seeded with 32 bytes drawn from `rng` in
/// user order, so the result depends on `rng` alone, not on how many
/// workers ran or in which order they finished.
pub fn collect_submissions<R: RngCore + ?Sized>(
    rng: &mut R,
    topo: &Topology,
    current_keys: &[ChainPublicKeys],
    next_keys: &[ChainPublicKeys],
    round: u64,
    cover_store: &mut CoverStore,
    users: &[User],
) -> Vec<Vec<Submission>> {
    // (user, her sealing seed if she is online), in user order.
    let jobs: Vec<(&User, Option<[u8; 32]>)> = users
        .iter()
        .map(|user| {
            let seed = user.online.then(|| {
                let mut seed = [0u8; 32];
                rng.fill_bytes(&mut seed);
                seed
            });
            (user, seed)
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

    // Online users' (fresh, cover) submissions, in user order.
    type Sealed = Vec<(ChainId, Submission)>;
    let sealed: Vec<Option<(Sealed, Sealed)>> = par::map_chunks(&jobs, SEAL_CHUNK, |chunk| {
        chunk
            .iter()
            .map(|(user, seed)| {
                let mut rng = ChaChaRng::from_seed((*seed)?);
                let mut seal = |for_round: u64, offline_cover: bool| -> Sealed {
                    user.seal_round_with(topo, for_round, offline_cover, |chain, msg| {
                        let (current, cover) = sealers_of(chain);
                        let sealer = if offline_cover { cover } else { current };
                        sealer.seal(&mut rng, for_round, msg)
                    })
                };
                Some((seal(round, false), seal(round + 1, true)))
            })
            .collect()
    });

    let mut per_chain: Vec<Vec<Submission>> = vec![Vec::new(); topo.n_chains()];
    for (user, sealed) in users.iter().zip(sealed) {
        let submissions = match sealed {
            Some((current, cover)) => {
                cover_store.insert(user.mailbox_id(), cover);
                current
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
        for (delivery_round, blob) in &sealed {
            received.extend(user.open_mailbox(topo, *delivery_round, std::slice::from_ref(blob)));
        }
        // Conversation bookkeeping: consume the queued chats that went
        // out this round.
        if !user.partners().is_empty() {
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
}
