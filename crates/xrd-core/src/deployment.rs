//! An in-process XRD deployment: topology + chains + mailbox servers,
//! every hop a function call.
//!
//! This is the "real" system — every message is really onion-encrypted,
//! really mixed through AHS with proofs verified, and really delivered to
//! and fetched from mailboxes.  The experiment harness uses it at reduced
//! scale; `cost.rs` extrapolates to paper scale.
//!
//! The round itself (Figure 1, with §5.3.3 churn handling) is
//! [`backend::run_round`](crate::backend::run_round), shared with the
//! networked deployment; what is here is the in-process [`Cluster`]
//! under it: one [`ChainRunner`] per chain and a [`MailboxHub`].

use std::sync::Mutex;

use rand::{RngCore, SeedableRng};

use xrd_crypto::ChaChaRng;
use xrd_mixnet::client::Submission;
use xrd_mixnet::{par, ChainPublicKeys, ChainRoundOutcome, ChainRunner, MailboxMessage};
use xrd_topology::{Beacon, ChainId, Topology};

use crate::backend::{
    run_round, ChainMixed, Cluster, FetchResults, Prefetched, RoundError, RoundParts, RoundReport,
    RoundState,
};
use crate::mailbox::{drain, MailboxHub, MailboxStore};
use crate::user::User;

/// Page size the in-process deployment walks mailboxes with.  Small
/// enough that multi-page walks are exercised by ordinary tests
/// (ℓ ≥ 3 messages per user per round), large enough to be cheap.
const FETCH_PAGE: usize = 64;

/// Deployment parameters.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// Number of servers `N` (chains `n = N`, §5.2.1).
    pub n_servers: usize,
    /// Chain length `k`.  `None` derives it from `f` with the paper's
    /// 2^-64 bound — note that gives k≈32, heavy for in-process tests.
    pub chain_len: Option<usize>,
    /// Assumed malicious server fraction.
    pub f: f64,
    /// Number of mailbox servers.
    pub n_mailbox_shards: usize,
    /// Beacon seed for chain formation.
    pub seed: u64,
}

impl DeploymentConfig {
    /// A small configuration suitable for tests and examples.
    pub fn small(n_servers: usize, chain_len: usize) -> DeploymentConfig {
        DeploymentConfig {
            n_servers,
            chain_len: Some(chain_len),
            f: 0.2,
            n_mailbox_shards: 2,
            seed: 0,
        }
    }
}

/// The in-process deployment.
pub struct Deployment {
    state: RoundState,
    cluster: InProcess,
}

/// The servers of a [`Deployment`]: every chain a [`ChainRunner`], the
/// mailbox tier a [`MailboxHub`].
pub struct InProcess {
    chains: Vec<ChainRunner>,
    mailboxes: MailboxHub,
}

impl Deployment {
    /// Build a deployment.
    pub fn new<R: RngCore + ?Sized>(rng: &mut R, config: DeploymentConfig) -> Deployment {
        let beacon = Beacon::from_u64(config.seed);
        let k = config
            .chain_len
            .unwrap_or_else(|| xrd_topology::chain_length(config.f, config.n_servers, 64));
        let topo =
            Topology::build_with(&beacon, 0, config.n_servers, config.n_servers, k, config.f);
        let mut chains: Vec<ChainRunner> = (0..topo.n_chains())
            .map(|c| ChainRunner::new(rng, k, c as u64))
            .collect();
        // Key schedule: activate round-0 inner keys, pre-publish round 1.
        let mut current_keys = Vec::with_capacity(chains.len());
        let mut next_keys = Vec::with_capacity(chains.len());
        for chain in &mut chains {
            chain.prepare_inner_rotation(rng, 0);
            chain.activate_inner_rotation();
            current_keys.push(chain.public().clone());
            next_keys.push(chain.prepare_inner_rotation(rng, 1));
        }
        Deployment {
            state: RoundState::new(topo, current_keys, next_keys),
            cluster: InProcess {
                chains,
                mailboxes: MailboxHub::new(config.n_mailbox_shards),
            },
        }
    }

    /// Queue a raw submission for the next round (simulating a user that
    /// does not follow the protocol).  Fault-injection hook for tests
    /// and demos; deployments never call this.
    #[doc(hidden)]
    pub fn inject_submission(&mut self, chain: ChainId, submission: Submission) {
        self.state.injected.push((chain, submission));
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

    /// The pre-published key bundles for the next round (what cover
    /// messages are sealed against).
    pub fn next_chain_keys(&self) -> &[ChainPublicKeys] {
        &self.state.next_keys
    }

    /// Mutable chain access for fault injection in tests.
    #[doc(hidden)]
    pub fn chains_mut(&mut self) -> &mut [ChainRunner] {
        &mut self.cluster.chains
    }

    /// Execute one full round (Figure 1): users submit (or their stored
    /// covers are used if they're offline), chains mix, mailboxes are
    /// filled, online users fetch.  Returns the report plus each online
    /// user's decrypted mailbox contents.
    ///
    /// In-process chains cannot fail and the default mailbox tier is
    /// unbounded and in memory, so this convenience wrapper keeps an
    /// infallible signature.  A deployment given a capacity cap
    /// ([`Deployment::set_mailbox_capacity`]) must run rounds through
    /// [`RoundBackend::run_round`](crate::RoundBackend::run_round),
    /// which surfaces mailbox trouble as a typed [`RoundError`]; this
    /// wrapper panics on it.
    pub fn run_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        users: &mut [User],
    ) -> (RoundReport, FetchResults) {
        run_round(&mut self.state, &mut self.cluster, rng, users)
            .expect("unbounded in-process mailbox tier cannot fail")
    }

    /// Cap the un-acked messages each in-process mailbox shard will
    /// hold; a round whose delivery would exceed it fails with
    /// [`RoundError::Mailbox`] through
    /// [`RoundBackend::run_round`](crate::RoundBackend::run_round)
    /// (tests of the fallible path).
    #[doc(hidden)]
    pub fn set_mailbox_capacity(&mut self, cap: usize) {
        let n = self.cluster.mailboxes.n_shards();
        self.cluster.mailboxes = MailboxHub::with_capacity(n, cap);
    }
}

impl RoundParts for Deployment {
    type Cluster = InProcess;

    fn state(&self) -> &RoundState {
        &self.state
    }

    fn parts(&mut self) -> (&mut RoundState, &mut InProcess) {
        (&mut self.state, &mut self.cluster)
    }
}

impl InProcess {
    /// [`Cluster::mix`] with the chain round as a parameter
    /// ([`ChainRunner::run_round`] in a round), so that a test can watch
    /// the threads it runs on: a seed per chain drawn in chain order,
    /// then the chains as units of [`par::map_chunks`], each taken by
    /// one worker.  One [`ChainMixed`] per chain, in chain order.
    fn mix_with<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        per_chain: Vec<Vec<Submission>>,
        chain_round: impl Fn(&mut ChainRunner, &mut ChaChaRng, &[Submission]) -> ChainRoundOutcome
            + Sync,
    ) -> Vec<ChainMixed> {
        type Unit<'a> = Mutex<Option<(&'a mut ChainRunner, Vec<Submission>, ChaChaRng)>>;
        let units: Vec<Unit> = (self.chains.iter_mut().zip(per_chain))
            .map(|(chain, submissions)| {
                let mut seed = [0u8; 32];
                rng.fill_bytes(&mut seed);
                Mutex::new(Some((chain, submissions, ChaChaRng::from_seed(seed))))
            })
            .collect();
        par::map_chunks(&units, 1, |unit| {
            let (chain, submissions, mut rng) = (unit[0].lock())
                .expect("a unit's lock is held only to take it")
                .take()
                .expect("every unit is handed out once");
            let outcome = chain_round(chain, &mut rng, &submissions);
            vec![ChainMixed {
                convicted: outcome.misbehaving_servers.clone(),
                suspected: Vec::new(),
                result: Ok((submissions.len() - outcome.stats.rejected_pok, outcome)),
            }]
        })
    }
}

impl Cluster for InProcess {
    /// Every chain, side by side: a chain's whole round is one unit of
    /// the one fan-out helper (`xrd_mixnet::par`), taken by whichever
    /// worker is free, and the phases inside it fan out into whatever
    /// cores the chain level left over.  Each chain screens, mixes,
    /// blames, retries, reveals and opens off an RNG stream of its own,
    /// seeded with 32 bytes drawn from `rng` in chain order before any
    /// of them starts — so what a chain draws (its shuffles, its hop
    /// and blame proofs) depends on the round's RNG alone, not on which
    /// chain ran when or on how many cores.  A worker takes its unit,
    /// so a chain's submissions are freed as it finishes.  In-process
    /// rotation cannot fail, so no chain is ever dead.
    fn mix<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        round: u64,
        per_chain: Vec<Vec<Submission>>,
        _dead: &[bool],
    ) -> Vec<ChainMixed> {
        let _span = xrd_obs::span_timer("round.mix", round);
        self.mix_with(rng, per_chain, |chain, rng, submissions| {
            chain.run_round(rng, round, submissions)
        })
    }

    fn deliver(&mut self, round: u64, messages: Vec<MailboxMessage>) -> Result<(), RoundError> {
        for msg in messages {
            self.mailboxes
                .put(round, msg)
                .map_err(|error| RoundError::Mailbox { round, error })?;
        }
        Ok(())
    }

    /// The same paginated, ack-driven walk the networked backend runs
    /// over the wire.
    fn fetch(&mut self, round: u64, mailboxes: &[[u8; 32]]) -> Result<Prefetched, RoundError> {
        let mut fetched = Prefetched::with_capacity(mailboxes.len());
        for mailbox in mailboxes {
            let entries = drain(&mut self.mailboxes, mailbox, FETCH_PAGE)
                .map_err(|error| RoundError::Mailbox { round, error })?;
            fetched.insert(*mailbox, entries);
        }
        Ok(fetched)
    }

    fn rotate<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        chain: usize,
        inner_epoch: u64,
    ) -> Result<ChainPublicKeys, String> {
        let chain = &mut self.chains[chain];
        chain.activate_inner_rotation();
        Ok(chain.prepare_inner_rotation(rng, inner_epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::Received;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn setup(n_users: usize) -> (StdRng, Deployment, Vec<User>) {
        let mut rng = StdRng::seed_from_u64(42);
        let deployment = Deployment::new(&mut rng, DeploymentConfig::small(6, 2));
        let users: Vec<User> = (0..n_users).map(|_| User::new(&mut rng)).collect();
        (rng, deployment, users)
    }

    #[test]
    fn idle_round_uniformity() {
        // Every user receives exactly ℓ messages, all loopbacks.
        let (mut rng, mut deployment, mut users) = setup(5);
        let ell = deployment.topology().ell();
        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
        assert_eq!(report.messages_mixed, 5 * ell);
        assert_eq!(report.delivered, 5 * ell);
        for user in &users {
            let got = &fetched[&user.mailbox_id()];
            assert_eq!(got.len(), ell);
            assert!(got.iter().all(|r| *r == Received::Loopback));
        }
    }

    #[test]
    fn conversation_round_uniformity_and_delivery() {
        let (mut rng, mut deployment, mut users) = setup(4);
        let ell = deployment.topology().ell();
        let (a_pk, b_pk) = (users[0].pk(), users[1].pk());
        users[0].start_conversation(b_pk);
        users[1].start_conversation(a_pk);
        users[0].queue_chat(b"hello bob");
        users[1].queue_chat(b"hello alice");

        let (_, fetched) = deployment.run_round(&mut rng, &mut users);
        // Everyone still gets exactly ℓ messages — the adversary's view
        // of mailbox counts is independent of conversations.
        for user in &users {
            assert_eq!(fetched[&user.mailbox_id()].len(), ell);
        }
        let alice_got = &fetched[&users[0].mailbox_id()];
        assert!(alice_got.contains(&Received::Chat {
            from: users[1].mailbox_id(),
            data: b"hello alice".to_vec()
        }));
        let bob_got = &fetched[&users[1].mailbox_id()];
        assert!(bob_got.contains(&Received::Chat {
            from: users[0].mailbox_id(),
            data: b"hello bob".to_vec()
        }));
        // And ℓ-1 loopbacks each.
        assert_eq!(
            alice_got
                .iter()
                .filter(|r| **r == Received::Loopback)
                .count(),
            ell - 1
        );
    }

    #[test]
    fn multi_round_conversation() {
        let (mut rng, mut deployment, mut users) = setup(3);
        let (a_pk, b_pk) = (users[0].pk(), users[1].pk());
        users[0].start_conversation(b_pk);
        users[1].start_conversation(a_pk);
        users[0].queue_chat(b"one");
        users[0].queue_chat(b"two");

        let (_, fetched1) = deployment.run_round(&mut rng, &mut users);
        assert!(fetched1[&users[1].mailbox_id()].contains(&Received::Chat {
            from: users[0].mailbox_id(),
            data: b"one".to_vec()
        }));
        let (_, fetched2) = deployment.run_round(&mut rng, &mut users);
        assert!(fetched2[&users[1].mailbox_id()].contains(&Received::Chat {
            from: users[0].mailbox_id(),
            data: b"two".to_vec()
        }));
    }

    #[test]
    fn churn_cover_messages_keep_counts_uniform() {
        // Alice goes offline after round 0; in round 1 her stored covers
        // are mixed, so Bob still receives ℓ messages — including the
        // offline notification — and stops conversing afterwards.
        let (mut rng, mut deployment, mut users) = setup(4);
        let ell = deployment.topology().ell();
        let (a_pk, b_pk) = (users[0].pk(), users[1].pk());
        users[0].start_conversation(b_pk);
        users[1].start_conversation(a_pk);

        let (_, _) = deployment.run_round(&mut rng, &mut users);
        users[0].online = false;

        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
        // All 4 users' messages mixed (Alice via covers).
        assert_eq!(report.messages_mixed, 4 * ell);
        let bob_got = &fetched[&users[1].mailbox_id()];
        assert_eq!(bob_got.len(), ell, "Bob's mailbox count unchanged");
        assert!(bob_got.contains(&Received::PartnerOffline {
            partner: users[0].mailbox_id()
        }));
        assert!(users[1].partner().is_none(), "Bob stopped conversing");

        // Round 2: Alice still offline, no cover left — but Bob now
        // sends loopbacks, so his count stays ℓ.
        let (_, fetched3) = deployment.run_round(&mut rng, &mut users);
        let bob_got3 = &fetched3[&users[1].mailbox_id()];
        assert_eq!(bob_got3.len(), ell);
        assert!(bob_got3.iter().all(|r| *r == Received::Loopback));
    }

    #[test]
    fn malicious_submission_does_not_block_round() {
        // A protocol-violating user injects a garbage onion into one
        // chain; blame removes it and every honest message still lands.
        let (mut rng, mut deployment, mut users) = setup(3);
        let ell = deployment.topology().ell();
        let target = xrd_topology::ChainId(0);
        let bad = xrd_mixnet::testutil::malicious_submission(
            &mut rng,
            &deployment.chain_keys()[0],
            0, // round
            deployment.topology().chain_len() - 1,
        );
        deployment.inject_submission(target, bad);

        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
        assert!(report.aborted_chains.is_empty());
        assert_eq!(report.malicious_by_chain.get(&0), Some(&1));
        assert_eq!(report.messages_mixed, 3 * ell + 1);
        assert_eq!(report.delivered, 3 * ell, "honest messages all survive");
        for user in &users {
            assert_eq!(fetched[&user.mailbox_id()].len(), ell);
        }

        // The next round is unaffected.
        let (report2, _) = deployment.run_round(&mut rng, &mut users);
        assert!(report2.malicious_by_chain.is_empty());
    }

    #[test]
    fn parallel_round_matches_serial_semantics() {
        // Same seed, the same two rounds under core budgets of one, two
        // and four: chains run one after the other, two at a time, four
        // at a time.  A round's output is a function of the seed alone
        // — every chain draws from its own stream, blame included (the
        // garbage onion in chain 0 has its proofs drawn there) — so the
        // reports, every user's results in order and the key bundles
        // pre-published for the next round are identical.
        let run = |budget: usize| {
            par::with_workers(budget, || {
                // 80 users: ~40 entries per chain, several worker chunks
                // in every phase.
                let (mut rng, mut deployment, mut users) = setup(80);
                let (a, b) = (users[0].pk(), users[1].pk());
                users[0].start_conversation(b);
                users[1].start_conversation(a);
                users[0].queue_chat(b"via threads?");
                let bad = xrd_mixnet::testutil::malicious_submission(
                    &mut rng,
                    &deployment.chain_keys()[0],
                    0,
                    deployment.topology().chain_len() - 1,
                );
                deployment.inject_submission(xrd_topology::ChainId(0), bad);
                let rounds: Vec<(RoundReport, Vec<Vec<Received>>)> = (0..2)
                    .map(|_| {
                        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
                        let per_user = (users.iter())
                            .map(|u| fetched[&u.mailbox_id()].clone())
                            .collect();
                        (report, per_user)
                    })
                    .collect();
                (rounds, deployment.next_chain_keys().to_vec())
            })
        };
        let serial = run(1);
        let (first, per_user) = &serial.0[0];
        assert_eq!(first.malicious_by_chain.get(&0), Some(&1), "blame ran");
        assert_eq!(first.messages_mixed, first.delivered + 1);
        assert!(per_user[1]
            .iter()
            .any(|r| matches!(r, Received::Chat { data, .. } if data == b"via threads?")));
        for budget in [2, 4] {
            assert!(serial == run(budget), "budget {budget} changed the rounds");
        }
    }

    #[test]
    fn chains_really_run_on_several_threads() {
        // Six chains on a budget of two.  Every chain round waits on a
        // barrier only two distinct threads can pass — a serial walk
        // would deadlock in chain 0 — and the threads the chains ran on
        // are two, the caller among them.
        use std::collections::HashSet;
        use std::sync::Barrier;
        use std::thread::{self, ThreadId};
        let (mut rng, mut deployment, _) = setup(0);
        let n_chains = deployment.topology().n_chains();
        assert_eq!(n_chains, 6);
        let side_by_side = Barrier::new(2);
        let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let mixed = par::with_workers(2, || {
            let idle = vec![Vec::new(); n_chains];
            (deployment.cluster).mix_with(&mut rng, idle, |chain, rng, submissions| {
                side_by_side.wait();
                threads.lock().unwrap().insert(thread::current().id());
                chain.run_round(rng, 0, submissions)
            })
        });
        assert_eq!(mixed.len(), n_chains);
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 2);
        assert!(threads.contains(&thread::current().id()));
    }

    #[test]
    fn a_capped_mailbox_tier_is_a_typed_error_not_a_panic() {
        use crate::mailbox::MailboxError;
        use crate::RoundBackend;
        let (mut rng, mut deployment, mut users) = setup(4);
        deployment.set_mailbox_capacity(1);
        let outcome = RoundBackend::run_round(&mut deployment, &mut rng, &mut users);
        assert!(
            matches!(
                outcome,
                Err(RoundError::Mailbox {
                    round: 0,
                    error: MailboxError::ShardFull { cap: 1, .. },
                })
            ),
            "{outcome:?}"
        );
    }

    #[test]
    fn a_server_mixing_under_the_wrong_key_aborts_its_chain_only() {
        use xrd_crypto::scalar::Scalar;
        use xrd_mixnet::{MixServer, ServerSecrets};
        let mut rng = StdRng::seed_from_u64(43);
        let mut deployment = Deployment::new(&mut rng, DeploymentConfig::small(6, 3));
        let mut users: Vec<User> = (0..8).map(|_| User::new(&mut rng)).collect();
        let ell = deployment.topology().ell();
        let (bad_chain, bad_position) = (2usize, 1usize);

        // Hop 1 of chain 2 does not hold the mixing key it published:
        // every entry fails to decrypt there, and its accusation cannot
        // be backed by a proof against `mpk_1`.
        let public = deployment.chain_keys()[bad_chain].clone();
        let imposter = ServerSecrets {
            position: bad_position,
            bsk: Scalar::random(&mut rng),
            msk: Scalar::random(&mut rng),
            isk: Scalar::random(&mut rng),
        };
        deployment.chains_mut()[bad_chain].servers_mut()[bad_position] =
            MixServer::new(imposter, public);

        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
        assert_eq!(report.aborted_chains, vec![bad_chain as u32]);
        assert_eq!(
            report.convicted_by_chain,
            HashMap::from([(bad_chain as u32, vec![bad_position as u32])])
        );
        assert!(report.failed_chains.is_empty());
        assert!(report.malicious_by_chain.is_empty(), "no user is blamed");
        // Nothing from the aborted chain, everything from the others.
        let topo = deployment.topology();
        let on_bad_chain = |user: &User| {
            topo.chains_of_user(&user.mailbox_id())
                .iter()
                .filter(|chain| chain.0 as usize == bad_chain)
                .count()
        };
        let lost: usize = users.iter().map(on_bad_chain).sum();
        assert!(lost > 0, "the scenario needs traffic on the bad chain");
        assert_eq!(report.messages_mixed, users.len() * ell);
        assert_eq!(report.delivered, users.len() * ell - lost);
        for user in &users {
            let got = &fetched[&user.mailbox_id()];
            assert_eq!(got.len(), ell - on_bad_chain(user));
            assert!(got.iter().all(|r| *r == Received::Loopback));
        }

        // The servers are rebuilt from the chain's own secrets when the
        // inner keys rotate: the next round is whole again.
        let (report, _) = deployment.run_round(&mut rng, &mut users);
        assert!(report.aborted_chains.is_empty());
        assert_eq!(report.delivered, users.len() * ell);
    }

    #[test]
    fn offline_user_without_cover_is_absent() {
        let (mut rng, mut deployment, mut users) = setup(2);
        let ell = deployment.topology().ell();
        users[1].online = false; // offline from the very first round
        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
        assert_eq!(report.messages_mixed, ell); // only user 0
        assert!(!fetched.contains_key(&users[1].mailbox_id()));
    }
}
