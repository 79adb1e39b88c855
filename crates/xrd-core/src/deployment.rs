//! An in-process XRD deployment: topology + chains + mailbox servers +
//! the round protocol of Figure 1, with §5.3.3 churn handling (cover
//! messages) built in.
//!
//! This is the "real" system — every message is really onion-encrypted,
//! really mixed through AHS with proofs verified, and really delivered to
//! and fetched from mailboxes.  The experiment harness uses it at reduced
//! scale; `cost.rs` extrapolates to paper scale.

use std::collections::HashMap;

use rand::RngCore;

use xrd_mixnet::client::Submission;
use xrd_mixnet::{ChainPublicKeys, ChainRunner};
use xrd_topology::{Beacon, ChainId, Topology};

use crate::backend::{collect_submissions, open_fetched, CoverStore, RoundBackend, RoundError};
use crate::mailbox::{drain, MailboxHub, MailboxStore};
use crate::user::{Received, User};

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

/// Report for one executed round.
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// Round number executed.
    pub round: u64,
    /// Messages mixed (submissions accepted into chains).
    pub messages_mixed: usize,
    /// Messages delivered to mailboxes.
    pub delivered: usize,
    /// Per-chain malicious submission counts (by chain index).
    pub malicious_by_chain: HashMap<u32, usize>,
    /// Chains that aborted due to a misbehaving server.
    pub aborted_chains: Vec<u32>,
    /// Chains that failed for infrastructure reasons this round (a
    /// daemon down, a timed-out pass) — the round degraded to the
    /// surviving chains.  Networked backends only; the in-process
    /// deployment never populates this.
    pub failed_chains: Vec<u32>,
    /// Server positions convicted by the dispute protocol, per chain.
    /// A conviction does not imply the chain aborted: a lying verifier
    /// is convicted and excluded while its chain's round completes.
    pub convicted_by_chain: HashMap<u32, Vec<u32>>,
    /// Server positions whose input-agreement digest dissented from
    /// the majority, per chain — suspects (equivocation or a lossy
    /// link), recorded but never convicted on digest evidence alone.
    pub suspected_by_chain: HashMap<u32, Vec<u32>>,
}

/// What each user got back this round, keyed by mailbox id.
pub type FetchResults = HashMap<[u8; 32], Vec<Received>>;

/// The in-process deployment.
pub struct Deployment {
    topo: Topology,
    chains: Vec<ChainRunner>,
    mailboxes: MailboxHub,
    round: u64,
    /// Inner-key bundles active for the current round.
    current_keys: Vec<ChainPublicKeys>,
    /// Inner-key bundles for the *next* round, published a round ahead
    /// so cover messages can be sealed against them (§5.3.3).
    next_keys: Vec<ChainPublicKeys>,
    /// Cover submissions stored at round ρ for use in round ρ+1,
    /// keyed by mailbox id (§5.3.3).
    cover_store: CoverStore,
    /// Raw submissions injected for the next round (attack testing).
    injected: Vec<(ChainId, Submission)>,
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
            topo,
            chains,
            mailboxes: MailboxHub::new(config.n_mailbox_shards),
            round: 0,
            current_keys,
            next_keys,
            cover_store: HashMap::new(),
            injected: Vec::new(),
        }
    }

    /// Queue a raw submission for the next round (simulating a user that
    /// does not follow the protocol).  Fault-injection hook for tests
    /// and demos; deployments never call this.
    #[doc(hidden)]
    pub fn inject_submission(&mut self, chain: ChainId, submission: Submission) {
        self.injected.push((chain, submission));
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

    /// The pre-published key bundles for the next round (what cover
    /// messages are sealed against).
    pub fn next_chain_keys(&self) -> &[ChainPublicKeys] {
        &self.next_keys
    }

    /// Mutable chain access for fault injection in tests.
    #[doc(hidden)]
    pub fn chains_mut(&mut self) -> &mut [ChainRunner] {
        &mut self.chains
    }

    /// Execute one full round (Figure 1): users submit (or their stored
    /// covers are used if they're offline), chains mix, mailboxes are
    /// filled, online users fetch.  Returns the report plus each online
    /// user's decrypted mailbox contents.
    ///
    /// The default in-process mailbox tier is unbounded and in memory,
    /// so its store operations cannot fail and this convenience wrapper
    /// keeps the infallible signature.  A deployment given a capacity
    /// cap ([`Deployment::set_mailbox_capacity`]) must run rounds
    /// through [`RoundBackend::run_round`], which surfaces mailbox
    /// trouble as a typed [`RoundError`] instead; this wrapper panics
    /// on it.
    pub fn run_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        users: &mut [User],
    ) -> (RoundReport, FetchResults) {
        self.run_round_inner(rng, users)
            .expect("unbounded in-process mailbox tier cannot fail")
    }

    fn run_round_inner<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), RoundError> {
        let round = self.round;

        // Collect submissions: online users build fresh messages for ρ
        // (sealed against this round's keys) and covers for ρ+1 (sealed
        // against the pre-published next-round keys); offline users fall
        // back to stored covers.
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

        // Mix every chain, one after the other: the phases inside a
        // chain round fan out by themselves when the batch is big
        // enough to be worth it (`xrd_mixnet::par`).  A chain takes its
        // submissions by value, so they are freed as it finishes.
        let mut report = RoundReport {
            round,
            ..Default::default()
        };
        let outcomes: Vec<xrd_mixnet::ChainRoundOutcome> = self
            .chains
            .iter_mut()
            .zip(per_chain)
            .map(|(chain, subs)| {
                report.messages_mixed += subs.len();
                chain.run_round(rng, round, &subs)
            })
            .collect();
        for (c, outcome) in outcomes.into_iter().enumerate() {
            if !outcome.misbehaving_servers.is_empty() {
                report.aborted_chains.push(c as u32);
            }
            if !outcome.malicious_users.is_empty() {
                report
                    .malicious_by_chain
                    .insert(c as u32, outcome.malicious_users.len());
            }
            for msg in outcome.delivered {
                report.delivered += 1;
                self.mailboxes
                    .put(round, msg)
                    .map_err(|error| RoundError::Mailbox { round, error })?;
            }
        }

        // Online users fetch and decrypt — the same paginated,
        // ack-driven walk the networked backend runs over the wire.
        let mailboxes = &mut self.mailboxes;
        let fetched = open_fetched(&self.topo, round, users, |mailbox| {
            drain(mailboxes, mailbox, FETCH_PAGE)
                .map_err(|error| RoundError::Mailbox { round, error })
        })?;

        // Advance the key schedule: activate ρ+1, pre-publish ρ+2.
        self.round += 1;
        for (c, chain) in self.chains.iter_mut().enumerate() {
            chain.activate_inner_rotation();
            self.current_keys[c] = chain.public().clone();
            self.next_keys[c] = chain.prepare_inner_rotation(rng, self.round + 1);
        }
        Ok((report, fetched))
    }

    /// Direct mailbox inspection (tests).
    pub fn mailboxes(&self) -> &MailboxHub {
        &self.mailboxes
    }

    /// Cap the un-acked messages each in-process mailbox shard will
    /// hold; a round whose delivery would exceed it fails with
    /// [`RoundError::Mailbox`] through [`RoundBackend::run_round`]
    /// (tests of the fallible path).
    #[doc(hidden)]
    pub fn set_mailbox_capacity(&mut self, cap: usize) {
        let n = self.mailboxes.n_shards();
        self.mailboxes = MailboxHub::with_capacity(n, cap);
    }
}

impl RoundBackend for Deployment {
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
        rng: &mut dyn rand::RngCore,
        users: &mut [User],
    ) -> Result<(RoundReport, FetchResults), crate::backend::RoundError> {
        // In-process chains cannot fail for infrastructure reasons.
        Ok(Deployment::run_round(self, rng, users))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        // Same seed, one deployment with every fan-out forced onto one
        // worker and one forced onto four: every phase's output is
        // independent of the worker count, so the rounds are identical —
        // report, per-user results, in order.
        let run = |workers: usize| {
            xrd_mixnet::par::with_workers(workers, || {
                // 80 users: ~40 entries per chain, several worker chunks
                // in every fanned-out phase.
                let (mut rng, mut deployment, mut users) = setup(80);
                let (a, b) = (users[0].pk(), users[1].pk());
                users[0].start_conversation(b);
                users[1].start_conversation(a);
                users[0].queue_chat(b"via threads?");
                let (report, fetched) = deployment.run_round(&mut rng, &mut users);
                let per_user: Vec<Vec<Received>> = users
                    .iter()
                    .map(|u| fetched[&u.mailbox_id()].clone())
                    .collect();
                (report.messages_mixed, report.delivered, per_user)
            })
        };
        let serial = run(1);
        assert_eq!(serial.0, serial.1);
        assert!(serial.2[1]
            .iter()
            .any(|r| matches!(r, Received::Chat { data, .. } if data == b"via threads?")));
        assert_eq!(serial, run(4));
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
