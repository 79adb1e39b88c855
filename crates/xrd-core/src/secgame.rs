//! An executable version of the paper's security game (Appendix B).
//!
//! The challenger samples secret conversation pairs, mixes them on a
//! real [`ChainRunner`] — its own chain pass, every hop proof checked by
//! the other servers and audited — opens the batch with the revealed
//! inner keys, and
//! then challenges the adversary to distinguish the true pairing from a
//! freshly sampled one.  The adversary sees everything the paper grants
//! it: all submissions, all inter-hop traffic, and the *internal state
//! (permutations) of the servers it corrupts* — read from the
//! [`HopState`](xrd_mixnet::server::HopState) each server keeps.
//!
//! Two facts the paper proves become *measurable* here:
//!
//! * with **every** server corrupted the adversary composes the
//!   permutations, traces each delivery to its sender, and wins with
//!   advantage ≈ 1 (this validates that the harness actually detects
//!   leakage);
//! * with **at least one honest server** the trace breaks at the honest
//!   shuffle and the advantage collapses to ≈ 0 — the anytrust
//!   assumption doing its job.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;

use xrd_crypto::aead::{aenc, round_nonce};
use xrd_crypto::keys::KeyPair;
use xrd_mixnet::client::seal_ahs;
use xrd_mixnet::message::DOMAIN_MAILBOX;
use xrd_mixnet::{
    agreed_column, verify_hops_batched, ChainRunner, MailboxMessage, MixPhase, Submission,
    PAYLOAD_LEN,
};

/// Which hop positions the adversary controls.
#[derive(Clone, Debug)]
pub struct Corruption {
    /// Corrupted hop positions (0-based).  The game requires at least
    /// one *honest* server for privacy; pass all positions to measure
    /// the broken case.
    pub corrupt_positions: Vec<usize>,
}

/// Everything the adversary observes in one game run.
pub struct AdversaryView {
    /// Submission order → submitting user index (public: users sign
    /// their submissions in the clear in the game).
    pub n_users: usize,
    /// Mailbox ids of the delivered messages, in final (shuffled) order.
    pub delivered_mailboxes: Vec<[u8; 32]>,
    /// For each hop: `Some(perm)` if that server is corrupted (then
    /// `outputs[o] = inputs[perm[o]]`), else `None`.
    pub hop_perms: Vec<Option<Vec<usize>>>,
    /// Every user's mailbox id (public keys are public).
    pub user_mailboxes: Vec<[u8; 32]>,
}

/// Result of playing the game `trials` times.
#[derive(Clone, Copy, Debug)]
pub struct GameOutcome {
    /// Number of trials played.
    pub trials: usize,
    /// Number of correct guesses.
    pub wins: usize,
}

impl GameOutcome {
    /// `|Pr[b' = b] - 1/2|`.
    pub fn advantage(&self) -> f64 {
        (self.wins as f64 / self.trials as f64 - 0.5).abs()
    }
}

/// Sample a random perfect matching over `n` users (self-pairs allowed,
/// as in the game's step 5 where `X_i = Y_i` means "talking to
/// herself").
fn sample_pairing<R: RngCore + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut partner = vec![0usize; n];
    for pair in idx.chunks(2) {
        if pair.len() == 2 {
            partner[pair[0]] = pair[1];
            partner[pair[1]] = pair[0];
        } else {
            partner[pair[0]] = pair[0]; // odd one talks to herself
        }
    }
    partner
}

/// The permutation-composition adversary: traces every delivered slot
/// back through all hops using the permutations it knows, assuming the
/// identity for honest hops (its best effort), then checks the traced
/// sender→mailbox relation against the challenge pairing.
fn trace_and_guess(view: &AdversaryView, candidate: &[usize]) -> bool {
    let n = view.delivered_mailboxes.len();
    let mut consistent = 0usize;
    for out_idx in 0..n {
        // Walk backwards: output slot of the last hop → input slot of
        // the first hop.
        let mut slot = out_idx;
        for perm in view.hop_perms.iter().rev() {
            match perm {
                Some(p) => slot = p[slot],
                None => { /* honest shuffle unknown: assume identity */ }
            }
        }
        let sender = slot; // submission order == user order in the game
        let mailbox = view.delivered_mailboxes[out_idx];
        // Under the candidate pairing, sender's message goes to
        // candidate[sender]'s mailbox.
        if view.user_mailboxes[candidate[sender]] == mailbox {
            consistent += 1;
        }
    }
    // If (almost) all traced slots agree with the candidate pairing,
    // guess "real" (b = 0); the caller compares with the actual b.
    consistent * 2 >= n
}

/// Play the Appendix-B game `trials` times on a chain of length `k` with
/// `n_users` honest users and the given corruption pattern; returns the
/// adversary's score.
pub fn play_game<R: RngCore + ?Sized>(
    rng: &mut R,
    k: usize,
    n_users: usize,
    corruption: &Corruption,
    trials: usize,
) -> GameOutcome {
    let mut wins = 0usize;
    for trial in 0..trials {
        let round = trial as u64;
        // Steps 2-3: chain + keys (fresh per trial).
        let mut chain = ChainRunner::new(rng, k, round);

        // Step 4-5: users and the secret pairing.
        let users: Vec<KeyPair> = (0..n_users).map(|_| KeyPair::generate(rng)).collect();
        let user_mailboxes: Vec<[u8; 32]> = users.iter().map(|u| u.pk.encode()).collect();
        let pairing = sample_pairing(rng, n_users);

        // Each user sends one message to her partner's mailbox.
        let submissions: Vec<Submission> = (0..n_users)
            .map(|i| {
                let dest = pairing[i];
                let key = xrd_crypto::kdf::derive_from_dh(
                    "secgame",
                    &users[i].dh(&users[dest].pk),
                    &user_mailboxes[dest],
                );
                let sealed = aenc(
                    &key,
                    &round_nonce(round, DOMAIN_MAILBOX),
                    b"",
                    &vec![0u8; PAYLOAD_LEN],
                );
                let msg = MailboxMessage {
                    mailbox: user_mailboxes[dest],
                    sealed,
                };
                seal_ahs(rng, chain.public(), round, &msg)
            })
            .collect();

        // Step 7: mixing (all servers follow the protocol here; active
        // tampering is covered by the AHS tests, and Appendix A shows
        // tampering upstream of the honest server is always caught).
        let active: Vec<usize> = (0..n_users).collect();
        let agreed = agreed_column(&submissions, &active);
        let mut pass = chain.pass(rng, round, &submissions);
        let Ok(MixPhase::AwaitingAudit(pending)) = pass.mix(agreed, active) else {
            panic!("honest onions decrypt at every hop");
        };
        // The adversary's view, read before the reveal releases it.
        let hop_perms: Vec<Option<Vec<usize>>> = (pass.party.servers.iter().enumerate())
            .map(|(pos, s)| {
                let corrupt = corruption.corrupt_positions.contains(&pos);
                corrupt.then(|| s.state().expect("ran this round").perm.clone())
            })
            .collect();
        // Step 8: audit, reveal the inner keys and open.
        let audit_ok = verify_hops_batched(pass.public, round, &pending.records());
        let outcome = pass.conclude(pending, audit_ok).expect("in process");
        assert_eq!(outcome.delivered.len(), n_users, "honest batch opens");
        let delivered_mailboxes: Vec<[u8; 32]> =
            outcome.delivered.iter().map(|m| m.mailbox).collect();
        let view = AdversaryView {
            n_users,
            delivered_mailboxes,
            hop_perms,
            user_mailboxes,
        };

        // Step 9: the challenge.
        let b = rng.gen_bool(0.5);
        let candidate = if b {
            sample_pairing(rng, n_users) // fresh pairing
        } else {
            pairing.clone()
        };

        // Step 10: the adversary's guess ("looks real" == guess b=0).
        let guessed_real = trace_and_guess(&view, &candidate);
        let guess_b = !guessed_real;
        if guess_b == b {
            wins += 1;
        }
    }
    GameOutcome { trials, wins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fully_corrupt_chain_loses_privacy() {
        // Control experiment: with no honest server the permutation
        // trace works and the adversary nearly always wins.
        let mut rng = StdRng::seed_from_u64(1);
        let corruption = Corruption {
            corrupt_positions: vec![0, 1, 2],
        };
        let outcome = play_game(&mut rng, 3, 8, &corruption, 30);
        assert!(
            outcome.advantage() > 0.35,
            "fully corrupt chain should leak: advantage = {} ({}/{})",
            outcome.advantage(),
            outcome.wins,
            outcome.trials
        );
    }

    #[test]
    fn one_honest_server_restores_privacy() {
        // The anytrust property: corrupt all but the middle server.
        let mut rng = StdRng::seed_from_u64(2);
        let corruption = Corruption {
            corrupt_positions: vec![0, 2],
        };
        let outcome = play_game(&mut rng, 3, 8, &corruption, 60);
        assert!(
            outcome.advantage() < 0.2,
            "one honest server must hide the pairing: advantage = {} ({}/{})",
            outcome.advantage(),
            outcome.wins,
            outcome.trials
        );
    }

    #[test]
    fn honest_position_does_not_matter() {
        // First or last honest server protects equally (§6's point that
        // only existence matters).
        let mut rng = StdRng::seed_from_u64(3);
        for honest in 0..3usize {
            let corrupt: Vec<usize> = (0..3).filter(|p| *p != honest).collect();
            let outcome = play_game(
                &mut rng,
                3,
                6,
                &Corruption {
                    corrupt_positions: corrupt,
                },
                40,
            );
            assert!(
                outcome.advantage() < 0.25,
                "honest at {honest}: advantage = {}",
                outcome.advantage()
            );
        }
    }

    #[test]
    fn pairing_sampler_is_an_involution() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 2, 5, 8] {
            let p = sample_pairing(&mut rng, n);
            for i in 0..n {
                assert_eq!(p[p[i]], i, "pairing must be an involution");
            }
        }
    }
}
