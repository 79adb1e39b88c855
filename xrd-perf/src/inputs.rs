//! Workload inputs, all derived from the run's `--seed`.
//!
//! The program under test only ever sees what is generated here: a
//! user population with its conversations and per-round chats for the
//! `round_*` workloads, and a set of mailboxes with per-round entries
//! for `mailbox_persist`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use xrd_core::User;
use xrd_mixnet::{MailboxMessage, PAYLOAD_LEN};
use xrd_topology::Topology;

/// Independent generator streams of one run, so that (say) drawing one
/// more user key never shifts the deployment's server keys.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Server keys, shuffles, proofs — everything the deployment draws.
    Deployment,
    /// User keys.
    Users,
    /// Client-side sealing randomness during rounds.
    Rounds,
    /// Mailbox ids and entry payloads.
    Mailboxes,
    /// Kernel-rung inputs.
    Rungs,
}

/// The generator for `stream` of run `seed`.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream as u64 + 1))
}

/// A user population: half the users converse in pairs, the rest idle
/// (all-loopback), as in the paper's evaluation.
pub struct Population {
    /// The users, in generation order.
    pub users: Vec<User>,
    /// `partner[i]` is the index of user `i`'s conversation partner.
    pub partner: Vec<Option<usize>>,
}

impl Population {
    /// Draw `n_users` users with **every group equally full**: keys are
    /// drawn until each of the topology's ℓ+1 groups has exactly
    /// `n_users / (ℓ+1)` members.  Group membership is a hash of the
    /// key, so at a few hundred users plain sampling leaves chains up
    /// to ~15 % apart in load, differently for every seed; equal
    /// groups give every chain exactly `ℓ·n_users / n_chains` entries
    /// on every seed, which is what a large population converges to
    /// and what keeps byte and frame counts identical across seeds.
    /// Users `2i` and `2i+1` converse for `i < n_users / 4`.
    pub fn generate(rng: &mut StdRng, topo: &Topology, n_users: usize) -> Population {
        let groups = topo.selection.num_groups();
        assert!(
            n_users.is_multiple_of(groups) && n_users.is_multiple_of(4),
            "population must split evenly into {groups} groups and into pairs"
        );
        let quota = n_users / groups;
        let mut filled = vec![0usize; groups];
        let mut users = Vec::with_capacity(n_users);
        while users.len() < n_users {
            let user = User::new(rng);
            let group = topo.selection.group_of(&user.mailbox_id());
            if filled[group] < quota {
                filled[group] += 1;
                users.push(user);
            }
        }
        let mut partner = vec![None; n_users];
        for i in 0..n_users / 4 {
            let (a, b) = (2 * i, 2 * i + 1);
            let (a_pk, b_pk) = (users[a].pk(), users[b].pk());
            users[a].start_conversation(b_pk);
            users[b].start_conversation(a_pk);
            partner[a] = Some(b);
            partner[b] = Some(a);
        }
        Population { users, partner }
    }

    /// The chat user `from` sends in `round`: tagged with both, so a
    /// chat delivered late, twice or to the wrong user cannot pass.
    pub fn chat(from: usize, round: u64) -> Vec<u8> {
        format!("round {round} from user {from}").into_bytes()
    }

    /// Queue this round's chat on every conversing user.
    pub fn queue_chats(&mut self, round: u64) {
        for (i, user) in self.users.iter_mut().enumerate() {
            if self.partner[i].is_some() {
                user.queue_chat(Population::chat(i, round));
            }
        }
    }
}

/// Entries each mailbox receives per round in `mailbox_persist` (the
/// deployment shape's ℓ).
pub const ENTRIES_PER_ROUND: usize = 3;

/// The mailboxes of `mailbox_persist`.
pub struct Mailboxes {
    /// Mailbox ids, in generation order.
    pub ids: Vec<[u8; 32]>,
    /// Filler for entry payloads (the tier stores opaque sealed bytes).
    filler: Vec<u8>,
}

/// What an entry says about itself, read back by the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryLabel {
    /// Index of the mailbox it was addressed to.
    pub mailbox: usize,
    /// Round it was delivered in.
    pub round: u64,
    /// Which of the round's entries for that mailbox.
    pub slot: usize,
}

impl Mailboxes {
    /// Draw `n` mailbox ids.
    pub fn generate(rng: &mut StdRng, n: usize) -> Mailboxes {
        let ids = (0..n)
            .map(|_| {
                let mut id = [0u8; 32];
                rng.fill_bytes(&mut id);
                id
            })
            .collect();
        let mut filler = vec![0u8; PAYLOAD_LEN + xrd_crypto::TAG_LEN];
        rng.fill_bytes(&mut filler);
        Mailboxes { ids, filler }
    }

    /// The message for `label`: a sealed-payload-sized blob whose first
    /// 24 bytes spell the label.
    pub fn message(&self, label: EntryLabel) -> MailboxMessage {
        let mut sealed = self.filler.clone();
        sealed[..8].copy_from_slice(&(label.mailbox as u64).to_le_bytes());
        sealed[8..16].copy_from_slice(&label.round.to_le_bytes());
        sealed[16..24].copy_from_slice(&(label.slot as u64).to_le_bytes());
        MailboxMessage {
            mailbox: self.ids[label.mailbox],
            sealed,
        }
    }

    /// Read an entry's label back.
    pub fn label_of(sealed: &[u8]) -> Option<EntryLabel> {
        let word = |i: usize| {
            sealed
                .get(8 * i..8 * i + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        };
        Some(EntryLabel {
            mailbox: word(0)? as usize,
            round: word(1)?,
            slot: word(2)? as usize,
        })
    }

    /// Every message of `round`, mailbox-major.
    pub fn round_messages(&self, round: u64) -> Vec<MailboxMessage> {
        (0..self.ids.len())
            .flat_map(|mailbox| {
                (0..ENTRIES_PER_ROUND).map(move |slot| EntryLabel {
                    mailbox,
                    round,
                    slot,
                })
            })
            .map(|label| self.message(label))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrd_topology::Beacon;

    #[test]
    fn same_seed_same_population_and_equal_groups() {
        let topo = Topology::build_with(&Beacon::from_u64(0), 0, 6, 6, 3, 0.2);
        let ids = |seed| {
            Population::generate(&mut rng(seed, Stream::Users), &topo, 24)
                .users
                .iter()
                .map(User::mailbox_id)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(5), ids(5));
        assert_ne!(ids(5), ids(6));

        let pop = Population::generate(&mut rng(5, Stream::Users), &topo, 24);
        let mut per_chain = vec![0usize; topo.n_chains()];
        for user in &pop.users {
            for chain in topo.chains_of_user(&user.mailbox_id()) {
                per_chain[chain.0 as usize] += 1;
            }
        }
        assert!(per_chain.iter().all(|&n| n == 24 * topo.ell() / 6));
        assert_eq!(pop.partner.iter().flatten().count(), 12);
    }

    #[test]
    fn entry_labels_round_trip() {
        let boxes = Mailboxes::generate(&mut rng(1, Stream::Mailboxes), 4);
        let label = EntryLabel {
            mailbox: 3,
            round: 9,
            slot: 2,
        };
        let msg = boxes.message(label);
        assert_eq!(msg.mailbox, boxes.ids[3]);
        assert_eq!(Mailboxes::label_of(&msg.sealed), Some(label));
        assert_eq!(boxes.round_messages(0).len(), 4 * ENTRIES_PER_ROUND);
    }
}
