//! The XRD user (§5.3): chain selection, loopback/conversation message
//! construction, cover messages for churn tolerance (§5.3.3), and
//! mailbox decryption — including the §9 extension to **multiple
//! simultaneous conversations** (the building block for group chats),
//! which works whenever the partners' meeting chains are distinct.
//!
//! The invariant the whole design rests on: **every round, every user
//! sends exactly `ℓ` messages and receives exactly `ℓ` messages**,
//! regardless of whether (or with how many people) she is conversing.
//! Tests in `deployment.rs` verify it end to end.

use std::collections::HashMap;

use rand::RngCore;

use xrd_crypto::aead::{adec_first, aenc, round_nonce};
use xrd_crypto::kdf;
use xrd_crypto::keys::KeyPair;
use xrd_crypto::ristretto::GroupElement;
use xrd_mixnet::client::{seal_ahs, Submission};
use xrd_mixnet::message::{MailboxMessage, DOMAIN_MAILBOX};
use xrd_mixnet::ChainPublicKeys;
use xrd_topology::{ChainId, Topology};

use crate::payload::Payload;

/// What a user found in her mailbox after decryption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Received {
    /// One of her own loopback messages came back.
    Loopback,
    /// Conversation content from a partner.
    Chat {
        /// The partner's mailbox id (public key encoding).
        from: [u8; 32],
        /// Chat bytes.
        data: Vec<u8>,
    },
    /// A partner signalled (via a cover message) that they went
    /// offline; stop conversing with them (§5.3.3).
    PartnerOffline {
        /// The offline partner's mailbox id.
        partner: [u8; 32],
    },
    /// Undecryptable (not addressed to us / corrupted) — never happens
    /// in an honest run.
    Opaque,
}

/// Why a conversation could not be added (§9: "XRD currently cannot
/// support multiple conversations for one user if she intersects with
/// different partners at the same chain").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConversationError {
    /// The new partner meets us on a chain already carrying another
    /// conversation.
    MeetingChainConflict {
        /// The contested chain.
        chain: ChainId,
        /// The existing partner on that chain.
        existing_partner: [u8; 32],
    },
    /// Already conversing with this partner.
    AlreadyConversing,
}

/// One conversation: the partner and everything about her that is
/// fixed for the conversation's life.  Both directional keys come from
/// one constant-time DH ladder and its Ristretto encodes — paid here,
/// once, not per sealed or fetched message.
#[derive(Clone)]
struct Conversation {
    peer: GroupElement,
    /// `peer`'s mailbox id (her public key's encoding).
    peer_id: [u8; 32],
    /// `s_B = KDF(s_AB, pk_B)` in Algorithm 2: seals what we send her.
    key_to_peer: [u8; 32],
    /// `s_A = KDF(s_AB, pk_A)`: opens what she sends us.
    key_to_me: [u8; 32],
}

/// A user endpoint.
#[derive(Clone)]
pub struct User {
    keypair: KeyPair,
    pk_bytes: [u8; 32],
    /// Current conversations, in add order.
    conversations: Vec<Conversation>,
    /// Outgoing chat queues, keyed by partner mailbox id.
    outbox: HashMap<[u8; 32], Vec<Vec<u8>>>,
    /// Whether the user is reachable this round (churn modeling).
    pub online: bool,
}

impl User {
    /// Create a user with a fresh key pair.
    pub fn new<R: RngCore + ?Sized>(rng: &mut R) -> User {
        let keypair = KeyPair::generate(rng);
        let pk_bytes = keypair.pk.encode();
        User {
            keypair,
            pk_bytes,
            conversations: Vec::new(),
            outbox: HashMap::new(),
            online: true,
        }
    }

    /// The user's public key (also her mailbox id).
    pub fn pk(&self) -> GroupElement {
        self.keypair.pk
    }

    /// The mailbox identifier (public key encoding).
    pub fn mailbox_id(&self) -> [u8; 32] {
        self.pk_bytes
    }

    /// The conversation record for `peer` (one DH ladder; see
    /// [`Conversation`]).
    fn conversation_with(&self, peer: GroupElement) -> Conversation {
        let peer_id = peer.encode();
        let shared = self.keypair.dh(&peer);
        Conversation {
            peer,
            peer_id,
            key_to_peer: kdf::derive_from_dh("xrd/conversation", &shared, &peer_id),
            key_to_me: kdf::derive_from_dh("xrd/conversation", &shared, &self.pk_bytes),
        }
    }

    /// Begin a (single) conversation with `peer`, replacing any existing
    /// conversations (the §5 base protocol; agreed out of band, §3.1).
    pub fn start_conversation(&mut self, peer: GroupElement) {
        self.conversations = vec![self.conversation_with(peer)];
        self.outbox.clear();
    }

    /// Add a simultaneous conversation (§9 extension).  Fails if the new
    /// partner's meeting chain collides with an existing conversation's.
    pub fn add_conversation(
        &mut self,
        topo: &Topology,
        peer: GroupElement,
    ) -> Result<(), ConversationError> {
        let peer_id = peer.encode();
        if self.conversations.iter().any(|c| c.peer_id == peer_id) {
            return Err(ConversationError::AlreadyConversing);
        }
        let new_chain = topo.meeting_chain_of_users(&self.pk_bytes, &peer_id);
        for existing in &self.conversations {
            let chain = topo.meeting_chain_of_users(&self.pk_bytes, &existing.peer_id);
            if chain == new_chain {
                return Err(ConversationError::MeetingChainConflict {
                    chain,
                    existing_partner: existing.peer_id,
                });
            }
        }
        self.conversations.push(self.conversation_with(peer));
        Ok(())
    }

    /// End every conversation (reverts to all-loopback).
    pub fn end_conversation(&mut self) {
        self.conversations.clear();
        self.outbox.clear();
    }

    /// End the conversation with one partner.
    pub fn end_conversation_with(&mut self, partner_id: &[u8; 32]) {
        self.conversations.retain(|c| c.peer_id != *partner_id);
        self.outbox.remove(partner_id);
    }

    /// Current partners, in add order.
    pub fn partners(&self) -> impl ExactSizeIterator<Item = &GroupElement> {
        self.conversations.iter().map(|c| &c.peer)
    }

    /// Convenience: the first partner, if any (base-protocol style).
    pub fn partner(&self) -> Option<&GroupElement> {
        self.partners().next()
    }

    /// Queue chat content for the first partner.
    pub fn queue_chat(&mut self, data: impl Into<Vec<u8>>) {
        if let Some(first) = self.conversations.first() {
            self.outbox
                .entry(first.peer_id)
                .or_default()
                .push(data.into());
        }
    }

    /// Queue chat content for a specific partner.
    pub fn queue_chat_for(&mut self, partner_id: &[u8; 32], data: impl Into<Vec<u8>>) {
        self.outbox
            .entry(*partner_id)
            .or_default()
            .push(data.into());
    }

    /// Chain-specific loopback key (`s_xA`, "known only to Alice").
    fn loopback_key(&self, chain: ChainId, round: u64) -> [u8; 32] {
        self.loopback_keys(&[chain], round)[0]
    }

    /// [`User::loopback_key`] of every chain, derived together.
    fn loopback_keys(&self, chains: &[ChainId], round: u64) -> Vec<[u8; 32]> {
        let sk = self.keypair.sk.to_bytes();
        let round = round.to_le_bytes();
        let ids: Vec<_> = chains.iter().map(|chain| chain.0.to_le_bytes()).collect();
        let inputs: Vec<[&[u8]; 3]> = ids.iter().map(|id| [&sk[..], id, &round]).collect();
        kdf::derive_key_all("xrd/loopback", &inputs)
    }

    /// Build the `ℓ` mailbox-level messages for `round`, in the order of
    /// this user's chain list.
    ///
    /// `offline_cover` selects §5.3.3 cover-message semantics: each
    /// conversation slot carries [`Payload::Offline`] instead of chat
    /// content (these are the messages servers replay if we vanish).
    pub fn build_round_messages(
        &self,
        topo: &Topology,
        round: u64,
        offline_cover: bool,
    ) -> Vec<(ChainId, MailboxMessage)> {
        (0..topo.chains_of_user(&self.pk_bytes).len())
            .map(|position| self.build_round_message(topo, round, offline_cover, position))
            .collect()
    }

    /// The `position`-th of [`User::build_round_messages`]' messages,
    /// with the chain it is bound for (bulk sealing builds each message
    /// where it is sealed).
    pub fn build_round_message(
        &self,
        topo: &Topology,
        round: u64,
        offline_cover: bool,
        position: usize,
    ) -> (ChainId, MailboxMessage) {
        let my_chains = topo.chains_of_user(&self.pk_bytes);
        let chain = my_chains[position];
        // The first occurrence of a meeting chain carries the
        // conversation (a group's chain list may repeat a chain after
        // modular wrapping) — the first partner's whose meeting chain it
        // is: partners with colliding meeting chains were rejected at
        // `add_conversation`.
        let conversation = if my_chains[..position].contains(&chain) {
            None
        } else {
            self.conversations.iter().find(|conversation| {
                topo.meeting_chain_of_users(&self.pk_bytes, &conversation.peer_id) == chain
            })
        };
        let message = if let Some(conversation) = conversation {
            let queued = self.outbox.get(&conversation.peer_id);
            let payload = if offline_cover {
                Payload::Offline
            } else if let Some(chat) = queued.and_then(|q| q.first()) {
                Payload::Chat(chat.clone())
            } else {
                Payload::Chat(Vec::new())
            };
            MailboxMessage {
                mailbox: conversation.peer_id,
                sealed: aenc(
                    &conversation.key_to_peer,
                    &round_nonce(round, DOMAIN_MAILBOX),
                    b"",
                    &payload.encode(),
                ),
            }
        } else {
            MailboxMessage {
                mailbox: self.pk_bytes,
                sealed: aenc(
                    &self.loopback_key(chain, round),
                    &round_nonce(round, DOMAIN_MAILBOX),
                    b"",
                    &Payload::Dummy.encode(),
                ),
            }
        };
        (chain, message)
    }

    /// Onion-encrypt a round's messages into per-chain submissions.
    /// `chain_keys[c]` must be the public bundle of chain `c`.
    pub fn seal_round<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        topo: &Topology,
        chain_keys: &[ChainPublicKeys],
        round: u64,
        offline_cover: bool,
    ) -> Vec<(ChainId, Submission)> {
        self.build_round_messages(topo, round, offline_cover)
            .into_iter()
            .map(|(chain, msg)| {
                let sealed = seal_ahs(rng, &chain_keys[chain.0 as usize], round, &msg);
                (chain, sealed)
            })
            .collect()
    }

    /// Advance the outboxes after a round in which conversation messages
    /// went out: pop one queued chat per partner.
    pub fn mark_round_sent(&mut self) {
        for conversation in &self.conversations {
            if let Some(queue) = self.outbox.get_mut(&conversation.peer_id) {
                if !queue.is_empty() {
                    queue.remove(0);
                }
            }
        }
    }

    /// Decrypt everything fetched from the mailbox, all delivered in
    /// `round`.  Each message is tried under each partner's incoming
    /// conversation key, then each chain's loopback key, and the first
    /// key that opens it says what it is — one trial decryption of the
    /// whole batch ([`adec_first`]).
    pub fn open_mailbox<S: AsRef<[u8]>>(
        &self,
        topo: &Topology,
        round: u64,
        sealed_messages: &[S],
    ) -> Vec<Received> {
        let my_chains = topo.chains_of_user(&self.pk_bytes);
        let keys: Vec<[u8; 32]> = (self.conversations.iter())
            .map(|conversation| conversation.key_to_me)
            .chain(self.loopback_keys(my_chains, round))
            .collect();
        let nonce = round_nonce(round, DOMAIN_MAILBOX);
        (adec_first(&keys, &nonce, b"", sealed_messages).into_iter())
            .map(|opened| match opened {
                Some((k, pt)) if k < self.conversations.len() => {
                    let from = self.conversations[k].peer_id;
                    match Payload::decode(&pt) {
                        Some(Payload::Chat(data)) => Received::Chat { from, data },
                        Some(Payload::Offline) => Received::PartnerOffline { partner: from },
                        _ => Received::Opaque,
                    }
                }
                Some((_, pt)) => match Payload::decode(&pt) {
                    Some(Payload::Dummy) => Received::Loopback,
                    _ => Received::Opaque,
                },
                None => Received::Opaque,
            })
            .collect()
    }
}

impl std::fmt::Debug for User {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("User")
            .field("mailbox", &xrd_crypto::util::to_hex(&self.pk_bytes[..4]))
            .field("conversations", &self.conversations.len())
            .field("online", &self.online)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xrd_topology::Beacon;

    fn small_topo() -> Topology {
        Topology::build_with(&Beacon::from_u64(1), 0, 10, 10, 2, 0.0)
    }

    fn chat(from: &User, data: &[u8]) -> Received {
        Received::Chat {
            from: from.mailbox_id(),
            data: data.to_vec(),
        }
    }

    #[test]
    fn idle_user_sends_ell_loopbacks() {
        let mut rng = StdRng::seed_from_u64(1);
        let topo = small_topo();
        let user = User::new(&mut rng);
        let msgs = user.build_round_messages(&topo, 0, false);
        assert_eq!(msgs.len(), topo.ell());
        for (_, m) in &msgs {
            assert_eq!(m.mailbox, user.mailbox_id());
        }
    }

    #[test]
    fn conversing_user_sends_one_conversation_message() {
        let mut rng = StdRng::seed_from_u64(2);
        let topo = small_topo();
        let mut alice = User::new(&mut rng);
        let bob = User::new(&mut rng);
        alice.start_conversation(bob.pk());
        let msgs = alice.build_round_messages(&topo, 1, false);
        assert_eq!(msgs.len(), topo.ell());
        let to_bob: Vec<_> = msgs
            .iter()
            .filter(|(_, m)| m.mailbox == bob.mailbox_id())
            .collect();
        assert_eq!(to_bob.len(), 1);
        let meeting = topo.meeting_chain_of_users(&alice.mailbox_id(), &bob.mailbox_id());
        assert_eq!(to_bob[0].0, meeting);
    }

    #[test]
    fn chat_roundtrip_between_users() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = small_topo();
        let mut alice = User::new(&mut rng);
        let mut bob = User::new(&mut rng);
        alice.start_conversation(bob.pk());
        bob.start_conversation(alice.pk());
        alice.queue_chat(b"hi bob".to_vec());

        let msgs = alice.build_round_messages(&topo, 3, false);
        let for_bob: Vec<Vec<u8>> = msgs
            .iter()
            .filter(|(_, m)| m.mailbox == bob.mailbox_id())
            .map(|(_, m)| m.sealed.clone())
            .collect();
        let got = bob.open_mailbox(&topo, 3, &for_bob);
        assert_eq!(got, vec![chat(&alice, b"hi bob")]);
    }

    #[test]
    fn loopbacks_decrypt_only_for_owner() {
        let mut rng = StdRng::seed_from_u64(4);
        let topo = small_topo();
        let alice = User::new(&mut rng);
        let eve = User::new(&mut rng);
        let msgs = alice.build_round_messages(&topo, 5, false);
        let sealed: Vec<Vec<u8>> = msgs.iter().map(|(_, m)| m.sealed.clone()).collect();
        let alice_view = alice.open_mailbox(&topo, 5, &sealed);
        assert!(alice_view.iter().all(|r| *r == Received::Loopback));
        let eve_view = eve.open_mailbox(&topo, 5, &sealed);
        assert!(eve_view.iter().all(|r| *r == Received::Opaque));
    }

    #[test]
    fn offline_cover_notifies_partner() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = small_topo();
        let mut alice = User::new(&mut rng);
        let mut bob = User::new(&mut rng);
        alice.start_conversation(bob.pk());
        bob.start_conversation(alice.pk());
        let covers = alice.build_round_messages(&topo, 7, true);
        let for_bob: Vec<Vec<u8>> = covers
            .iter()
            .filter(|(_, m)| m.mailbox == bob.mailbox_id())
            .map(|(_, m)| m.sealed.clone())
            .collect();
        assert_eq!(for_bob.len(), 1);
        let got = bob.open_mailbox(&topo, 7, &for_bob);
        assert_eq!(
            got,
            vec![Received::PartnerOffline {
                partner: alice.mailbox_id()
            }]
        );
    }

    #[test]
    fn loopback_keys_are_round_and_chain_specific() {
        let mut rng = StdRng::seed_from_u64(6);
        let user = User::new(&mut rng);
        let k1 = user.loopback_key(ChainId(0), 1);
        let k2 = user.loopback_key(ChainId(1), 1);
        let k3 = user.loopback_key(ChainId(0), 2);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn wrong_round_messages_do_not_decrypt() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = small_topo();
        let user = User::new(&mut rng);
        let msgs = user.build_round_messages(&topo, 1, false);
        let sealed: Vec<Vec<u8>> = msgs.iter().map(|(_, m)| m.sealed.clone()).collect();
        let wrong_round = user.open_mailbox(&topo, 2, &sealed);
        assert!(wrong_round.iter().all(|r| *r == Received::Opaque));
    }

    // ---- §9 multi-conversation extension ----

    /// Find a set of users whose pairwise meeting chains with `host` are
    /// all distinct.
    fn partners_with_distinct_chains(
        rng: &mut StdRng,
        topo: &Topology,
        host: &User,
        want: usize,
    ) -> Vec<User> {
        let mut found: Vec<User> = Vec::new();
        let mut chains = std::collections::HashSet::new();
        while found.len() < want {
            let candidate = User::new(rng);
            let chain = topo.meeting_chain_of_users(&host.mailbox_id(), &candidate.mailbox_id());
            if chains.insert(chain) {
                found.push(candidate);
            }
        }
        found
    }

    #[test]
    fn multiple_conversations_still_send_ell_messages() {
        let mut rng = StdRng::seed_from_u64(8);
        let topo = small_topo();
        let mut alice = User::new(&mut rng);
        let partners = partners_with_distinct_chains(&mut rng, &topo, &alice, 2);
        for p in &partners {
            alice.add_conversation(&topo, p.pk()).unwrap();
        }
        assert_eq!(alice.partners().len(), 2);
        let msgs = alice.build_round_messages(&topo, 0, false);
        assert_eq!(msgs.len(), topo.ell(), "uniformity holds with 2 partners");
        let conv_count = msgs
            .iter()
            .filter(|(_, m)| m.mailbox != alice.mailbox_id())
            .count();
        assert_eq!(conv_count, 2);
    }

    #[test]
    fn per_partner_chat_routing() {
        let mut rng = StdRng::seed_from_u64(9);
        let topo = small_topo();
        let mut alice = User::new(&mut rng);
        let mut partners = partners_with_distinct_chains(&mut rng, &topo, &alice, 2);
        for p in &partners {
            alice.add_conversation(&topo, p.pk()).unwrap();
        }
        for p in partners.iter_mut() {
            p.add_conversation(&topo, alice.pk()).unwrap();
        }
        alice.queue_chat_for(&partners[0].mailbox_id(), b"to p0");
        alice.queue_chat_for(&partners[1].mailbox_id(), b"to p1");

        let msgs = alice.build_round_messages(&topo, 0, false);
        for (i, p) in partners.iter().enumerate() {
            let sealed: Vec<Vec<u8>> = msgs
                .iter()
                .filter(|(_, m)| m.mailbox == p.mailbox_id())
                .map(|(_, m)| m.sealed.clone())
                .collect();
            assert_eq!(sealed.len(), 1);
            let got = p.open_mailbox(&topo, 0, &sealed);
            assert_eq!(got, vec![chat(&alice, format!("to p{i}").as_bytes())]);
        }
    }

    #[test]
    fn meeting_chain_conflict_is_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let topo = small_topo();
        let mut alice = User::new(&mut rng);
        let first = User::new(&mut rng);
        alice.add_conversation(&topo, first.pk()).unwrap();
        let first_chain = topo.meeting_chain_of_users(&alice.mailbox_id(), &first.mailbox_id());
        // Find a user colliding on the same meeting chain.
        let collider = loop {
            let c = User::new(&mut rng);
            if topo.meeting_chain_of_users(&alice.mailbox_id(), &c.mailbox_id()) == first_chain {
                break c;
            }
        };
        let err = alice.add_conversation(&topo, collider.pk()).unwrap_err();
        assert_eq!(
            err,
            ConversationError::MeetingChainConflict {
                chain: first_chain,
                existing_partner: first.mailbox_id()
            }
        );
        // And duplicates are rejected too.
        assert_eq!(
            alice.add_conversation(&topo, first.pk()),
            Err(ConversationError::AlreadyConversing)
        );
    }

    #[test]
    fn end_conversation_with_keeps_others() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = small_topo();
        let mut alice = User::new(&mut rng);
        let partners = partners_with_distinct_chains(&mut rng, &topo, &alice, 2);
        for p in &partners {
            alice.add_conversation(&topo, p.pk()).unwrap();
        }
        alice.end_conversation_with(&partners[0].mailbox_id());
        assert_eq!(alice.partners().len(), 1);
        assert_eq!(
            alice.partner().map(|p| p.encode()),
            Some(partners[1].mailbox_id())
        );
    }
}
