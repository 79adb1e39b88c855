//! # xrd-mixnet
//!
//! XRD's mix chains (NSDI 2020, §5-§6): onion encryption, the **aggregate
//! hybrid shuffle** (AHS, §6) that defends against active tampering with
//! only cheap crypto, and the blame protocol (§6.4) that identifies
//! malicious users without hurting honest users' privacy.
//!
//! Layering:
//!
//! * [`message`] — fixed-size wire formats;
//! * [`chain_keys`] — the chained blinding/mixing/inner key generation
//!   (§6.1) with knowledge proofs;
//! * [`client`] — the AHS double-envelope onion (§6.2) and the baseline
//!   Algorithm 2 onion;
//! * [`server`] — the AHS hop: decrypt, blind, shuffle, prove (§6.3);
//! * [`blame`] — tracing misauthenticated ciphertexts to their origin
//!   (§6.4);
//! * [`pass`] — the chain protocol of §6.3–§6.4, decided once and
//!   answered by a [`ChainParty`]: mixing, cross-verification,
//!   disputes, blame-and-retry, audit localization and the reveal;
//! * [`runner`] — the chain's servers in one process as that party;
//! * [`lie`] — the one table of server lies, told by a lying
//!   [`MixServer`] the same way in process and on the wire;
//! * [`par`] — the one fan-out helper every data-parallel phase of a
//!   round runs on.

#![warn(missing_docs)]
// Hop-position-indexed loops mirror the paper's server-i notation.
#![allow(clippy::needless_range_loop)]

pub mod blame;
pub mod chain_keys;
pub mod client;
pub mod lie;
pub mod message;
pub mod par;
pub mod pass;
pub mod runner;
pub mod server;
pub mod testutil;

pub use blame::{trace_blame, Accusation, BlameReveal, BlameVerdict};
pub use chain_keys::{
    apply_rotation_shares, generate_chain_keys, rotation_share, ChainPublicKeys, RotationShare,
    ServerKeyProofs, ServerSecrets,
};
pub use client::{seal_ahs, seal_basic, ChainSealer, SealRandomness, Submission};
pub use lie::Lie;
pub use message::{MailboxMessage, MixEntry, MAILBOX_MSG_LEN, PAYLOAD_LEN};
pub use pass::{
    agreed_column, Breach, ChainParty, ChainPass, ChainRoundOutcome, ChainRoundStats, MixPhase,
    MixWave, PendingChainRound,
};
pub use runner::{ChainRunner, LocalParty};
pub use server::{
    column_digest, input_digest, open_batch, open_revealed, verify_hop, verify_hops_batched,
    verify_hops_batched_multi, verify_inner_key, ChainAudit, ChunkKernel, HopAttestation,
    HopRecord, HopResult, HopState, MixError, MixServer, WindowDigest,
};
