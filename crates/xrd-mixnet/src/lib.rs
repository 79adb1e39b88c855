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
//! * [`runner`] — a faithful in-process executor for one chain round,
//!   including blame-and-retry;
//! * [`par`] — the one fan-out helper every data-parallel phase of a
//!   round runs on.

#![warn(missing_docs)]
// Hop-position-indexed loops mirror the paper's server-i notation.
#![allow(clippy::needless_range_loop)]

pub mod blame;
pub mod chain_keys;
pub mod client;
pub mod message;
pub mod par;
pub mod runner;
pub mod server;
pub mod testutil;

pub use blame::{run_blame, trace_blame, Accusation, BlameReveal, BlameVerdict};
pub use chain_keys::{
    apply_rotation_shares, generate_chain_keys, rotation_share, ChainPublicKeys, RotationShare,
    ServerKeyProofs, ServerSecrets,
};
pub use client::{seal_ahs, seal_basic, ChainSealer, SealRandomness, Submission};
pub use message::{MailboxMessage, MixEntry, MAILBOX_MSG_LEN, PAYLOAD_LEN};
pub use runner::{resolve_blame, BlameResolution, ChainRoundOutcome, ChainRoundStats, ChainRunner};
pub use server::{
    input_digest, open_batch, open_revealed, verify_hop, verify_hop_keys, verify_hops_batched,
    verify_hops_batched_multi, verify_inner_key, ChainAudit, ChunkKernel, HopRecord, HopResult,
    HopState, MixError, MixServer,
};
