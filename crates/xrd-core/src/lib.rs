//! # xrd-core
//!
//! The complete XRD system (NSDI 2020): users, mailbox servers, and the
//! round protocol of Figure 1, assembled from the `xrd-topology` and
//! `xrd-mixnet` substrates — plus the calibrated performance models that
//! stand in for the paper's EC2 testbed.
//!
//! * [`user::User`] — chain selection, loopback/conversation/cover
//!   messages (§5.3), mailbox decryption;
//! * [`mailbox::MailboxStore`] — the sharded mailbox tier (§5.1): a
//!   paginated, ack-driven store API with an in-memory backend
//!   ([`mailbox::MailboxHub`]) and a crash-recoverable log-structured
//!   one ([`mailbox::LogMailboxStore`]);
//! * [`record_log::RecordLog`] — the one crash-safe append-only file
//!   (checksummed records, torn-tail repair, "a failed append or sync
//!   is final") under that store's segments and under the mix daemon's
//!   control-state journal (`xrd-net`'s `daemon.rs`);
//! * [`backend`] — the round, written once: [`backend::run_round`]
//!   drives a [`backend::RoundState`] through seal → mix → deliver →
//!   fetch → open → rotate over the four-method [`backend::Cluster`]
//!   trait, which names exactly what differs when servers are function
//!   calls or daemons.  Every deployment is that state plus its
//!   cluster, and a [`backend::RoundBackend`] by one blanket `impl`;
//! * [`deployment::Deployment`] — the in-process cluster (a
//!   `ChainRunner` per chain, a `MailboxHub`) under that driver: real
//!   rounds end to end, used by tests, examples and scaled
//!   experiments; `xrd-net`'s `RemoteDeployment` is the networked one;
//! * [`churn`] — the §8.3 availability Monte-Carlo (Figure 8);
//! * [`cost`] — user-cost accounting and the discrete-event round model
//!   (Figures 2-6), priced with per-op costs measured on the real
//!   crypto implementation.

#![warn(missing_docs)]

pub mod backend;
pub mod churn;
pub mod cost;
pub mod deployment;
pub mod mailbox;
pub mod payload;
pub mod record_log;
pub mod secgame;
pub mod user;

pub use backend::{FetchResults, RoundBackend, RoundError, RoundReport};
pub use deployment::{Deployment, DeploymentConfig};
pub use mailbox::{
    drain, LogMailboxStore, LogStoreConfig, MailboxError, MailboxHub, MailboxStore, Page, PageEntry,
};
pub use payload::{Payload, MAX_CHAT_LEN};
pub use record_log::RecordLog;
pub use user::{Received, User};
