//! # xrd-net
//!
//! The networked XRD deployment: everything needed to run the round
//! protocol of the in-process `xrd_core::Deployment` as real services
//! exchanging batches over TCP — the reproduction's analogue of the
//! paper's EC2 testbed (§8).
//!
//! * [`codec`] — the length-prefixed binary wire protocol: submissions,
//!   mix batches (chunk streams with a running stream digest — one
//!   format into a hop and out of it), hop attestations, inner-key
//!   reveals and rotations, blame
//!   messages, mailbox delivery/fetch; every frame declared once in a
//!   table its codec is derived from, hard size caps,
//!   canonical-encoding checks.  Spec: `docs/PROTOCOL.md`;
//! * [`conn`] — the client side of a connection (request/response with
//!   byte accounting; [`Conn::stream_hop`], the one hop exchange, whose
//!   receive half also relays a hop's output to the next hop, each
//!   checked frame byte for byte), blocking on a framed socket;
//! * [`reactor`] — the event-driven core: a dependency-free
//!   epoll-based readiness loop (raw syscalls on Linux/x86-64, sweep
//!   fallback elsewhere) serving every connection of a daemon (a
//!   `framed.rs` socket under a request/response state machine) from
//!   one thread, plus a small fixed-size worker pool that batch crypto
//!   is deferred to (a pending response slot per connection keeps the
//!   loop serving submissions while a hop runs), and a commit phase
//!   that ends every loop iteration — replies that acknowledge a write
//!   are held until the service's one `commit` (a mailbox shard's
//!   `fdatasync`) has covered them, so a herd shares its syncs;
//! * [`daemon`] — [`MixServerDaemon`] (one hop of one chain) and
//!   [`MailboxDaemon`] (one shard), each a single reactor thread
//!   holding thousands of concurrent connections; streamed batch
//!   chunks start hop crypto the moment they arrive;
//! * [`coordinator`] — [`ChainClient`], driving one chain's round state
//!   machine over the wire: submission window → k hops (chunk streams,
//!   pipelined with byte-for-byte relaying to the next hop) →
//!   cross-server proof verification → blame → inner-key reveal, each
//!   phase but the hops and the blame trace asking all daemons at once;
//! * [`remote`] — [`RemoteDeployment`]: the shared round driver
//!   (`xrd_core::backend::run_round`) over the networked `Cluster` —
//!   chain coordinators, mailbox connections and the users' kept
//!   client reactor — so it is the in-process deployment's round with
//!   the servers behind sockets, interchangeable with it by
//!   construction, delivering to every shard at once from the calling
//!   thread; and [`launch_local`] (a whole deployment on loopback, one
//!   port per daemon);
//! * [`swarm`] — the emulated client fleet: a single-threaded client
//!   reactor ([`swarm::reactor`]) pumping 10k–100k per-user connection
//!   state machines (submit → ack, fetch pages → ack) from one epoll
//!   loop — as a value ([`swarm::reactor::ClientReactor`]) a
//!   deployment owns, so its users keep their connections across
//!   rounds — with latency/throughput reporting; [`run_swarm`] drives
//!   whole rounds and [`mailbox_storm`] the mailbox shards with 100k+
//!   users, each fetching her own mailbox
//!   ([`swarm::reactor::fetch_sessions`], the one fetch walk — a
//!   round's fetch phase runs it too);
//! * [`manifest`] — parsed, validated deployment manifests: hosts,
//!   per-process chain/hop/shard placement and ports, all checked
//!   against the seed-derived topology;
//! * [`launcher`] — spawn real `xrd-netd` processes from a manifest
//!   (key ceremony, config files, address discovery) and connect a [`RemoteDeployment`] to them.  See
//!   `docs/DEPLOYMENT.md`;
//! * [`faults`] — the adversarial deployment harness: a seeded,
//!   frame-aware fault-injecting TCP proxy ([`FaultProxy`]) for chaos
//!   testing, complementing the byzantine daemons of [`daemon`] (each
//!   a server telling one `xrd_mixnet::Lie`) and the dispute-based liar
//!   localization in [`coordinator`].  See
//!   `docs/FAULTS.md`.
//!
//! The `xrd-netd` binary wraps the daemons for standalone (multi-
//! process or multi-machine) operation.

#![warn(missing_docs)]

pub mod codec;
pub mod conn;
pub mod coordinator;
pub mod daemon;
pub mod faults;
mod framed;
pub mod launcher;
pub mod manifest;
pub mod reactor;
pub mod remote;
pub mod swarm;

pub use codec::{BatchAssembler, ChunkedBatch, CodecError, Frame, StreamDigest, StreamError};
pub use conn::{Conn, ConnTimeouts, HopReply, NetError};
pub use coordinator::{Agreement, ChainClient, MixPhase, PendingChainRound, RetryPolicy};
pub use daemon::{DaemonHandle, MailboxDaemon, MixServerDaemon, SubmissionPolicy};
pub use faults::{Direction, FaultKind, FaultPlan, FaultProxy, FaultRule};
pub use launcher::{launch_manifest, LaunchedCluster};
pub use manifest::{Manifest, ManifestError};
pub use remote::{
    launch_local, launch_local_faulty_with, launch_local_with_mailbox_faults, LocalCluster,
    RemoteDeployment,
};
pub use swarm::{
    mailbox_storm, run_swarm, MailboxStormConfig, MailboxStormReport, MailboxStormRound,
    SwarmConfig, SwarmReport, SwarmRoundStats,
};
