//! # xrd-sim
//!
//! Deterministic discrete-event simulation substrate for the XRD
//! reproduction.  The paper evaluates on up to 200 EC2 c4.8xlarge
//! instances (36 cores, 10 Gbps) with 40-100 ms RTT injected via `tc`
//! (§8.2); this crate provides the virtual equivalent:
//!
//! * [`Engine`] — a deterministic event queue with virtual time,
//! * [`NetworkModel`] — pairwise latency + bandwidth (the `tc` stand-in),
//! * [`ServerCompute`] / [`OpCosts`] — multi-core batch timing with
//!   per-operation costs calibrated from microbenchmarks of the real
//!   crypto implementation.
//!
//! Protocol logic never lives here; XRD rounds are simulated by driving
//! these primitives from `xrd-core`.

#![warn(missing_docs)]

pub mod compute;
pub mod engine;
pub mod net;
pub mod time;

pub use compute::{OpCosts, ServerCompute};
pub use engine::Engine;
pub use net::{NetworkModel, NodeId};
pub use time::{SimDuration, SimTime};
