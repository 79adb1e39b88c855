//! # xrd-bench
//!
//! The benchmark harness that regenerates **every figure** of the XRD
//! paper's evaluation (§8, Figures 2-8):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig2` | user bandwidth vs. #servers |
//! | `fig3` | user computation vs. #servers |
//! | `fig4` | end-to-end latency vs. #users (100 servers) |
//! | `fig5` | latency vs. #servers (2M users) |
//! | `fig6` | latency vs. malicious fraction f |
//! | `fig7` | blame-protocol latency vs. #malicious users |
//! | `fig8` | conversation failure rate vs. server churn |
//! | `all_figures` | everything above, in EXPERIMENTS.md layout |
//!
//! Each binary first runs [`calibrate::calibrate`] to measure the real
//! per-operation costs of this repository's crypto on the current
//! machine, prints the calibration table, then produces the figure's
//! series next to the paper's reported values.  Figure 7 times the
//! blame trace ([`xrd_mixnet::ChainPass::blame`]) of a failure that the
//! chain's own mix wave ran into.
//!
//! The criterion benches in `benches/`, each run by CI's `bench-smoke`
//! job:
//!
//! | bench | what it times |
//! |-------|---------------|
//! | `batch_crypto` | the batched kernels (hop, lanes, fixed base, encode/decode, batch NIZK checks) against their scalar references |
//! | `ahs` | one AHS hop, its aggregate proof check, and §6's AHS vs verifiable-shuffle ablation |
//! | `client_compute` | Figure 3's kernel: sealing for k = 4…32, AHS vs the basic onion |
//! | `baselines` | the Figure 4 baselines' kernels: Atom's re-encrypt-and-shuffle, Pung's PIR scan |
//! | `net_round` | one chain's mix phase over loopback, the mailbox ack herd |

#![warn(missing_docs)]

pub mod calibrate;
pub mod figures;
pub mod report;

pub use calibrate::{calibrate, format_op_costs};
