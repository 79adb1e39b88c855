//! Calibrated performance models that replace the paper's 200-machine
//! EC2 testbed (§8.2).
//!
//! Two layers:
//!
//! * [`UserCostModel`] — exact user-side accounting (Figures 2 and 3):
//!   bandwidth follows directly from the real wire formats; compute is
//!   operation counts × per-op costs measured on the actual crypto.
//! * [`PipelineModel`] — a discrete-event simulation of a whole XRD
//!   round (Figures 4, 5, 6): each chain is a k-hop pipeline over the
//!   *real sampled topology* (so staggering matters), servers are
//!   multi-core queues, links have the paper's latency/bandwidth, and
//!   per-message work is priced with calibrated [`OpCosts`].
//!
//! The model counts exactly the operations the real implementation in
//! `xrd-mixnet` performs per hop: PoK screening, one DH exponentiation +
//! AEAD open per message, one blinding exponentiation, shuffle, the
//! aggregate DLEQ proof, k−1 aggregate verifications (two group
//! additions per message each), inner-envelope opening at the exit, and
//! all batch transfers.

use xrd_sim::{Engine, NetworkModel, NodeId, OpCosts, ServerCompute, SimDuration, SimTime};
use xrd_topology::{chain_length, ell_for_chains, Topology};

use xrd_crypto::SCHNORR_PROOF_LEN;
use xrd_mixnet::message::{inner_envelope_len, outer_ct_len, MAILBOX_MSG_LEN};

/// Submission wire size for chain length `k` (entry + PoK).
pub fn submission_wire_len(k: usize) -> u64 {
    (32 + outer_ct_len(k) + SCHNORR_PROOF_LEN) as u64
}

/// Mix-entry wire size entering hop `hop` (0-based) of a k-chain.
pub fn entry_wire_len(k: usize, hop: usize) -> u64 {
    (32 + outer_ct_len(k - hop)) as u64
}

/// User-side cost accounting (Figures 2 and 3).
#[derive(Clone, Copy, Debug)]
pub struct UserCostModel {
    /// Calibrated per-operation costs.
    pub op: OpCosts,
}

impl UserCostModel {
    /// Bytes a user transfers per round with `n` servers: `ℓ` current
    /// submissions + `ℓ` cover submissions up (§5.3.3 doubles client
    /// overhead), plus `ℓ` mailbox messages down.
    pub fn bandwidth_bytes(&self, n_servers: usize, f: f64) -> u64 {
        let ell = ell_for_chains(n_servers) as u64;
        let k = chain_length(f, n_servers, 64);
        let up = 2 * ell * submission_wire_len(k);
        let down = ell * (MAILBOX_MSG_LEN as u64);
        up + down
    }

    /// Single-core time to build a round's submissions (current + cover):
    /// per seal, `k+4` exponentiations, `k+2` AEAD seals, and the
    /// mailbox-level seal.  Of the `k+4`, three are **fixed-base** on the
    /// generator (`g^y`, `g^x`, the PoK commitment `g^r` — always table
    /// lookups, `GroupElement::base_mul`) and `k+1` are
    /// **variable-base** (`mpk_i^x` for the `k` outer layers, `(∏ipk)^y`
    /// for the inner envelope): from-scratch ladders when a client
    /// seals one message (`seal_ahs`), table lookups too when many
    /// messages are sealed against the same chain (`ChainSealer`, what
    /// `collect_submissions` does for a whole population — and there,
    /// on a build with the eight-lane field kernel, eight messages
    /// share each table walk and each of the seal's `k+4` Ristretto
    /// encodings: ~30µs a seal at `k = 3` against ~92µs for the same
    /// sealer one message at a time and ~190µs for `seal_ahs`, the
    /// `client_seal` rows of `batch_crypto`).  The model prices all
    /// `k+4` at the one-off variable-base cost `op.exp_one_off`: it is the paper's
    /// single-client figure (§8.1, Fig. 3), where nothing amortizes a
    /// table and no second message fills a lane — the bulk price is a
    /// simulator's price for a population, not a client's.
    pub fn compute_time(&self, n_servers: usize, f: f64) -> SimDuration {
        let ell = ell_for_chains(n_servers) as u64;
        let k = chain_length(f, n_servers, 64) as u64;
        let per_seal = self
            .op
            .exp_one_off
            .scale(k + 4)
            .saturating_add(self.op.aead.scale(k + 2));
        per_seal.scale(2 * ell)
    }
}

/// Parameters of the end-to-end round simulation.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Calibrated per-operation costs.
    pub op: OpCosts,
    /// The network model (defaults to the paper's testbed).
    pub net: NetworkModel,
    /// Per-server compute (defaults to 36-core c4.8xlarge).
    pub compute: ServerCompute,
    /// Whether cover submissions are uploaded in-round (doubles ingest).
    pub cover_traffic: bool,
}

impl PipelineConfig {
    /// Paper testbed with the given op costs.
    pub fn paper(op: OpCosts) -> PipelineConfig {
        PipelineConfig {
            op,
            net: NetworkModel::paper_testbed(7),
            compute: ServerCompute::c4_8xlarge(),
            cover_traffic: true,
        }
    }
}

/// Result of a simulated round.
#[derive(Clone, Debug)]
pub struct RoundEstimate {
    /// End-to-end latency: last submission in → last user fetch done.
    pub latency: SimDuration,
    /// Total simulated events (diagnostics).
    pub events: u64,
    /// Mean per-chain batch size used.
    pub mean_batch: f64,
}

/// Discrete-event model of one XRD round over a concrete topology.
pub struct PipelineModel<'t> {
    topo: &'t Topology,
    cfg: PipelineConfig,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Batch arrives at hop `hop` of `chain` (transfer complete).
    HopArrive { chain: u32, hop: u32 },
    /// Aggregate-proof verification lands on `member` of `chain`.
    Verify { chain: u32, member: u32 },
}

impl<'t> PipelineModel<'t> {
    /// Create a model over a sampled topology.
    pub fn new(topo: &'t Topology, cfg: PipelineConfig) -> PipelineModel<'t> {
        PipelineModel { topo, cfg }
    }

    /// Per-message mixing work at one hop: one DH exponentiation + AEAD
    /// open (decrypt) plus one blinding exponentiation.
    fn per_message_hop(&self) -> SimDuration {
        self.cfg.op.exp.scale(2).saturating_add(self.cfg.op.aead)
    }

    /// Simulate a round with `m_users` users.
    pub fn simulate_round(&self, m_users: u64) -> RoundEstimate {
        let topo = self.topo;
        let cfg = &self.cfg;
        let k = topo.chain_len();
        let n = topo.n_chains();
        assert!(k >= 1 && n >= 1);

        // Per-chain batch sizes from the real selection table.
        let loads = topo.selection.chain_loads(m_users);
        let batches: Vec<u64> = loads.iter().map(|l| l.round() as u64).collect();
        let mean_batch = loads.iter().sum::<f64>() / n as f64;

        // Pseudo-nodes: users aggregate and the mailbox tier.
        let user_node = NodeId(topo.n_servers as u32);
        let mailbox_node = NodeId(topo.n_servers as u32 + 1);

        let mut avail: Vec<SimTime> = vec![SimTime::ZERO; topo.n_servers];
        let mut finish: Vec<SimTime> = vec![SimTime::ZERO; n];

        let mut engine: Engine<Ev> = Engine::new();

        // Ingest: users upload submissions (current + cover) to each
        // chain's first server.
        for (c, chain) in topo.chains.iter().enumerate() {
            let first = chain.members[0];
            let factor = if cfg.cover_traffic { 2 } else { 1 };
            let bytes = batches[c] * submission_wire_len(k) * factor;
            let at = cfg.net.transfer_time(user_node, NodeId(first.0), bytes);
            engine.schedule_at(
                SimTime::ZERO + at,
                Ev::HopArrive {
                    chain: c as u32,
                    hop: 0,
                },
            );
        }

        // Drive the pipeline.
        let per_hop_msg = self.per_message_hop();
        engine.run(|eng, ev| match ev {
            Ev::HopArrive { chain, hop } => {
                let c = chain as usize;
                let h = hop as usize;
                let batch = batches[c];
                let server = topo.chains[c].members[h].0 as usize;

                // Compute at this hop.
                let mut dur = cfg.compute.parallel_batch(batch, per_hop_msg);
                if h == 0 {
                    // PoK screening of the batch.
                    dur = dur
                        .saturating_add(cfg.compute.parallel_batch(batch, cfg.op.schnorr_verify));
                }
                dur = dur.saturating_add(cfg.op.dleq_prove);
                if h + 1 == k {
                    // Exit work: inner-envelope opening (one exp + AEAD
                    // per message) after the inner-key reveal round trip.
                    dur = dur.saturating_add(
                        cfg.compute
                            .parallel_batch(batch, cfg.op.exp.saturating_add(cfg.op.aead)),
                    );
                    dur = dur.saturating_add(cfg.net.max_latency.scale(2));
                }

                let start = eng.now().max(avail[server]);
                let done = start + dur;
                avail[server] = done;

                // Broadcast proof to the other members for verification.
                for (m_idx, member) in topo.chains[c].members.iter().enumerate() {
                    if m_idx == h {
                        continue;
                    }
                    let lat = cfg
                        .net
                        .latency(NodeId(topo.chains[c].members[h].0), NodeId(member.0));
                    engine_schedule(
                        eng,
                        done + lat,
                        Ev::Verify {
                            chain,
                            member: m_idx as u32,
                        },
                    );
                }

                if h + 1 < k {
                    let next = topo.chains[c].members[h + 1];
                    let bytes = batch * entry_wire_len(k, h + 1);
                    let t = cfg.net.transfer_time(
                        NodeId(topo.chains[c].members[h].0),
                        NodeId(next.0),
                        bytes,
                    );
                    engine_schedule(
                        eng,
                        done + t,
                        Ev::HopArrive {
                            chain,
                            hop: hop + 1,
                        },
                    );
                } else {
                    // Deliver to mailboxes.
                    let bytes = batch * (inner_envelope_len() as u64);
                    let t = cfg.net.transfer_time(
                        NodeId(topo.chains[c].members[h].0),
                        mailbox_node,
                        bytes,
                    );
                    finish[c] = done + t;
                }
            }
            Ev::Verify { chain, member } => {
                let c = chain as usize;
                let m = topo.chains[c].members[member as usize].0 as usize;
                let batch = batches[c];
                // Aggregate verification: recompute both products (two
                // group additions per message) plus one DLEQ verify.
                let dur = cfg
                    .compute
                    .parallel_batch(batch, cfg.op.group_add.scale(2))
                    .saturating_add(cfg.op.dleq_verify);
                let start = eng.now().max(avail[m]);
                avail[m] = start + dur;
            }
        });

        // Users fetch: one more one-way latency after the slowest chain.
        let slowest = finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        let fetch = cfg.net.max_latency;
        let latency = (slowest + fetch).since(SimTime::ZERO);

        RoundEstimate {
            latency,
            events: engine.events_processed(),
            mean_batch,
        }
    }
}

/// Borrow-friendly wrapper (the closure already borrows `engine`
/// mutably through its first argument).
fn engine_schedule(engine: &mut Engine<Ev>, at: SimTime, ev: Ev) {
    engine.schedule_at(at, ev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrd_topology::Beacon;

    fn topo(n: usize, k: usize) -> Topology {
        Topology::build_with(&Beacon::from_u64(3), 0, n, n, k, 0.2)
    }

    fn model_cfg() -> PipelineConfig {
        PipelineConfig::paper(OpCosts::nominal())
    }

    #[test]
    fn latency_grows_linearly_with_users() {
        let t = topo(20, 4);
        let model = PipelineModel::new(&t, model_cfg());
        let r1 = model.simulate_round(20_000);
        let r2 = model.simulate_round(40_000);
        let ratio = r2.latency.as_secs_f64() / r1.latency.as_secs_f64();
        assert!(
            (1.5..=2.5).contains(&ratio),
            "expected ~2x latency for 2x users, got {ratio} ({} -> {})",
            r1.latency,
            r2.latency
        );
    }

    #[test]
    fn latency_shrinks_with_more_servers() {
        // XRD scaling: latency ∝ 1/√N (more chains, smaller batches,
        // same k).
        let t_small = topo(25, 4);
        let t_big = topo(100, 4);
        let m = 200_000;
        let l_small = PipelineModel::new(&t_small, model_cfg())
            .simulate_round(m)
            .latency;
        let l_big = PipelineModel::new(&t_big, model_cfg())
            .simulate_round(m)
            .latency;
        assert!(
            l_big < l_small,
            "100 servers ({l_big}) should beat 25 ({l_small})"
        );
        // √(100/25) = 2: expect roughly half the latency (loose bounds —
        // fixed latencies damp the effect).
        let ratio = l_small.as_secs_f64() / l_big.as_secs_f64();
        assert!(ratio > 1.2, "ratio {ratio}");
    }

    #[test]
    fn latency_grows_with_chain_length() {
        let t4 = topo(20, 4);
        let t8 = topo(20, 8);
        let m = 50_000;
        let l4 = PipelineModel::new(&t4, model_cfg())
            .simulate_round(m)
            .latency;
        let l8 = PipelineModel::new(&t8, model_cfg())
            .simulate_round(m)
            .latency;
        assert!(l8 > l4, "k=8 ({l8}) must be slower than k=4 ({l4})");
    }

    #[test]
    fn user_bandwidth_matches_paper_shape() {
        let model = UserCostModel {
            op: OpCosts::nominal(),
        };
        // Bandwidth grows ~√N.
        let b100 = model.bandwidth_bytes(100, 0.2);
        let b2000 = model.bandwidth_bytes(2000, 0.2);
        assert!(b100 > 10_000, "b100 = {b100}");
        assert!(b2000 > b100 * 3 && b2000 < b100 * 10, "b2000 = {b2000}");
        // Paper: ~54 KB at 100 servers, ~238 KB at 2000 — ours counts
        // the same message sets with our (leaner) wire format, so expect
        // the same order of magnitude.
        assert!((10_000..=120_000).contains(&b100));
        assert!((60_000..=500_000).contains(&b2000));
    }

    #[test]
    fn user_compute_below_paper_bound() {
        // §8.1: "less than 0.5 seconds with fewer than 2,000 servers"
        // (on their hardware); our nominal exps are slower, allow 4x.
        let model = UserCostModel {
            op: OpCosts::nominal(),
        };
        let t = model.compute_time(2000, 0.2);
        assert!(t.as_secs_f64() < 2.0, "user compute = {t}");
        // Monotone in N.
        assert!(model.compute_time(100, 0.2) < t);
    }

    #[test]
    fn cover_traffic_increases_ingest() {
        let t = topo(20, 3);
        let mut cfg = model_cfg();
        cfg.cover_traffic = false;
        let without = PipelineModel::new(&t, cfg).simulate_round(100_000).latency;
        let with = PipelineModel::new(&t, model_cfg())
            .simulate_round(100_000)
            .latency;
        assert!(with >= without);
    }

    #[test]
    fn wire_model_matches_real_submissions() {
        // The bandwidth model's sizes must equal the bytes the real
        // client actually produces.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use xrd_mixnet::client::seal_ahs;
        use xrd_mixnet::{generate_chain_keys, MailboxMessage, PAYLOAD_LEN};
        let mut rng = StdRng::seed_from_u64(9);
        for k in [1usize, 2, 4, 8] {
            let (_, keys) = generate_chain_keys(&mut rng, k, 0);
            let msg = MailboxMessage {
                mailbox: [1u8; 32],
                sealed: vec![0u8; PAYLOAD_LEN + 16],
            };
            let sub = seal_ahs(&mut rng, &keys, 0, &msg);
            assert_eq!(
                sub.wire_len() as u64,
                submission_wire_len(k),
                "submission size model wrong for k={k}"
            );
            assert_eq!(sub.to_bytes().len() as u64, submission_wire_len(k));
            assert_eq!(
                sub.to_entry().wire_len() as u64,
                entry_wire_len(k, 0),
                "entry size model wrong for k={k}"
            );
        }
    }

    #[test]
    fn wire_sizes_telescope() {
        // entering hop 0 = full onion; each hop strips one tag.
        let k = 5;
        assert_eq!(entry_wire_len(k, 0) + 32 + 64, submission_wire_len(k) + 32);
        for h in 1..k {
            assert_eq!(entry_wire_len(k, h - 1) - entry_wire_len(k, h), 16);
        }
    }
}
