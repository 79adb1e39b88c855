//! Generators for every figure in the paper's evaluation (§8).
//!
//! Each `figN_*` function returns structured rows; the `fig*` binaries
//! print them alongside the paper's reported values.  XRD numbers come
//! from this repository's implementation (measured directly, or through
//! the calibrated pipeline model); baseline numbers come from structural
//! models priced with the same calibrated costs (Atom, Stadium) or
//! anchored at the baseline's published operating points (Pung) — see
//! `xrd-baselines` and DESIGN.md.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_baselines::{AtomModel, PungModel, PungVariant, StadiumModel};
use xrd_core::churn::simulate_churn;
use xrd_core::cost::{PipelineConfig, PipelineModel, UserCostModel};
use xrd_mixnet::blame::BlameVerdict;
use xrd_mixnet::client::seal_ahs;
use xrd_mixnet::{ChainParty, ChainRunner, MailboxMessage, PAYLOAD_LEN};
use xrd_sim::{OpCosts, ServerCompute};
use xrd_topology::{chain_length, ell_for_chains, Beacon, Topology};

/// Servers sweep used by Figures 2 and 3.
pub const FIG23_SERVERS: [usize; 7] = [50, 100, 250, 500, 1000, 1500, 2000];

/// One row of Figure 2: user bandwidth per round (bytes).
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Number of servers N.
    pub n_servers: usize,
    /// XRD (this implementation's real wire sizes).
    pub xrd: u64,
    /// Pung with XPIR at 1M users.
    pub pung_xpir_1m: u64,
    /// Pung with XPIR at 4M users.
    pub pung_xpir_4m: u64,
    /// Pung with SealPIR.
    pub pung_sealpir: u64,
    /// Stadium.
    pub stadium: u64,
}

/// Figure 2: required user bandwidth vs. number of servers.
pub fn fig2(op: &OpCosts) -> Vec<Fig2Row> {
    let xrd_model = UserCostModel { op: *op };
    let pung = PungModel::default();
    let stadium = StadiumModel::default();
    FIG23_SERVERS
        .iter()
        .map(|&n| Fig2Row {
            n_servers: n,
            xrd: xrd_model.bandwidth_bytes(n, 0.2),
            pung_xpir_1m: pung.user_bandwidth_bytes(PungVariant::Xpir, 1_000_000),
            pung_xpir_4m: pung.user_bandwidth_bytes(PungVariant::Xpir, 4_000_000),
            pung_sealpir: pung.user_bandwidth_bytes(PungVariant::SealPir, 1_000_000),
            stadium: stadium.user_bandwidth_bytes(),
        })
        .collect()
}

/// One row of Figure 3: single-core user computation (seconds).
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Number of servers N.
    pub n_servers: usize,
    /// XRD, **measured** by sealing a real submission for this chain
    /// length and scaling by the 2ℓ submissions per round.
    pub xrd_measured: f64,
    /// XRD per the op-cost model (cross-check).
    pub xrd_model: f64,
    /// Pung XPIR (at 1M users) / SealPIR / Stadium / Atom models.
    pub pung_xpir: f64,
    /// Pung SealPIR client.
    pub pung_sealpir: f64,
    /// Stadium client.
    pub stadium: f64,
    /// Atom client.
    pub atom: f64,
}

/// Figure 3: user computation vs. number of servers.
pub fn fig3(op: &OpCosts) -> Vec<Fig3Row> {
    let mut rng = StdRng::seed_from_u64(3);
    let xrd_model = UserCostModel { op: *op };
    let pung = PungModel::default();
    let stadium = StadiumModel::default();
    let atom = AtomModel::default();

    FIG23_SERVERS
        .iter()
        .map(|&n| {
            let k = chain_length(0.2, n, 64);
            let ell = ell_for_chains(n) as u32;
            // Measure one real submission seal for this k.
            let (_, keys) = xrd_mixnet::generate_chain_keys(&mut rng, k, 0);
            let msg = MailboxMessage {
                mailbox: [1u8; 32],
                sealed: vec![0u8; PAYLOAD_LEN + 16],
            };
            let start = Instant::now();
            let reps = 3;
            for _ in 0..reps {
                let _ = seal_ahs(&mut rng, &keys, 0, &msg);
            }
            let per_seal = start.elapsed().as_secs_f64() / reps as f64;
            Fig3Row {
                n_servers: n,
                xrd_measured: per_seal * (2 * ell) as f64,
                xrd_model: xrd_model.compute_time(n, 0.2).as_secs_f64(),
                pung_xpir: pung.user_compute_secs(PungVariant::Xpir, 1_000_000),
                pung_sealpir: pung.user_compute_secs(PungVariant::SealPir, 1_000_000),
                stadium: stadium.user_compute_secs(op),
                atom: atom.user_compute_secs(op),
            }
        })
        .collect()
}

/// One row of Figures 4/5/6: end-to-end latency (seconds).
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Sweep variable (users in millions for Fig 4; servers for Fig 5;
    /// f for Fig 6).
    pub x: f64,
    /// XRD latency from the calibrated pipeline simulation.
    pub xrd: f64,
    /// XRD normalized so that the (1M users, 100 servers) anchor equals
    /// the paper's 128 s — isolates architectural shape from our
    /// hardware's absolute speed.
    pub xrd_normalized: f64,
    /// Atom model.
    pub atom: f64,
    /// Pung model.
    pub pung: f64,
    /// Stadium model.
    pub stadium: f64,
}

fn xrd_latency(op: &OpCosts, m_users: u64, n_servers: usize, f: f64) -> f64 {
    let k = chain_length(f, n_servers, 64);
    let topo = Topology::build_with(&Beacon::from_u64(42), 0, n_servers, n_servers, k, f);
    let model = PipelineModel::new(&topo, PipelineConfig::paper(*op));
    model.simulate_round(m_users).latency.as_secs_f64()
}

/// The paper's anchor for normalized comparisons: 1M users / 100
/// servers ran in 128 s on the authors' testbed.
pub const PAPER_ANCHOR_SECS: f64 = 128.0;

/// Figure 4: latency vs. number of users (1M–8M), 100 servers, f=0.2.
pub fn fig4(op: &OpCosts) -> Vec<LatencyRow> {
    let compute = ServerCompute::c4_8xlarge();
    let atom = AtomModel::default();
    let pung = PungModel::default();
    let stadium = StadiumModel::default();
    let anchor = xrd_latency(op, 1_000_000, 100, 0.2);
    [1u64, 2, 3, 4, 5, 6, 7, 8]
        .iter()
        .map(|&mm| {
            let m = mm * 1_000_000;
            let xrd = xrd_latency(op, m, 100, 0.2);
            LatencyRow {
                x: mm as f64,
                xrd,
                xrd_normalized: xrd / anchor * PAPER_ANCHOR_SECS,
                atom: atom.latency_secs(m, 100, op, &compute),
                pung: pung.latency_secs(m, 100),
                stadium: stadium.latency_secs(m, 100, op, &compute),
            }
        })
        .collect()
}

/// Figure 5: latency vs. number of servers (50–200), 2M users, f=0.2.
pub fn fig5(op: &OpCosts) -> Vec<LatencyRow> {
    fig5_sweep(op, &[50, 75, 100, 125, 150, 175, 200])
}

/// The §8.2 extrapolation beyond the paper's testbed: the text estimates
/// XRD at 2M users needs ~84 s with 1,000 servers, and that Atom and
/// Pung catch up to XRD at roughly 3,000 and 1,000 servers.
pub fn fig5_extrapolation(op: &OpCosts) -> Vec<LatencyRow> {
    fig5_sweep(op, &[500, 1000, 2000, 3000])
}

fn fig5_sweep(op: &OpCosts, servers: &[usize]) -> Vec<LatencyRow> {
    let compute = ServerCompute::c4_8xlarge();
    let atom = AtomModel::default();
    let pung = PungModel::default();
    let stadium = StadiumModel::default();
    let anchor = xrd_latency(op, 1_000_000, 100, 0.2);
    servers
        .iter()
        .map(|&n| {
            let xrd = xrd_latency(op, 2_000_000, n, 0.2);
            LatencyRow {
                x: n as f64,
                xrd,
                xrd_normalized: xrd / anchor * PAPER_ANCHOR_SECS,
                atom: atom.latency_secs(2_000_000, n, op, &compute),
                pung: pung.latency_secs(2_000_000, n),
                stadium: stadium.latency_secs(2_000_000, n, op, &compute),
            }
        })
        .collect()
}

/// One row of Figure 6: latency vs. assumed malicious fraction f.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Malicious fraction f.
    pub f: f64,
    /// Chain length k(f) from the 2^-64 bound.
    pub chain_len: usize,
    /// XRD latency (seconds), 2M users / 100 servers.
    pub xrd: f64,
    /// Normalized to the paper anchor.
    pub xrd_normalized: f64,
}

/// Figure 6: latency as a function of f (2M users, 100 servers).
pub fn fig6(op: &OpCosts) -> Vec<Fig6Row> {
    let anchor = xrd_latency(op, 1_000_000, 100, 0.2);
    [0.05f64, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
        .iter()
        .map(|&f| {
            let xrd = xrd_latency(op, 2_000_000, 100, f);
            Fig6Row {
                f,
                chain_len: chain_length(f, 100, 64),
                xrd,
                xrd_normalized: xrd / anchor * PAPER_ANCHOR_SECS,
            }
        })
        .collect()
}

/// One row of Figure 7: worst-case blame latency.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Number of malicious users caught in one chain.
    pub malicious_users: u64,
    /// Extrapolated blame latency (seconds) on 36 cores.
    pub latency_secs: f64,
}

/// Figure 7: blame-protocol latency vs. number of malicious users.
///
/// Measures the *real* blame protocol end to end on a full-length chain
/// (k from the paper's f=0.2 bound) with the misauthenticated ciphertext
/// detected at the last server (worst case), then scales linearly in the
/// number of malicious users and divides by the server's cores (blame
/// runs per-ciphertext in parallel, §8.2).
pub fn fig7(quick: bool) -> (f64, Vec<Fig7Row>) {
    let mut rng = StdRng::seed_from_u64(7);
    let k = if quick { 8 } else { chain_length(0.2, 100, 64) };
    let round = 0;
    let mut chain = ChainRunner::new(&mut rng, k, round);

    // A few honest users plus one malicious submission crafted to fail
    // at the *last* hop — the worst case for blame (§8.2: "they cause
    // the most slowdown when the misauthenticated ciphertexts are at
    // the last server").
    let msg = MailboxMessage {
        mailbox: [1u8; 32],
        sealed: vec![0u8; PAYLOAD_LEN + 16],
    };
    let mut subs: Vec<xrd_mixnet::Submission> = (0..8)
        .map(|_| seal_ahs(&mut rng, chain.public(), round, &msg))
        .collect();
    subs[3] = xrd_mixnet::testutil::malicious_submission(&mut rng, chain.public(), round, k - 1);

    // The chain's own mix wave finds the failing hop, then blame is
    // timed.
    let all: Vec<usize> = (0..subs.len()).collect();
    let mut pass = chain.pass(&mut rng, round, &subs);
    let (hops, end) = pass.party.mix(round, &all).expect("in process");
    let (pos, failed) = (hops.len(), end.expect_err("corruption must be detected"));
    assert_eq!(pos, k - 1, "the bad layer is the last hop");
    let idx = failed[0];

    let start = Instant::now();
    let reps = if quick { 1 } else { 4 };
    for _ in 0..reps {
        let verdict = pass.blame(&subs, pos, idx).expect("in process");
        assert_eq!(
            verdict,
            BlameVerdict::MaliciousUser {
                submission_index: 3
            }
        );
    }
    let mut per_user = start.elapsed().as_secs_f64() / reps as f64;
    if quick {
        // Scale the quick (k=8) measurement to the paper's k.
        per_user *= chain_length(0.2, 100, 64) as f64 / k as f64;
    }

    let cores = 36.0;
    let rows = [5_000u64, 20_000, 50_000, 80_000, 100_000]
        .iter()
        .map(|&m| Fig7Row {
            malicious_users: m,
            latency_secs: per_user * m as f64 / cores,
        })
        .collect();
    (per_user, rows)
}

/// One row of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Server churn rate.
    pub churn: f64,
    /// Conversation failure rate per topology size (100, 500, 1000).
    pub failure_by_n: Vec<(usize, f64)>,
}

/// Figure 8: conversation failure rate vs. server churn.
pub fn fig8(quick: bool) -> Vec<Fig8Row> {
    let mut rng = StdRng::seed_from_u64(8);
    let sizes: &[usize] = if quick { &[100] } else { &[100, 500, 1000] };
    let trials = if quick { 10 } else { 60 };
    let topos: Vec<(usize, Topology)> = sizes
        .iter()
        .map(|&n| {
            let k = chain_length(0.2, n, 64);
            (
                n,
                Topology::build_with(&Beacon::from_u64(88), 0, n, n, k, 0.2),
            )
        })
        .collect();
    [0.0f64, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04]
        .iter()
        .map(|&churn| Fig8Row {
            churn,
            failure_by_n: topos
                .iter()
                .map(|(n, topo)| {
                    let r = simulate_churn(&mut rng, topo, churn, trials);
                    (*n, r.conversation_failure_rate)
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op() -> OpCosts {
        // The baseline models are calibrated for measured-class
        // exponentiation costs (~50-60 us on both our machines and the
        // paper's Xeons); shape tests use the same class rather than the
        // conservative nominal placeholder.
        let mut op = OpCosts::nominal();
        op.exp = xrd_sim::SimDuration::from_micros(55);
        op.exp_one_off = op.exp;
        op
    }

    #[test]
    fn fig2_shapes() {
        let rows = fig2(&op());
        assert_eq!(rows.len(), FIG23_SERVERS.len());
        // XRD grows with N; Pung-XPIR dwarfs XRD everywhere; SealPIR is
        // the same order as XRD.
        assert!(rows.last().unwrap().xrd > rows[0].xrd);
        for r in &rows {
            assert!(r.pung_xpir_1m > 10 * r.xrd, "Pung must dwarf XRD");
            assert!(r.pung_xpir_4m > r.pung_xpir_1m);
            assert!(r.stadium < 2048);
        }
    }

    #[test]
    fn fig4_shapes() {
        let rows = fig4(&op());
        // XRD linear-ish in M; Atom slowest; Stadium fastest; Pung
        // superlinear.
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        assert!(last.xrd > 6.0 * first.xrd && last.xrd < 12.0 * first.xrd);
        for r in &rows {
            assert!(r.atom > r.xrd_normalized, "Atom beats XRD at {}M?", r.x);
            assert!(
                r.stadium < r.xrd_normalized * 1.2,
                "Stadium should be fastest (x={})",
                r.x
            );
        }
        // Pung superlinearity: ratio of growth beats linear.
        let pung_growth = last.pung / first.pung;
        let linear_growth = last.x / first.x;
        assert!(pung_growth > 1.5 * linear_growth);
        // Normalization anchors 1M at ~128 s.
        assert!((rows[0].xrd_normalized - PAPER_ANCHOR_SECS).abs() < 1.0);
    }

    #[test]
    fn fig6_chain_length_growth() {
        let rows = fig6(&op());
        // k grows with f; latency follows.
        for pair in rows.windows(2) {
            assert!(pair[1].chain_len >= pair[0].chain_len);
            assert!(pair[1].xrd >= pair[0].xrd * 0.9);
        }
        // k at f=0.2 must be the paper's ~31-32.
        let f02 = rows.iter().find(|r| (r.f - 0.2).abs() < 1e-9).unwrap();
        assert!((30..=33).contains(&f02.chain_len));
    }

    #[test]
    fn fig7_measures_and_scales() {
        let (per_user, rows) = fig7(true);
        assert!(per_user > 0.0);
        // Linear growth in malicious users.
        assert!((rows[4].latency_secs / rows[0].latency_secs - 20.0).abs() < 0.1);
    }

    #[test]
    fn fig8_increases_with_churn() {
        let rows = fig8(true);
        assert_eq!(rows[0].failure_by_n[0].1, 0.0); // zero churn
        let at_1pct = rows
            .iter()
            .find(|r| (r.churn - 0.01).abs() < 1e-9)
            .unwrap()
            .failure_by_n[0]
            .1;
        // Paper: ~27% at 1% churn (k≈31-32).
        assert!((0.15..0.40).contains(&at_1pct), "got {at_1pct}");
        let at_4pct = rows.last().unwrap().failure_by_n[0].1;
        assert!(at_4pct > 0.55, "got {at_4pct}");
    }
}
