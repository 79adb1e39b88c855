//! Stadium baseline \[45\]: horizontally scaling *differentially private*
//! messaging built from parallel mix chains with traditional verifiable
//! shuffles.
//!
//! Structural model: messages pass through two layers of 9-server
//! chains; every server runs a Bayer–Groth-class verifiable shuffle
//! (≈8 exponentiations/message to prove, ≈10 to verify — see
//! [`crate::vshuffle`]), with heavy use of batched multi-exponentiation
//! (the documented `multiexp_speedup`).  Stadium's privacy is weaker
//! than XRD's (differential-privacy noise with an ε-budget); its latency is lower — the
//! paper reports XRD ≈ 2× slower at 1M users/100 servers and the gap
//! growing with N (Fig. 4, §8.2).

use xrd_sim::{OpCosts, ServerCompute};

/// Stadium model parameters.
#[derive(Clone, Copy, Debug)]
pub struct StadiumModel {
    /// Servers per mix chain (the paper's evaluation uses 9).
    pub chain_len: usize,
    /// Number of mixing layers (input + output).
    pub layers: usize,
    /// Exponentiations per message for proof generation.
    pub prove_exps: u64,
    /// Exponentiations per message for proof verification.
    pub verify_exps: u64,
    /// Effective speedup of batched multi-exponentiation over naive
    /// per-exponent pricing (Stadium's implementation batches heavily).
    pub multiexp_speedup: f64,
    /// Noise messages added per chain as a fraction of real traffic.
    pub noise_overhead: f64,
    /// One-way inter-server latency (seconds).
    pub hop_latency_secs: f64,
}

impl Default for StadiumModel {
    fn default() -> Self {
        StadiumModel {
            chain_len: 9,
            layers: 2,
            prove_exps: crate::vshuffle::PROVE_EXPS_PER_MSG as u64,
            verify_exps: crate::vshuffle::VERIFY_EXPS_PER_MSG as u64,
            // Naive per-exponent pricing with this crate's measured exp
            // cost lands on Stadium's published 1M/100 point (64 s,
            // Fig. 4) with no batching discount: Stadium's real multiexp
            // savings are offset by noise generation, distribution and
            // coordination we do not price separately.
            multiexp_speedup: 1.0,
            noise_overhead: 0.3,
            hop_latency_secs: 0.035,
        }
    }
}

impl StadiumModel {
    /// End-to-end latency for `m_users` over `n_servers`.
    pub fn latency_secs(
        &self,
        m_users: u64,
        n_servers: usize,
        op: &OpCosts,
        compute: &ServerCompute,
    ) -> f64 {
        let chains = (n_servers / self.chain_len).max(1);
        let batch = ((m_users as f64) * (1.0 + self.noise_overhead) / chains as f64).ceil() as u64;
        let exps_per_msg = self.prove_exps + self.verify_exps;
        let hop_compute = compute
            .parallel_batch(batch, op.exp.scale(exps_per_msg))
            .as_secs_f64()
            / self.multiexp_speedup;
        let hops = (self.chain_len * self.layers) as f64;
        hops * (hop_compute + self.hop_latency_secs)
    }

    /// Stadium user bandwidth: one onion per round plus noise-free
    /// client traffic — under a kilobyte (Fig. 2).
    pub fn user_bandwidth_bytes(&self) -> u64 {
        (self.chain_len as u64) * 48 + 256
    }

    /// Client compute: one onion (≈ chain_len exponentiations).
    pub fn user_compute_secs(&self, op: &OpCosts) -> f64 {
        op.exp_one_off.scale(self.chain_len as u64).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> (OpCosts, ServerCompute) {
        (OpCosts::nominal(), ServerCompute::c4_8xlarge())
    }

    #[test]
    fn latency_order_matches_paper() {
        // Fig. 4: Stadium ≈ 64 s at 1M users / 100 servers.
        let (op, compute) = nominal();
        let m = StadiumModel::default();
        let l = m.latency_secs(1_000_000, 100, &op, &compute);
        assert!((25.0..200.0).contains(&l), "Stadium 1M/100 = {l}");
    }

    #[test]
    fn faster_than_atom_slower_growth_than_pung() {
        let (op, compute) = nominal();
        let stadium = StadiumModel::default();
        let atom = crate::atom::AtomModel::default();
        for m_users in [1_000_000u64, 2_000_000, 4_000_000] {
            let ls = stadium.latency_secs(m_users, 100, &op, &compute);
            let la = atom.latency_secs(m_users, 100, &op, &compute);
            assert!(ls < la, "Stadium ({ls}) must beat Atom ({la})");
        }
    }

    #[test]
    fn latency_linear_in_users() {
        let (op, compute) = nominal();
        let m = StadiumModel::default();
        let l1 = m.latency_secs(1_000_000, 100, &op, &compute);
        let l2 = m.latency_secs(2_000_000, 100, &op, &compute);
        assert!((1.5..2.3).contains(&(l2 / l1)));
    }

    #[test]
    fn small_user_costs() {
        let (op, _) = nominal();
        let m = StadiumModel::default();
        assert!(m.user_bandwidth_bytes() < 1024);
        assert!(m.user_compute_secs(&op) < 0.01);
    }
}
