//! Atom baseline \[30\]: horizontally scaling anonymous broadcast via long
//! chains of re-encryption mixes.
//!
//! Structural model: Atom routes every message through a random sequence
//! of ~`route_groups` anytrust groups; within a group each of the `k`
//! servers sequentially re-encrypts (2 exponentiations/message) and
//! shuffles the batch.  Total per-message server visits are in the
//! hundreds ("requires the message to be routed through hundreds of
//! servers in series", §2), which is why Atom's latency is an order of
//! magnitude above XRD's despite similar per-hop math.
//!
//! The model is *structural*: it prices hops with the same calibrated
//! [`OpCosts`] as the XRD pipeline model, so XRD-vs-Atom ratios emerge
//! from the architecture rather than from transplanted constants.  The
//! trap-message variant's overhead is a documented multiplier.  The
//! ElGamal hop itself is runnable ([`crate::elgamal::mix_hop`]) and
//! benchmarked.

use xrd_sim::{OpCosts, ServerCompute};

/// Atom deployment/model parameters.
#[derive(Clone, Copy, Debug)]
pub struct AtomModel {
    /// Number of anytrust groups each message traverses.
    pub route_groups: usize,
    /// Servers per group (same anytrust bound as XRD: k ≈ 32 at f=0.2).
    pub group_size: usize,
    /// Exponentiations per message per server.  The trap variant doubles
    /// the message volume (each real message travels with a trap), so
    /// re-encryption costs 2 exps × 2 messages = 4.
    pub exps_per_msg: u64,
    /// Residual overhead of trap checking, inner-group verification and
    /// CoSi aggregation on top of raw re-encryption.  With 2.0, the
    /// model reproduces Atom's published 1M-user/100-server point
    /// (1532 s, Fig. 4) within ~3% when priced with this crate's
    /// measured exponentiation cost.
    pub trap_overhead: f64,
    /// One-way inter-server latency (seconds).
    pub hop_latency_secs: f64,
}

impl Default for AtomModel {
    fn default() -> Self {
        AtomModel {
            route_groups: 10,
            group_size: 32,
            exps_per_msg: 4,
            trap_overhead: 2.0,
            hop_latency_secs: 0.035,
        }
    }
}

impl AtomModel {
    /// End-to-end latency for `m_users` (one message each) over
    /// `n_servers`, priced with calibrated op costs.
    pub fn latency_secs(
        &self,
        m_users: u64,
        n_servers: usize,
        op: &OpCosts,
        compute: &ServerCompute,
    ) -> f64 {
        let groups = (n_servers / self.group_size).max(1);
        let batch = m_users / groups as u64;
        let hop_compute = compute.parallel_batch(batch, op.exp.scale(self.exps_per_msg));
        let per_server = hop_compute.as_secs_f64() + self.hop_latency_secs;
        let serial_servers = (self.route_groups * self.group_size) as f64;
        serial_servers * per_server * self.trap_overhead
    }

    /// Atom's user bandwidth is tiny: one onion-encrypted message
    /// (~32 B payload plus group-element overhead per layer) — well
    /// under a kilobyte per round (Fig. 2 shows it near zero).
    pub fn user_bandwidth_bytes(&self) -> u64 {
        // One ciphertext per hop layer of the entry group.
        (self.group_size as u64) * 32 + 256
    }

    /// Client-side compute: onion-encrypt for one group (k
    /// exponentiations) — milliseconds, flat in N (Fig. 3).
    pub fn user_compute_secs(&self, op: &OpCosts) -> f64 {
        op.exp_one_off.scale(self.group_size as u64).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> (OpCosts, ServerCompute) {
        (OpCosts::nominal(), ServerCompute::c4_8xlarge())
    }

    /// Op costs in the class both the paper's Xeon E5-2666 and the CI
    /// machines measure (~60 µs per exponentiation); the calibration
    /// binaries use real measured values.
    fn measured_like() -> (OpCosts, ServerCompute) {
        let mut op = OpCosts::nominal();
        op.exp = xrd_sim::SimDuration::from_micros(60);
        op.exp_one_off = op.exp;
        (op, ServerCompute::c4_8xlarge())
    }

    #[test]
    fn latency_order_matches_paper() {
        // §8.2 / Fig. 4: Atom ≈ 1532 s at 1M users, 100 servers, when
        // priced with measured-class exponentiation costs.
        let (op, compute) = measured_like();
        let m = AtomModel::default();
        let l = m.latency_secs(1_000_000, 100, &op, &compute);
        assert!(
            (1000.0..2200.0).contains(&l),
            "Atom 1M/100 latency = {l} (expect ~1532)"
        );
    }

    #[test]
    fn latency_linear_in_users() {
        let (op, compute) = nominal();
        let m = AtomModel::default();
        let l1 = m.latency_secs(1_000_000, 100, &op, &compute);
        let l2 = m.latency_secs(2_000_000, 100, &op, &compute);
        let ratio = l2 / l1;
        assert!((1.6..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn latency_scales_inversely_with_servers() {
        let (op, compute) = nominal();
        let m = AtomModel::default();
        let l100 = m.latency_secs(2_000_000, 100, &op, &compute);
        let l200 = m.latency_secs(2_000_000, 200, &op, &compute);
        assert!(l200 < l100);
        // 1/N scaling (minus the fixed network term).
        assert!(l100 / l200 > 1.5, "{l100} vs {l200}");
    }

    #[test]
    fn user_costs_are_small() {
        let (op, _) = nominal();
        let m = AtomModel::default();
        assert!(m.user_bandwidth_bytes() < 2048);
        assert!(m.user_compute_secs(&op) < 0.05);
    }
}
