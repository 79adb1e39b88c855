//! Server compute model: the time a multi-core server takes over a
//! batch of identical per-message work.
//!
//! The paper's servers are 36-core EC2 instances; each XRD server
//! participates in ~k chains concurrently and parallelizes per-message
//! work across cores.  We model a server as `cores` identical cores
//! that split a batch evenly, as a work-stealing thread pool does.

use crate::time::SimDuration;

/// A compute resource with a fixed number of identical cores.
#[derive(Clone, Copy, Debug)]
pub struct ServerCompute {
    /// Number of usable cores.
    pub cores: u32,
}

impl ServerCompute {
    /// The paper's c4.8xlarge instance (36 vCPUs).
    pub fn c4_8xlarge() -> ServerCompute {
        ServerCompute { cores: 36 }
    }

    /// Construct with an explicit core count.
    pub fn with_cores(cores: u32) -> ServerCompute {
        assert!(cores > 0);
        ServerCompute { cores }
    }

    /// Time to run `count` identical unit tasks of duration `each`,
    /// perfectly parallelizable across cores (the per-message crypto
    /// work of a mixing batch).
    pub fn parallel_batch(&self, count: u64, each: SimDuration) -> SimDuration {
        if count == 0 {
            return SimDuration::ZERO;
        }
        let per_core = count.div_ceil(self.cores as u64);
        each.scale(per_core)
    }
}

/// Calibrated per-operation costs of the actual crypto implementation,
/// measured on the machine running the experiments (see
/// `xrd-bench`'s calibration) — the substitute for the paper's EC2 CPUs.
#[derive(Clone, Copy, Debug)]
pub struct OpCosts {
    /// One variable-base exponentiation as a mix server pays it: inside
    /// the batched two-scalar hop kernel, per exponentiation.
    pub exp: SimDuration,
    /// One variable-base exponentiation on its own (a from-scratch
    /// ladder): what a single client pays, with nothing to batch over.
    pub exp_one_off: SimDuration,
    /// One group operation (point addition).
    pub group_add: SimDuration,
    /// AEAD seal/open of one fixed-size message payload.
    pub aead: SimDuration,
    /// One Schnorr proof generation.
    pub schnorr_prove: SimDuration,
    /// One Schnorr verification.
    pub schnorr_verify: SimDuration,
    /// One DLEQ proof generation.
    pub dleq_prove: SimDuration,
    /// One DLEQ verification.
    pub dleq_verify: SimDuration,
}

impl OpCosts {
    /// Rough defaults (order-of-magnitude for a modern x86 core running
    /// this crate); experiments overwrite these with measured values.
    pub fn nominal() -> OpCosts {
        OpCosts {
            exp: SimDuration::from_micros(180),
            exp_one_off: SimDuration::from_micros(180),
            group_add: SimDuration::from_nanos(800),
            aead: SimDuration::from_micros(2),
            schnorr_prove: SimDuration::from_micros(200),
            schnorr_verify: SimDuration::from_micros(400),
            dleq_prove: SimDuration::from_micros(400),
            dleq_verify: SimDuration::from_micros(800),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_batch_divides_across_cores() {
        let s = ServerCompute::with_cores(4);
        let each = SimDuration::from_micros(100);
        assert_eq!(s.parallel_batch(4, each), each);
        assert_eq!(s.parallel_batch(8, each), each.scale(2));
        assert_eq!(s.parallel_batch(9, each), each.scale(3));
        assert_eq!(s.parallel_batch(0, each), SimDuration::ZERO);
    }

    #[test]
    fn single_core_batch_is_serial() {
        let s = ServerCompute::with_cores(1);
        assert_eq!(
            s.parallel_batch(10, SimDuration::from_micros(5)),
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn nominal_costs_are_sane() {
        let c = OpCosts::nominal();
        assert!(c.exp > c.group_add);
        assert!(c.dleq_verify >= c.schnorr_verify);
    }
}
