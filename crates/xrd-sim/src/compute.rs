//! Server compute model: multi-core makespan for batches of work.
//!
//! The paper's servers are 36-core EC2 instances; each XRD server
//! participates in ~k chains concurrently and parallelizes per-message
//! work across cores.  We model a server as `cores` identical cores and
//! compute the makespan of a set of independent serial tasks using LPT
//! (longest-processing-time-first) greedy scheduling, which is within
//! 4/3 of optimal and matches how a work-stealing thread pool behaves.

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

    /// Makespan of a set of heterogeneous serial tasks under LPT greedy
    /// scheduling.
    pub fn makespan(&self, tasks: &[SimDuration]) -> SimDuration {
        if tasks.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted: Vec<u64> = tasks.iter().map(|d| d.0).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Min-heap of core finish times.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cores: BinaryHeap<Reverse<u64>> = (0..self.cores).map(|_| Reverse(0u64)).collect();
        for t in sorted {
            let Reverse(earliest) = cores.pop().expect("at least one core");
            cores.push(Reverse(earliest + t));
        }
        SimDuration(cores.into_iter().map(|Reverse(t)| t).max().unwrap_or(0))
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
    fn makespan_balances_load() {
        let s = ServerCompute::with_cores(2);
        let tasks = [
            SimDuration(6),
            SimDuration(4),
            SimDuration(3),
            SimDuration(3),
        ];
        // LPT: core1 = 6+3, core2 = 4+3+... => 6/4 -> 3 to core2 (7), 3 to
        // core1 (9)? LPT: sorted 6,4,3,3; 6->c1, 4->c2, 3->c2(7), 3->c1(9).
        // Optimal is 8 (6+3 / 4+3+... no: 16 total / 2 = 8: {6,3,(one of 3)}
        // no — 6+3=9,4+3=7 or 6+4=10.. optimal is {6,3}{4,3} = 9/7 -> 9.
        assert_eq!(s.makespan(&tasks), SimDuration(9));
    }

    #[test]
    fn makespan_empty_is_zero() {
        let s = ServerCompute::c4_8xlarge();
        assert_eq!(s.makespan(&[]), SimDuration::ZERO);
    }

    #[test]
    fn makespan_single_task() {
        let s = ServerCompute::with_cores(8);
        assert_eq!(s.makespan(&[SimDuration(42)]), SimDuration(42));
    }

    #[test]
    fn makespan_many_cores_is_max() {
        let s = ServerCompute::with_cores(100);
        let tasks: Vec<SimDuration> = (1..=10).map(SimDuration).collect();
        assert_eq!(s.makespan(&tasks), SimDuration(10));
    }

    #[test]
    fn nominal_costs_are_sane() {
        let c = OpCosts::nominal();
        assert!(c.exp > c.group_add);
        assert!(c.dleq_verify >= c.schnorr_verify);
    }
}
