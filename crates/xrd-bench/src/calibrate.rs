//! Calibration: measure per-operation costs of the *real* crypto
//! implementation on the current machine.
//!
//! These measured costs are what the figure models are priced with —
//! the substitution for the paper's EC2 CPUs (see DESIGN.md).  Every
//! figure binary calibrates first and prints the measured table, so
//! results are self-describing.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_crypto::nizk::{DleqProof, SchnorrProof};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;
use xrd_crypto::{adec, aenc, round_nonce};
use xrd_mixnet::par::ENTRY_CHUNK;
use xrd_mixnet::MAILBOX_MSG_LEN;
use xrd_sim::{OpCosts, SimDuration};

fn time_per_iter<F: FnMut()>(iters: u32, mut f: F) -> SimDuration {
    // Warm up once.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    SimDuration::from_nanos((elapsed.as_nanos() / iters as u128) as u64)
}

/// Measure [`OpCosts`] on this machine.  `quick` trades precision for
/// speed (used in tests); figure binaries use `quick = false`.
pub fn calibrate(quick: bool) -> OpCosts {
    let iters: u32 = if quick { 8 } else { 64 };
    let mut rng = StdRng::seed_from_u64(0xca11b8a7e);

    let point = GroupElement::random(&mut rng);
    let scalar = Scalar::random(&mut rng);
    let mut sink = GroupElement::identity();

    let exp_one_off = time_per_iter(iters, || {
        sink = point.mul(&scalar);
    });

    // What a mix server pays per exponentiation: the hop kernel's two
    // ladders per entry (`X^msk`, `X^bsk`), batched over one worker
    // chunk the way `ChunkKernel::process` runs them.
    let chunk: Vec<GroupElement> = (0..ENTRY_CHUNK)
        .map(|_| GroupElement::random(&mut rng))
        .collect();
    let blind = Scalar::random(&mut rng);
    let mut pairs = Vec::new();
    let per_chunk = time_per_iter(iters, || {
        pairs = GroupElement::batch_mul_pair(&chunk, &scalar, &blind);
    });
    let exp = SimDuration::from_nanos(per_chunk.0 / (2 * ENTRY_CHUNK as u64));

    let other = GroupElement::random(&mut rng);
    let group_add = time_per_iter(iters * 64, || {
        sink = sink.add(&other);
    });

    let key = [7u8; 32];
    let nonce = round_nonce(1, 0);
    let payload = vec![0u8; MAILBOX_MSG_LEN];
    let mut ct = Vec::new();
    let aead = time_per_iter(iters * 8, || {
        ct = aenc(&key, &nonce, b"", &payload);
        let _ = adec(&key, &nonce, b"", &ct);
    });

    let g = GroupElement::generator();
    let x = Scalar::random(&mut rng);
    let gx = GroupElement::base_mul(&x);
    let mut schnorr = None;
    let schnorr_prove = time_per_iter(iters, || {
        schnorr = Some(SchnorrProof::prove(&mut rng, b"cal", &g, &gx, &x));
    });
    let schnorr_proof = schnorr.expect("proved at least once");
    let schnorr_verify = time_per_iter(iters, || {
        assert!(schnorr_proof.verify(b"cal", &g, &gx));
    });

    let b2 = GroupElement::random(&mut rng);
    let p2 = b2.mul(&x);
    let mut dleq = None;
    let dleq_prove = time_per_iter(iters, || {
        dleq = Some(DleqProof::prove(&mut rng, b"cal", &g, &gx, &b2, &p2, &x));
    });
    let dleq_proof = dleq.expect("proved at least once");
    let dleq_verify = time_per_iter(iters, || {
        assert!(dleq_proof.verify(b"cal", &g, &gx, &b2, &p2));
    });

    OpCosts {
        exp,
        exp_one_off,
        group_add,
        aead,
        schnorr_prove,
        schnorr_verify,
        dleq_prove,
        dleq_verify,
    }
}

/// Render the calibration table (printed at the top of every figure).
pub fn format_op_costs(op: &OpCosts) -> String {
    format!(
        "calibrated op costs on this machine:\n\
         \x20 exponentiation      {} (per exponentiation of the batched hop kernel)\n\
         \x20 one-off mul         {} (a single from-scratch ladder; clients)\n\
         \x20 group addition      {}\n\
         \x20 AEAD (seal+open)    {}\n\
         \x20 Schnorr prove       {}\n\
         \x20 Schnorr verify      {}\n\
         \x20 DLEQ prove          {}\n\
         \x20 DLEQ verify         {}",
        op.exp,
        op.exp_one_off,
        op.group_add,
        op.aead,
        op.schnorr_prove,
        op.schnorr_verify,
        op.dleq_prove,
        op.dleq_verify,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_sane_costs() {
        let op = calibrate(true);
        // An exponentiation must cost at least a microsecond and at most
        // ~100 ms on any machine this runs on.
        assert!(op.exp >= SimDuration::from_micros(1), "exp = {}", op.exp);
        assert!(op.exp <= SimDuration::from_millis(100));
        // Batched, an exponentiation costs no more than on its own.
        assert!(op.exp <= op.exp_one_off);
        // Group addition is far cheaper than exponentiation.
        assert!(op.group_add.0 * 10 < op.exp.0);
        // DLEQ costs about twice Schnorr (allow generous noise: the
        // quick calibration uses few iterations).
        assert!(op.dleq_prove.0 * 2 >= op.schnorr_prove.0);
        assert!(op.dleq_verify.0 * 2 >= op.schnorr_verify.0);
        // Formatting works.
        let s = format_op_costs(&op);
        assert!(s.contains("exponentiation"));
    }
}
