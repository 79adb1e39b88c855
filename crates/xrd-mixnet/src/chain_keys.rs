//! AHS key generation for one mix chain (§6.1).
//!
//! Each server holds three key pairs:
//!
//! * a long-term **blinding key** `bsk_i` with public chain
//!   `bpk_i = bpk_{i-1}^{bsk_i}` (so `bpk_i = g^{∏_{a≤i} bsk_a}`),
//! * a long-term **mixing key** `msk_i` with `mpk_i = bpk_{i-1}^{msk_i}`,
//! * a per-round **inner key** `isk_i` with `ipk_i = g^{isk_i}`.
//!
//! Generation is inherently sequential (server `i` needs `bpk_{i-1}` as
//! its base) and every server proves knowledge of its secrets in
//! zero-knowledge; all public keys plus proofs form the
//! [`ChainPublicKeys`] bundle distributed to users and servers.

use rand::RngCore;

use xrd_crypto::nizk::{SchnorrBatchEntry, SchnorrProof};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;

/// One server's secret keys for a chain position.
#[derive(Clone, Debug)]
pub struct ServerSecrets {
    /// Hop position in the chain (0-based).
    pub position: usize,
    /// Blinding secret `bsk_i`.
    pub bsk: Scalar,
    /// Mixing secret `msk_i`.
    pub msk: Scalar,
    /// Per-round inner secret `isk_i`.
    pub isk: Scalar,
}

/// Knowledge proofs published with a server's public keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerKeyProofs {
    /// PoK of `bsk_i = log_{bpk_{i-1}}(bpk_i)`.
    pub bsk_pok: SchnorrProof,
    /// PoK of `msk_i = log_{bpk_{i-1}}(mpk_i)`.
    pub msk_pok: SchnorrProof,
    /// PoK of `isk_i = log_g(ipk_i)`.
    pub isk_pok: SchnorrProof,
}

/// The public key material for a whole chain, as users and verifying
/// servers see it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainPublicKeys {
    /// Epoch the long-term (blinding/mixing) keys were generated in.
    pub epoch: u64,
    /// Epoch of the current inner keys (rotated every round; see
    /// [`rotate_inner_keys`]).
    pub inner_epoch: u64,
    /// `bpk_0 = g, bpk_1, …, bpk_k` (length `k+1`).
    pub bpks: Vec<GroupElement>,
    /// `mpk_1, …, mpk_k` (length `k`).
    pub mpks: Vec<GroupElement>,
    /// `ipk_1, …, ipk_k` (length `k`).
    pub ipks: Vec<GroupElement>,
    /// Per-server key proofs (length `k`).
    pub proofs: Vec<ServerKeyProofs>,
}

impl ChainPublicKeys {
    /// Chain length `k`.
    pub fn len(&self) -> usize {
        self.mpks.len()
    }

    /// True if the chain is empty (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.mpks.is_empty()
    }

    /// The aggregate inner key `∏_i ipk_i` users encrypt the inner
    /// envelope to (§6.2).
    pub fn aggregate_inner_key(&self) -> GroupElement {
        GroupElement::product(&self.ipks)
    }

    /// The blinding base for server `i` (`bpk_{i-1}`; `bpk_0 = g`).
    pub fn blinding_base(&self, position: usize) -> &GroupElement {
        &self.bpks[position]
    }

    /// Verify every server's key-knowledge proof (step run by all
    /// participants before a round starts): the `3k` proofs as one
    /// [`SchnorrProof::batch_verify`], which accepts iff each would.
    pub fn verify(&self) -> bool {
        if self.bpks.len() != self.len() + 1
            || self.ipks.len() != self.len()
            || self.proofs.len() != self.len()
        {
            return false;
        }
        let g = GroupElement::generator();
        if self.bpks[0] != g {
            return false;
        }
        let contexts: Vec<(Vec<u8>, Vec<u8>)> = (0..self.len())
            .map(|i| {
                (
                    keygen_context(self.epoch, i),
                    inner_keygen_context(self.inner_epoch, i),
                )
            })
            .collect();
        let statements: Vec<SchnorrBatchEntry> = (contexts.iter().zip(&self.proofs).enumerate())
            .flat_map(|(i, ((ctx, inner_ctx), p))| {
                let entry = |context, base, public, proof| SchnorrBatchEntry {
                    context,
                    base,
                    public,
                    proof,
                };
                [
                    entry(ctx, self.bpks[i], self.bpks[i + 1], p.bsk_pok),
                    entry(ctx, self.bpks[i], self.mpks[i], p.msk_pok),
                    entry(inner_ctx, g, self.ipks[i], p.isk_pok),
                ]
            })
            .collect();
        SchnorrProof::batch_verify(&statements)
    }
}

fn keygen_context(epoch: u64, position: usize) -> Vec<u8> {
    let mut ctx = b"xrd/chain-keygen".to_vec();
    ctx.extend_from_slice(&epoch.to_le_bytes());
    ctx.extend_from_slice(&(position as u64).to_le_bytes());
    ctx
}

fn inner_keygen_context(inner_epoch: u64, position: usize) -> Vec<u8> {
    let mut ctx = b"xrd/inner-keygen".to_vec();
    ctx.extend_from_slice(&inner_epoch.to_le_bytes());
    ctx.extend_from_slice(&(position as u64).to_le_bytes());
    ctx
}

/// One server's contribution to an inner-key rotation: the new public
/// key plus its knowledge proof (§6.1).  What a server publishes — and,
/// in a networked deployment, what it sends over the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotationShare {
    /// Hop position of the rotating server.
    pub position: usize,
    /// The new `ipk_i = g^{isk_i}`.
    pub ipk: GroupElement,
    /// PoK of the new `isk_i`.
    pub pok: SchnorrProof,
}

/// Generate one server's fresh per-round inner key for `inner_epoch`:
/// the secret stays with the server, the share is published.
pub fn rotation_share<R: RngCore + ?Sized>(
    rng: &mut R,
    position: usize,
    inner_epoch: u64,
) -> (Scalar, RotationShare) {
    let isk = Scalar::random(rng);
    let ipk = GroupElement::base_mul(&isk);
    let ctx = inner_keygen_context(inner_epoch, position);
    let pok = SchnorrProof::prove(rng, &ctx, &GroupElement::generator(), &ipk, &isk);
    (isk, RotationShare { position, ipk, pok })
}

/// Assemble the rotated public bundle from every server's share.
/// Returns `false` (leaving `public` untouched) if the shares are not
/// exactly one valid share per position.
pub fn apply_rotation_shares(
    public: &mut ChainPublicKeys,
    inner_epoch: u64,
    shares: &[RotationShare],
) -> bool {
    if shares.len() != public.len() || (shares.iter().enumerate()).any(|(i, s)| s.position != i) {
        return false;
    }
    let contexts: Vec<Vec<u8>> = (0..shares.len())
        .map(|i| inner_keygen_context(inner_epoch, i))
        .collect();
    let statements: Vec<SchnorrBatchEntry> = (shares.iter().zip(&contexts))
        .map(|(share, context)| SchnorrBatchEntry {
            context,
            base: GroupElement::generator(),
            public: share.ipk,
            proof: share.pok,
        })
        .collect();
    if !SchnorrProof::batch_verify(&statements) {
        return false;
    }
    public.inner_epoch = inner_epoch;
    for (i, share) in shares.iter().enumerate() {
        public.ipks[i] = share.ipk;
        public.proofs[i].isk_pok = share.pok;
    }
    true
}

/// Rotate every server's per-round inner key pair to `inner_epoch`
/// (§6.1: "the inner keys are per-round keys"), refreshing the published
/// `ipk`s and their knowledge proofs.  The in-process composition of
/// [`rotation_share`] + [`apply_rotation_shares`].
pub fn rotate_inner_keys<R: RngCore + ?Sized>(
    rng: &mut R,
    secrets: &mut [ServerSecrets],
    public: &mut ChainPublicKeys,
    inner_epoch: u64,
) {
    let mut shares = Vec::with_capacity(secrets.len());
    for (i, secret) in secrets.iter_mut().enumerate() {
        let (isk, share) = rotation_share(rng, i, inner_epoch);
        secret.isk = isk;
        shares.push(share);
    }
    let ok = apply_rotation_shares(public, inner_epoch, &shares);
    debug_assert!(ok, "locally generated shares must apply");
}

/// Generate the full key chain for `k` servers.  In a deployment each
/// server runs its own step; here the sequential protocol is executed
/// in-process and each server's secrets are returned separately.
pub fn generate_chain_keys<R: RngCore + ?Sized>(
    rng: &mut R,
    k: usize,
    epoch: u64,
) -> (Vec<ServerSecrets>, ChainPublicKeys) {
    assert!(k >= 1);
    let g = GroupElement::generator();
    let mut bpks = vec![g];
    let mut mpks = Vec::with_capacity(k);
    let mut ipks = Vec::with_capacity(k);
    let mut proofs = Vec::with_capacity(k);
    let mut secrets = Vec::with_capacity(k);

    for i in 0..k {
        let bsk = Scalar::random(rng);
        let msk = Scalar::random(rng);
        let isk = Scalar::random(rng);
        let base = bpks[i];
        let bpk = base.mul(&bsk);
        let mpk = base.mul(&msk);
        let ipk = GroupElement::base_mul(&isk);

        let ctx = keygen_context(epoch, i);
        let inner_ctx = inner_keygen_context(epoch, i);
        proofs.push(ServerKeyProofs {
            bsk_pok: SchnorrProof::prove(rng, &ctx, &base, &bpk, &bsk),
            msk_pok: SchnorrProof::prove(rng, &ctx, &base, &mpk, &msk),
            isk_pok: SchnorrProof::prove(rng, &inner_ctx, &g, &ipk, &isk),
        });
        bpks.push(bpk);
        mpks.push(mpk);
        ipks.push(ipk);
        secrets.push(ServerSecrets {
            position: i,
            bsk,
            msk,
            isk,
        });
    }

    (
        secrets,
        ChainPublicKeys {
            epoch,
            inner_epoch: epoch,
            bpks,
            mpks,
            ipks,
            proofs,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_keys_verify() {
        let mut rng = StdRng::seed_from_u64(1);
        let (secrets, public) = generate_chain_keys(&mut rng, 5, 7);
        assert_eq!(secrets.len(), 5);
        assert_eq!(public.len(), 5);
        assert!(public.verify());
    }

    #[test]
    fn key_chain_algebra() {
        // bpk_i = g^{∏ bsk}, mpk_i = bpk_{i-1}^{msk_i}.
        let mut rng = StdRng::seed_from_u64(2);
        let (secrets, public) = generate_chain_keys(&mut rng, 4, 0);
        let mut acc = Scalar::ONE;
        for i in 0..4 {
            assert_eq!(public.bpks[i], GroupElement::base_mul(&acc));
            let expected_mpk = public.bpks[i].mul(&secrets[i].msk);
            assert_eq!(public.mpks[i], expected_mpk);
            acc = acc.mul(&secrets[i].bsk);
        }
        assert_eq!(public.bpks[4], GroupElement::base_mul(&acc));
    }

    #[test]
    fn aggregate_inner_key_is_sum_of_secrets() {
        let mut rng = StdRng::seed_from_u64(3);
        let (secrets, public) = generate_chain_keys(&mut rng, 3, 0);
        let sum = secrets.iter().fold(Scalar::ZERO, |acc, s| acc.add(&s.isk));
        assert_eq!(public.aggregate_inner_key(), GroupElement::base_mul(&sum));
    }

    #[test]
    fn tampered_bundle_fails_verification() {
        let mut rng = StdRng::seed_from_u64(4);
        let (_, mut public) = generate_chain_keys(&mut rng, 3, 0);
        assert!(public.verify());
        // Swap one public key for a random element.
        public.mpks[1] = GroupElement::random(&mut rng);
        assert!(!public.verify());
    }

    #[test]
    fn wrong_epoch_proofs_fail() {
        let mut rng = StdRng::seed_from_u64(5);
        let (_, mut public) = generate_chain_keys(&mut rng, 2, 1);
        public.epoch = 2; // proofs were bound to epoch 1
        assert!(!public.verify());
    }

    #[test]
    fn one_bad_proof_anywhere_fails_the_bundle() {
        // Each of the 3k proofs in turn carries a wrong response; the
        // bundle as a whole refuses, and takes it back once restored.
        let mut rng = StdRng::seed_from_u64(7);
        let (_, mut public) = generate_chain_keys(&mut rng, 3, 0);
        for i in 0..3 {
            for which in 0..3 {
                let honest = public.clone();
                let p = &mut public.proofs[i];
                let proof = match which {
                    0 => &mut p.bsk_pok,
                    1 => &mut p.msk_pok,
                    _ => &mut p.isk_pok,
                };
                proof.response = proof.response.add(&Scalar::ONE);
                assert!(!public.verify(), "server {i}, proof {which}");
                public = honest;
                assert!(public.verify());
            }
        }
    }

    #[test]
    fn one_bad_share_anywhere_fails_the_rotation() {
        let mut rng = StdRng::seed_from_u64(8);
        let (_, mut public) = generate_chain_keys(&mut rng, 3, 0);
        let shares: Vec<RotationShare> = (0..3).map(|i| rotation_share(&mut rng, i, 1).1).collect();
        for bad in 0..3 {
            let mut tampered = shares.clone();
            tampered[bad].pok.response = tampered[bad].pok.response.add(&Scalar::ONE);
            let before = public.clone();
            assert!(
                !apply_rotation_shares(&mut public, 1, &tampered),
                "share {bad}"
            );
            assert_eq!(public, before, "a refused rotation leaves the bundle");
        }
        assert!(apply_rotation_shares(&mut public, 1, &shares));
        assert!(public.verify());
    }

    #[test]
    fn malformed_structure_fails() {
        let mut rng = StdRng::seed_from_u64(6);
        let (_, mut public) = generate_chain_keys(&mut rng, 2, 0);
        public.bpks[0] = GroupElement::random(&mut rng); // must be g
        assert!(!public.verify());
        let (_, mut public2) = generate_chain_keys(&mut rng, 2, 0);
        public2.ipks.pop();
        assert!(!public2.verify());
    }
}
