//! The AHS mix server (§6.3).
//!
//! Per round, server `i` receives a batch of [`MixEntry`]s, and:
//!
//! 1. **decrypts** each ciphertext with the key `X_j^{msk_i}` (halting
//!    and triggering blame on any authentication failure),
//! 2. **blinds** each DH key: `X'_j = X_j^{bsk_i}`,
//! 3. **shuffles** ciphertexts and keys with the same permutation, and
//! 4. emits a Chaum–Pedersen **aggregate proof** that
//!    `(∏_j X_j)^{bsk_i} = ∏_j X'_j`, verifiable by every other server.
//!
//! The server retains its inputs/outputs/permutation for the round so
//! the blame protocol (§6.4) can trace any problem ciphertext backwards.

use rand::Rng;
use rand::RngCore;

use xrd_crypto::aead::{adec_all, round_nonce};
use xrd_crypto::nizk::{DleqBatchEntry, DleqProof};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;

use crate::chain_keys::{ChainPublicKeys, ServerSecrets};
use crate::client::outer_layer_keys;
use crate::message::{domain_outer, MailboxMessage, MixEntry, DOMAIN_INNER};

/// Result of one hop of AHS mixing.
#[derive(Clone, Debug)]
pub struct HopResult {
    /// Shuffled, decrypted, blinded entries for the next hop.
    pub outputs: Vec<MixEntry>,
    /// Aggregate blinding proof (§6.3 step 3).
    pub proof: DleqProof,
}

/// Why a hop refused to complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MixError {
    /// Authenticated decryption failed for these input indices; the
    /// server starts the blame protocol (§6.4).
    DecryptFailure(Vec<usize>),
    /// The batch was malformed (e.g. wrong ciphertext length).
    Malformed,
}

/// Retained state of one hop, kept for blame tracing.
///
/// Only the output *DH keys* are retained: blame reveals need
/// `output_dhs[o]` and the input entries, never the output
/// ciphertexts (a downstream accuser supplies those), so keeping full
/// output entries here would deep-copy every ciphertext per hop for
/// nothing.
#[derive(Clone, Debug)]
pub struct HopState {
    /// Round this state belongs to.
    pub round: u64,
    /// Inputs in arrival order.
    pub inputs: Vec<MixEntry>,
    /// Blinded DH keys in emission order.
    pub output_dhs: Vec<GroupElement>,
    /// `output_dhs[o]` was produced from `inputs[perm[o]]`.
    pub perm: Vec<usize>,
}

/// A mix server for one chain position.
pub struct MixServer {
    secrets: ServerSecrets,
    public: ChainPublicKeys,
    state: Option<HopState>,
}

/// Hop-kernel metric handles, resolved once per process (the kernels
/// are cloned into worker threads per chunk; a registry lookup per
/// chunk would serialize them on the registry mutex).
fn hop_metrics() -> &'static HopMetrics {
    static METRICS: std::sync::OnceLock<HopMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| HopMetrics {
        decrypt_blind_us: xrd_obs::hist("hop.decrypt_blind_us"),
        shuffle_prove_us: xrd_obs::hist("hop.shuffle_prove_us"),
        entries: xrd_obs::counter("hop.entries"),
        decrypt_failures: xrd_obs::counter("hop.err.decrypt_failures"),
    })
}

struct HopMetrics {
    /// Per-chunk decrypt-and-blind latency ([`ChunkKernel::process`]).
    decrypt_blind_us: &'static xrd_obs::Histogram,
    /// Shuffle + aggregate-proof latency per completed hop
    /// ([`MixServer::finish_round`]).
    shuffle_prove_us: &'static xrd_obs::Histogram,
    /// Entries decrypted-and-blinded, total (rate = entries/s).
    entries: &'static xrd_obs::Counter,
    /// Entries whose authenticated decryption failed (blame triggers).
    decrypt_failures: &'static xrd_obs::Counter,
}

/// Fiat–Shamir context for hop proofs: binds round and position.
pub fn hop_context(round: u64, position: usize) -> Vec<u8> {
    let mut ctx = b"xrd/ahs-hop".to_vec();
    ctx.extend_from_slice(&round.to_le_bytes());
    ctx.extend_from_slice(&(position as u64).to_le_bytes());
    ctx
}

/// The per-entry decrypt-and-blind kernel of one hop (§6.3 steps 1-2),
/// detached from [`MixServer`] so it can be cloned into worker threads
/// and run over *chunks* of a batch while later chunks are still in
/// flight — the compute half of a streamed hop.
///
/// A kernel is a snapshot of one server's per-round hop parameters
/// (`msk / 2`, `bsk`, position, round); chunk results are position-stable
/// (`process` returns slots in input order, `None` marking a decrypt
/// failure), so any partition of a batch into chunks reassembles into
/// exactly the serial result.  Feed the collected slots back through
/// [`MixServer::finish_round`] to shuffle, prove and retain blame
/// state.
#[derive(Clone)]
pub struct ChunkKernel {
    /// `msk · 2⁻¹`: the kernel raises to half the mixing key and
    /// encodes the double ([`GroupElement::double_encode_all`]).
    half_msk: Scalar,
    bsk: Scalar,
    position: usize,
    round: u64,
}

impl ChunkKernel {
    /// The hop position this kernel decrypts for.
    pub fn position(&self) -> usize {
        self.position
    }

    /// The round this kernel is bound to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Finish a chunk from its two exponentiations per entry:
    /// `shared[j]` is the encoding of `X_j^{msk_i}` (step 1, keys the
    /// outer layer) and `blinded[j]` is `X_j^{bsk_i}` (step 2, the next
    /// hop's DH key).  The layer keys are derived together and the
    /// layers opened together ([`adec_all`]: every onion of a hop has
    /// one length, so its keystream blocks fill the lanes in lockstep).
    /// `None` marks an authentication failure.
    fn decrypt_and_blind(
        &self,
        entries: &[MixEntry],
        shared: &[[u8; 32]],
        blinded: Vec<GroupElement>,
    ) -> Vec<Option<MixEntry>> {
        let keys = outer_layer_keys(shared, self.round, self.position);
        let cts: Vec<&[u8]> = entries.iter().map(|entry| &entry.ct[..]).collect();
        let nonce = round_nonce(self.round, domain_outer(self.position));
        (adec_all(&keys, &nonce, b"", &cts).into_iter().zip(blinded))
            .map(|(next_ct, dh)| Some(MixEntry { dh, ct: next_ct? }))
            .collect()
    }

    /// Run the kernel over a chunk: raise every entry's DH key to
    /// `msk / 2` and `bsk` in one batch ([`GroupElement::batch_mul_pair`]:
    /// masked constant-time scans, eight entries per field-lane vector
    /// where the lane kernel is compiled in, shared-inversion window
    /// tables elsewhere), encode the doubles of the halves — the
    /// layer-key elements `X^msk` — together
    /// ([`GroupElement::double_encode_all`]: one shared field inversion,
    /// masked the same way — they are secret), then open each entry's
    /// outer layer.  Slot `j` of the result corresponds to
    /// `entries[j]`; `None` marks an authentication failure at that
    /// index.
    pub fn process(&self, entries: &[MixEntry]) -> Vec<Option<MixEntry>> {
        let started = std::time::Instant::now();
        let dhs: Vec<GroupElement> = entries.iter().map(|e| e.dh).collect();
        let (halves, blinded): (Vec<GroupElement>, Vec<GroupElement>) =
            GroupElement::batch_mul_pair(&dhs, &self.half_msk, &self.bsk)
                .into_iter()
                .unzip();
        let shared = GroupElement::double_encode_all(&halves);
        let slots = self.decrypt_and_blind(entries, &shared, blinded);
        let m = hop_metrics();
        m.decrypt_blind_us.record_duration(started.elapsed());
        m.entries.add(entries.len() as u64);
        slots
    }

    /// [`ChunkKernel::process`] chunk by chunk through
    /// [`crate::par::map_entries`]: large batches are handed out across
    /// the cores (the per-entry work is embarrassingly parallel — two
    /// scalar multiplications plus one AEAD open, no shared state),
    /// small ones run on the calling thread.
    pub fn process_parallel(&self, entries: &[MixEntry]) -> Vec<Option<MixEntry>> {
        crate::par::map_entries(entries, |chunk| self.process(chunk))
    }
}

impl MixServer {
    /// Create a server from its secrets plus the chain's public bundle.
    pub fn new(secrets: ServerSecrets, public: ChainPublicKeys) -> MixServer {
        MixServer {
            secrets,
            public,
            state: None,
        }
    }

    /// This server's hop position.
    pub fn position(&self) -> usize {
        self.secrets.position
    }

    /// The chain public keys this server operates under.
    pub fn public(&self) -> &ChainPublicKeys {
        &self.public
    }

    /// Retained hop state (after a successful `process_round`).
    pub fn state(&self) -> Option<&HopState> {
        self.state.as_ref()
    }

    /// Mutable access to the retained state.  Exposed for fault-injection
    /// tests (simulating a server that tampers with its own records); a
    /// deployment never calls this.
    #[doc(hidden)]
    pub fn state_mut(&mut self) -> Option<&mut HopState> {
        self.state.as_mut()
    }

    /// Drop the retained hop state.  Called once the chain's round has
    /// concluded cleanly and the inner keys are revealed: from then on
    /// the §6.4 blame protocol can no longer run for the round, and the
    /// state pins a copy of every input onion.
    pub fn clear_state(&mut self) {
        self.state = None;
    }

    /// This server's secrets (used by the blame-protocol implementation
    /// in this crate).
    pub(crate) fn secrets(&self) -> &ServerSecrets {
        &self.secrets
    }

    /// Snapshot this server's decrypt-and-blind kernel for `round` —
    /// the cloneable compute half of a hop, for streamed (chunk-at-a-
    /// time) processing off the serving thread.
    pub fn chunk_kernel(&self, round: u64) -> ChunkKernel {
        ChunkKernel {
            half_msk: self.secrets.msk.half(),
            bsk: self.secrets.bsk,
            position: self.secrets.position,
            round,
        }
    }

    /// Run the §6.3 hop on a batch.  On success returns shuffled outputs
    /// plus the aggregate proof and retains state for blame; on
    /// decryption failure returns the offending indices *and* retains the
    /// inputs so the blame protocol can reference them.
    ///
    /// The per-entry decrypt+blind work is embarrassingly parallel (two
    /// scalar multiplications plus one AEAD open per entry, no shared
    /// state), so batches are chunked across the cores
    /// ([`ChunkKernel::process_parallel`]) — the in-process analogue of
    /// a real server's worker cores.
    pub fn process_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        round: u64,
        inputs: Vec<MixEntry>,
    ) -> Result<HopResult, MixError> {
        // Per-entry results in input order; `None` marks a decrypt
        // failure at that index.
        let slots = self.chunk_kernel(round).process_parallel(&inputs);
        self.finish_round(rng, round, inputs, slots)
    }

    /// Complete a hop whose decrypt-and-blind slots were computed
    /// elsewhere — the assembly half of a *streamed* hop.  `slots[j]`
    /// must be [`ChunkKernel::process`]'s result for `inputs[j]`
    /// (`None` = authentication failure at `j`); any chunking of the
    /// batch is acceptable as long as the reassembled slots are in
    /// input order.  Shuffles, proves the aggregate blinding relation,
    /// and retains the hop state for blame — exactly as
    /// [`MixServer::process_round`] would have (which is implemented on
    /// top of this).
    pub fn finish_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        round: u64,
        inputs: Vec<MixEntry>,
        slots: Vec<Option<MixEntry>>,
    ) -> Result<HopResult, MixError> {
        if slots.len() != inputs.len() {
            return Err(MixError::Malformed);
        }
        let position = self.secrets.position;
        let mut processed = Vec::with_capacity(inputs.len());
        let mut failures = Vec::new();
        for (j, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(entry) => processed.push(entry),
                None => failures.push(j),
            }
        }

        if !failures.is_empty() {
            hop_metrics().decrypt_failures.add(failures.len() as u64);
            // Halt: retain inputs so blame can run against them.
            self.state = Some(HopState {
                round,
                output_dhs: Vec::new(),
                perm: Vec::new(),
                inputs,
            });
            return Err(MixError::DecryptFailure(failures));
        }
        let started = std::time::Instant::now();

        // Step 3: shuffle keys and ciphertexts with one permutation.
        let mut perm: Vec<usize> = (0..processed.len()).collect();
        // Fisher-Yates.
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let outputs: Vec<MixEntry> = perm.iter().map(|&src| processed[src].clone()).collect();

        // Step 4: aggregate blinding proof.
        let prod_in = GroupElement::product(inputs.iter().map(|e| &e.dh));
        let prod_out = GroupElement::product(outputs.iter().map(|e| &e.dh));
        debug_assert_eq!(prod_in.mul(&self.secrets.bsk), prod_out);
        let proof = DleqProof::prove(
            rng,
            &hop_context(round, position),
            &prod_in,
            &prod_out,
            self.public.blinding_base(position),
            &self.public.bpks[position + 1],
            &self.secrets.bsk,
        );

        // The state shares no ciphertexts with the result: it records
        // only the blinded keys (all blame ever needs), so the round's
        // onions are materialized exactly once.
        self.state = Some(HopState {
            round,
            inputs,
            output_dhs: outputs.iter().map(|e| e.dh).collect(),
            perm,
        });
        hop_metrics()
            .shuffle_prove_us
            .record_duration(started.elapsed());
        Ok(HopResult { outputs, proof })
    }

    /// Reveal the per-round inner key (§6.3, after the last hop verifies).
    pub fn reveal_inner_key(&self) -> Scalar {
        self.secrets.isk
    }
}

/// Verify one hop's aggregate proof (run by every other server in the
/// chain, §6.3 step 3).
pub fn verify_hop(
    public: &ChainPublicKeys,
    position: usize,
    round: u64,
    inputs: &[MixEntry],
    outputs: &[MixEntry],
    proof: &DleqProof,
) -> bool {
    if inputs.len() != outputs.len() {
        return false;
    }
    verify_hop_keys(
        public,
        position,
        round,
        inputs.iter().map(|e| &e.dh),
        outputs.iter().map(|e| &e.dh),
        proof,
    )
}

/// [`verify_hop`] over bare DH keys.  The §6.3 aggregate attestation
/// states a relation between the *products of the DH keys* only — the
/// ciphertexts never enter the proof statement — so a verifier that
/// receives just the input/output key columns (what the streamed wire
/// protocol ships, ~8× fewer bytes than full entries) checks exactly
/// the same statement as one holding full entries.
pub fn verify_hop_keys<'a>(
    public: &ChainPublicKeys,
    position: usize,
    round: u64,
    input_dhs: impl Iterator<Item = &'a GroupElement>,
    output_dhs: impl Iterator<Item = &'a GroupElement>,
    proof: &DleqProof,
) -> bool {
    let prod_in = GroupElement::product(input_dhs);
    let prod_out = GroupElement::product(output_dhs);
    proof.verify(
        &hop_context(round, position),
        &prod_in,
        &prod_out,
        public.blinding_base(position),
        &public.bpks[position + 1],
    )
}

/// One hop's attestation record for batched verification: the two DH-key
/// columns the §6.3 statement is over and the proof binding them.  The
/// ciphertexts never enter the statement, so a verifier holds columns,
/// whoever carried the batch.
#[derive(Clone, Debug)]
pub struct HopRecord<'a> {
    /// Hop position of the proving server.
    pub position: usize,
    /// DH keys of the hop's inputs in arrival order.
    pub input_dhs: &'a [GroupElement],
    /// DH keys of the hop's outputs in emission order.
    pub output_dhs: &'a [GroupElement],
    /// The aggregate blinding proof for this hop.
    pub proof: DleqProof,
}

impl HopRecord<'_> {
    /// Whether this record holds for `round` under `public`: the
    /// position is one of the chain's, the two columns have one length,
    /// and the §6.3 proof verifies.  Safe on records off the wire — a
    /// bad position or length is a `false`, never a panic.
    pub fn verify(&self, public: &ChainPublicKeys, round: u64) -> bool {
        self.position < public.len()
            && self.input_dhs.len() == self.output_dhs.len()
            && verify_hop_keys(
                public,
                self.position,
                round,
                self.input_dhs.iter(),
                self.output_dhs.iter(),
                &self.proof,
            )
    }
}

/// One hop's §6.3 statement as it crosses the wire: the round, the
/// prover's position, the DH-key columns it consumed and emitted, and
/// the proof binding them.  A cross-server check, a forwarding hop's
/// report and a dispute all carry exactly this.
#[derive(Clone, Debug, PartialEq)]
pub struct HopAttestation {
    /// The round the hop ran in.
    pub round: u64,
    /// Hop position of the proving server.
    pub position: usize,
    /// DH keys of the hop's inputs in arrival order.
    pub input_dhs: Vec<GroupElement>,
    /// DH keys of the hop's outputs in emission order.
    pub output_dhs: Vec<GroupElement>,
    /// The aggregate blinding proof for this hop.
    pub proof: DleqProof,
}

impl HopAttestation {
    /// The statement as a [`HopRecord`], borrowing the columns.
    pub fn record(&self) -> HopRecord<'_> {
        HopRecord {
            position: self.position,
            input_dhs: &self.input_dhs,
            output_dhs: &self.output_dhs,
            proof: self.proof,
        }
    }

    /// Whether the attestation holds under `public`
    /// ([`HopRecord::verify`] at its own round).
    pub fn verify(&self, public: &ChainPublicKeys) -> bool {
        self.record().verify(public, self.round)
    }
}

/// Verify all `k` hop proofs of a chain in a single batched DLEQ call
/// ([`DleqProof::batch_verify`]): one multiscalar multiplication
/// replaces `k` sequential proof verifications.  Everything checked
/// here is public wire data, so the variable-time batch engine is safe.
///
/// Returns `false` if any hop's batch is malformed (length mismatch)
/// or if the combined verification fails (meaning at least one hop
/// proof is invalid — callers wanting to identify *which* re-check
/// hops individually with [`HopRecord::verify`]).
pub fn verify_hops_batched(public: &ChainPublicKeys, round: u64, hops: &[HopRecord]) -> bool {
    verify_hops_batched_multi(&[ChainAudit {
        public,
        round,
        hops,
    }])
}

/// One chain's clean-pass hop attestations plus the bundle to check
/// them against: the per-chain unit of the deployment-level audit.
#[derive(Clone, Debug)]
pub struct ChainAudit<'a> {
    /// The chain's active public key bundle.
    pub public: &'a ChainPublicKeys,
    /// The round being audited.
    pub round: u64,
    /// The chain's hop records in position order.
    pub hops: &'a [HopRecord<'a>],
}

/// Fold the hop proofs of *several chains* — a whole deployment round,
/// `n_chains × k` statements — into one batched DLEQ verification.
/// Chains stay cryptographically independent because each statement
/// carries its own bases and publics from its own bundle, all of which
/// the DLEQ challenge absorbs — that base binding, not the
/// [`hop_context`] (which two chains at the same round and position
/// share), is what disambiguates chains in the combined batch.  A
/// single random-linear-combination multiscalar mul then checks them
/// all at once; the coordinator's per-round audit cost becomes one MSM
/// for the entire deployment instead of one per chain.
///
/// Returns `false` if any hop anywhere is malformed or any proof in
/// the combined batch is invalid.  Callers re-check per chain (or per
/// hop, [`HopRecord::verify`]) to localize a failure.
pub fn verify_hops_batched_multi(chains: &[ChainAudit<'_>]) -> bool {
    for chain in chains {
        if chain
            .hops
            .iter()
            .any(|hop| hop.input_dhs.len() != hop.output_dhs.len())
        {
            return false;
        }
    }
    let contexts: Vec<Vec<u8>> = chains
        .iter()
        .flat_map(|chain| {
            chain
                .hops
                .iter()
                .map(|hop| hop_context(chain.round, hop.position))
        })
        .collect();
    let statements: Vec<DleqBatchEntry> = chains
        .iter()
        .flat_map(|chain| chain.hops.iter().map(move |hop| (chain, hop)))
        .zip(&contexts)
        .map(|((chain, hop), ctx)| DleqBatchEntry {
            context: ctx,
            base1: GroupElement::product(hop.input_dhs),
            public1: GroupElement::product(hop.output_dhs),
            base2: *chain.public.blinding_base(hop.position),
            public2: chain.public.bpks[hop.position + 1],
            proof: hop.proof,
        })
        .collect();
    DleqProof::batch_verify(&statements)
}

/// Check a revealed inner key against the chain's public bundle.
pub fn verify_inner_key(public: &ChainPublicKeys, position: usize, isk: &Scalar) -> bool {
    GroupElement::base_mul(isk) == public.ipks[position]
}

/// After all `k` hops and inner-key reveals, open the inner envelopes
/// (last step of §6.3).  Entries whose envelope fails to parse or
/// decrypt yield `None` (possible only for malicious submissions — an
/// honest user's envelope always opens).
///
/// Each envelope's key comes from the encoding of `g^(y·isk_sum)`: the
/// batch raises every `g^y` to `isk_sum / 2` and encodes the doubles
/// together ([`GroupElement::double_encode_all`], one shared field
/// inversion for the chunk).
pub fn open_batch(
    inner_keys: &[Scalar],
    round: u64,
    entries: &[MixEntry],
) -> Vec<Option<MailboxMessage>> {
    let isk_sum = inner_keys.iter().fold(Scalar::ZERO, |a, s| a.add(s));
    // Only envelopes whose ephemeral key parses take a place in the
    // batch; `at` remembers where each came from.  The keys are decoded
    // together (`decode_all`: eight per inverse square root where the
    // lane kernel is compiled in).
    let (at, encoded): (Vec<usize>, Vec<[u8; 32]>) = entries
        .iter()
        .enumerate()
        .filter_map(|(j, entry)| Some((j, *entry.ct.first_chunk::<32>()?)))
        .unzip();
    let (at, ephemerals): (Vec<usize>, Vec<GroupElement>) = at
        .into_iter()
        .zip(GroupElement::decode_all(&encoded))
        .filter_map(|(j, gy)| Some((j, gy?)))
        .unzip();
    // The inner keys are public once revealed (§6.3 broadcasts them),
    // so the variable-time ladder is safe here.
    let halves = GroupElement::batch_vartime_mul(&ephemerals, &isk_sum.half());
    let shared = GroupElement::double_encode_all(&halves);
    let envelopes: Vec<&[u8]> = at.iter().map(|&j| &entries[j].ct[32..]).collect();
    let plaintexts = adec_all(
        &crate::client::inner_keys(&shared, round),
        &round_nonce(round, DOMAIN_INNER),
        b"",
        &envelopes,
    );
    let mut opened = vec![None; entries.len()];
    for (j, plaintext) in at.into_iter().zip(plaintexts) {
        opened[j] = plaintext.and_then(|plaintext| MailboxMessage::from_bytes(&plaintext));
    }
    opened
}

/// The chain-level tail of a clean round, the same wherever the
/// servers live: check every revealed inner key against the published
/// bundle ([`verify_inner_key`]) and only then open the final batch
/// ([`open_batch`], fanned out like the other per-entry phases).
/// `Err(position)` names the first server whose revealed key is not the
/// one it published; nothing is opened then.
///
/// An envelope that does not open is dropped here and nowhere else.
pub fn open_revealed(
    public: &ChainPublicKeys,
    round: u64,
    inner_keys: &[Scalar],
    entries: &[MixEntry],
) -> Result<Vec<MailboxMessage>, usize> {
    if let Some(liar) =
        (0..inner_keys.len()).find(|&pos| !verify_inner_key(public, pos, &inner_keys[pos]))
    {
        return Err(liar);
    }
    let opened = crate::par::map_entries(entries, |chunk| open_batch(inner_keys, round, chunk));
    Ok(opened.into_iter().flatten().collect())
}

/// Digest of a batch for input agreement (§6.3: "sorting the users'
/// ciphertexts, hashing them ... and comparing the hashes").
pub fn input_digest(entries: &[MixEntry]) -> [u8; 32] {
    let mut serialized: Vec<Vec<u8>> = MixEntry::batch_to_bytes(entries);
    serialized.sort();
    let mut h = xrd_crypto::Blake2b::new(32);
    h.update(b"xrd/input-agreement");
    h.update(&(serialized.len() as u64).to_le_bytes());
    for s in &serialized {
        h.update(s);
    }
    h.finalize_32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_keys::generate_chain_keys;
    use crate::client::{seal_ahs, Submission};
    use crate::message::{MAILBOX_MSG_LEN, PAYLOAD_LEN};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xrd_crypto::TAG_LEN;

    fn msg(tag: u8) -> MailboxMessage {
        MailboxMessage {
            mailbox: [tag; 32],
            sealed: vec![tag; PAYLOAD_LEN + TAG_LEN],
        }
    }

    #[test]
    fn full_chain_mixes_and_delivers() {
        let mut rng = StdRng::seed_from_u64(1);
        let k = 3;
        let round = 9;
        let (secrets, public) = generate_chain_keys(&mut rng, k, round);
        let msgs: Vec<MailboxMessage> = (0..8).map(|i| msg(i as u8)).collect();
        let subs: Vec<Submission> = msgs
            .iter()
            .map(|m| seal_ahs(&mut rng, &public, round, m))
            .collect();

        let mut servers: Vec<MixServer> = secrets
            .into_iter()
            .map(|s| MixServer::new(s, public.clone()))
            .collect();

        let mut entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        for (pos, server) in servers.iter_mut().enumerate() {
            let before = entries.clone();
            let result = server.process_round(&mut rng, round, entries).unwrap();
            assert!(verify_hop(
                &public,
                pos,
                round,
                &before,
                &result.outputs,
                &result.proof
            ));
            entries = result.outputs;
        }

        let inner: Vec<Scalar> = servers.iter().map(|s| s.reveal_inner_key()).collect();
        for (pos, key) in inner.iter().enumerate() {
            assert!(verify_inner_key(&public, pos, key));
        }
        let opened = open_batch(&inner, round, &entries);
        let mut delivered: Vec<MailboxMessage> = opened
            .into_iter()
            .map(|m| m.expect("honest message opens"))
            .collect();
        // Set equality with the original messages (order is shuffled).
        let sort_key = |m: &MailboxMessage| m.mailbox;
        delivered.sort_by_key(sort_key);
        let mut expected = msgs.clone();
        expected.sort_by_key(sort_key);
        assert_eq!(delivered, expected);
    }

    #[test]
    fn hop_output_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(2);
        let round = 1;
        let (secrets, public) = generate_chain_keys(&mut rng, 1, round);
        let subs: Vec<Submission> = (0..20)
            .map(|i| seal_ahs(&mut rng, &public, round, &msg(i as u8)))
            .collect();
        let mut server = MixServer::new(secrets.into_iter().next().unwrap(), public);
        let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let result = server.process_round(&mut rng, round, entries).unwrap();
        let state = server.state().unwrap();
        // perm is a permutation
        let mut seen = [false; 20];
        for &p in &state.perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        // outputs follow the permutation (blinded dh of input perm[o])
        let bsk = server.secrets().bsk;
        for (o, out) in result.outputs.iter().enumerate() {
            let src = state.perm[o];
            assert_eq!(out.dh, state.inputs[src].dh.mul(&bsk));
        }
    }

    #[test]
    fn garbage_ciphertext_is_detected() {
        let mut rng = StdRng::seed_from_u64(3);
        let round = 4;
        let (secrets, public) = generate_chain_keys(&mut rng, 2, round);
        let mut subs: Vec<Submission> = (0..5)
            .map(|i| seal_ahs(&mut rng, &public, round, &msg(i as u8)))
            .collect();
        // User 3 submits garbage (valid DH key + PoK, broken ciphertext).
        for b in subs[3].ct.iter_mut() {
            *b ^= 0xff;
        }
        let mut server = MixServer::new(secrets.into_iter().next().unwrap(), public);
        let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        match server.process_round(&mut rng, round, entries) {
            Err(MixError::DecryptFailure(idx)) => assert_eq!(idx, vec![3]),
            other => panic!("expected decrypt failure, got {other:?}"),
        }
    }

    #[test]
    fn parallel_hop_preserves_order_and_failure_indices() {
        // A batch of several worker chunks fanned out over three
        // workers, with corrupted entries scattered across them: the
        // failure indices must come back exactly and in input order.
        let mut rng = StdRng::seed_from_u64(40);
        let round = 6;
        let (secrets, public) = generate_chain_keys(&mut rng, 1, round);
        let n = 4 * crate::par::ENTRY_CHUNK;
        let mut subs: Vec<Submission> = (0..n)
            .map(|i| seal_ahs(&mut rng, &public, round, &msg(i as u8)))
            .collect();
        let bad: Vec<usize> = vec![1, n / 2, n - 1];
        for &i in &bad {
            subs[i].ct[0] ^= 0xaa;
        }
        let mut server = MixServer::new(secrets.into_iter().next().unwrap(), public);
        let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let outcome =
            crate::par::with_workers(3, || server.process_round(&mut rng, round, entries));
        match outcome {
            Err(MixError::DecryptFailure(idx)) => assert_eq!(idx, bad),
            other => panic!("expected decrypt failure, got {other:?}"),
        }
    }

    #[test]
    fn parallel_and_serial_hop_agree() {
        // Same server, same batch: the parallel path must produce exactly
        // the per-entry results of the serial path (before shuffling,
        // which is the only randomized step).
        let mut rng = StdRng::seed_from_u64(41);
        let round = 1;
        let (secrets, public) = generate_chain_keys(&mut rng, 1, round);
        let n = 3 * crate::par::ENTRY_CHUNK;
        let subs: Vec<Submission> = (0..n)
            .map(|i| seal_ahs(&mut rng, &public, round, &msg(i as u8)))
            .collect();
        let server = MixServer::new(secrets.into_iter().next().unwrap(), public);
        let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let kernel = server.chunk_kernel(round);
        let expected: Vec<Option<MixEntry>> = entries
            .chunks(5) // deliberately different chunking than the workers
            .flat_map(|chunk| kernel.process(chunk))
            .collect();
        // Re-run through process_round, fanned out over two workers,
        // and undo the shuffle via the recorded permutation.
        let mut server2 = server;
        let result =
            crate::par::with_workers(2, || server2.process_round(&mut rng, round, entries))
                .unwrap();
        let state = server2.state().unwrap();
        let mut unshuffled: Vec<Option<MixEntry>> = vec![None; n];
        for (o, out) in result.outputs.iter().enumerate() {
            unshuffled[state.perm[o]] = Some(out.clone());
        }
        assert_eq!(unshuffled, expected);
    }

    #[test]
    fn aggregate_proof_fails_if_entry_replaced() {
        // A malicious first server swaps in its own entry; the product
        // relation breaks so the honest verifier rejects the proof.
        let mut rng = StdRng::seed_from_u64(4);
        let round = 2;
        let (secrets, public) = generate_chain_keys(&mut rng, 2, round);
        let subs: Vec<Submission> = (0..6)
            .map(|i| seal_ahs(&mut rng, &public, round, &msg(i as u8)))
            .collect();
        let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let mut server = MixServer::new(secrets.into_iter().next().unwrap(), public.clone());
        let before = entries.clone();
        let mut result = server.process_round(&mut rng, round, entries).unwrap();
        // Tamper post-hoc with one output (as a malicious server would
        // when replacing a user's message with its own).
        result.outputs[0].dh = GroupElement::random(&mut rng);
        assert!(!verify_hop(
            &public,
            0,
            round,
            &before,
            &result.outputs,
            &result.proof
        ));
    }

    #[test]
    fn dropping_an_entry_breaks_verification() {
        let mut rng = StdRng::seed_from_u64(5);
        let round = 2;
        let (secrets, public) = generate_chain_keys(&mut rng, 1, round);
        let subs: Vec<Submission> = (0..4)
            .map(|i| seal_ahs(&mut rng, &public, round, &msg(i as u8)))
            .collect();
        let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let mut server = MixServer::new(secrets.into_iter().next().unwrap(), public.clone());
        let before = entries.clone();
        let mut result = server.process_round(&mut rng, round, entries).unwrap();
        result.outputs.pop();
        assert!(!verify_hop(
            &public,
            0,
            round,
            &before,
            &result.outputs,
            &result.proof
        ));
    }

    #[test]
    fn server_key_exchange_matches_user_key() {
        // DH(X_i, msk_i) == user's DH(mpk_i, x) at every hop — the AHS
        // correctness identity of §6.3.
        let mut rng = StdRng::seed_from_u64(6);
        let k = 4;
        let (secrets, public) = generate_chain_keys(&mut rng, k, 0);
        let x = Scalar::random(&mut rng);
        let mut x_i = GroupElement::base_mul(&x);
        for i in 0..k {
            let server_side = x_i.mul(&secrets[i].msk);
            let user_side = public.mpks[i].mul(&x);
            assert_eq!(server_side, user_side, "hop {i}");
            x_i = x_i.mul(&secrets[i].bsk);
        }
    }

    #[test]
    fn open_batch_handles_junk() {
        let (_, _) = (0, 0);
        let junk = MixEntry {
            dh: GroupElement::identity(),
            ct: vec![0u8; MAILBOX_MSG_LEN + TAG_LEN + 32],
        };
        let opened = open_batch(&[Scalar::ONE], 0, &[junk]);
        assert_eq!(opened, vec![None]);
        // Too-short ciphertext
        let short = MixEntry {
            dh: GroupElement::identity(),
            ct: vec![0u8; 8],
        };
        assert_eq!(open_batch(&[Scalar::ONE], 0, &[short]), vec![None]);
    }

    #[test]
    fn open_batch_keeps_positions_around_interleaved_junk() {
        // Envelopes that never reach the ladder (too short, ephemeral
        // key not a group element) and ones that do but fail to open
        // (valid key, junk ciphertext) between good ones, across more
        // than one eight-wide group: every good message comes back at
        // its own index, every bad one is `None` at its own.
        let mut rng = StdRng::seed_from_u64(60);
        let round = 5;
        let (secrets, public) = generate_chain_keys(&mut rng, 2, round);
        let inner: Vec<Scalar> = secrets.iter().map(|s| s.isk).collect();
        let n = 21;
        let short = [2usize, 9];
        let undecodable = [0usize, 10, 20];
        let junk = [5usize, 11, 12];
        let good = |j: usize| ![&short[..], &undecodable, &junk].concat().contains(&j);
        // Peel both outer layers kernel by kernel (no shuffle), so
        // entry j still carries message j's inner envelope.
        let mut entries: Vec<MixEntry> = (0..n)
            .map(|j| seal_ahs(&mut rng, &public, round, &msg(j as u8)).to_entry())
            .collect();
        for secrets in secrets {
            let kernel = MixServer::new(secrets, public.clone()).chunk_kernel(round);
            entries = kernel.process(&entries).into_iter().flatten().collect();
        }
        assert_eq!(entries.len(), n);
        for (j, entry) in entries.iter_mut().enumerate() {
            if short.contains(&j) {
                entry.ct.truncate(17);
            } else if undecodable.contains(&j) {
                entry.ct[..32].fill(0xff); // s >= p: not canonical
            } else if junk.contains(&j) {
                entry.ct[40] ^= 1;
            }
        }
        let opened = open_batch(&inner, round, &entries);
        assert_eq!(opened.len(), n);
        for (j, slot) in opened.iter().enumerate() {
            if good(j) {
                assert_eq!(slot.as_ref(), Some(&msg(j as u8)), "index {j}");
            } else {
                assert_eq!(*slot, None, "index {j}");
            }
        }
    }

    #[test]
    fn input_digest_is_order_independent() {
        let mut rng = StdRng::seed_from_u64(7);
        let (_, public) = generate_chain_keys(&mut rng, 1, 0);
        let subs: Vec<Submission> = (0..3)
            .map(|i| seal_ahs(&mut rng, &public, 0, &msg(i as u8)))
            .collect();
        let entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let mut reversed = entries.clone();
        reversed.reverse();
        assert_eq!(input_digest(&entries), input_digest(&reversed));
        // but content-dependent
        assert_ne!(input_digest(&entries), input_digest(&entries[..2]));
    }

    #[test]
    fn batched_hop_verification_accepts_chain_and_rejects_tamper() {
        let mut rng = StdRng::seed_from_u64(50);
        let k = 3;
        let round = 11;
        let (secrets, public) = generate_chain_keys(&mut rng, k, round);
        let subs: Vec<Submission> = (0..6)
            .map(|i| seal_ahs(&mut rng, &public, round, &msg(i as u8)))
            .collect();
        let mut servers: Vec<MixServer> = secrets
            .into_iter()
            .map(|s| MixServer::new(s, public.clone()))
            .collect();
        let mut entries: Vec<MixEntry> = subs.iter().map(|s| s.to_entry()).collect();
        let dhs =
            |entries: &[MixEntry]| -> Vec<GroupElement> { entries.iter().map(|e| e.dh).collect() };
        // The k+1 key columns of the pass: entering hop 0 … leaving hop k-1.
        let mut columns = vec![dhs(&entries)];
        let mut proofs = Vec::new();
        for (i, server) in servers.iter_mut().enumerate() {
            let before = entries.clone();
            let result = server.process_round(&mut rng, round, entries).unwrap();
            // Per-hop verification over entries and over columns agree.
            assert!(verify_hop(
                &public,
                i,
                round,
                &before,
                &result.outputs,
                &result.proof
            ));
            columns.push(dhs(&result.outputs));
            proofs.push(result.proof);
            entries = result.outputs;
        }
        fn records<'a>(
            columns: &'a [Vec<GroupElement>],
            proofs: &[DleqProof],
        ) -> Vec<HopRecord<'a>> {
            let hops = columns.windows(2).zip(proofs).enumerate();
            hops.map(|(position, (pair, proof))| HopRecord {
                position,
                input_dhs: &pair[0],
                output_dhs: &pair[1],
                proof: *proof,
            })
            .collect()
        }
        // One verifier checks the whole chain in one batched call.
        assert!(verify_hops_batched(
            &public,
            round,
            &records(&columns, &proofs)
        ));
        // Tampering any single hop's outputs breaks the batch.
        let mut tampered = columns.clone();
        tampered[2][0] = GroupElement::random(&mut rng);
        assert!(!verify_hops_batched(
            &public,
            round,
            &records(&tampered, &proofs)
        ));
        // Length mismatch is rejected structurally.
        let bad = [HopRecord {
            position: 0,
            input_dhs: &columns[0],
            output_dhs: &columns[1][..5],
            proof: proofs[0],
        }];
        assert!(!verify_hops_batched(&public, round, &bad));
        // One record at a time: the honest ones hold; the short column,
        // another round and a position off the chain are refused, not a
        // panic.
        for record in records(&columns, &proofs) {
            assert!(record.verify(&public, round));
        }
        assert!(!bad[0].verify(&public, round));
        let mut hop = HopAttestation {
            round,
            position: 1,
            input_dhs: columns[1].clone(),
            output_dhs: columns[2].clone(),
            proof: proofs[1],
        };
        assert!(hop.verify(&public));
        hop.round += 1;
        assert!(!hop.verify(&public));
        hop.round -= 1;
        hop.position = public.len();
        assert!(!hop.verify(&public));
    }
}
