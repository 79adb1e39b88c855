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
use xrd_crypto::nizk::{DleqBatchEntry, DleqProof, SchnorrProof};
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;

use crate::chain_keys::{ChainPublicKeys, ServerSecrets};
use crate::client::{outer_layer_keys, Submission};
use crate::lie::{bend_hop, cross_verdicts, inner_key, Lie};
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

/// A mix server for one chain position: honest, or telling one
/// [`Lie`] wherever that lie's wave asks it.
pub struct MixServer {
    secrets: ServerSecrets,
    public: ChainPublicKeys,
    state: Option<HopState>,
    lie: Option<Lie>,
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
        xrd_obs::hist!("hop.decrypt_blind_us").record_duration(started.elapsed());
        xrd_obs::counter!("hop.entries").add(entries.len() as u64);
        slots
    }
}

impl MixServer {
    /// Create a server from its secrets plus the chain's public bundle.
    pub fn new(secrets: ServerSecrets, public: ChainPublicKeys) -> MixServer {
        MixServer {
            secrets,
            public,
            state: None,
            lie: None,
        }
    }

    /// The lie this server tells (`None`: it is honest).
    pub fn lie(&self) -> Option<Lie> {
        self.lie
    }

    /// Make this server tell `lie` from now on (`None`: honest).
    pub fn set_lie(&mut self, lie: Option<Lie>) {
        self.lie = lie;
    }

    /// Run under new keys with no hop state, the lie kept: what a key
    /// rotation makes of the server.
    pub fn rekey(&mut self, secrets: ServerSecrets, public: ChainPublicKeys) {
        (self.secrets, self.public, self.state) = (secrets, public, None);
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

    /// This server as the verifier of its hop in `round`, or `None` if
    /// it holds no hop state for that round.
    pub fn verifier(&self, round: u64) -> Option<Verifier> {
        let state = self.state.as_ref().filter(|state| state.round == round)?;
        let consumed = state.inputs.iter().map(|e| e.dh).collect();
        Some(Verifier {
            public: self.public.clone(),
            lie: self.lie,
            position: self.position(),
            held: [consumed, state.output_dhs.clone()],
        })
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
    /// state), so [`ChunkKernel::process`] runs chunk by chunk through
    /// [`crate::par::map_entries`] — the in-process analogue of a real
    /// server's worker cores.
    pub fn process_round<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        round: u64,
        inputs: Vec<MixEntry>,
    ) -> Result<HopResult, MixError> {
        // Per-entry results in input order; `None` marks a decrypt
        // failure at that index.
        let kernel = self.chunk_kernel(round);
        let slots = crate::par::map_entries(&inputs, |chunk| kernel.process(chunk));
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
    /// top of this).  A lying server tells its mix lie here, after
    /// proving.
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
        let failures: Vec<usize> = (slots.iter().enumerate())
            .filter_map(|(j, slot)| slot.is_none().then_some(j))
            .collect();
        if !failures.is_empty() {
            xrd_obs::counter!("hop.err.decrypt_failures").add(failures.len() as u64);
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

        // Step 3: shuffle keys and ciphertexts with one permutation,
        // each entry moved out of its slot, never copied.
        let mut slots = slots;
        let mut perm: Vec<usize> = (0..slots.len()).collect();
        // Fisher-Yates.
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let outputs: Vec<MixEntry> = (perm.iter())
            .map(|&src| slots[src].take().expect("no slot failed"))
            .collect();

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
        let mut state = HopState {
            round,
            inputs,
            output_dhs: outputs.iter().map(|e| e.dh).collect(),
            perm,
        };
        let mut result = HopResult { outputs, proof };
        bend_hop(self.lie, &mut result, &mut state);
        self.state = Some(state);
        xrd_obs::hist!("hop.shuffle_prove_us").record_duration(started.elapsed());
        Ok(result)
    }

    /// This server's per-round inner key (§6.3), honestly.
    pub fn reveal_inner_key(&self) -> Scalar {
        self.secrets.isk
    }

    /// What this server answers when the chain asks for its inner key
    /// (§6.3, after the last hop verifies): `(position, isk)`.
    pub fn inner_key_reveal(&self) -> (usize, Scalar) {
        inner_key(self.lie, self.position(), self.secrets.isk)
    }
}

/// Verify one hop's aggregate proof (run by every other server in the
/// chain, §6.3 step 3) over full entries.  The statement is a relation
/// between the *products of the DH keys* only — the ciphertexts never
/// enter it — so this is [`HopRecord::verify`] over the entries' key
/// columns, which is all a verifier on the wire receives (~8× fewer
/// bytes than full entries).
pub fn verify_hop(
    public: &ChainPublicKeys,
    position: usize,
    round: u64,
    inputs: &[MixEntry],
    outputs: &[MixEntry],
    proof: &DleqProof,
) -> bool {
    let column =
        |entries: &[MixEntry]| -> Vec<GroupElement> { entries.iter().map(|e| e.dh).collect() };
    let (input_dhs, output_dhs) = (column(inputs), column(outputs));
    let record = HopRecord {
        position,
        input_dhs: &input_dhs,
        output_dhs: &output_dhs,
        proof: *proof,
    };
    record.verify(public, round)
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
            && self.proof.verify(
                &hop_context(round, self.position),
                &GroupElement::product(self.input_dhs),
                &GroupElement::product(self.output_dhs),
                public.blinding_base(self.position),
                &public.bpks[self.position + 1],
            )
    }
}

/// A column of DH keys — one side of a hop's §6.3 statement — and,
/// when the keys came off the wire or were encoded once on their way
/// out, their canonical encodings beside them: whoever sends the column
/// on (hop 0's window column, the coordinator's cross-checks, a
/// dispute) writes those bytes instead of encoding every key again.  A
/// column built in process from computed keys carries none, and nothing
/// encodes it unless it goes on the wire.
///
/// It reads as the `Vec` of keys it holds.  A mutable borrow drops the
/// encodings — the keys may change under it — so keys and bytes cannot
/// part.
#[derive(Clone, Debug, Default)]
pub struct DhColumn {
    points: Vec<GroupElement>,
    encoded: Option<Vec<[u8; 32]>>,
}

impl DhColumn {
    /// `points` with their encodings: `encoded[i]` must be
    /// `points[i].encode()` (debug builds check).
    pub fn with_encodings(points: Vec<GroupElement>, encoded: Vec<[u8; 32]>) -> DhColumn {
        debug_assert_eq!(GroupElement::encode_all(&points), encoded);
        DhColumn {
            points,
            encoded: Some(encoded),
        }
    }

    /// The keys' encodings, if the column carries them.
    pub fn encodings(&self) -> Option<&[[u8; 32]]> {
        self.encoded.as_deref()
    }

    /// The column's [`column_digest`], off the encodings it carries (a
    /// column of computed keys is encoded for it).
    pub fn digest(&self) -> [u8; 32] {
        match self.encodings() {
            Some(carried) => column_digest(carried),
            None => column_digest(&GroupElement::encode_all(&self.points)),
        }
    }
}

/// A column of computed keys, carrying no encodings.
impl From<Vec<GroupElement>> for DhColumn {
    fn from(points: Vec<GroupElement>) -> DhColumn {
        DhColumn {
            points,
            encoded: None,
        }
    }
}

impl FromIterator<GroupElement> for DhColumn {
    fn from_iter<I: IntoIterator<Item = GroupElement>>(points: I) -> DhColumn {
        DhColumn::from(points.into_iter().collect::<Vec<_>>())
    }
}

impl std::ops::Deref for DhColumn {
    type Target = Vec<GroupElement>;
    fn deref(&self) -> &Vec<GroupElement> {
        &self.points
    }
}

impl std::ops::DerefMut for DhColumn {
    fn deref_mut(&mut self) -> &mut Vec<GroupElement> {
        self.encoded = None;
        &mut self.points
    }
}

/// Columns are equal when their keys are, carried bytes or not.
impl PartialEq for DhColumn {
    fn eq(&self, other: &DhColumn) -> bool {
        self.points == other.points
    }
}

/// One hop's §6.3 statement as it crosses the wire: the round, the
/// prover's position, the DH-key columns it consumed and emitted, and
/// the proof binding them.  A cross-server check and a dispute both
/// carry exactly this.
#[derive(Clone, Debug, PartialEq)]
pub struct HopAttestation {
    /// The round the hop ran in.
    pub round: u64,
    /// Hop position of the proving server.
    pub position: usize,
    /// DH keys of the hop's inputs in arrival order.
    pub input_dhs: DhColumn,
    /// DH keys of the hop's outputs in emission order.
    pub output_dhs: DhColumn,
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

    /// A witness's verdict on this attestation in a dispute, signed:
    /// `upheld` means the witness found that it does not verify.  The
    /// signature is a Schnorr proof of the witness's mix secret `msk`
    /// over a hash of the verdict bit and the whole attestation (round,
    /// position, both key columns, the proof), so the evidence is
    /// transferable — any party checks it with
    /// [`HopAttestation::verdict_signed`] without trusting whoever
    /// relayed it.
    pub fn sign_verdict<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        witness: &MixServer,
        upheld: bool,
    ) -> SchnorrProof {
        let (position, public) = (witness.position(), witness.public());
        // `mpk_i = bpk_i^msk`: the mix key lives over the witness's
        // chained blinding base, not the group generator.
        SchnorrProof::prove(
            rng,
            &self.dispute_context(upheld),
            public.blinding_base(position),
            &public.mpks[position],
            &witness.secrets.msk,
        )
    }

    /// Whether `sig` is the server at `witness`'s signature on the
    /// verdict `upheld` about this attestation
    /// ([`HopAttestation::sign_verdict`]).  Safe on wire values: a
    /// position outside the chain is a `false`.
    pub fn verdict_signed(
        &self,
        public: &ChainPublicKeys,
        witness: usize,
        upheld: bool,
        sig: &SchnorrProof,
    ) -> bool {
        let ctx = self.dispute_context(upheld);
        witness < public.len()
            && sig.verify(&ctx, public.blinding_base(witness), &public.mpks[witness])
    }

    /// The signed statement of a dispute verdict: a domain-separated
    /// hash binding the verdict bit to the exact disputed statement —
    /// round, accused position and the full attestation (key columns
    /// plus proof).
    fn dispute_context(&self, upheld: bool) -> [u8; 32] {
        let mut h = xrd_crypto::Blake2b::new(32);
        h.update(b"xrd/dispute-evidence");
        h.update(&self.round.to_le_bytes());
        h.update(&(self.position as u32).to_le_bytes());
        h.update(&[upheld as u8]);
        for column in [&self.input_dhs, &self.output_dhs] {
            h.update(&(column.len() as u32).to_le_bytes());
            let encoded = match column.encodings() {
                Some(carried) => std::borrow::Cow::Borrowed(carried),
                None => std::borrow::Cow::Owned(GroupElement::encode_all(column)),
            };
            for enc in encoded.iter() {
                h.update(enc);
            }
        }
        h.update(&self.proof.to_bytes());
        h.finalize_32()
    }
}

/// What the verifier at position `v` is sent to check the other `k−1`
/// hops of a seamless pass (§6.3 step 3, [`Verifier::check`]): their
/// proofs, and the chain's key columns `c_0 … c_k` — hop `i` consumed
/// `c_i` and emitted `c_{i+1}` — each once, but for the two `v` holds
/// itself.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossCheck {
    /// The round the pass ran in.
    pub round: u64,
    /// The other hops' proofs, in hop order.
    pub proofs: Vec<DleqProof>,
    /// `c_0 … c_k`, `None` at `v` and `v + 1`.
    pub columns: Vec<Option<DhColumn>>,
}

impl CrossCheck {
    /// What verifier `v` is sent of the pass `hops` in `round`.
    pub fn of(round: u64, hops: &[HopAttestation], v: usize) -> CrossCheck {
        let inputs = hops.iter().take(1).map(|hop| &hop.input_dhs);
        let columns = inputs.chain(hops.iter().map(|hop| &hop.output_dhs));
        let sent = |(i, column): (usize, &DhColumn)| (i != v && i != v + 1).then(|| column.clone());
        let others = hops.iter().filter(|hop| hop.position != v);
        CrossCheck {
            round,
            proofs: others.map(|hop| hop.proof).collect(),
            columns: columns.enumerate().map(sent).collect(),
        }
    }
}

/// A server as it checks the other hops of its chain: the bundle, its
/// lie, and the key columns its own hop at position `v` consumed
/// (`c_v`) and emitted (`c_{v+1}`) — copied out of the server
/// ([`MixServer::verifier`]), so a daemon checks off its state lock.
pub struct Verifier {
    public: ChainPublicKeys,
    lie: Option<Lie>,
    position: usize,
    held: [Vec<GroupElement>; 2],
}

impl Verifier {
    /// The check every verifier runs, in process and on the wire: put
    /// its own two columns in place of `c_v` and `c_{v+1}`, so that no
    /// column it consumed or emitted can be swapped under it; verify the
    /// `k−1` proofs in one batch ([`verify_hops_batched`]) and, only if
    /// the batch fails, one by one, so each hop gets its own verdict;
    /// then tell its lie, if it has one.
    ///
    /// One verdict per other hop, in hop order; `Err` for a request out
    /// of shape — a column the verifier holds sent, any other missing,
    /// or not one proof per other hop.
    pub fn check(&self, request: &CrossCheck) -> Result<Vec<bool>, &'static str> {
        let (k, v, columns) = (self.public.len(), self.position, &request.columns);
        let sent = (0..=k).map(|i| i != v && i != v + 1);
        if request.proofs.len() + 1 != k || !columns.iter().map(Option::is_some).eq(sent) {
            return Err("not the other hops' proofs and the columns it does not hold");
        }
        let column = |i: usize| match i.checked_sub(v) {
            Some(j @ 0..=1) => &self.held[j][..],
            _ => columns[i].as_deref().map_or(&[][..], Vec::as_slice),
        };
        let others = (0..k).filter(|&p| p != v).zip(&request.proofs);
        let records: Vec<HopRecord> = others
            .map(|(position, proof)| HopRecord {
                position,
                input_dhs: column(position),
                output_dhs: column(position + 1),
                proof: *proof,
            })
            .collect();
        let (public, round) = (&self.public, request.round);
        let verdicts = match verify_hops_batched(public, round, &records) {
            true => vec![true; records.len()],
            false => records.iter().map(|r| r.verify(public, round)).collect(),
        };
        Ok(cross_verdicts(self.lie, verdicts))
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

/// What a server fixes its submission window under, for input
/// agreement (§6.3): the batch's digest ([`input_digest`]) and the
/// digest of its key column in the batch's canonical order
/// ([`column_digest`]) — the column hop 0 consumes, `c_0`.  The second
/// is what anchors `c_0` when hop 0 mixes its own window: the pass
/// refuses a hop-0 input column that does not hash to the agreed one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowDigest {
    /// [`input_digest`] of the batch.
    pub batch: [u8; 32],
    /// [`column_digest`] of the batch's `g^x` column, in its order.
    pub column: [u8; 32],
}

impl WindowDigest {
    /// The digests of `batch`, in its order.
    pub fn of(batch: &[Submission]) -> WindowDigest {
        WindowDigest {
            batch: input_digest(batch),
            column: column_digest(batch.iter().map(Submission::encoded_dh)),
        }
    }
}

/// Digest of a key column, in order, off its keys' encodings: hop 0's
/// input column as the agreement fixed it ([`WindowDigest`]), and as
/// the pass checks hop 0's attestation against it
/// ([`DhColumn::digest`]).
pub fn column_digest<'a>(encodings: impl IntoIterator<Item = &'a [u8; 32]>) -> [u8; 32] {
    let mut h = xrd_crypto::Blake2b::new(32);
    h.update(b"xrd/input-column");
    for dh in encodings {
        h.update(dh);
    }
    h.finalize_32()
}

/// Digest of a batch for input agreement (§6.3: "sorting the users'
/// ciphertexts, hashing them ... and comparing the hashes"): each
/// submission's first-hop entry as it crosses the wire, `g^x ‖ c_1`, in
/// sorted order.  Read off the bytes the submissions carry — nothing is
/// encoded or copied.  (`g^x` is of fixed length, so sorting the pairs
/// sorts the concatenations.)
pub fn input_digest(submissions: &[Submission]) -> [u8; 32] {
    let mut entries: Vec<(&[u8; 32], &[u8])> = (submissions.iter())
        .map(|s| (s.encoded_dh(), &s.ct[..]))
        .collect();
    entries.sort_unstable();
    let mut h = xrd_crypto::Blake2b::new(32);
    h.update(b"xrd/input-agreement");
    h.update(&(entries.len() as u64).to_le_bytes());
    for (dh, ct) in entries {
        h.update(dh);
        h.update(ct);
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
        let mut reversed = subs.clone();
        reversed.reverse();
        assert_eq!(input_digest(&subs), input_digest(&reversed));
        // but content-dependent
        assert_ne!(input_digest(&subs), input_digest(&subs[..2]));
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
            input_dhs: columns[1].clone().into(),
            output_dhs: columns[2].clone().into(),
            proof: proofs[1],
        };
        assert!(hop.verify(&public));
        hop.round += 1;
        assert!(!hop.verify(&public));
        hop.round -= 1;
        hop.position = public.len();
        assert!(!hop.verify(&public));
    }

    /// One chain's pass over `subs` (its servers keep their hop state)
    /// and its attestations.
    fn mixed_chain(
        rng: &mut StdRng,
        secrets: &[ServerSecrets],
        public: &ChainPublicKeys,
        round: u64,
        subs: &[Submission],
    ) -> (crate::ChainRunner, Vec<HopAttestation>) {
        use crate::pass::ChainParty;
        let mut chain = crate::ChainRunner::from_parts(secrets.to_vec(), public.clone());
        let all: Vec<usize> = (0..subs.len()).collect();
        let (hops, end) = chain.pass(rng, round, subs).party.mix(round, &all).unwrap();
        assert!(end.is_ok(), "a clean pass");
        (chain, hops)
    }

    /// `server`'s check of `hops`, as `tamper` leaves what it is sent.
    fn check_as_sent(
        server: &MixServer,
        round: u64,
        hops: &[HopAttestation],
        tamper: impl FnOnce(&mut CrossCheck),
    ) -> Result<Vec<bool>, &'static str> {
        let mut request = CrossCheck::of(round, hops, server.position());
        tamper(&mut request);
        server.verifier(round).expect("it mixed").check(&request)
    }

    /// Two chains under one bundle mix different batches.  Chain B's
    /// hop-0 attestation holds on its own, so a verifier handed it whole
    /// would vouch for it; verifier 1 of chain A, handed B's hop-0 proof
    /// and input column in place of A's, checks them against the column
    /// it consumed itself, which is not B's, and rejects.
    #[test]
    fn a_verifier_checks_the_hop_before_it_against_the_column_it_consumed() {
        let mut rng = StdRng::seed_from_u64(70);
        let (k, round) = (3, 5);
        let (secrets, public) = generate_chain_keys(&mut rng, k, round);
        let mut batch = |tag: u8| -> Vec<Submission> {
            (0..4)
                .map(|i| seal_ahs(&mut rng, &public, round, &msg(tag + i)))
                .collect()
        };
        let (a_subs, b_subs) = (batch(0), batch(10));
        let (mut a, a_hops) = mixed_chain(&mut rng, &secrets, &public, round, &a_subs);
        let (_, b_hops) = mixed_chain(&mut rng, &secrets, &public, round, &b_subs);
        let a = a.servers_mut();
        assert!(b_hops[0].verify(&public), "B's hop 0 holds as sent");

        let honest = check_as_sent(&a[1], round, &a_hops, |_| {});
        assert_eq!(honest, Ok(vec![true, true]));
        let swapped = check_as_sent(&a[1], round, &a_hops, |request| {
            request.proofs[0] = b_hops[0].proof;
            request.columns[0] = Some(b_hops[0].input_dhs.clone());
        });
        assert_eq!(
            swapped,
            Ok(vec![false, true]),
            "hop 0 rejected, hop 2 stands"
        );

        // A request out of shape is refused, not judged.
        let refused = [
            check_as_sent(&a[1], round, &a_hops, |request| {
                request.columns[1] = Some(a_hops[0].output_dhs.clone())
            }),
            check_as_sent(&a[1], round, &a_hops, |request| request.columns[3] = None),
            check_as_sent(&a[1], round, &a_hops, |request| {
                request.proofs.pop();
            }),
        ];
        assert!(refused.iter().all(Result::is_err), "{refused:?}");
    }
}
