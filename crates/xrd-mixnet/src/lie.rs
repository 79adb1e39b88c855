//! The one table of server lies.
//!
//! XRD's §6.4 blame and dispute machinery, and Appendix A's
//! product-preserving attack, rest on one claim: a server that deviates
//! from the protocol is convicted on evidence.  A [`Lie`] is one such
//! deviation.  A lying [`MixServer`](crate::MixServer) holds its lie
//! ([`MixServer::set_lie`](crate::MixServer::set_lie)) and tells it in
//! the one function that computes the honest answer, which both the
//! in-process party ([`LocalParty`](crate::LocalParty)) and the mix
//! daemon call — so a lie is told by the same lines in process and on
//! the wire, and every wave has one such function:
//!
//! * the mix lies, in [`MixServer::finish_round`](crate::MixServer::finish_round);
//! * the attestation a hop builds, [`attestation`] (`Seam`; in process
//!   only — on the wire the coordinator builds every hop's columns from
//!   the batches it relayed, so no daemon attests its own);
//! * a verifier's verdicts, `cross_verdicts` (told at the end of its
//!   [`Verifier::check`](crate::server::Verifier::check)), and a
//!   witness's dispute verdict, [`upheld`];
//! * the accuser's, in [`MixServer::accuse`](crate::MixServer::accuse);
//! * the inner-key reveal, [`MixServer::inner_key_reveal`](crate::MixServer::inner_key_reveal);
//! * the submission window's digests, [`window_digest`] (a daemon's
//!   alone: nothing else closes a window);
//! * what hop 0 mixes of its window, [`window_submissions`].
//!
//! Each lie told adds one to the `byzantine.lies` counter.  The
//! expected ledger of each lie is `docs/FAULTS.md` §2.

use xrd_crypto::nizk::DleqProof;
use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::scalar::Scalar;

use crate::blame::Accusation;
use crate::chain_keys::ChainPublicKeys;
use crate::client::Submission;
use crate::server::{DhColumn, HopAttestation, HopResult, HopState, WindowDigest};

/// One lie a mix server tells, at one wave of the chain protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lie {
    /// Rejects every hop it checks and upholds the rejection under
    /// oath (`lie-verify`).
    RejectsAndUpholds,
    /// Rejects every hop it checks and recants under oath.
    RejectsAndRecants,
    /// Answers every check with "valid".
    Vouches,
    /// Bends its hop proof's response.
    BadProof,
    /// After proving, overwrites output key 0 with key 1 (`corrupt-hop`).
    /// A swap would not do: §6.3 proves a relation between *products*
    /// of keys, which a permutation preserves.
    CorruptHop,
    /// Appendix A: shifts output keys 0 and 1 by `T` and `T⁻¹`, which
    /// keeps their product and so the proof; its retained records follow.
    ShiftKeys,
    /// Flips the first byte of output 0's ciphertext.
    FlipCiphertext,
    /// Attests an input column with keys 0 and 1 swapped.
    Seam,
    /// Refuses to accuse.
    AccuserRefuses,
    /// Accuses as the next position.
    AccuserAsAnother,
    /// Reveals its inner key as the next position.
    KeyAsAnother,
    /// Reveals an inner key that is not its published one.
    WrongKey,
    /// Answers the submission window's close with digests other than
    /// the batch's (`equivocate-digest`).
    EquivocateDigest,
    /// As hop 0, mixes its window without the window's first
    /// submission (`drop-from-window`).  Only hop 0 mixes a window, so
    /// at any other position the lie is never told.
    DropsFromWindow,
}

impl Lie {
    /// Every lie under its name on the command line
    /// (`xrd-netd byzantine --lie NAME`).
    pub const NAMED: [(&'static str, Lie); 14] = [
        ("lie-verify", Lie::RejectsAndUpholds),
        ("recant-verify", Lie::RejectsAndRecants),
        ("vouch", Lie::Vouches),
        ("bad-proof", Lie::BadProof),
        ("corrupt-hop", Lie::CorruptHop),
        ("shift-keys", Lie::ShiftKeys),
        ("flip-ciphertext", Lie::FlipCiphertext),
        ("seam", Lie::Seam),
        ("refuse-accuse", Lie::AccuserRefuses),
        ("accuse-as-another", Lie::AccuserAsAnother),
        ("key-as-another", Lie::KeyAsAnother),
        ("wrong-key", Lie::WrongKey),
        ("equivocate-digest", Lie::EquivocateDigest),
        ("drop-from-window", Lie::DropsFromWindow),
    ];
}

impl std::str::FromStr for Lie {
    type Err = String;

    fn from_str(s: &str) -> Result<Lie, String> {
        let found = Lie::NAMED.iter().find(|(name, _)| *name == s);
        found.map(|&(_, lie)| lie).ok_or_else(|| {
            let names: Vec<&str> = Lie::NAMED.iter().map(|(name, _)| *name).collect();
            format!("unknown lie {s:?} (expected {})", names.join(", "))
        })
    }
}

/// Count one lie told, whose told value is `value`.
fn told<T>(value: T) -> T {
    xrd_obs::counter!("byzantine.lies").incr();
    value
}

/// The mix lies, told on a hop that has proved: on what it emits and,
/// Appendix A's only, on the records it keeps for blame.
pub(crate) fn bend_hop(lie: Option<Lie>, result: &mut HopResult, state: &mut HopState) {
    let out = &mut result.outputs;
    match lie {
        Some(Lie::BadProof) => result.proof.response = result.proof.response.add(&Scalar::ONE),
        Some(Lie::CorruptHop) if out.len() >= 2 => out[0].dh = out[1].dh,
        Some(Lie::ShiftKeys) if out.len() >= 2 => {
            let t = GroupElement::generator();
            (out[0].dh, out[1].dh) = (out[0].dh.add(&t), out[1].dh.sub(&t));
            state.output_dhs[..2].copy_from_slice(&[out[0].dh, out[1].dh]);
        }
        Some(Lie::FlipCiphertext) if !out.is_empty() => out[0].ct[0] ^= 0xff,
        _ => return,
    }
    told(())
}

/// The attestation the hop at `position` gives of its hop in `round`:
/// the key columns it consumed and emitted and its proof (§6.3).  A
/// `Seam` liar swaps input keys 0 and 1.
pub fn attestation(
    lie: Option<Lie>,
    round: u64,
    position: usize,
    mut input_dhs: DhColumn,
    output_dhs: DhColumn,
    proof: DleqProof,
) -> HopAttestation {
    if lie == Some(Lie::Seam) && input_dhs.len() >= 2 {
        input_dhs.swap(0, 1);
        told(());
    }
    HopAttestation {
        round,
        position,
        input_dhs,
        output_dhs,
        proof,
    }
}

/// A verifier's verdicts on the other hops of its chain (§6.3 step 3),
/// `honest` as its [`Verifier::check`](crate::server::Verifier::check) found
/// them — unless the verifier lies, one lie per verdict.
pub(crate) fn cross_verdicts(lie: Option<Lie>, honest: Vec<bool>) -> Vec<bool> {
    let tell = |verdict: bool| honest.iter().map(|_| told(verdict)).collect();
    match lie {
        Some(Lie::RejectsAndUpholds | Lie::RejectsAndRecants) => tell(false),
        Some(Lie::Vouches) => tell(true),
        _ => honest,
    }
}

/// A witness's verdict in a dispute over `hop`, the bit it signs
/// ([`HopAttestation::sign_verdict`]): upheld when the attestation does
/// not hold under `public` — or always, from a verifier that upholds
/// its rejections.
pub fn upheld(lie: Option<Lie>, public: &ChainPublicKeys, hop: &HopAttestation) -> bool {
    match lie {
        Some(Lie::RejectsAndUpholds) => told(true),
        _ => !hop.verify(public),
    }
}

/// The accuser's lies, told on the accusation it would make.
pub(crate) fn accusation(lie: Option<Lie>, accusation: Accusation) -> Option<Accusation> {
    let position = accusation.position + 1;
    match lie {
        Some(Lie::AccuserRefuses) => told(None),
        Some(Lie::AccuserAsAnother) => told(Some(Accusation {
            position,
            ..accusation
        })),
        _ => Some(accusation),
    }
}

/// The `(position, isk)` a server at `position` holding `isk` reveals.
pub(crate) fn inner_key(lie: Option<Lie>, position: usize, isk: Scalar) -> (usize, Scalar) {
    match lie {
        Some(Lie::KeyAsAnother) => told((position + 1, isk)),
        Some(Lie::WrongKey) => told((position, isk.add(&Scalar::ONE))),
        _ => (position, isk),
    }
}

/// The input-agreement digests a daemon answers for the batch it fixed
/// (§6.3, [`WindowDigest::of`]) — or, equivocating, others.
pub fn window_digest(lie: Option<Lie>, batch: &[Submission]) -> WindowDigest {
    let mut digest = WindowDigest::of(batch);
    if lie == Some(Lie::EquivocateDigest) {
        digest.batch[0] ^= told(0xFF);
        digest.column[0] ^= 0xFF;
    }
    digest
}

/// What hop 0 mixes of its window, the agreed `batch`: the submissions
/// at `active`, in order — less the first, from a `DropsFromWindow`
/// liar.
pub fn window_submissions<'b>(
    lie: Option<Lie>,
    batch: &'b [Submission],
    active: &[usize],
) -> Vec<&'b Submission> {
    let mut mixed: Vec<&Submission> = active.iter().map(|&i| &batch[i]).collect();
    if lie == Some(Lie::DropsFromWindow) && !mixed.is_empty() {
        told(mixed.remove(0));
    }
    mixed
}
