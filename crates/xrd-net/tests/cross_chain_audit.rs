//! What the coordinator checks about a mix pass, under both transports.
//!
//! **The shared audit.**  All `n_chains × k` hop proofs of a round fold
//! into ONE batched multiscalar mul (`verify_hops_batched_multi`), which
//! must be equivalent to auditing each chain separately — accepting
//! exactly when every per-chain audit accepts, rejecting when any
//! chain's proof is bad, and (via `conclude_audited`'s per-hop re-check)
//! convicting the offender through the dispute path without punishing
//! an honest chain for another chain's offense.  A forwarded chain joins
//! that audit exactly as a relayed one does.
//!
//! **The seam.**  When daemons hand batches to each other the
//! coordinator sees only key columns, and checks each attested input
//! column against the column the hop before it emitted.
//!
//! Neither check fires in an honest deployment, so the offenders here
//! are *scripted hops*: a peer that stands in for one mix daemon in the
//! coordinator's address list, passes every frame to the real daemon
//! behind it, and rewrites chosen answers on their way back.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_crypto::ristretto::GroupElement;
use xrd_crypto::Scalar;
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys, ChainPublicKeys};
use xrd_mixnet::{verify_hops_batched, verify_hops_batched_multi, ChainAudit, HopRecord};
use xrd_net::codec::{Frame, FrameDecoder};
use xrd_net::swarm::sealed_submissions;
use xrd_net::{
    Agreement, ChainClient, Conn, ConnTimeouts, DaemonHandle, MixPhase, MixServerDaemon, NetError,
    RetryPolicy, Transport,
};

const USERS: usize = 6;
const ROUND: u64 = 0;

/// A scripted hop: listens where the coordinator dials, bridges each
/// connection to the real daemon at `upstream`, and applies `script` to
/// every frame the daemon sends back (solicited or pushed).
struct ScriptedHop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ScriptedHop {
    fn spawn(
        upstream: SocketAddr,
        script: impl Fn(Frame) -> Frame + Send + Sync + 'static,
    ) -> ScriptedHop {
        let listener = TcpListener::bind("127.0.0.1:0").expect("scripted hop binds");
        let addr = listener.local_addr().expect("bound address");
        let stop = Arc::new(AtomicBool::new(false));
        let (stopped, script) = (Arc::clone(&stop), Arc::new(script));
        std::thread::spawn(move || {
            for client in listener.incoming().flatten() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let server = TcpStream::connect(upstream).expect("daemon accepts");
                client.set_nodelay(true).expect("nodelay");
                server.set_nodelay(true).expect("nodelay");
                // Requests go up untouched…
                let mut from = client.try_clone().expect("clone");
                let mut to = server.try_clone().expect("clone");
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from, &mut to);
                    let _ = to.shutdown(Shutdown::Both);
                });
                // …answers come down through the script.
                let script = Arc::clone(&script);
                std::thread::spawn(move || {
                    let (mut from, mut to) = (server, client);
                    let (mut decoder, mut buf) = (FrameDecoder::new(), [0u8; 8192]);
                    loop {
                        let frame = match decoder.try_frame() {
                            Some(Ok(frame)) => frame,
                            Some(Err(_)) => break,
                            None => match from.read(&mut buf) {
                                Ok(0) | Err(_) => break,
                                Ok(n) => {
                                    decoder.feed(&buf[..n]);
                                    continue;
                                }
                            },
                        };
                        if to.write_all(&script(frame).encode()).is_err() {
                            break;
                        }
                    }
                    let _ = to.shutdown(Shutdown::Both);
                });
            }
        });
        ScriptedHop { addr, stop }
    }
}

impl Drop for ScriptedHop {
    fn drop(&mut self) {
        // Wake the accept loop so it sees the flag; the pumps end with
        // their connections.
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// One loopback chain: daemons (each knowing its successor, so either
/// transport runs), a connected client, and its bundle.
struct TestChain {
    // Held for their Drop (daemon and scripted-hop shutdown).
    _daemons: Vec<DaemonHandle>,
    _scripted: Vec<ScriptedHop>,
    /// Where users submit: the daemons themselves.
    daemon_addrs: Vec<SocketAddr>,
    /// Where the coordinator dials: a scripted hop where one stands in.
    addrs: Vec<SocketAddr>,
    client: ChainClient,
    public: ChainPublicKeys,
}

/// A coordinator for the chain at `addrs` with `attempts` mix attempts.
fn coordinator(
    addrs: &[SocketAddr],
    public: &ChainPublicKeys,
    transport: Transport,
    attempts: u32,
) -> ChainClient {
    let retry = RetryPolicy {
        attempts,
        ..RetryPolicy::default()
    };
    let mut client =
        ChainClient::connect_with(addrs, public.clone(), ConnTimeouts::default(), retry)
            .expect("client connects");
    client.set_transport(transport);
    client
}

type Script = Box<dyn Fn(Frame) -> Frame + Send + Sync>;

/// Launch a `k`-hop chain; `scripts[i]`, if any, stands in for hop `i`.
fn launch_chain(
    rng: &mut StdRng,
    epoch: u64,
    k: usize,
    transport: Transport,
    scripts: Vec<(usize, Script)>,
) -> TestChain {
    let (mut secrets, mut public) = generate_chain_keys(rng, k, epoch);
    rotate_inner_keys(rng, &mut secrets, &mut public, ROUND);
    // Reverse hop order: each daemon is told its successor's address.
    let mut daemons = Vec::with_capacity(k);
    let mut successor = None;
    for server_secrets in secrets.into_iter().rev() {
        let daemon = MixServerDaemon::spawn_with_successor(
            "127.0.0.1:0",
            server_secrets,
            public.clone(),
            epoch,
            successor,
        )
        .expect("daemon spawns");
        successor = Some(daemon.addr());
        daemons.push(daemon);
    }
    daemons.reverse();
    let daemon_addrs: Vec<SocketAddr> = daemons.iter().map(|d| d.addr()).collect();
    let mut addrs = daemon_addrs.clone();
    let mut scripted = Vec::new();
    for (pos, script) in scripts {
        let hop = ScriptedHop::spawn(daemon_addrs[pos], script);
        addrs[pos] = hop.addr;
        scripted.push(hop);
    }
    let client = coordinator(&addrs, &public, transport, RetryPolicy::default().attempts);
    TestChain {
        _daemons: daemons,
        _scripted: scripted,
        daemon_addrs,
        addrs,
        client,
        public,
    }
}

/// Open the window, submit to every daemon (input agreement fan-out)
/// and agree on the batch.
fn agree(rng: &mut StdRng, chain: &mut TestChain) -> Agreement {
    chain.client.open_round(ROUND).expect("window opens");
    let subs = sealed_submissions(rng, &chain.public, ROUND, USERS);
    for addr in &chain.daemon_addrs {
        let mut conn = Conn::connect(*addr).expect("submitter connects");
        for sub in &subs {
            conn.request_ok(&Frame::Submit {
                round: ROUND,
                submission: sub.clone(),
            })
            .expect("submission accepted");
        }
    }
    let agreement = chain.client.close_and_agree(ROUND).expect("agreement");
    assert_eq!(agreement.len(), USERS);
    agreement
}

/// [`agree`], then run the mix with the audit deferred.
fn mix_deferred(rng: &mut StdRng, chain: &mut TestChain) -> MixPhase {
    let agreement = agree(rng, chain);
    chain
        .client
        .mix_round_deferred(ROUND, &agreement)
        .expect("mix runs")
}

fn audits<'a>(
    chains: &'a [TestChain],
    record_sets: &'a [Vec<HopRecord<'a>>],
) -> Vec<ChainAudit<'a>> {
    let per_chain = chains.iter().zip(record_sets);
    per_chain
        .map(|(chain, records)| ChainAudit {
            public: &chain.public,
            round: ROUND,
            hops: records,
        })
        .collect()
}

/// Two clean chains under `transport`: returns each chain's
/// `(proofs_generated, proofs_verified)` for the round.
fn clean_chains_share_one_audit(transport: Transport) -> Vec<(usize, usize)> {
    const K: usize = 2;
    let mut rng = StdRng::seed_from_u64(4096);

    // Two independent chains, each mixed through the wire with the
    // coordinator audit deferred.
    let mut chains: Vec<TestChain> = (0..2)
        .map(|c| launch_chain(&mut rng, c as u64, K, transport, Vec::new()))
        .collect();
    let mut pendings = Vec::new();
    for chain in chains.iter_mut() {
        match mix_deferred(&mut rng, chain) {
            MixPhase::AwaitingAudit(pending) => pendings.push(pending),
            MixPhase::Done(_) => panic!("clean mix must defer its audit"),
        }
    }

    // Per-chain audits and the single cross-chain audit must agree.
    let record_sets: Vec<Vec<HopRecord>> = pendings.iter().map(|p| p.records()).collect();
    for records in &record_sets {
        assert_eq!(records.len(), K, "one record per hop");
    }
    let per_chain: Vec<bool> = chains
        .iter()
        .zip(&record_sets)
        .map(|(chain, records)| verify_hops_batched(&chain.public, ROUND, records))
        .collect();
    assert_eq!(per_chain, vec![true, true]);
    assert!(
        verify_hops_batched_multi(&audits(&chains, &record_sets)),
        "cross-chain audit must accept when every per-chain audit accepts"
    );

    // Tamper with ONE chain's proof: the combined audit must reject,
    // matching the per-chain verdicts (chain 1 bad, chain 0 still good).
    let mut tampered_sets = record_sets.clone();
    tampered_sets[1][0].proof.response = tampered_sets[1][0].proof.response.add(&Scalar::ONE);
    assert!(
        !verify_hops_batched_multi(&audits(&chains, &tampered_sets)),
        "one bad proof anywhere must fail the combined audit"
    );
    assert!(verify_hops_batched(
        &chains[0].public,
        ROUND,
        &tampered_sets[0]
    ));
    assert!(!verify_hops_batched(
        &chains[1].public,
        ROUND,
        &tampered_sets[1]
    ));

    // Conclude both chains under a FAILED combined verdict: the
    // per-hop re-check must clear the honest chains (their own proofs
    // are valid — the simulated offender is "another chain") and both
    // must still deliver every message.
    drop(record_sets);
    drop(tampered_sets);
    let mut stats = Vec::new();
    for (chain, pending) in chains.iter_mut().zip(pendings) {
        let outcome = chain
            .client
            .conclude_audited(ROUND, pending, false)
            .expect("conclusion runs");
        assert!(
            outcome.misbehaving_servers.is_empty(),
            "honest chain must be cleared by per-hop re-verification"
        );
        assert_eq!(
            outcome.delivered.len(),
            USERS,
            "cleared chain still delivers"
        );
        stats.push((
            outcome.stats.proofs_generated,
            outcome.stats.proofs_verified,
        ));
    }
    stats
}

#[test]
fn multi_chain_audit_equivalent_to_per_chain() {
    let streamed = clean_chains_share_one_audit(Transport::Streamed);
    let forwarded = clean_chains_share_one_audit(Transport::Forwarded);
    assert_eq!(
        streamed, forwarded,
        "a clean round proves and verifies the same under both transports"
    );
}

/// A prover with a bad proof and a verifier that covers for it get past
/// the cross-server check; the shared audit is what catches them.  The
/// combined verdict fails, `conclude_audited` re-checks this chain's
/// columns, puts the refuted hop through the dispute protocol and
/// convicts it with nothing revealed — while the honest chain that
/// shared the audit still reveals.
fn shared_audit_convicts_a_bad_proof(transport: Transport) {
    const K: usize = 2;
    let mut rng = StdRng::seed_from_u64(8192);
    let honest = launch_chain(&mut rng, 0, K, transport, Vec::new());
    // Hop 0's proof is bent on its way to the coordinator (it rides a
    // `HopForwarded` or the reply's `HopProof`, by transport) and hop 1
    // vouches for whatever it is asked about.
    let bad_proof: Script = Box::new(|frame| match frame {
        Frame::HopForwarded { mut attestation } => {
            attestation.proof.response = attestation.proof.response.add(&Scalar::ONE);
            Frame::HopForwarded { attestation }
        }
        Frame::HopProof {
            round,
            position,
            mut proof,
        } => {
            proof.response = proof.response.add(&Scalar::ONE);
            Frame::HopProof {
                round,
                position,
                proof,
            }
        }
        other => other,
    });
    let evidence_seen = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&evidence_seen);
    let covers: Script = Box::new(move |frame| match frame {
        Frame::VerifyResult { verdicts } => Frame::VerifyResult {
            verdicts: vec![true; verdicts.len()],
        },
        Frame::DisputeEvidence { .. } => {
            seen.fetch_add(1, Ordering::SeqCst);
            frame
        }
        other => other,
    });
    let crooked = launch_chain(&mut rng, 1, K, transport, vec![(0, bad_proof), (1, covers)]);
    let mut chains = vec![honest, crooked];

    let mut pendings = Vec::new();
    for chain in chains.iter_mut() {
        match mix_deferred(&mut rng, chain) {
            MixPhase::AwaitingAudit(pending) => pendings.push(pending),
            MixPhase::Done(_) => panic!("the covered-for proof must reach the audit"),
        }
    }
    let record_sets: Vec<Vec<HopRecord>> = pendings.iter().map(|p| p.records()).collect();
    let audit_ok = verify_hops_batched_multi(&audits(&chains, &record_sets));
    assert!(!audit_ok, "the bad proof must fail the combined audit");
    drop(record_sets);

    let mut outcomes = Vec::new();
    for (chain, pending) in chains.iter_mut().zip(pendings) {
        let outcome = chain
            .client
            .conclude_audited(ROUND, pending, audit_ok)
            .expect("conclusion runs");
        outcomes.push(outcome);
    }
    let honest = &outcomes[0];
    assert!(honest.misbehaving_servers.is_empty());
    assert_eq!(
        honest.delivered.len(),
        USERS,
        "the honest chain still reveals"
    );
    let crooked = &outcomes[1];
    assert_eq!(crooked.misbehaving_servers, vec![0], "hop 0 is convicted");
    assert!(
        crooked.delivered.is_empty(),
        "a convicted chain reveals nothing"
    );
    assert!(
        evidence_seen.load(Ordering::SeqCst) >= 1,
        "the conviction went through the dispute protocol"
    );
}

#[test]
fn shared_audit_convicts_a_bad_proof_under_both_transports() {
    shared_audit_convicts_a_bad_proof(Transport::Streamed);
    shared_audit_convicts_a_bad_proof(Transport::Forwarded);
}

/// Rewrite the `HopForwarded` passing through a scripted hop.
fn rewrite_attestation(
    rewrite: impl Fn(&mut Vec<GroupElement>, &mut Vec<GroupElement>) + Send + Sync + 'static,
) -> Script {
    Box::new(move |frame| match frame {
        Frame::HopForwarded { mut attestation } => {
            rewrite(&mut attestation.input_dhs, &mut attestation.output_dhs);
            Frame::HopForwarded { attestation }
        }
        other => other,
    })
}

/// A forwarded pass whose attested columns do not line up fails with a
/// typed error naming the seam — it never reaches the audit — and the
/// relayed retry, where the coordinator carries every batch itself,
/// delivers the round.
#[test]
fn column_seam_mismatch_fails_the_forwarded_pass_and_the_relayed_retry_delivers() {
    const K: usize = 3;
    let swap_inputs = || rewrite_attestation(|inputs, _| inputs.swap(0, 1));
    let cases: Vec<(usize, Script, &str)> = vec![
        // Hop 1 claims to have consumed something other than what hop 0
        // said it emitted.
        (1, swap_inputs(), "column seam mismatch entering hop 1"),
        // Hop 0 attests a batch other than the one the chain agreed on.
        (0, swap_inputs(), "column seam mismatch entering hop 0"),
        // Hop 0's columns are not the same length.
        (
            0,
            rewrite_attestation(|_, outputs| {
                outputs.pop();
            }),
            "hop 0 attested mismatched column lengths",
        ),
    ];
    for (seed, (pos, script, expected)) in cases.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(500 + seed as u64);
        let mut chain = launch_chain(
            &mut rng,
            seed as u64,
            K,
            Transport::Forwarded,
            vec![(pos, script)],
        );
        let agreement = agree(&mut rng, &mut chain);

        // With a single attempt the failure is the caller's to see.
        let mut once = coordinator(&chain.addrs, &chain.public, Transport::Forwarded, 1);
        match once.mix_round_deferred(ROUND, &agreement) {
            Err(NetError::Protocol(msg)) => assert_eq!(msg, expected),
            Err(other) => panic!("expected `{expected}`, got {other}"),
            Ok(_) => panic!("expected `{expected}`, but the pass went through"),
        }
        // With a retry to spend, the forwarded attempt fails the same
        // way and the relayed one delivers.
        let mut twice = coordinator(&chain.addrs, &chain.public, Transport::Forwarded, 2);
        let outcome = twice
            .mix_round(ROUND, &agreement)
            .expect("the relayed retry runs");
        assert!(outcome.misbehaving_servers.is_empty(), "{expected}");
        assert_eq!(outcome.delivered.len(), USERS, "{expected}");
    }
}
