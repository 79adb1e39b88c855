//! The shared audit: all `n_chains × k` hop proofs of a round fold
//! into ONE batched multiscalar mul (`verify_hops_batched_multi`), which
//! must be equivalent to auditing each chain separately — accepting
//! exactly when every per-chain audit accepts, rejecting when any
//! chain's proof is bad, and (via `conclude_audited`'s per-hop re-check)
//! convicting the offender through the dispute path without punishing
//! an honest chain for another chain's offense.
//!
//! A bad proof never reaches the audit in an honest deployment, so the
//! offenders here are *scripted hops*: a peer that stands in for one mix daemon in the
//! coordinator's address list, passes every frame to the real daemon
//! behind it, and rewrites chosen answers on their way back.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_crypto::Scalar;
use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys, ChainPublicKeys};
use xrd_mixnet::{verify_hops_batched, verify_hops_batched_multi, ChainAudit, HopRecord};
use xrd_net::codec::{Frame, FrameDecoder};
use xrd_net::swarm::sealed_submissions;
use xrd_net::{Agreement, ChainClient, Conn, DaemonHandle, MixPhase, MixServerDaemon};

const USERS: usize = 6;
const ROUND: u64 = 0;

/// A scripted hop: listens where the coordinator dials, bridges each
/// connection to the real daemon at `upstream`, and applies `script` to
/// every frame the daemon sends back.
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

/// One loopback chain: daemons, a connected client, and its bundle.
struct TestChain {
    // Held for their Drop (daemon and scripted-hop shutdown).
    _daemons: Vec<DaemonHandle>,
    _scripted: Vec<ScriptedHop>,
    /// Where users submit: the daemons themselves.
    daemon_addrs: Vec<SocketAddr>,
    client: ChainClient,
    public: ChainPublicKeys,
}

type Script = Box<dyn Fn(Frame) -> Frame + Send + Sync>;

/// Launch a `k`-hop chain; `scripts[i]`, if any, stands in for hop `i`.
fn launch_chain(
    rng: &mut StdRng,
    epoch: u64,
    k: usize,
    scripts: Vec<(usize, Script)>,
) -> TestChain {
    let (mut secrets, mut public) = generate_chain_keys(rng, k, epoch);
    rotate_inner_keys(rng, &mut secrets, &mut public, ROUND);
    let daemons: Vec<DaemonHandle> = (secrets.into_iter())
        .map(|s| MixServerDaemon::spawn("127.0.0.1:0", s, public.clone(), epoch))
        .collect::<Result<_, _>>()
        .expect("daemons spawn");
    let daemon_addrs: Vec<SocketAddr> = daemons.iter().map(|d| d.addr()).collect();
    // Where the coordinator dials: a scripted hop where one stands in.
    let mut addrs = daemon_addrs.clone();
    let mut scripted = Vec::new();
    for (pos, script) in scripts {
        let hop = ScriptedHop::spawn(daemon_addrs[pos], script);
        addrs[pos] = hop.addr;
        scripted.push(hop);
    }
    let client = ChainClient::connect(&addrs, public.clone()).expect("client connects");
    TestChain {
        _daemons: daemons,
        _scripted: scripted,
        daemon_addrs,
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

/// Two clean chains share one audit, and a failed combined verdict
/// still clears them.
#[test]
fn multi_chain_audit_equivalent_to_per_chain() {
    const K: usize = 2;
    let mut rng = StdRng::seed_from_u64(4096);

    // Two independent chains, each mixed through the wire with the
    // coordinator audit deferred.
    let mut chains: Vec<TestChain> = (0..2)
        .map(|c| launch_chain(&mut rng, c as u64, K, Vec::new()))
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
    }
}

/// A prover with a bad proof and a verifier that covers for it get past
/// the cross-server check; the shared audit is what catches them.  The
/// combined verdict fails, `conclude_audited` re-checks this chain's
/// columns, puts the refuted hop through the dispute protocol and
/// convicts it with nothing revealed — while the honest chain that
/// shared the audit still reveals.
#[test]
fn shared_audit_convicts_a_bad_proof() {
    const K: usize = 2;
    let mut rng = StdRng::seed_from_u64(8192);
    let honest = launch_chain(&mut rng, 0, K, Vec::new());
    // Hop 0's proof is bent on its way to the coordinator (it rides the
    // reply's `HopProof`) and hop 1 vouches for whatever it is asked
    // about.
    let bad_proof: Script = Box::new(|frame| match frame {
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
    let crooked = launch_chain(&mut rng, 1, K, vec![(0, bad_proof), (1, covers)]);
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
