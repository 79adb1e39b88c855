//! Cross-validation of the figure pipeline model against a **real**
//! end-to-end round: run an actual in-process deployment (real crypto,
//! real AHS with all verifications, the chains side by side on all
//! cores) and compare its wall-clock time with what the discrete-event
//! model predicts for the equivalent configuration.
//!
//! This grounds the Figure 4–6 methodology: the model is only trusted to
//! extrapolate because it reproduces real runs at scales we can execute.
//! The model charges a hop `2·exp + aead` per entry, with `exp` the
//! per-exponentiation price of the batched kernel the servers run
//! (`calibrate`; charging a one-off `mul` there priced a hop at five
//! times what it pays).  The rest of the price list is still one at a
//! time — a Schnorr verify per screened submission, where a round
//! screens a chunk per batched check — so the ratio reads below 1.  It
//! is one ratio for the whole server side, inside a wide window: a
//! model per phase against the round's own spans is ROADMAP item 5.
//!
//! ```sh
//! cargo run --release -p xrd-bench --bin validate_model
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::backend::{collect_submissions, CoverStore};
use xrd_core::cost::{PipelineConfig, PipelineModel};
use xrd_core::{Deployment, DeploymentConfig, User};
use xrd_sim::{NetworkModel, ServerCompute};
use xrd_topology::{Beacon, Topology};

fn main() {
    let op = xrd_bench::calibrate(false);
    println!("{}\n", xrd_bench::format_op_costs(&op));

    let n_servers = 12;
    let k = 3;
    let n_users = 200;
    let mut rng = StdRng::seed_from_u64(1);

    println!("real run: {n_servers} servers, chains of {k}, {n_users} users");
    let mut deployment = Deployment::new(
        &mut rng,
        DeploymentConfig {
            n_servers,
            chain_len: Some(k),
            f: 0.2,
            n_mailbox_shards: 2,
            seed: 7,
        },
    );
    let mut users: Vec<User> = (0..n_users).map(|_| User::new(&mut rng)).collect();
    // Pair half the users into conversations.
    for i in (0..n_users).step_by(2) {
        let (a, b) = (users[i].pk(), users[i + 1].pk());
        users[i].start_conversation(b);
        users[i + 1].start_conversation(a);
    }
    let ell = deployment.topology().ell();
    println!(
        "  l = {ell} messages/user => {} onions sealed per round (incl. covers)",
        2 * ell * n_users
    );

    // Warm-up round (key schedules, allocator), then measured rounds.
    let _ = deployment.run_round(&mut rng, &mut users);
    let rounds = 3;
    let start = Instant::now();
    for _ in 0..rounds {
        let (report, _) = deployment.run_round(&mut rng, &mut users);
        assert_eq!(report.delivered, n_users * ell);
    }
    let real = start.elapsed().as_secs_f64() / rounds as f64;
    println!("  measured wall time per round: {real:.3} s (includes client sealing)");

    // Client-side share: time the round's sealing phase alone (the
    // model excludes it, matching the paper's methodology of
    // pre-generating messages).
    let start = Instant::now();
    let _ = collect_submissions(
        &mut rng,
        deployment.topology(),
        deployment.chain_keys(),
        deployment.next_chain_keys(),
        deployment.round(),
        &mut CoverStore::new(),
        &users,
    );
    let sealing = start.elapsed().as_secs_f64();
    println!("  of which client sealing: {sealing:.3} s");
    let real_mixing = (real - sealing).max(0.0);
    println!("  server-side (mixing) portion: {real_mixing:.3} s");

    // Model the equivalent configuration: a "server" is a single core;
    // the network is the in-process channel (ideal).
    let beacon = Beacon::from_u64(7);
    let topo = Topology::build_with(&beacon, 0, n_servers, n_servers, k, 0.2);
    let cfg = PipelineConfig {
        op,
        net: NetworkModel::ideal(),
        compute: ServerCompute::with_cores(1),
        cover_traffic: true,
    };
    let model = PipelineModel::new(&topo, cfg);
    let estimate = model.simulate_round(n_users as u64);
    println!(
        "\nmodel estimate (one core per server, chains fully parallel): {:.3} s",
        estimate.latency.as_secs_f64()
    );

    // The model gives every chain a machine of its own; this process
    // runs the chains side by side on its `nproc` cores, each chain's
    // round on one of them (`InProcess::mix`), so the same work takes
    // `chains / nproc` times as long.  Conserve total work to compare.
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let slowdown = (n_servers as f64 / nproc as f64).max(1.0);
    let expected_real = estimate.latency.as_secs_f64() * slowdown;
    println!(
        "this machine has {nproc} cores for {n_servers} chains =>\n\
         expected wall time ~= model x {slowdown:.1} = {expected_real:.3} s"
    );
    let ratio = real_mixing / expected_real;
    println!("real(mixing) / expected = {ratio:.2}");
    println!(
        "\ninterpretation: agreement within a small factor validates the cost\n\
         accounting used for Figures 4-6 (the model prices the crypto operations\n\
         the real chain executes: exponentiations at the batched kernel's price,\n\
         proofs still one at a time, which a round batches - hence below 1)."
    );
    assert!(
        (0.2..5.0).contains(&ratio),
        "model and reality disagree: ratio = {ratio}"
    );
}
