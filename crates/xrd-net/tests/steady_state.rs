//! The steady state of a deployment's client side: users keep their
//! connections across rounds, so only the first round dials.
//!
//! Alone in its binary on purpose: it asserts on deltas of the
//! process-wide registry (`reactor.accepts`, `swarm.dials`), which
//! sibling tests with clusters of their own would perturb.  CI runs it
//! by name with `--nocapture`: the per-round table it prints makes a
//! regression to per-frame connections readable in the log.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::user::User;
use xrd_core::DeploymentConfig;
use xrd_net::launch_local;

/// Three rounds on a loopback cluster: round 1 dials one connection per
/// (submission, hop) and per fetching user; rounds 2 and 3 ride those
/// connections — no daemon accepts anything, the swarm dials nothing —
/// and every submission's proof is still screened, in groups.
#[test]
fn rounds_after_the_first_dial_nothing() {
    const N_USERS: usize = 96;
    // 960 kept connections, both ends in this process, plus 20 daemons.
    let fd_limit = xrd_net::swarm::reactor::raise_nofile_limit(4096);
    assert!(
        fd_limit >= 2560,
        "cannot keep {N_USERS} users' connections open at once (RLIMIT_NOFILE {fd_limit})"
    );
    let mut rng = StdRng::seed_from_u64(17);
    let config = DeploymentConfig::small(6, 3);
    let (mut cluster, mut deployment) = launch_local(&mut rng, &config).expect("cluster launches");
    let ell = deployment.topology().ell();
    let k = deployment.topology().chain_len();
    let mut users: Vec<User> = (0..N_USERS).map(|_| User::new(&mut rng)).collect();

    // The coordinator's own connections are up; from here on every
    // accept is a user's.
    let mut before = xrd_obs::global().snapshot();
    let screened_at_start = before.hist("submit.screen_batch").map_or(0, |h| h.sum);
    println!("round | reactor.accepts | swarm.dials | swarm.conns_reused | swarm.conns_evicted");
    let mut per_round = Vec::new();
    for round in 0..3 {
        let (report, fetched) = deployment
            .run_round(&mut rng, &mut users)
            .expect("round completes");
        assert_eq!(report.delivered, N_USERS * ell, "round {round}");
        assert_eq!(fetched.len(), N_USERS, "round {round}");
        let after = xrd_obs::global().snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        let row = (
            delta("reactor.accepts"),
            delta("swarm.dials"),
            delta("swarm.conns_reused"),
            delta("swarm.conns_evicted"),
        );
        println!(
            "{round:>5} | {:>15} | {:>11} | {:>18} | {:>19}",
            row.0, row.1, row.2, row.3
        );
        per_round.push(row);
        before = after;
    }

    let exchanges = (N_USERS * ell * k + N_USERS) as u64;
    assert_eq!(
        per_round[0],
        (exchanges, exchanges, 0, 0),
        "round 1 dials every (submission, hop) and every fetching user once"
    );
    for (round, row) in per_round.iter().enumerate().skip(1) {
        assert_eq!(
            *row,
            (0, 0, exchanges, 0),
            "round {}: every exchange rides a kept connection",
            round + 1
        );
    }

    let stats = xrd_obs::global().snapshot();
    let screened = stats
        .hist("submit.screen_batch")
        .expect("daemons screened submissions");
    println!(
        "submit.screen_batch: {} groups, {} submissions, p50 {} max {}",
        screened.count,
        screened.sum,
        screened.p50(),
        screened.max
    );
    assert_eq!(
        screened.sum - screened_at_start,
        3 * (N_USERS * ell * k) as u64,
        "every server of a chain screens every submission, every round"
    );
    assert_eq!(stats.counter("submit.screen_fallbacks"), 0, "honest window");

    drop(deployment);
    cluster.shutdown();
}
