//! A chain's phases ask its daemons all at once, and behave as if they
//! asked them one by one: a daemon that answers [`Frame::Error`] fails
//! the phase with that error's code and leaves every connection in
//! step, and a reply lost on one connection costs that connection alone
//! one redial and one repeat — no other daemon is asked twice.
//!
//! The metrics registry is process-wide and every test here moves it,
//! so they serialize on a shared lock and assert on deltas.

#![cfg(not(feature = "obs-noop"))]

use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys, ChainPublicKeys};
use xrd_net::codec::{error_code, Frame};
use xrd_net::{
    ChainClient, Conn, ConnTimeouts, DaemonHandle, FaultPlan, FaultProxy, MixServerDaemon,
    NetError, RetryPolicy,
};

/// Serializes the registry-delta-sensitive tests.
static REGISTRY_ACCOUNTING: Mutex<()> = Mutex::new(());

/// A three-hop chain's daemons on loopback, under a bundle rotated to
/// inner epoch 0.
fn chain_daemons(seed: u64) -> (Vec<DaemonHandle>, ChainPublicKeys) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut secrets, mut public) = generate_chain_keys(&mut rng, 3, 0);
    rotate_inner_keys(&mut rng, &mut secrets, &mut public, 0);
    let daemons = secrets
        .into_iter()
        .enumerate()
        .map(|(pos, s)| {
            MixServerDaemon::spawn("127.0.0.1:0", s, public.clone(), seed + pos as u64)
                .expect("daemon spawns")
        })
        .collect();
    (daemons, public)
}

fn addrs(daemons: &[DaemonHandle]) -> Vec<std::net::SocketAddr> {
    daemons.iter().map(DaemonHandle::addr).collect()
}

fn remote_code(result: Result<impl std::fmt::Debug, NetError>) -> u16 {
    match result {
        Err(NetError::Remote { code, .. }) => code,
        other => panic!("expected a remote error, got {other:?}"),
    }
}

/// Input agreement on a window that hop 1 never opened: hop 1 answers
/// `UNKNOWN_ROUND`, the phase fails with that code, and the chain's
/// connections stay in step for the next round.
#[test]
fn an_error_reply_fails_input_agreement_with_its_code() {
    let _guard = REGISTRY_ACCOUNTING.lock().unwrap();
    let (daemons, public) = chain_daemons(61);
    let mut chain = ChainClient::connect(&addrs(&daemons), public).expect("chain connects");
    for pos in [0, 2] {
        let mut side = Conn::connect(daemons[pos].addr()).expect("side connects");
        side.request_ok(&Frame::OpenRound { round: 5 })
            .expect("window opens");
    }
    assert_eq!(
        remote_code(chain.close_and_agree(5)),
        error_code::UNKNOWN_ROUND
    );

    chain.open_round(6).expect("the next window opens");
    let batch = chain.close_and_agree(6).expect("the next round agrees");
    assert!(batch.is_empty());
}

/// An activation that hop 2 refuses — a side channel re-armed it for
/// another epoch after the chain's prepare — fails with `BAD_ROTATION`,
/// and the chain stays under its old bundle.
#[test]
fn an_error_reply_fails_the_activation_with_its_code() {
    let _guard = REGISTRY_ACCOUNTING.lock().unwrap();
    let (daemons, public) = chain_daemons(62);
    let mut chain = ChainClient::connect(&addrs(&daemons), public.clone()).expect("connects");
    chain.prepare_rotation(1).expect("shares verify");
    let mut side = Conn::connect(daemons[2].addr()).expect("side connects");
    match side.request(&Frame::PrepareRotation { inner_epoch: 2 }) {
        Ok(Frame::RotationShare { inner_epoch: 2, .. }) => {}
        other => panic!("expected an epoch-2 share, got {other:?}"),
    }
    assert_eq!(
        remote_code(chain.activate_rotation()),
        error_code::BAD_ROTATION
    );
    assert_eq!(chain.public(), &public, "the old bundle stays active");
    chain
        .open_round(0)
        .expect("every connection is still in step");
}

/// Hop 1's first reply to `frame` is lost behind a [`FaultProxy`]: the
/// phase still completes, `chain.reconnects` rises by exactly one, and
/// the daemons see `frame` four times — hop 1 twice, the others once.
fn one_lost_reply_costs_one_redial(
    seed: u64,
    lost_reply: &str,
    phase: impl FnOnce(&mut ChainClient),
    tag: &str,
) {
    let _guard = REGISTRY_ACCOUNTING.lock().unwrap();
    let (daemons, public) = chain_daemons(seed);
    let plan = FaultPlan::parse(&format!("drop tag={lost_reply} dir=down")).expect("plan parses");
    let proxy = FaultProxy::spawn("127.0.0.1:0", daemons[1].addr(), plan).expect("proxy up");
    let mut addrs = addrs(&daemons);
    addrs[1] = proxy.addr();
    let timeouts = ConnTimeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_millis(300),
        write: Duration::from_secs(2),
    };
    let mut chain = ChainClient::connect_with(&addrs, public, timeouts, RetryPolicy::default())
        .expect("chain connects");

    let registry = xrd_obs::global();
    let before = registry.snapshot();
    phase(&mut chain);
    let after = registry.snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("chain.reconnects"), 1, "one redial, hop 1's");
    assert_eq!(delta("fault.injected.drop"), 1);
    assert_eq!(delta(&format!("frames.in.{tag}")), 4, "hop 1 asked twice");
}

#[test]
fn a_lost_open_round_reply_redials_one_connection() {
    let open = |chain: &mut ChainClient| chain.open_round(3).expect("the window opens");
    one_lost_reply_costs_one_redial(63, "Ok", open, "OpenRound");
}

#[test]
fn a_lost_rotation_share_redials_one_connection() {
    let prepare = |chain: &mut ChainClient| {
        let next = chain.prepare_rotation(1).expect("shares verify");
        assert_eq!(next.inner_epoch, 1);
    };
    one_lost_reply_costs_one_redial(64, "RotationShare", prepare, "PrepareRotation");
}
