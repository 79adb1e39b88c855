//! Active-attack demonstration (§6): a malicious user injects a
//! misauthenticated onion that survives until the last server; the
//! aggregate hybrid shuffle detects it, the blame protocol traces it
//! back through every shuffle, and the round completes without the
//! attacker — honest messages all delivered.
//!
//! ```sh
//! cargo run --release --example blame_demo
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd::mixnet::client::seal_ahs;
use xrd::mixnet::testutil::malicious_submission;
use xrd::mixnet::{ChainRunner, MailboxMessage, Submission, PAYLOAD_LEN};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let k = 6;
    let round = 0;
    let mut chain = ChainRunner::new(&mut rng, k, round);
    println!("chain of {k} servers, AHS enabled");

    // Eight honest users...
    let mut subs: Vec<Submission> = (0..8)
        .map(|i| {
            let msg = MailboxMessage {
                mailbox: [i as u8; 32],
                sealed: vec![i as u8; PAYLOAD_LEN + 16],
            };
            seal_ahs(&mut rng, chain.public(), round, &msg)
        })
        .collect();

    // ...plus one attacker whose onion is valid until the very last hop
    // (the worst case for detection and blame).
    let attacker_index = 4;
    subs.insert(
        attacker_index,
        malicious_submission(&mut rng, chain.public(), round, k - 1),
    );
    println!(
        "9 submissions (index {attacker_index} is malicious, crafted to fail at hop {})",
        k - 1
    );

    let outcome = chain.run_round(&mut rng, round, &subs);
    println!(
        "blame rounds: {}, removed users: {:?}, misbehaving servers: {:?}",
        outcome.stats.blame_rounds, outcome.malicious_users, outcome.misbehaving_servers
    );
    println!(
        "delivered {} honest messages (all 8 expected)",
        outcome.delivered.len()
    );
    assert_eq!(outcome.malicious_users, vec![attacker_index]);
    assert_eq!(outcome.delivered.len(), 8);
}
