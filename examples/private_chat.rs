//! A multi-round private conversation, demonstrating the §5.3.3 churn
//! story: Alice goes offline mid-conversation; her pre-submitted cover
//! messages keep the traffic pattern indistinguishable and tell Bob to
//! stop conversing.
//!
//! ```sh
//! cargo run --release --example private_chat
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd::core::FetchResults;
use xrd::core::{Deployment, DeploymentConfig, Received, User};

fn print_round(round: u64, ell: usize, users: &[User], fetched: &FetchResults) {
    println!("--- round {round} ---");
    for (i, name) in ["Alice", "Bob"].iter().enumerate() {
        if !users[i].online {
            println!("{name}: offline");
            continue;
        }
        let received = &fetched[&users[i].mailbox_id()];
        for r in received {
            match r {
                Received::Chat { data, .. } if !data.is_empty() => {
                    println!("{name} <- chat: {:?}", String::from_utf8_lossy(data))
                }
                Received::Chat { .. } => println!("{name} <- (empty chat keepalive)"),
                Received::PartnerOffline { .. } => println!("{name} <- partner went offline"),
                Received::Loopback => {}
                Received::Opaque => println!("{name} <- ???"),
            }
        }
        println!("{name}: mailbox size {} (always l = {ell})", received.len());
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut deployment = Deployment::new(&mut rng, DeploymentConfig::small(6, 2));
    let ell = deployment.topology().ell();

    let mut users: Vec<User> = (0..6).map(|_| User::new(&mut rng)).collect();
    let (alice_pk, bob_pk) = (users[0].pk(), users[1].pk());
    users[0].start_conversation(bob_pk);
    users[1].start_conversation(alice_pk);
    users[0].queue_chat(b"round 0: hello!".to_vec());
    users[0].queue_chat(b"round 1: still here".to_vec());
    users[1].queue_chat(b"round 0: hey".to_vec());
    users[1].queue_chat(b"round 1: ack".to_vec());

    // Two normal rounds of chat.
    for _ in 0..2 {
        let (report, fetched) = deployment.run_round(&mut rng, &mut users);
        print_round(report.round, ell, &users, &fetched);
    }

    // Alice vanishes without telling Bob.  Her cover messages (submitted
    // during the previous round, sealed for this round's keys) are mixed
    // instead; one of them tells Bob she is gone.
    println!("\n*** Alice goes offline unexpectedly ***\n");
    users[0].online = false;
    let (report, fetched) = deployment.run_round(&mut rng, &mut users);
    print_round(report.round, ell, &users, &fetched);
    assert!(users[1].partner().is_none(), "Bob reverts to loopbacks");

    // Next round Bob is indistinguishable from an idle user.
    let (report, fetched) = deployment.run_round(&mut rng, &mut users);
    print_round(report.round, ell, &users, &fetched);
    let bob_received = &fetched[&users[1].mailbox_id()];
    assert!(bob_received.iter().all(|r| *r == Received::Loopback));
    println!("\nBob is now all-loopback; the adversary saw identical traffic throughout.");
}
