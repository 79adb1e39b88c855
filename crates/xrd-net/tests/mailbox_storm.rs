//! The mailbox storm at small scale, in memory and on the persistent
//! store: exact accounting over both rounds, and the registry's proof
//! that every fetching mailbox was its own connection — the users'
//! path, not a bulk reader.
//!
//! One test in its own binary, so the process-wide registry's accept
//! counter moves for nobody else.  The 100k storm in CI is the same
//! code at paper scale.

#![cfg(not(feature = "obs-noop"))]

use xrd_net::{mailbox_storm, MailboxStormConfig};

#[test]
fn storm_accounts_exactly_and_fetches_one_connection_per_mailbox() {
    const MAILBOXES: usize = 300;
    const SHARDS: usize = 2;
    const PER_BOX: usize = 2;
    const OFFLINE: usize = MAILBOXES / 4;

    let dir = std::env::temp_dir().join(format!("xrd-mbstorm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    for persist_dir in [None, Some(dir.clone())] {
        let backend = if persist_dir.is_some() {
            "persistent"
        } else {
            "in-memory"
        };
        let config = MailboxStormConfig {
            shards: SHARDS,
            mailboxes: MAILBOXES,
            per_box: PER_BOX,
            offline_fraction: 0.25,
            persist_dir,
            seed: 11,
        };
        let accepts_before = xrd_obs::global().snapshot().counter("reactor.accepts");
        let report = mailbox_storm(&config).unwrap_or_else(|e| panic!("{backend} storm: {e}"));
        let accepts = report.stats.counter("reactor.accepts") - accepts_before;

        assert_eq!(report.lost, 0, "{backend}");
        assert_eq!(report.duplicated, 0, "{backend}");
        assert_eq!(report.messages_per_round, MAILBOXES * PER_BOX);
        // Round 0: the online three quarters read their round's mail.
        assert_eq!(
            report.rounds[0].fetched,
            ((MAILBOXES - OFFLINE) * PER_BOX) as u64,
            "{backend}"
        );
        // Round 1: everyone reads a round's worth, and the offline
        // quarter round 0's on top of it.
        assert_eq!(
            report.rounds[1].fetched,
            ((MAILBOXES + OFFLINE) * PER_BOX) as u64,
            "{backend}"
        );
        // One delivery connection per shard, then one connection per
        // mailbox fetched per round — nothing shares a wire.
        assert_eq!(
            accepts,
            (SHARDS + (MAILBOXES - OFFLINE) + MAILBOXES) as u64,
            "{backend}: a fetch that is not one connection per mailbox is not the users' path"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
