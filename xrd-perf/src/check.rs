//! Output checking.  Part of every run, not an option: a round that
//! is fast and wrong is reported as failed deliveries, not as fast.

use std::collections::HashMap;

use xrd_core::{FetchResults, Received, RoundReport};

use crate::inputs::{EntryLabel, Mailboxes, Population, ENTRIES_PER_ROUND};

/// Expected deliveries against verified ones, over a whole run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Deliveries the workload's inputs call for.
    pub attempted: u64,
    /// Deliveries that did not check out: missing, duplicated,
    /// undecryptable, or carrying the wrong chat.
    pub failed: u64,
    /// The first few failures, in words.
    pub notes: Vec<String>,
}

impl Tally {
    /// `failed / attempted`.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Deliveries that checked out.
    pub fn verified(&self) -> u64 {
        self.attempted.saturating_sub(self.failed)
    }

    fn fail(&mut self, n: u64, note: impl FnOnce() -> String) {
        self.failed += n;
        if n > 0 && self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Check one round's outputs against the population that produced
/// them: every user gets exactly ℓ entries — ℓ loopbacks if idle, ℓ−1
/// loopbacks plus the partner's chat *for this round* if conversing —
/// and no chain failed or aborted.
pub fn check_round(
    pop: &Population,
    ell: usize,
    round: u64,
    report: &RoundReport,
    fetched: &FetchResults,
) -> Tally {
    let mut tally = Tally {
        attempted: (pop.users.len() * ell) as u64,
        ..Tally::default()
    };
    if !report.failed_chains.is_empty() || !report.aborted_chains.is_empty() {
        // The missing deliveries are counted per user below; say why.
        tally.notes.push(format!(
            "round {round}: chains failed {:?}, aborted {:?}",
            report.failed_chains, report.aborted_chains
        ));
    }
    for (i, user) in pop.users.iter().enumerate() {
        let got: &[Received] = fetched
            .get(&user.mailbox_id())
            .map_or(&[], |entries| entries.as_slice());
        let chat = pop.partner[i].map(|p| Received::Chat {
            from: pop.users[p].mailbox_id(),
            data: Population::chat(p, round),
        });
        let want_chats = usize::from(chat.is_some());
        let want_loopbacks = ell - want_chats;
        let chats = got.iter().filter(|r| Some(*r) == chat.as_ref()).count();
        let loopbacks = got.iter().filter(|r| **r == Received::Loopback).count();
        let matched = chats.min(want_chats) + loopbacks.min(want_loopbacks);
        // A dropped entry is one short of ℓ; a duplicated or foreign
        // entry is one too many.  Both are failures.
        let missing = ell - matched;
        let surplus = got.len() - matched;
        tally.fail((missing + surplus) as u64, || {
            format!(
                "round {round}: user {i} got {} entries ({chats} partner chats, \
                 {loopbacks} loopbacks), wanted {want_chats} + {want_loopbacks}",
                got.len()
            )
        });
    }
    tally
}

/// The `mailbox_persist` ledger: every entry delivered must be read
/// back exactly once, from its own mailbox, stamped with its delivery
/// round.
pub struct MailboxLedger {
    /// Per mailbox: slots still unread, as a bitmask per delivery round.
    outstanding: Vec<HashMap<u64, u8>>,
    /// Entries read back correctly.
    pub read: u64,
    /// Entries read twice, or never delivered.
    pub duplicated: u64,
    /// Entries a completed walk should have returned and did not.
    pub lost: u64,
    notes: Vec<String>,
}

impl MailboxLedger {
    /// A ledger for `n` mailboxes, nothing delivered yet.
    pub fn new(n: usize) -> MailboxLedger {
        MailboxLedger {
            outstanding: vec![HashMap::new(); n],
            read: 0,
            duplicated: 0,
            lost: 0,
            notes: Vec::new(),
        }
    }

    /// Record that every mailbox was sent its entries for `round`.
    pub fn delivered(&mut self, round: u64) {
        for boxed in &mut self.outstanding {
            boxed.insert(round, (1u8 << ENTRIES_PER_ROUND) - 1);
        }
    }

    /// Record one completed, acked walk of `mailbox`: `entries` is what
    /// it returned.  Everything delivered so far and not in `entries`
    /// is lost.
    pub fn fetched(&mut self, mailbox: usize, entries: &[(u64, Vec<u8>)]) {
        for (stamp, sealed) in entries {
            let label = Mailboxes::label_of(sealed);
            let slot_bit = label.map_or(0, |l| 1u8 << l.slot.min(7));
            let known = match label {
                Some(EntryLabel {
                    mailbox: m, round, ..
                }) if m == mailbox && round == *stamp => self.outstanding[mailbox]
                    .get_mut(&round)
                    .filter(|bits| **bits & slot_bit != 0),
                _ => None,
            };
            match known {
                Some(bits) => {
                    *bits &= !slot_bit;
                    self.read += 1;
                }
                None => {
                    self.duplicated += 1;
                    if self.notes.len() < 8 {
                        self.notes
                            .push(format!("mailbox {mailbox}: unexpected entry {label:?}"));
                    }
                }
            }
        }
        for (round, bits) in self.outstanding[mailbox].drain() {
            let lost = bits.count_ones() as u64;
            self.lost += lost;
            if lost > 0 && self.notes.len() < 8 {
                self.notes.push(format!(
                    "mailbox {mailbox}: {lost} entries of round {round} lost"
                ));
            }
        }
    }

    /// Entries delivered and not yet walked (backlog by design).
    pub fn pending(&self) -> u64 {
        self.outstanding
            .iter()
            .flat_map(|boxed| boxed.values())
            .map(|bits| bits.count_ones() as u64)
            .sum()
    }

    /// The run's tally: every entry delivered was an attempted
    /// delivery; lost, duplicated and never-read entries failed.
    pub fn tally(&self) -> Tally {
        let failed = self.lost + self.duplicated + self.pending();
        Tally {
            attempted: self.read + self.lost + self.pending(),
            failed,
            notes: self.notes.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{rng, Stream};
    use xrd_topology::{Beacon, Topology};

    /// A correct round's outputs for `pop`, built by hand.
    fn perfect_round(pop: &Population, ell: usize, round: u64) -> FetchResults {
        pop.users
            .iter()
            .enumerate()
            .map(|(i, user)| {
                let mut got = vec![Received::Loopback; ell];
                if let Some(p) = pop.partner[i] {
                    got[0] = Received::Chat {
                        from: pop.users[p].mailbox_id(),
                        data: Population::chat(p, round),
                    };
                }
                (user.mailbox_id(), got)
            })
            .collect()
    }

    #[test]
    fn dropped_and_duplicated_deliveries_fail() {
        let topo = Topology::build_with(&Beacon::from_u64(0), 0, 6, 6, 3, 0.2);
        let pop = Population::generate(&mut rng(1, Stream::Users), &topo, 8);
        let report = RoundReport::default();
        let ell = topo.ell();

        let good = perfect_round(&pop, ell, 4);
        let tally = check_round(&pop, ell, 4, &report, &good);
        assert_eq!((tally.attempted, tally.failed), (8 * ell as u64, 0));

        let mut dropped = good.clone();
        dropped.get_mut(&pop.users[5].mailbox_id()).unwrap().pop();
        let tally = check_round(&pop, ell, 4, &report, &dropped);
        assert_eq!(tally.failed, 1);
        assert!(tally.fail_share() > 0.0);

        let mut duplicated = good.clone();
        duplicated
            .get_mut(&pop.users[5].mailbox_id())
            .unwrap()
            .push(Received::Loopback);
        assert_eq!(check_round(&pop, ell, 4, &report, &duplicated).failed, 1);

        // Last round's chat arriving again is not this round's chat.
        let stale = perfect_round(&pop, ell, 3);
        let tally = check_round(&pop, ell, 4, &report, &stale);
        assert_eq!(
            tally.failed,
            2 * pop.partner.iter().flatten().count() as u64
        );

        let mut missing_user = good;
        missing_user.remove(&pop.users[7].mailbox_id());
        assert_eq!(
            check_round(&pop, ell, 4, &report, &missing_user).failed,
            ell as u64
        );
    }

    #[test]
    fn ledger_counts_lost_and_duplicated_entries() {
        let boxes = Mailboxes::generate(&mut rng(2, Stream::Mailboxes), 2);
        let entries = |mailbox: usize, round: u64| -> Vec<(u64, Vec<u8>)> {
            (0..ENTRIES_PER_ROUND)
                .map(|slot| {
                    let label = EntryLabel {
                        mailbox,
                        round,
                        slot,
                    };
                    (round, boxes.message(label).sealed)
                })
                .collect()
        };

        let mut ledger = MailboxLedger::new(2);
        ledger.delivered(0);
        ledger.fetched(0, &entries(0, 0));
        assert_eq!(ledger.pending(), ENTRIES_PER_ROUND as u64);
        ledger.delivered(1);
        let mut backlog = entries(1, 0);
        backlog.extend(entries(1, 1));
        ledger.fetched(1, &backlog);
        ledger.fetched(0, &entries(0, 1));
        assert_eq!(ledger.tally().failed, 0);
        assert_eq!(ledger.tally().attempted, 4 * ENTRIES_PER_ROUND as u64);

        // One entry dropped, one returned twice, one under another
        // mailbox's walk.
        ledger.delivered(2);
        let mut bad = entries(0, 2);
        bad.pop();
        bad.push(bad[0].clone());
        bad.push(entries(1, 2).remove(0));
        ledger.fetched(0, &bad);
        assert_eq!((ledger.lost, ledger.duplicated), (1, 2));
        let tally = ledger.tally();
        assert!(tally.fail_share() > 0.0);
        assert_eq!(tally.failed, 3 + ENTRIES_PER_ROUND as u64);
    }
}
