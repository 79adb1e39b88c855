//! Mailbox servers (§5.1): the [`MailboxStore`] tier.
//!
//! Mailboxes are keyed by the owner's public key; different users'
//! mailboxes live on different shards ("similar to e-mail servers,
//! different users' mailboxes can be maintained by different servers").
//! Mailbox servers are trusted for availability only — everything they
//! hold is sealed for its owner.
//!
//! The tier is one trait with two backends:
//!
//! * [`MailboxHub`] — the in-memory backend (tests, in-process
//!   deployments, throwaway daemons);
//! * [`LogMailboxStore`] — the log-structured persistent backend
//!   (fsync'd append-only segment files + an in-memory index, segment
//!   rotation, compaction of acked records, crash recovery by index
//!   rebuild on reopen; see [`log`]).
//!
//! ## Delivery semantics: at-least-once, ack-driven retention
//!
//! Every message a mailbox receives is assigned a monotonically
//! increasing per-mailbox sequence number and *retained until the owner
//! acknowledges it* — a fetch is a read, not a drain.  Readers walk a
//! mailbox in pages ([`MailboxStore::fetch_page`], cursor = sequence
//! number) and then retire what they have safely stored with
//! [`MailboxStore::ack`].  A crash between fetch and ack re-reads the
//! same messages (at-least-once); an ack is idempotent, so retrying it
//! after a lost reply is harmless.  Messages delivered while the owner
//! is offline simply accumulate: retention is driven by acks, never by
//! round windows.
//!
//! Each entry also records the **round it was delivered in**, because
//! mailbox sealing is round-scoped (the AEAD nonce commits to the round
//! number): a user reconnecting at round ρ+3 must open a round-ρ entry
//! with ρ, not ρ+3.

use std::collections::{HashMap, HashSet, VecDeque};

use xrd_crypto::blake2b::Blake2b;
use xrd_mixnet::MailboxMessage;

pub mod log;

pub use log::{LogMailboxStore, LogStoreConfig};

/// Which of `n_shards` mailbox servers owns `mailbox`.
///
/// A free function (rather than a method on [`MailboxHub`]) because the
/// assignment is public protocol state: users, chains and networked
/// deployments all derive it locally from the mailbox id alone.
pub fn shard_of(mailbox: &[u8; 32], n_shards: usize) -> usize {
    assert!(n_shards >= 1);
    let mut h = Blake2b::new(32);
    h.update(b"xrd-mailbox-shard");
    h.update(mailbox);
    let d = h.finalize_32();
    (u64::from_le_bytes(d[..8].try_into().expect("8 bytes")) % n_shards as u64) as usize
}

/// What can go wrong in the mailbox tier.
///
/// The old API could not tell "empty mailbox" from "mailbox that never
/// existed", and `put` had no way to report an overfull shard; every
/// condition is now explicit.  Backends that cannot produce a given
/// variant simply never return it (the in-memory hub has no
/// [`MailboxError::Storage`] failures).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MailboxError {
    /// The mailbox has never received a message (distinct from a known
    /// mailbox that is currently empty, which yields an empty page).
    UnknownMailbox {
        /// The mailbox id that was asked for.
        mailbox: [u8; 32],
    },
    /// The shard's capacity cap would be exceeded by this `put`.
    ShardFull {
        /// The shard that is full.
        shard: usize,
        /// Its configured capacity (pending messages).
        cap: usize,
    },
    /// A message was routed to a store that does not own its shard.
    WrongShard {
        /// The shard the message belongs to.
        shard: usize,
        /// The shard this store serves.
        expected: usize,
    },
    /// A cursor beyond the mailbox's assigned sequence range (a reader
    /// can only learn cursors from pages, so this is a client bug or a
    /// corrupted request).
    BadCursor {
        /// The offending cursor.
        cursor: u64,
        /// The first not-yet-assigned sequence number.
        next: u64,
    },
    /// The persistent backend failed at the I/O layer (or found
    /// corruption it could not repair).
    Storage {
        /// What broke, in human terms.
        message: String,
    },
}

impl std::fmt::Display for MailboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MailboxError::UnknownMailbox { mailbox } => {
                write!(f, "unknown mailbox {:02x}{:02x}…", mailbox[0], mailbox[1])
            }
            MailboxError::ShardFull { shard, cap } => {
                write!(f, "mailbox shard {shard} full (cap {cap})")
            }
            MailboxError::WrongShard { shard, expected } => {
                write!(f, "message for shard {shard} routed to shard {expected}")
            }
            MailboxError::BadCursor { cursor, next } => {
                write!(
                    f,
                    "cursor {cursor} beyond mailbox sequence range (next {next})"
                )
            }
            MailboxError::Storage { message } => write!(f, "mailbox storage: {message}"),
        }
    }
}

impl std::error::Error for MailboxError {}

/// One stored mailbox entry as returned by [`MailboxStore::fetch_page`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageEntry {
    /// The entry's per-mailbox sequence number (the ack cursor space).
    pub seq: u64,
    /// The round the entry was delivered in — what the owner must pass
    /// to `User::open_mailbox`, since sealing nonces are round-scoped.
    pub round: u64,
    /// The sealed payload.
    pub sealed: Vec<u8>,
}

/// One page of a mailbox walk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Page {
    /// Entries in sequence order, starting at the requested cursor
    /// (clamped to the first un-acked entry).
    pub entries: Vec<PageEntry>,
    /// Cursor for the next page: one past the last returned sequence
    /// number (equal to the effective start cursor when the page is
    /// empty).  Passing it to [`MailboxStore::ack`] retires exactly the
    /// entries returned so far.
    pub next_cursor: u64,
    /// Entries still waiting past `next_cursor` at the time of the
    /// read.  `0` means the walk is complete (until new deliveries).
    pub remaining: u64,
}

/// The storage API of one mailbox tier: sharded delivery, paginated
/// non-destructive reads, ack-driven retention.
///
/// See the [module docs](self) for the delivery semantics.  All methods
/// are synchronous; callers that need shard parallelism run one store
/// (or one connection per remote store) per thread.
pub trait MailboxStore {
    /// Deliver one message (Algorithm 1, step 2b) in `round`.  Returns
    /// the sequence number the entry was assigned.
    fn put(&mut self, round: u64, msg: MailboxMessage) -> Result<u64, MailboxError>;

    /// Read up to `max` entries of `mailbox` starting at `cursor`
    /// (sequence number; `0` starts at the first un-acked entry).
    /// Non-destructive: re-reading the same cursor returns the same
    /// entries until they are acked.
    fn fetch_page(
        &mut self,
        mailbox: &[u8; 32],
        cursor: u64,
        max: usize,
    ) -> Result<Page, MailboxError>;

    /// Retire every entry of `mailbox` with sequence number `< upto`,
    /// returning how many were retired.  Idempotent: re-acking an
    /// already-acked prefix is a no-op returning `0`.
    fn ack(&mut self, mailbox: &[u8; 32], upto: u64) -> Result<u64, MailboxError>;

    /// Number of un-acked entries waiting in `mailbox` (the quantity an
    /// adversary observing the mailbox server sees; tests use it to
    /// check the uniformity invariant).
    fn pending(&self, mailbox: &[u8; 32]) -> Result<u64, MailboxError>;

    /// Make everything accepted so far durable (fsync for the
    /// persistent backend; a no-op in memory).
    fn flush(&mut self) -> Result<(), MailboxError>;

    /// Open a delivery batch identified by `(round, batch)`.  Returns
    /// `Ok(false)` if that batch id is in the store's window of recently
    /// committed ones — a retried delivery the caller must ack without
    /// re-storing.
    fn begin_batch(&mut self, round: u64, batch: u64) -> Result<bool, MailboxError>;

    /// Close the delivery batch opened by [`MailboxStore::begin_batch`],
    /// entering its id in the dedup window.  Durable once the following
    /// [`MailboxStore::flush`] returns: a crash before then rolls the
    /// whole batch back on recovery.
    fn commit_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError>;

    /// Abandon a delivery batch after a mid-batch failure: its id is not
    /// remembered, and recovery rolls back whatever parts of it reached
    /// disk.
    fn abort_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError>;
}

/// How many committed delivery-batch ids a store remembers for retry
/// dedup ([`MailboxStore::begin_batch`]).  A sender retries a batch
/// within (at most) a few connection lifetimes, so a small window is
/// plenty; an id that has aged out of it would only be re-stored if a
/// sender retried a batch thousands of batches later, which the
/// coordinator never does.
pub(crate) const BATCH_DEDUP_WINDOW: usize = 4096;

/// The last [`BATCH_DEDUP_WINDOW`] committed `(round, batch)` ids, the
/// oldest evicted first.
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchWindow {
    ids: HashSet<(u64, u64)>,
    order: VecDeque<(u64, u64)>,
}

impl BatchWindow {
    pub(crate) fn contains(&self, round: u64, batch: u64) -> bool {
        self.ids.contains(&(round, batch))
    }

    pub(crate) fn record(&mut self, round: u64, batch: u64) {
        if self.ids.insert((round, batch)) {
            self.order.push_back((round, batch));
            if self.order.len() > BATCH_DEDUP_WINDOW {
                let oldest = self.order.pop_front().expect("len checked");
                self.ids.remove(&oldest);
            }
        }
    }
}

/// Walk a whole mailbox in pages of `page` entries and ack what was
/// read: the convenience "fetch everything" built on the paginated API,
/// used by in-process deployments and tests.  An unknown mailbox is
/// treated as empty (the caller asked on the owner's behalf; a user who
/// was never delivered to simply has nothing).  Returns
/// `(delivery round, sealed payload)` pairs in sequence order.
pub fn drain(
    store: &mut dyn MailboxStore,
    mailbox: &[u8; 32],
    page: usize,
) -> Result<Vec<(u64, Vec<u8>)>, MailboxError> {
    let mut out = Vec::new();
    let mut cursor = 0u64;
    loop {
        let p = match store.fetch_page(mailbox, cursor, page) {
            Ok(p) => p,
            Err(MailboxError::UnknownMailbox { .. }) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let done = p.remaining == 0;
        cursor = p.next_cursor;
        out.extend(p.entries.into_iter().map(|e| (e.round, e.sealed)));
        if done {
            break;
        }
    }
    if !out.is_empty() {
        store.ack(mailbox, cursor)?;
    }
    Ok(out)
}

/// One mailbox's in-memory state: the un-acked tail of its sequence
/// space.  `entries` is sorted by `seq` (append-only puts keep it so).
#[derive(Clone, Debug, Default)]
struct MemBox {
    /// Everything below this sequence number has been acked.
    acked: u64,
    /// Next sequence number to assign.
    next: u64,
    entries: std::collections::VecDeque<(u64, u64, Vec<u8>)>,
}

/// Shared cursor arithmetic for one mailbox page over any sorted
/// entry sequence: effective start, slice bounds, next cursor and
/// remainder.  `seqs` must be ascending.
fn page_bounds(
    mut seqs: impl Iterator<Item = u64> + Clone,
    total: usize,
    acked: u64,
    next: u64,
    cursor: u64,
    max: usize,
) -> Result<(usize, usize, u64, u64), MailboxError> {
    if cursor > next {
        return Err(MailboxError::BadCursor { cursor, next });
    }
    let start_seq = cursor.max(acked);
    let start = seqs.clone().take_while(|&s| s < start_seq).count();
    let take = max.min(total - start);
    let end = start + take;
    let next_cursor = if take == 0 {
        start_seq
    } else {
        seqs.nth(end - 1).expect("end-1 < total") + 1
    };
    Ok((start, end, next_cursor, (total - end) as u64))
}

/// A set of mailbox servers sharded by mailbox id — the in-memory
/// [`MailboxStore`] backend.
///
/// Routing is internal: `put`/`fetch_page` derive the owning shard with
/// [`shard_of`], so a hub with `n` shards is `n` mailbox servers in one
/// value.  An optional per-shard capacity cap makes `put` report
/// [`MailboxError::ShardFull`] instead of growing without bound.
#[derive(Clone, Debug)]
pub struct MailboxHub {
    shards: Vec<HashMap<[u8; 32], MemBox>>,
    /// Un-acked entries per shard (maintained so capacity checks and
    /// [`MailboxHub::total_pending`] are O(1)).
    load: Vec<usize>,
    cap: Option<usize>,
    /// Committed delivery batches, for retry dedup.
    committed: BatchWindow,
}

impl MailboxHub {
    /// Create a hub with `n_shards` mailbox servers and no capacity cap.
    pub fn new(n_shards: usize) -> MailboxHub {
        assert!(n_shards >= 1);
        MailboxHub {
            shards: vec![HashMap::new(); n_shards],
            load: vec![0; n_shards],
            cap: None,
            committed: BatchWindow::default(),
        }
    }

    /// Like [`MailboxHub::new`], but each shard holds at most `cap`
    /// un-acked messages; a `put` past that fails with
    /// [`MailboxError::ShardFull`].
    pub fn with_capacity(n_shards: usize, cap: usize) -> MailboxHub {
        let mut hub = MailboxHub::new(n_shards);
        hub.cap = Some(cap);
        hub
    }

    /// Which shard (mailbox server) owns a mailbox.
    pub fn shard_of(&self, mailbox: &[u8; 32]) -> usize {
        shard_of(mailbox, self.shards.len())
    }

    /// Total un-acked messages currently held across all shards.
    pub fn total_pending(&self) -> usize {
        self.load.iter().sum()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }
}

impl MailboxStore for MailboxHub {
    fn put(&mut self, round: u64, msg: MailboxMessage) -> Result<u64, MailboxError> {
        let shard = self.shard_of(&msg.mailbox);
        if let Some(cap) = self.cap {
            if self.load[shard] >= cap {
                return Err(MailboxError::ShardFull { shard, cap });
            }
        }
        let mbox = self.shards[shard].entry(msg.mailbox).or_default();
        let seq = mbox.next;
        mbox.next += 1;
        mbox.entries.push_back((seq, round, msg.sealed));
        self.load[shard] += 1;
        xrd_obs::counter!("mailbox.puts").incr();
        Ok(seq)
    }

    fn fetch_page(
        &mut self,
        mailbox: &[u8; 32],
        cursor: u64,
        max: usize,
    ) -> Result<Page, MailboxError> {
        let shard = self.shard_of(mailbox);
        let mbox = self.shards[shard]
            .get(mailbox)
            .ok_or(MailboxError::UnknownMailbox { mailbox: *mailbox })?;
        let (start, end, next_cursor, remaining) = page_bounds(
            mbox.entries.iter().map(|(s, _, _)| *s),
            mbox.entries.len(),
            mbox.acked,
            mbox.next,
            cursor,
            max,
        )?;
        let entries = mbox
            .entries
            .iter()
            .skip(start)
            .take(end - start)
            .map(|(seq, round, sealed)| PageEntry {
                seq: *seq,
                round: *round,
                sealed: sealed.clone(),
            })
            .collect();
        xrd_obs::counter!("mailbox.pages").incr();
        Ok(Page {
            entries,
            next_cursor,
            remaining,
        })
    }

    fn ack(&mut self, mailbox: &[u8; 32], upto: u64) -> Result<u64, MailboxError> {
        let shard = self.shard_of(mailbox);
        let mbox = self.shards[shard]
            .get_mut(mailbox)
            .ok_or(MailboxError::UnknownMailbox { mailbox: *mailbox })?;
        if upto > mbox.next {
            return Err(MailboxError::BadCursor {
                cursor: upto,
                next: mbox.next,
            });
        }
        let mut retired = 0u64;
        while mbox.entries.front().is_some_and(|(s, _, _)| *s < upto) {
            mbox.entries.pop_front();
            retired += 1;
        }
        mbox.acked = mbox.acked.max(upto);
        self.load[shard] -= retired as usize;
        xrd_obs::counter!("mailbox.acks").add(retired);
        Ok(retired)
    }

    fn pending(&self, mailbox: &[u8; 32]) -> Result<u64, MailboxError> {
        let shard = self.shard_of(mailbox);
        let mbox = self.shards[shard]
            .get(mailbox)
            .ok_or(MailboxError::UnknownMailbox { mailbox: *mailbox })?;
        Ok(mbox.entries.len() as u64)
    }

    fn flush(&mut self) -> Result<(), MailboxError> {
        Ok(())
    }

    fn begin_batch(&mut self, round: u64, batch: u64) -> Result<bool, MailboxError> {
        Ok(!self.committed.contains(round, batch))
    }

    fn commit_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError> {
        self.committed.record(round, batch);
        Ok(())
    }

    fn abort_batch(&mut self, _round: u64, _batch: u64) -> Result<(), MailboxError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(mailbox: u8, body: u8) -> MailboxMessage {
        MailboxMessage {
            mailbox: [mailbox; 32],
            sealed: vec![body; 4],
        }
    }

    #[test]
    fn put_page_ack_lifecycle() {
        let mut hub = MailboxHub::new(4);
        hub.put(7, msg(1, 10)).unwrap();
        hub.put(7, msg(1, 11)).unwrap();
        hub.put(7, msg(2, 20)).unwrap();
        assert_eq!(hub.pending(&[1u8; 32]), Ok(2));

        // Non-destructive paged read, in order, with rounds.
        let p = hub.fetch_page(&[1u8; 32], 0, 10).unwrap();
        assert_eq!(p.entries.len(), 2);
        assert_eq!(
            p.entries[0],
            PageEntry {
                seq: 0,
                round: 7,
                sealed: vec![10u8; 4]
            }
        );
        assert_eq!((p.next_cursor, p.remaining), (2, 0));
        // Re-read: same entries (a fetch is a read, not a drain).
        assert_eq!(hub.fetch_page(&[1u8; 32], 0, 10).unwrap(), p);

        // Ack retires, and is idempotent.
        assert_eq!(hub.ack(&[1u8; 32], 2).unwrap(), 2);
        assert_eq!(hub.ack(&[1u8; 32], 2).unwrap(), 0);
        assert_eq!(hub.pending(&[1u8; 32]), Ok(0));
        // Acked mailbox stays *known* — empty page, not UnknownMailbox.
        let p2 = hub.fetch_page(&[1u8; 32], 0, 10).unwrap();
        assert!(p2.entries.is_empty());
        assert_eq!(p2.next_cursor, 2);
        assert_eq!(hub.total_pending(), 1);
    }

    #[test]
    fn unknown_mailbox_is_distinguishable_from_empty() {
        let mut hub = MailboxHub::new(2);
        assert!(matches!(
            hub.fetch_page(&[9u8; 32], 0, 4),
            Err(MailboxError::UnknownMailbox { .. })
        ));
        assert!(matches!(
            hub.pending(&[9u8; 32]),
            Err(MailboxError::UnknownMailbox { .. })
        ));
        hub.put(0, msg(9, 1)).unwrap();
        hub.ack(&[9u8; 32], 1).unwrap();
        assert_eq!(hub.pending(&[9u8; 32]), Ok(0)); // known and empty
    }

    #[test]
    fn pagination_partitions_exactly() {
        let mut hub = MailboxHub::new(1);
        for i in 0..23u8 {
            hub.put(3, msg(5, i)).unwrap();
        }
        for page in [1usize, 2, 3, 7, 23, 50] {
            let mut seen = Vec::new();
            let mut cursor = 0;
            loop {
                let p = hub.fetch_page(&[5u8; 32], cursor, page).unwrap();
                assert!(p.entries.len() <= page);
                seen.extend(p.entries.iter().map(|e| e.seq));
                cursor = p.next_cursor;
                if p.remaining == 0 {
                    break;
                }
            }
            assert_eq!(seen, (0..23u64).collect::<Vec<_>>(), "page size {page}");
        }
    }

    #[test]
    fn cursor_is_stable_under_concurrent_puts() {
        // Entries delivered *during* a walk appear after the cursor,
        // never inside already-read territory.
        let mut hub = MailboxHub::new(1);
        for i in 0..4u8 {
            hub.put(0, msg(5, i)).unwrap();
        }
        let p1 = hub.fetch_page(&[5u8; 32], 0, 2).unwrap();
        hub.put(1, msg(5, 99)).unwrap(); // concurrent put mid-walk
        let p2 = hub.fetch_page(&[5u8; 32], p1.next_cursor, 10).unwrap();
        let seqs: Vec<u64> = p2.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        // The first page is unchanged by the interleaved put.
        assert_eq!(
            hub.fetch_page(&[5u8; 32], 0, 2).unwrap().entries,
            p1.entries
        );
    }

    #[test]
    fn shard_capacity_reports_overflow() {
        let mut hub = MailboxHub::with_capacity(1, 2);
        hub.put(0, msg(1, 0)).unwrap();
        hub.put(0, msg(1, 1)).unwrap();
        assert!(matches!(
            hub.put(0, msg(1, 2)),
            Err(MailboxError::ShardFull { shard: 0, cap: 2 })
        ));
        // Acking frees room.
        hub.ack(&[1u8; 32], 1).unwrap();
        hub.put(0, msg(1, 2)).unwrap();
    }

    #[test]
    fn bad_cursor_is_rejected() {
        let mut hub = MailboxHub::new(1);
        hub.put(0, msg(1, 0)).unwrap();
        assert!(matches!(
            hub.fetch_page(&[1u8; 32], 5, 1),
            Err(MailboxError::BadCursor { cursor: 5, next: 1 })
        ));
        assert!(matches!(
            hub.ack(&[1u8; 32], 5),
            Err(MailboxError::BadCursor { .. })
        ));
    }

    #[test]
    fn drain_reads_everything_and_acks() {
        let mut hub = MailboxHub::new(2);
        for r in 0..3u64 {
            for i in 0..5u8 {
                hub.put(r, msg(7, i)).unwrap();
            }
        }
        let got = drain(&mut hub, &[7u8; 32], 4).unwrap();
        assert_eq!(got.len(), 15);
        assert_eq!(got[0].0, 0); // rounds preserved in order
        assert_eq!(got[14].0, 2);
        assert_eq!(hub.pending(&[7u8; 32]), Ok(0));
        // Unknown mailbox drains to empty rather than erroring: the
        // round path fetches on behalf of users who may never have
        // been delivered to.
        assert_eq!(drain(&mut hub, &[8u8; 32], 4).unwrap(), Vec::new());
    }

    #[test]
    fn delivery_batches_dedup_within_the_window() {
        let mut hub = MailboxHub::new(1);
        // A retry after commit is refused.
        assert_eq!(hub.begin_batch(3, 0), Ok(true));
        hub.commit_batch(3, 0).unwrap();
        assert_eq!(hub.begin_batch(3, 0), Ok(false));
        // An aborted id is not remembered: its retry is stored.
        assert_eq!(hub.begin_batch(3, 1), Ok(true));
        hub.abort_batch(3, 1).unwrap();
        assert_eq!(hub.begin_batch(3, 1), Ok(true));
        // The id one past the window evicts the oldest, and only it.
        for batch in 1..BATCH_DEDUP_WINDOW as u64 {
            hub.commit_batch(3, batch).unwrap();
        }
        assert_eq!(hub.begin_batch(3, 0), Ok(false), "the window is full");
        hub.commit_batch(4, 0).unwrap();
        assert_eq!(hub.begin_batch(3, 0), Ok(true), "the oldest is evicted");
        assert_eq!(hub.begin_batch(3, 1), Ok(false));
        assert_eq!(hub.begin_batch(4, 0), Ok(false));
    }

    #[test]
    fn sharding_is_stable_and_spread() {
        let hub = MailboxHub::new(10);
        let mut used = std::collections::HashSet::new();
        for i in 0..100u8 {
            let s = hub.shard_of(&[i; 32]);
            assert_eq!(s, hub.shard_of(&[i; 32]));
            assert!(s < 10);
            used.insert(s);
        }
        assert!(used.len() >= 7, "shard spread too poor: {used:?}");
    }

    #[test]
    fn single_shard_works() {
        let mut hub = MailboxHub::new(1);
        hub.put(0, msg(9, 1)).unwrap();
        assert_eq!(drain(&mut hub, &[9u8; 32], 8).unwrap().len(), 1);
    }
}
