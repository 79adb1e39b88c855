//! The log-structured persistent [`MailboxStore`] backend.
//!
//! ## On-disk layout
//!
//! A store is one directory holding append-only **segment files**
//! `seg-<id:016x>.log`.  Each is a [`RecordLog`] behind the `XRDMBOX2`
//! magic — framing, checksums, torn-tail repair and the failure rule
//! are that type's (see [`crate::record_log`]) — whose record payloads
//! are:
//!
//! ```text
//! PUT    = [0x01][mailbox:32][seq:u64][round:u64][sealed…]
//! ACK    = [0x02][mailbox:32][upto:u64]
//! BEGIN  = [0x03][round:u64][batch:u64]
//! COMMIT = [0x04][round:u64][batch:u64]
//! ABORT  = [0x05][round:u64][batch:u64]
//! ```
//!
//! All integers little-endian; a PUT's sealed bytes run to the end of
//! its record.  BEGIN/COMMIT/ABORT bracket one wire `Deliver` batch
//! ([`MailboxStore::begin_batch`]): PUTs between a BEGIN and its COMMIT
//! belong to that delivery and are only applied on recovery if the
//! COMMIT landed — a crash mid-batch rolls the partial batch back (an
//! ABORT is appended on reopen), so the sender's retry stores it
//! exactly once.  Committed `(round, batch)` ids double as the durable
//! delivery-dedup window: `begin_batch` answers `false` for an id whose
//! COMMIT is already on disk.  Bare PUTs outside any bracket
//! (compaction copies, direct store users) are committed by
//! construction.
//! Exactly one segment (the highest id) is *active* and appended to;
//! when it exceeds [`LogStoreConfig::segment_bytes`] it is synced,
//! sealed, and a fresh one started (**rotation**).
//!
//! ## Index, compaction, recovery
//!
//! The in-memory index maps each mailbox to its un-acked entry
//! locations `(seq, round, segment, offset, len)` plus its ack
//! watermark; reads are `pread`s straight out of segment files.  An ack
//! appends an ACK record (so retention survives restarts) and drops the
//! retired locations.  A sealed segment whose live share falls to half
//! or below — or to zero — is **compacted**: the current ack watermark
//! of every mailbox it touched and copies of its still-live entries
//! (original `seq`/`round` preserved) are appended to the active
//! segment, then the file is deleted.
//!
//! **Recovery** on [`LogMailboxStore::open`] replays every segment in
//! id order through the same two index functions the live `put` and
//! `ack` use, so it is idempotent by their rules: a stale ack moves
//! nothing, a PUT below the watermark is dropped, and a PUT for a
//! sequence number already indexed — a compaction copy — relocates the
//! entry.  A crash anywhere in compaction or delivery recovers cleanly.
//! `mailbox.recovery_us` records how long the rebuild took.
//!
//! ## After a failed sync or append
//!
//! The active segment's [`RecordLog`] refuses everything until the
//! store is reopened, and the store with it: every later `put`/`ack`/
//! `begin_batch`/`commit_batch`/`abort_batch`/`flush` returns
//! [`MailboxError::Storage`].  What is the store's own to answer is the
//! index, which already holds what the failed sync was to cover (the
//! ack watermark moved, the batch id is in the dedup window): the two
//! calls that can answer from it without touching the file —
//! `begin_batch`'s dedup hit and `ack`'s idempotent shortcut — ask the
//! log first, or a retry would be acknowledged for something that is
//! not on disk.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

use xrd_mixnet::MailboxMessage;

use super::{page_bounds, shard_of, BatchWindow, MailboxError, MailboxStore, Page, PageEntry};
use crate::record_log::RecordLog;

const MAGIC: &[u8; 8] = b"XRDMBOX2";
const KIND_PUT: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_TXN_BEGIN: u8 = 3;
const KIND_TXN_COMMIT: u8 = 4;
const KIND_TXN_ABORT: u8 = 5;
/// Bytes of a PUT payload ahead of its sealed message.
const PUT_HEADER: usize = 1 + 32 + 8 + 8;

/// Tuning knobs for a [`LogMailboxStore`].
#[derive(Clone, Copy, Debug)]
pub struct LogStoreConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for LogStoreConfig {
    fn default() -> LogStoreConfig {
        LogStoreConfig {
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Where one live entry's sealed bytes sit on disk.
#[derive(Clone, Copy, Debug)]
struct EntryLoc {
    seq: u64,
    round: u64,
    seg: u64,
    /// Byte offset of the sealed payload within the segment file.
    offset: u64,
    len: u32,
}

#[derive(Debug, Default)]
struct BoxIndex {
    /// Everything below this sequence number has been acked.
    acked: u64,
    /// Next sequence number to assign.
    next: u64,
    /// Live entries, ascending by `seq`.
    entries: VecDeque<EntryLoc>,
}

struct Segment {
    log: RecordLog,
    /// Live (indexed, un-acked) PUT records still pointing here.
    live: u64,
    /// Bytes of those live records' payloads.
    live_bytes: u64,
    /// Total payload bytes ever indexed from this segment (compaction
    /// denominator).
    put_bytes: u64,
    /// Every mailbox with an indexed PUT or an ACK in this segment —
    /// compaction re-appends their ack watermarks before deleting the
    /// file.
    touched: HashSet<[u8; 32]>,
}

/// The log-structured persistent mailbox backend; see the [module
/// docs](self) for format and semantics.  One store serves one shard
/// of a deployment (`shard`/`n_shards` reject wrongly-routed puts).
pub struct LogMailboxStore {
    dir: PathBuf,
    shard: usize,
    n_shards: usize,
    cfg: LogStoreConfig,
    active_id: u64,
    segments: BTreeMap<u64, Segment>,
    index: HashMap<[u8; 32], BoxIndex>,
    /// Appends since the last fsync.
    dirty: bool,
    /// Recently committed delivery-batch ids (the durable dedup
    /// window).
    committed: BatchWindow,
    /// Replay-only: the delivery transaction currently open, with the
    /// PUTs held back since its BEGIN.
    replay_txn: Option<ReplayTxn>,
}

/// One open delivery transaction during recovery replay.
struct ReplayTxn {
    round: u64,
    batch: u64,
    staged: Vec<([u8; 32], EntryLoc)>,
}

fn io_err(what: &str, e: std::io::Error) -> MailboxError {
    MailboxError::Storage {
        message: format!("{what}: {e}"),
    }
}

fn put_header(mailbox: &[u8; 32], seq: u64, round: u64) -> [u8; PUT_HEADER] {
    let mut rec = [KIND_PUT; PUT_HEADER];
    rec[1..33].copy_from_slice(mailbox);
    rec[33..41].copy_from_slice(&seq.to_le_bytes());
    rec[41..].copy_from_slice(&round.to_le_bytes());
    rec
}

fn ack_record(mailbox: &[u8; 32], upto: u64) -> [u8; 41] {
    let mut rec = [KIND_ACK; 41];
    rec[1..33].copy_from_slice(mailbox);
    rec[33..].copy_from_slice(&upto.to_le_bytes());
    rec
}

fn txn_record(kind: u8, round: u64, batch: u64) -> [u8; 17] {
    let mut rec = [kind; 17];
    rec[1..9].copy_from_slice(&round.to_le_bytes());
    rec[9..].copy_from_slice(&batch.to_le_bytes());
    rec
}

/// One record, decoded.
enum Record {
    Put { mailbox: [u8; 32], loc: EntryLoc },
    Ack { mailbox: [u8; 32], upto: u64 },
    Txn { kind: u8, round: u64, batch: u64 },
}

/// Decode the payload `rec` found at byte `at` of segment `seg`;
/// `None` for a kind or a length no version of this store writes.
fn decode_record(seg: u64, at: u64, rec: &[u8]) -> Option<Record> {
    let u64_at = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
    let mailbox = || rec[1..33].try_into().expect("32 bytes");
    match *rec.first()? {
        KIND_PUT if rec.len() >= PUT_HEADER => Some(Record::Put {
            mailbox: mailbox(),
            loc: EntryLoc {
                seq: u64_at(33),
                round: u64_at(41),
                seg,
                offset: at + PUT_HEADER as u64,
                len: (rec.len() - PUT_HEADER) as u32,
            },
        }),
        KIND_ACK if rec.len() == 41 => Some(Record::Ack {
            mailbox: mailbox(),
            upto: u64_at(33),
        }),
        kind @ (KIND_TXN_BEGIN | KIND_TXN_COMMIT | KIND_TXN_ABORT) if rec.len() == 17 => {
            Some(Record::Txn {
                kind,
                round: u64_at(1),
                batch: u64_at(9),
            })
        }
        _ => None,
    }
}

impl LogMailboxStore {
    /// Open (or create) the store in `dir`, rebuilding the index from
    /// the segment files found there.
    pub fn open(
        dir: impl Into<PathBuf>,
        shard: usize,
        n_shards: usize,
        cfg: LogStoreConfig,
    ) -> Result<LogMailboxStore, MailboxError> {
        assert!(shard < n_shards);
        let start = std::time::Instant::now();
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create store dir", e))?;

        let mut ids: Vec<u64> = std::fs::read_dir(&dir)
            .map_err(|e| io_err("list store dir", e))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        ids.sort_unstable();
        if ids.is_empty() {
            ids.push(0);
        }

        let mut store = LogMailboxStore {
            dir,
            shard,
            n_shards,
            cfg,
            active_id: 0,
            segments: BTreeMap::new(),
            index: HashMap::new(),
            dirty: false,
            committed: BatchWindow::default(),
            replay_txn: None,
        };
        for id in ids {
            store.open_segment(id)?;
        }
        // A transaction still open at the end of replay is the
        // crash-mid-batch case: its staged PUTs are dropped (the
        // sender never got an ack, so it retries the whole batch) and
        // an ABORT record is appended so the dangling BEGIN can never
        // resurrect them on a later recovery.
        if let Some(txn) = store.replay_txn.take() {
            xrd_obs::counter!("mailbox.recovery.aborted_batches").incr();
            store.abort_batch(txn.round, txn.batch)?;
        }
        xrd_obs::hist!("mailbox.recovery_us").record_duration(start.elapsed());
        Ok(store)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of segment files currently on disk (tests).
    #[doc(hidden)]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// `(id, byte length)` of the active segment (tests use this to
    /// compute truncation points for crash simulation).
    #[doc(hidden)]
    pub fn active_segment(&self) -> (u64, u64) {
        (self.active_id, self.active().log.len_bytes())
    }

    fn active(&self) -> &Segment {
        &self.segments[&self.active_id]
    }

    fn active_mut(&mut self) -> &mut Segment {
        self.segments.get_mut(&self.active_id).expect("active")
    }

    /// Refuse if the active segment's log failed earlier — the one
    /// question the index cannot answer for itself.
    fn check(&self) -> Result<(), MailboxError> {
        self.active().log.check().map_err(|e| io_err("segment", e))
    }

    /// Open segment `id` — created if absent — make it the active one
    /// and replay what it holds into the index.
    fn open_segment(&mut self, id: u64) -> Result<(), MailboxError> {
        let path = self.dir.join(format!("seg-{id:016x}.log"));
        let (log, replay) = RecordLog::open(path, MAGIC).map_err(|e| io_err("open segment", e))?;
        if replay.torn {
            xrd_obs::counter!("mailbox.recovery.torn_tails").incr();
        }
        let segment = Segment {
            log,
            live: 0,
            live_bytes: 0,
            put_bytes: 0,
            touched: HashSet::new(),
        };
        self.segments.insert(id, segment);
        self.active_id = id;
        for (at, rec) in replay.records() {
            match decode_record(id, at, rec) {
                Some(Record::Put { mailbox, loc }) => match &mut self.replay_txn {
                    // Inside a delivery bracket: held back until its
                    // COMMIT proves the batch landed.
                    Some(txn) => txn.staged.push((mailbox, loc)),
                    // Bare PUT (compaction copy, direct store user):
                    // committed by construction.
                    None => self.index_put(mailbox, loc),
                },
                Some(Record::Ack { mailbox, upto }) => {
                    self.index_ack(mailbox, upto);
                }
                Some(Record::Txn { kind, round, batch }) => {
                    // An ABORT rolls the open bracket's PUTs back (the
                    // batch never completed; the sender retries), a
                    // COMMIT applies them.  So does a BEGIN: one while
                    // a bracket is open cannot be produced by the
                    // runtime (every batch ends in COMMIT or ABORT, and
                    // open() closes a dangling one), but if it ever
                    // appears, better to apply than to lose data.
                    let open = self.replay_txn.take();
                    if kind != KIND_TXN_ABORT {
                        for (mailbox, loc) in open.into_iter().flat_map(|txn| txn.staged) {
                            self.index_put(mailbox, loc);
                        }
                    }
                    match kind {
                        KIND_TXN_BEGIN => {
                            self.replay_txn = Some(ReplayTxn {
                                round,
                                batch,
                                staged: Vec::new(),
                            })
                        }
                        KIND_TXN_COMMIT => self.committed.record(round, batch),
                        _ => {}
                    }
                }
                // The checksum says it was written whole, so it is not
                // ours to cut off: some other version's record.
                None => {
                    return Err(MailboxError::Storage {
                        message: format!("segment {id:x}: unknown record at byte {at}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Index one PUT record sitting at `loc` — the live `put`, a
    /// compaction copy and replay alike.  Below the ack watermark it is
    /// dead on arrival; for a sequence number already indexed it is a
    /// compaction copy and the entry moves to it.
    fn index_put(&mut self, mailbox: [u8; 32], loc: EntryLoc) {
        let len = loc.len as u64;
        let b = self.index.entry(mailbox).or_default();
        b.next = b.next.max(loc.seq + 1);
        let seg = self.segments.get_mut(&loc.seg).expect("open segment");
        seg.touched.insert(mailbox);
        seg.put_bytes += len;
        if loc.seq < b.acked {
            return;
        }
        seg.live += 1;
        seg.live_bytes += len;
        // Append order is seq order per mailbox except for compaction
        // copies, so this is the back of the queue on the live path.
        let pos = b.entries.partition_point(|e| e.seq < loc.seq);
        match b.entries.get_mut(pos).filter(|e| e.seq == loc.seq) {
            Some(old) => {
                let left = self.segments.get_mut(&old.seg).expect("open segment");
                left.live -= 1;
                left.live_bytes -= old.len as u64;
                *old = loc;
            }
            None => b.entries.insert(pos, loc),
        }
    }

    /// Index one ACK record in the active segment: raise `mailbox`'s
    /// watermark to `upto` and retire what falls below it, returning
    /// how many entries that was.  A stale ack moves nothing.
    fn index_ack(&mut self, mailbox: [u8; 32], upto: u64) -> u64 {
        self.active_mut().touched.insert(mailbox);
        let b = self.index.entry(mailbox).or_default();
        b.acked = b.acked.max(upto);
        b.next = b.next.max(upto);
        let mut retired = 0;
        while b.entries.front().is_some_and(|e| e.seq < upto) {
            let loc = b.entries.pop_front().expect("front checked");
            let seg = self.segments.get_mut(&loc.seg).expect("open segment");
            seg.live -= 1;
            seg.live_bytes -= loc.len as u64;
            retired += 1;
        }
        retired
    }

    /// Append one record to the active segment, rotating first if it is
    /// over its size budget; returns the payload's file offset.
    fn append(&mut self, parts: &[&[u8]], allow_rotate: bool) -> Result<u64, MailboxError> {
        if allow_rotate && self.active().log.len_bytes() >= self.cfg.segment_bytes {
            // Seal the active segment and start a fresh one.
            self.flush()?;
            self.open_segment(self.active_id + 1)?;
            xrd_obs::counter!("mailbox.segment_rotations").incr();
        }
        let at = self.active_mut().log.append(parts);
        let at = at.map_err(|e| io_err("append record", e))?;
        self.dirty = true;
        Ok(at)
    }

    /// Append and index a PUT.
    fn log_put(
        &mut self,
        mailbox: [u8; 32],
        seq: u64,
        round: u64,
        sealed: &[u8],
        allow_rotate: bool,
    ) -> Result<(), MailboxError> {
        let at = self.append(&[&put_header(&mailbox, seq, round), sealed], allow_rotate)?;
        let loc = EntryLoc {
            seq,
            round,
            seg: self.active_id,
            offset: at + PUT_HEADER as u64,
            len: sealed.len() as u32,
        };
        self.index_put(mailbox, loc);
        Ok(())
    }

    /// Append and index an ACK; returns how many entries it retired.
    fn log_ack(
        &mut self,
        mailbox: [u8; 32],
        upto: u64,
        allow_rotate: bool,
    ) -> Result<u64, MailboxError> {
        self.append(&[&ack_record(&mailbox, upto)], allow_rotate)?;
        Ok(self.index_ack(mailbox, upto))
    }

    fn read_sealed(&self, loc: &EntryLoc) -> Result<Vec<u8>, MailboxError> {
        let seg = self.segments.get(&loc.seg).expect("live entry's segment");
        let mut buf = vec![0u8; loc.len as usize];
        seg.log
            .read_exact_at(&mut buf, loc.offset)
            .map_err(|e| io_err("read entry", e))?;
        Ok(buf)
    }

    /// Compact every sealed segment whose live share has dropped to
    /// zero or to half or below: re-append ack watermarks and live
    /// entries to the active segment, then delete the file.
    fn compact_eligible(&mut self) -> Result<(), MailboxError> {
        let candidates: Vec<u64> = self
            .segments
            .iter()
            .filter(|(id, seg)| {
                **id != self.active_id && (seg.live == 0 || seg.live_bytes * 2 <= seg.put_bytes)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in candidates {
            self.compact(id)?;
        }
        Ok(())
    }

    fn compact(&mut self, id: u64) -> Result<(), MailboxError> {
        debug_assert_ne!(id, self.active_id);
        let touched: Vec<[u8; 32]> = self.segments[&id].touched.iter().copied().collect();
        for mailbox in touched {
            let b = &self.index[&mailbox];
            // Re-record the ack watermark so deleting this segment's ACK
            // records cannot regress retention on recovery.
            let acked = b.acked;
            // Copy the mailbox's live entries out of the doomed segment,
            // preserving seq and round (a crash between copy and delete
            // is safe: replay moves the entry to the copy as well).
            let locs: Vec<EntryLoc> = b.entries.iter().filter(|e| e.seg == id).copied().collect();
            if acked > 0 {
                self.log_ack(mailbox, acked, false)?;
            }
            for loc in locs {
                let sealed = self.read_sealed(&loc)?;
                self.log_put(mailbox, loc.seq, loc.round, &sealed, false)?;
            }
        }
        self.flush()?;
        let seg = self.segments.remove(&id).expect("candidate exists");
        debug_assert_eq!(seg.live, 0, "every live entry was copied out");
        seg.log
            .delete()
            .map_err(|e| io_err("delete compacted segment", e))?;
        xrd_obs::counter!("mailbox.compactions").incr();
        Ok(())
    }
}

impl MailboxStore for LogMailboxStore {
    fn put(&mut self, round: u64, msg: MailboxMessage) -> Result<u64, MailboxError> {
        let shard = shard_of(&msg.mailbox, self.n_shards);
        if shard != self.shard {
            return Err(MailboxError::WrongShard {
                shard,
                expected: self.shard,
            });
        }
        let seq = self.index.get(&msg.mailbox).map_or(0, |b| b.next);
        self.log_put(msg.mailbox, seq, round, &msg.sealed, true)?;
        xrd_obs::counter!("mailbox.puts").incr();
        Ok(seq)
    }

    fn fetch_page(
        &mut self,
        mailbox: &[u8; 32],
        cursor: u64,
        max: usize,
    ) -> Result<Page, MailboxError> {
        let b = self
            .index
            .get(mailbox)
            .ok_or(MailboxError::UnknownMailbox { mailbox: *mailbox })?;
        let (start, end, next_cursor, remaining) = page_bounds(
            b.entries.iter().map(|e| e.seq),
            b.entries.len(),
            b.acked,
            b.next,
            cursor,
            max,
        )?;
        let entries = b
            .entries
            .range(start..end)
            .map(|loc| {
                Ok(PageEntry {
                    seq: loc.seq,
                    round: loc.round,
                    sealed: self.read_sealed(loc)?,
                })
            })
            .collect::<Result<_, MailboxError>>()?;
        xrd_obs::counter!("mailbox.pages").incr();
        Ok(Page {
            entries,
            next_cursor,
            remaining,
        })
    }

    fn ack(&mut self, mailbox: &[u8; 32], upto: u64) -> Result<u64, MailboxError> {
        let b = self
            .index
            .get(mailbox)
            .ok_or(MailboxError::UnknownMailbox { mailbox: *mailbox })?;
        if upto > b.next {
            return Err(MailboxError::BadCursor {
                cursor: upto,
                next: b.next,
            });
        }
        // Before the idempotence shortcut: a watermark a failed sync
        // left ahead of the disk must not answer the retry.
        self.check()?;
        if upto <= b.acked {
            return Ok(0); // idempotent replay of an old ack
        }
        let retired = self.log_ack(*mailbox, upto, true)?;
        xrd_obs::counter!("mailbox.acks").add(retired);
        self.compact_eligible()?;
        Ok(retired)
    }

    fn pending(&self, mailbox: &[u8; 32]) -> Result<u64, MailboxError> {
        let b = self
            .index
            .get(mailbox)
            .ok_or(MailboxError::UnknownMailbox { mailbox: *mailbox })?;
        Ok(b.entries.len() as u64)
    }

    fn flush(&mut self) -> Result<(), MailboxError> {
        self.check()?;
        if std::mem::take(&mut self.dirty) {
            let started = std::time::Instant::now();
            let synced = self.active_mut().log.sync();
            xrd_obs::counter!("mailbox.log.fsyncs").incr();
            xrd_obs::hist!("mailbox.log.fsync_us").record_duration(started.elapsed());
            synced.map_err(|e| io_err("fsync segment", e))?;
        }
        Ok(())
    }

    fn begin_batch(&mut self, round: u64, batch: u64) -> Result<bool, MailboxError> {
        // Before the dedup answer: an id a failed sync left in the
        // window is not on disk.
        self.check()?;
        if self.committed.contains(round, batch) {
            return Ok(false); // durably committed: dedup hit
        }
        self.append(&[&txn_record(KIND_TXN_BEGIN, round, batch)], true)?;
        Ok(true)
    }

    fn commit_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError> {
        // Not durable until the caller's flush(); one fsync covers the
        // whole bracket, and recovery rolls back anything uncommitted.
        self.append(&[&txn_record(KIND_TXN_COMMIT, round, batch)], false)?;
        self.committed.record(round, batch);
        Ok(())
    }

    fn abort_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError> {
        self.append(&[&txn_record(KIND_TXN_ABORT, round, batch)], false)?;
        // Make the rollback durable before the error reply goes out.
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_log::Fault;

    fn msg(mailbox: u8, body: &[u8]) -> MailboxMessage {
        MailboxMessage {
            mailbox: [mailbox; 32],
            sealed: body.to_vec(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xrd-mbox-{name}-{}", std::process::id(),));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_survives_reopen() {
        let dir = tmp("reopen");
        {
            let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
            s.put(3, msg(1, b"abcd")).unwrap();
            s.put(3, msg(1, b"efgh")).unwrap();
            s.put(4, msg(2, b"ijkl")).unwrap();
            s.ack(&[1u8; 32], 1).unwrap();
            s.flush().unwrap();
        }
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(1));
        assert_eq!(s.pending(&[2u8; 32]), Ok(1));
        let p = s.fetch_page(&[1u8; 32], 0, 10).unwrap();
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.entries[0].seq, 1);
        assert_eq!(p.entries[0].round, 3);
        assert_eq!(p.entries[0].sealed, b"efgh");
        // Ack watermark survived: seq 0 stays gone, new seqs continue.
        assert_eq!(s.put(5, msg(1, b"mnop")).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_full_ack_deletes_segments() {
        let dir = tmp("rotate");
        let cfg = LogStoreConfig {
            segment_bytes: 256, // tiny: rotate every few records
        };
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        for i in 0..40u64 {
            s.put(i, msg(1, &[i as u8; 64])).unwrap();
        }
        assert!(s.segment_count() > 2, "expected rotations");
        // Ack everything: sealed segments become fully dead and are
        // compacted away; only the active one remains.
        s.ack(&[1u8; 32], 40).unwrap();
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.pending(&[1u8; 32]), Ok(0));
        // And the watermark survives reopen even though the segments
        // holding the PUTs (and their ACK records) are gone.
        drop(s);
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(0));
        assert_eq!(s.put(99, msg(1, b"next")).unwrap(), 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_compaction_preserves_live_entries() {
        let dir = tmp("compact");
        let cfg = LogStoreConfig { segment_bytes: 512 };
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        // Interleave two mailboxes so early segments hold both.
        for i in 0..30u64 {
            s.put(i, msg(1, &[1u8; 64])).unwrap();
            s.put(i, msg(2, &[2u8; 64])).unwrap();
        }
        let before = s.segment_count();
        // Retire mailbox 1 entirely: old segments drop below the live
        // threshold and mailbox 2's entries get rewritten forward.
        s.ack(&[1u8; 32], 30).unwrap();
        assert!(
            s.segment_count() < before,
            "compaction should shrink the log"
        );
        let p = s.fetch_page(&[2u8; 32], 0, 64).unwrap();
        assert_eq!(p.entries.len(), 30);
        assert!(p.entries.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        assert!(p.entries.iter().all(|e| e.sealed == vec![2u8; 64]));
        // Everything still there after reopen.
        drop(s);
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        assert_eq!(s.pending(&[2u8; 32]), Ok(30));
        assert_eq!(s.fetch_page(&[2u8; 32], 0, 64).unwrap().entries.len(), 30);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_shard_put_is_rejected() {
        let dir = tmp("shard");
        let n = 4;
        let mut s = LogMailboxStore::open(&dir, 0, n, LogStoreConfig::default()).unwrap();
        let other = (0u8..255)
            .find(|&i| shard_of(&[i; 32], n) != 0)
            .expect("some mailbox on another shard");
        assert!(matches!(
            s.put(0, msg(other, b"x")),
            Err(MailboxError::WrongShard { expected: 0, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash the delivery-transaction bracket exists for: a batch
    /// whose BEGIN and PUTs hit the log but whose COMMIT never did is
    /// rolled back on reopen, and the redelivered batch stores exactly
    /// once with the same sequence numbers.
    #[test]
    fn uncommitted_batch_rolls_back_on_reopen() {
        let dir = tmp("txn-rollback");
        {
            let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
            assert!(s.begin_batch(7, 1).unwrap(), "fresh batch id is accepted");
            s.put(7, msg(1, b"aaaa")).unwrap();
            s.put(7, msg(1, b"bbbb")).unwrap();
            // No commit: the daemon died between Deliver and its ack.
        }
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        // The batch never committed, so the retry is *not* a duplicate.
        assert!(
            s.begin_batch(7, 1).unwrap(),
            "rolled-back batch must be redeliverable"
        );
        s.put(7, msg(1, b"aaaa")).unwrap();
        s.put(7, msg(1, b"bbbb")).unwrap();
        s.commit_batch(7, 1).unwrap();
        s.flush().unwrap();
        drop(s);
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(2), "exactly one copy stored");
        let p = s.fetch_page(&[1u8; 32], 0, 16).unwrap();
        assert_eq!(p.entries.len(), 2);
        // The rolled-back puts never consumed sequence numbers.
        assert_eq!(p.entries[0].seq, 0);
        assert_eq!(p.entries[1].seq, 1);
        assert!(!s.begin_batch(7, 1).unwrap(), "now it *is* a duplicate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A committed (round, batch) id is remembered across restart: the
    /// client whose ack was lost retries the identical Deliver and the
    /// shard refuses to double-store it.
    #[test]
    fn committed_batch_dedups_across_reopen() {
        let dir = tmp("txn-dedup");
        {
            let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
            assert!(s.begin_batch(5, 9).unwrap());
            s.put(5, msg(1, b"once")).unwrap();
            s.commit_batch(5, 9).unwrap();
            s.flush().unwrap();
        }
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        assert!(
            !s.begin_batch(5, 9).unwrap(),
            "committed batch id survives restart"
        );
        // A different batch id in the same round still stores.
        assert!(s.begin_batch(5, 10).unwrap());
        s.put(5, msg(1, b"more")).unwrap();
        s.commit_batch(5, 10).unwrap();
        s.flush().unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A delivery batch large enough to straddle a segment rotation
    /// still replays atomically: the staged puts carry their segment
    /// ids and land in the right files.
    #[test]
    fn batch_spanning_rotation_replays_atomically() {
        let dir = tmp("txn-span");
        let cfg = LogStoreConfig { segment_bytes: 256 };
        {
            let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
            assert!(s.begin_batch(2, 3).unwrap());
            for i in 0..12u8 {
                s.put(2, msg(1, &[i; 64])).unwrap();
            }
            s.commit_batch(2, 3).unwrap();
            s.flush().unwrap();
            assert!(s.segment_count() > 1, "batch must span a rotation");
        }
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(12));
        let p = s.fetch_page(&[1u8; 32], 0, 32).unwrap();
        assert!(p.entries.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        assert!(!s.begin_batch(2, 3).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arm the active segment's [`RecordLog`] failure seam.
    fn inject(s: &mut LogMailboxStore, fault: Fault) {
        s.segments.get_mut(&s.active_id).unwrap().log.fault = Some(fault);
    }

    fn refused<T>(r: Result<T, MailboxError>) -> bool {
        matches!(r, Err(MailboxError::Storage { .. }))
    }

    /// What is the store's to answer after a failed sync: the index ran
    /// ahead of it.  The retried batch would hit the dedup window and
    /// the retried ack the idempotence shortcut — both answered as done
    /// for records that never reached the disk, neither touching the
    /// file.  (That the file itself refuses every later write and sync
    /// is `RecordLog`'s contract, tested there.)
    #[test]
    fn failed_sync_poisons_the_store_until_reopen() {
        let dir = tmp("poison");
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        s.put(1, msg(1, b"kept")).unwrap();
        s.flush().unwrap();

        assert!(s.begin_batch(2, 7).unwrap());
        s.put(2, msg(1, b"lost")).unwrap();
        s.commit_batch(2, 7).unwrap();
        s.ack(&[1u8; 32], 1).unwrap();
        inject(&mut s, Fault::Sync);
        assert!(refused(s.flush()));

        assert!(refused(s.begin_batch(2, 7)), "dedup window answered");
        assert!(refused(s.ack(&[1u8; 32], 1)), "idempotent ack answered");
        // And everything that does touch the file passes its refusal on.
        assert!(refused(s.flush()));
        assert!(refused(s.begin_batch(2, 8)));
        assert!(refused(s.commit_batch(2, 8)));
        assert!(refused(s.abort_batch(2, 8)));
        assert!(refused(s.put(3, msg(1, b"more"))));
        assert!(refused(s.ack(&[1u8; 32], 2)));

        // Reopening replays what the file holds and serves again.
        drop(s);
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        s.put(4, msg(1, b"after")).unwrap();
        s.flush().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed append leaves no trace in the index — the entry is not
    /// served, its sequence number not consumed — and the store refuses
    /// from then on; the index rebuilt on reopen is the acknowledged
    /// prefix, and the torn record's sequence number is assigned again.
    #[test]
    fn failed_append_poisons_the_store_until_reopen() {
        let dir = tmp("poison-append");
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        s.put(1, msg(1, b"kept")).unwrap();
        s.ack(&[1u8; 32], 0).unwrap();
        s.flush().unwrap();

        inject(&mut s, Fault::Append);
        assert!(refused(s.put(2, msg(1, b"torn"))));
        assert_eq!(s.pending(&[1u8; 32]), Ok(1));
        assert!(refused(s.put(3, msg(1, b"after"))));
        assert!(refused(s.ack(&[1u8; 32], 0)), "idempotent ack answered");
        assert!(refused(s.begin_batch(3, 0)));
        assert!(refused(s.flush()));

        drop(s);
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(1));
        assert_eq!(s.put(4, msg(1, b"after")).unwrap(), 1);
        s.flush().unwrap();
        let page = s.fetch_page(&[1u8; 32], 0, 8).unwrap();
        let sealed: Vec<&[u8]> = page.entries.iter().map(|e| &e.sealed[..]).collect();
        assert_eq!(sealed, [&b"kept"[..], b"after"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rotation syncs the segment it seals; when that sync fails the
    /// rotation does not happen and the store refuses like after a
    /// failed flush.
    #[test]
    fn failed_rotation_sync_poisons_too() {
        let dir = tmp("poison-rotate");
        let cfg = LogStoreConfig { segment_bytes: 64 };
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        s.put(1, msg(1, &[7u8; 64])).unwrap();
        inject(&mut s, Fault::Sync);
        assert!(refused(s.put(1, msg(1, &[8u8; 64]))));
        assert_eq!(s.segment_count(), 1, "no segment was started");
        assert!(refused(s.flush()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An ACK record keeps its mailbox's watermark alive only as long
    /// as its segment exists, so compaction must carry the watermark
    /// of every mailbox *acked* in the doomed segment forward — also
    /// one whose PUTs sit elsewhere, in a segment that outlives it.
    #[test]
    fn ack_outlives_the_segment_that_recorded_it() {
        let dir = tmp("ack-carried");
        let cfg = LogStoreConfig { segment_bytes: 256 };
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        // Segment 0: mailbox 1's entry beside enough of mailbox 2's to
        // keep the segment above the compaction threshold.
        s.put(0, msg(1, b"acked")).unwrap();
        s.put(0, msg(2, &[2u8; 64])).unwrap();
        s.put(0, msg(2, &[2u8; 64])).unwrap();
        // Segment 1: the ACK, then mailbox 3 filling it.
        assert_eq!(s.ack(&[1u8; 32], 1), Ok(1));
        for _ in 0..2 {
            s.put(1, msg(3, &[3u8; 64])).unwrap();
        }
        // Segment 2: mailbox 3's ack leaves segment 1 dead; it goes.
        assert_eq!(s.segment_count(), 2);
        assert_eq!(s.ack(&[3u8; 32], 2), Ok(2));
        assert_eq!(s.segment_count(), 2, "segment 1 compacted away");
        s.flush().unwrap();
        drop(s);
        let s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(0), "acked entry resurrected");
        assert_eq!(s.pending(&[2u8; 32]), Ok(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn only_segment(dir: &Path) -> PathBuf {
        let mut files = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        let seg = files.next().expect("one segment file");
        assert!(files.next().is_none());
        seg
    }

    /// A segment whose header never landed whole — the crash between
    /// creating the file and its first write reaching the disk — is an
    /// empty segment, not an error.
    #[test]
    fn torn_segment_header_starts_fresh() {
        let dir = tmp("torn-header");
        drop(LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap());
        std::fs::write(only_segment(&dir), &MAGIC[..5]).unwrap();
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        assert_eq!(s.put(0, msg(1, b"first")).unwrap(), 0);
        s.flush().unwrap();
        drop(s);
        let s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment file under another magic — the previous format's, say,
    /// in a reused directory — is not the store's to wipe: opening
    /// fails and the file keeps every byte.
    #[test]
    fn foreign_segment_is_refused_untouched() {
        let dir = tmp("foreign");
        drop(LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap());
        let seg = only_segment(&dir);
        let foreign = b"XRDMBOX1 and a shard's worth of somebody's messages";
        std::fs::write(&seg, foreign).unwrap();
        assert!(refused(LogMailboxStore::open(
            &dir,
            0,
            1,
            LogStoreConfig::default()
        )));
        assert_eq!(std::fs::read(&seg).unwrap(), foreign);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
