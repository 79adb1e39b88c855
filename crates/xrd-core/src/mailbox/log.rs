//! The log-structured persistent [`MailboxStore`] backend.
//!
//! ## On-disk layout
//!
//! A store is one directory holding append-only **segment files**
//! `seg-<id:016x>.log`, each starting with an 8-byte magic and followed
//! by checksummed records:
//!
//! ```text
//! PUT    = [0x01][mailbox:32][seq:u64][round:u64][len:u32][sealed:len][fnv64]
//! ACK    = [0x02][mailbox:32][upto:u64][fnv64]
//! BEGIN  = [0x03][round:u64][batch:u64][fnv64]
//! COMMIT = [0x04][round:u64][batch:u64][fnv64]
//! ABORT  = [0x05][round:u64][batch:u64][fnv64]
//! ```
//!
//! All integers little-endian; `fnv64` is FNV-1a over every preceding
//! byte of the record (torn-write detection, not adversarial
//! integrity — the payloads are already AEAD-sealed for their owners).
//! BEGIN/COMMIT/ABORT bracket one wire `Deliver` batch
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
//! when it exceeds [`LogStoreConfig::segment_bytes`] it is sealed and a
//! fresh one started (**rotation**).
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
//! segment, then the file is deleted.  Replay is idempotent (duplicate
//! sequence numbers and stale acks are skipped), so a crash anywhere in
//! compaction or delivery recovers cleanly.
//!
//! **Recovery** on [`LogMailboxStore::open`] replays every segment in
//! id order, rebuilding the index; a torn record at a segment tail
//! (the crash-mid-append case) truncates the tail and keeps everything
//! before it.  `mailbox.recovery_us` records how long the rebuild took.
//!
//! ## A failed sync or append is final
//!
//! If an `fdatasync` of a segment — or the `write` of a record — fails,
//! the store is **poisoned**:
//! every later `put`/`ack`/`begin_batch`/`commit_batch`/`abort_batch`/
//! `flush` returns [`MailboxError::Storage`] until the store is
//! reopened.  The index already holds what the sync was to cover (the
//! ack watermark moved, the batch id is in the dedup window), and the
//! kernel reports a write-back error once — a retried `flush` would
//! "succeed" without the data — so answering a retry from that state
//! would acknowledge something that is not on disk.  A failed append
//! (`ENOSPC`, `EIO`) may leave part of its record in the `O_APPEND`
//! file: the file is then longer than the length the index computes
//! payload offsets from, so a later record would be indexed at the
//! wrong bytes, and replay — which truncates at the first torn record —
//! would drop every record appended after it, synced and acknowledged
//! or not.  Replay on reopen is the recovery path for both: it cuts the
//! torn record off and keeps everything acknowledged before it.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use xrd_mixnet::MailboxMessage;

use super::{page_bounds, shard_of, store_metrics, MailboxError, MailboxStore, Page, PageEntry};
use crate::journal::fnv64;

const MAGIC: &[u8; 8] = b"XRDMBOX1";
const KIND_PUT: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_TXN_BEGIN: u8 = 3;
const KIND_TXN_COMMIT: u8 = 4;
const KIND_TXN_ABORT: u8 = 5;
/// Committed delivery-batch ids retained for dedup (matches the wire
/// layer's in-memory window; a sender retries a batch within a few
/// connection lifetimes, never thousands of batches later).
const BATCH_DEDUP_WINDOW: usize = 4096;
/// Sanity cap on a record's sealed payload during replay: anything
/// larger than this is a torn length field, not a real message.
const MAX_SEALED: usize = 1 << 20;

/// Tuning knobs for a [`LogMailboxStore`].
#[derive(Clone, Copy, Debug)]
pub struct LogStoreConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Fsync on [`MailboxStore::flush`] (and on rotation/compaction).
    /// Benchmarks measuring pure indexing cost may turn it off; daemons
    /// leave it on.
    pub sync: bool,
}

impl Default for LogStoreConfig {
    fn default() -> LogStoreConfig {
        LogStoreConfig {
            segment_bytes: 8 * 1024 * 1024,
            sync: true,
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
    file: File,
    path: PathBuf,
    len: u64,
    /// Live (indexed, un-acked) PUT records still pointing here.
    live: u64,
    /// Bytes of those live records' payloads.
    live_bytes: u64,
    /// Total payload bytes ever PUT into this segment (compaction
    /// denominator).
    put_bytes: u64,
    /// Every mailbox with any record in this segment — compaction
    /// re-appends their ack watermarks before deleting the file.
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
    /// Set by a failed segment sync or append and never cleared: the
    /// index no longer describes the disk, so every later write or
    /// flush is refused (see the module docs).
    poisoned: Option<MailboxError>,
    /// Test seam: make the next segment sync fail.
    #[cfg(test)]
    fail_next_sync: bool,
    /// Test seam: make the next append write half its record and fail.
    #[cfg(test)]
    fail_next_append: bool,
    /// Recently committed delivery-batch ids (the durable dedup
    /// window), plus their order for eviction.
    committed: HashSet<(u64, u64)>,
    committed_order: VecDeque<(u64, u64)>,
    /// Replay-only: the delivery transaction currently open, with the
    /// PUTs staged since its BEGIN.
    replay_txn: Option<ReplayTxn>,
}

/// One open delivery transaction during recovery replay.
struct ReplayTxn {
    round: u64,
    batch: u64,
    staged: Vec<StagedPut>,
}

/// A PUT held back during replay until its transaction commits.
struct StagedPut {
    mailbox: [u8; 32],
    seq: u64,
    round: u64,
    seg: u64,
    offset: u64,
    len: u32,
}

/// Persistence metric handles, resolved once per process.
fn log_metrics() -> &'static LogMetrics {
    static METRICS: std::sync::OnceLock<LogMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| LogMetrics {
        rotations: xrd_obs::counter("mailbox.segment_rotations"),
        compactions: xrd_obs::counter("mailbox.compactions"),
        recovery_us: xrd_obs::hist("mailbox.recovery_us"),
        torn_tails: xrd_obs::counter("mailbox.recovery.torn_tails"),
        aborted_batches: xrd_obs::counter("mailbox.recovery.aborted_batches"),
        fsyncs: xrd_obs::counter("mailbox.log.fsyncs"),
        fsync_us: xrd_obs::hist("mailbox.log.fsync_us"),
    })
}

struct LogMetrics {
    /// Active-segment rotations.
    rotations: &'static xrd_obs::Counter,
    /// Sealed segments compacted away.
    compactions: &'static xrd_obs::Counter,
    /// Index-rebuild time on open, µs.
    recovery_us: &'static xrd_obs::Histogram,
    /// Torn record tails truncated during recovery.
    torn_tails: &'static xrd_obs::Counter,
    /// Delivery batches rolled back during recovery (crash before
    /// their COMMIT landed; the sender's retry re-stores them).
    aborted_batches: &'static xrd_obs::Counter,
    /// `fdatasync` calls on segment files (flushes and rotations).
    fsyncs: &'static xrd_obs::Counter,
    /// Latency of each, µs.
    fsync_us: &'static xrd_obs::Histogram,
}

fn io_err(what: &str, e: std::io::Error) -> MailboxError {
    MailboxError::Storage {
        message: format!("{what}: {e}"),
    }
}

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:016x}.log"))
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

        let mut store = LogMailboxStore {
            dir,
            shard,
            n_shards,
            cfg,
            active_id: 0,
            segments: BTreeMap::new(),
            index: HashMap::new(),
            dirty: false,
            poisoned: None,
            #[cfg(test)]
            fail_next_sync: false,
            #[cfg(test)]
            fail_next_append: false,
            committed: HashSet::new(),
            committed_order: VecDeque::new(),
            replay_txn: None,
        };
        for id in ids {
            store.replay_segment(id)?;
        }
        match store.segments.keys().next_back() {
            Some(&last) => store.active_id = last,
            None => {
                store.create_segment(0)?;
                store.active_id = 0;
            }
        }
        // A transaction still open at the end of replay is the
        // crash-mid-batch case: its staged PUTs are dropped (the
        // sender never got an ack, so it retries the whole batch) and
        // an ABORT record is appended so the dangling BEGIN can never
        // resurrect them on a later recovery.
        if let Some(txn) = store.replay_txn.take() {
            log_metrics().aborted_batches.incr();
            store.append(
                &Self::encode_txn(KIND_TXN_ABORT, txn.round, txn.batch),
                false,
            )?;
            store.flush()?;
        }
        log_metrics().recovery_us.record_duration(start.elapsed());
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
        let seg = &self.segments[&self.active_id];
        (self.active_id, seg.len)
    }

    fn create_segment(&mut self, id: u64) -> Result<(), MailboxError> {
        let path = seg_path(&self.dir, id);
        let mut file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("create segment", e))?;
        file.write_all(MAGIC)
            .map_err(|e| io_err("write segment header", e))?;
        self.segments.insert(
            id,
            Segment {
                file,
                path,
                len: MAGIC.len() as u64,
                live: 0,
                live_bytes: 0,
                put_bytes: 0,
                touched: HashSet::new(),
            },
        );
        self.sync_dir()?;
        Ok(())
    }

    fn sync_dir(&self) -> Result<(), MailboxError> {
        if !self.cfg.sync {
            return Ok(());
        }
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync store dir", e))
    }

    /// Replay one segment file into the index, truncating a torn tail.
    fn replay_segment(&mut self, id: u64) -> Result<(), MailboxError> {
        let path = seg_path(&self.dir, id);
        let bytes = std::fs::read(&path).map_err(|e| io_err("read segment", e))?;
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", e))?;
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            // Crash before the header landed: an empty segment.
            file.set_len(0).map_err(|e| io_err("truncate segment", e))?;
            let mut f = file;
            f.write_all(MAGIC)
                .map_err(|e| io_err("rewrite segment header", e))?;
            log_metrics().torn_tails.incr();
            self.segments.insert(
                id,
                Segment {
                    file: f,
                    path,
                    len: MAGIC.len() as u64,
                    live: 0,
                    live_bytes: 0,
                    put_bytes: 0,
                    touched: HashSet::new(),
                },
            );
            return Ok(());
        }

        let mut seg = Segment {
            file,
            path,
            len: 0, // set below
            live: 0,
            live_bytes: 0,
            put_bytes: 0,
            touched: HashSet::new(),
        };
        let mut o = MAGIC.len();
        let good = loop {
            let Some(rec) = parse_record(&bytes, o) else {
                break o;
            };
            match rec {
                Record::Put {
                    end,
                    mailbox,
                    seq,
                    round,
                    payload_offset,
                    payload_len,
                } => {
                    seg.touched.insert(mailbox);
                    seg.put_bytes += payload_len as u64;
                    let staged = StagedPut {
                        mailbox,
                        seq,
                        round,
                        seg: id,
                        offset: payload_offset as u64,
                        len: payload_len,
                    };
                    match &mut self.replay_txn {
                        // Inside a delivery bracket: held back until its
                        // COMMIT proves the batch landed.
                        Some(txn) => txn.staged.push(staged),
                        // Bare PUT (compaction copy, direct store user):
                        // committed by construction.
                        None => apply_staged(
                            &mut self.index,
                            &mut self.segments,
                            &mut seg,
                            id,
                            vec![staged],
                        ),
                    }
                    o = end;
                }
                Record::Txn {
                    end,
                    kind,
                    round,
                    batch,
                } => {
                    match kind {
                        KIND_TXN_BEGIN => {
                            // A BEGIN while a bracket is open cannot be
                            // produced by the runtime (every batch ends
                            // in COMMIT or ABORT, and open() closes a
                            // dangling one); if it ever appears, apply
                            // the staged PUTs rather than lose data.
                            if let Some(prev) = self.replay_txn.take() {
                                apply_staged(
                                    &mut self.index,
                                    &mut self.segments,
                                    &mut seg,
                                    id,
                                    prev.staged,
                                );
                            }
                            self.replay_txn = Some(ReplayTxn {
                                round,
                                batch,
                                staged: Vec::new(),
                            });
                        }
                        KIND_TXN_COMMIT => {
                            if let Some(txn) = self.replay_txn.take() {
                                apply_staged(
                                    &mut self.index,
                                    &mut self.segments,
                                    &mut seg,
                                    id,
                                    txn.staged,
                                );
                            }
                            self.record_committed(round, batch);
                        }
                        // ABORT: the batch never completed; its staged
                        // PUTs are rolled back (the sender retries).
                        _ => {
                            self.replay_txn = None;
                        }
                    }
                    o = end;
                }
                Record::Ack { end, mailbox, upto } => {
                    seg.touched.insert(mailbox);
                    let b = self.index.entry(mailbox).or_default();
                    b.acked = b.acked.max(upto);
                    b.next = b.next.max(upto);
                    let mut retired: Vec<EntryLoc> = Vec::new();
                    while b.entries.front().is_some_and(|e| e.seq < upto) {
                        retired.push(b.entries.pop_front().expect("front checked"));
                    }
                    for loc in retired {
                        let owner = if loc.seg == id {
                            &mut seg
                        } else {
                            self.segments.get_mut(&loc.seg).expect("segment replayed")
                        };
                        owner.live -= 1;
                        owner.live_bytes -= loc.len as u64;
                    }
                    o = end;
                }
            }
        };
        if good < bytes.len() {
            // Torn tail: a crash mid-append.  Everything before it is
            // intact; drop the partial record.
            seg.file
                .set_len(good as u64)
                .map_err(|e| io_err("truncate torn tail", e))?;
            log_metrics().torn_tails.incr();
        }
        seg.len = good as u64;
        self.segments.insert(id, seg);
        Ok(())
    }

    /// Append a raw record to the active segment, rotating first if the
    /// active segment is over its size budget.  A failed write may have
    /// landed part of the record, so it poisons the store.
    fn append(&mut self, record: &[u8], allow_rotate: bool) -> Result<u64, MailboxError> {
        self.check_poisoned()?;
        if allow_rotate && self.segments[&self.active_id].len >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        let seg = self.segments.get_mut(&self.active_id).expect("active");
        let at = seg.len;
        #[cfg(test)]
        let record = if self.fail_next_append {
            &record[..record.len() / 2]
        } else {
            record
        };
        let written = seg.file.write_all(record);
        #[cfg(test)]
        let written = if std::mem::take(&mut self.fail_next_append) {
            Err(std::io::Error::other("injected append failure"))
        } else {
            written
        };
        if let Err(e) = written {
            let e = io_err("append record", e);
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        seg.len += record.len() as u64;
        self.dirty = true;
        Ok(at)
    }

    /// Refuse if an earlier segment sync or append failed.
    fn check_poisoned(&self) -> Result<(), MailboxError> {
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// `fdatasync` the active segment; a failure poisons the store.
    fn sync_active(&mut self, what: &str) -> Result<(), MailboxError> {
        let started = std::time::Instant::now();
        let synced = self.segments[&self.active_id].file.sync_data();
        #[cfg(test)]
        let synced = if std::mem::take(&mut self.fail_next_sync) {
            Err(std::io::Error::other("injected sync failure"))
        } else {
            synced
        };
        log_metrics().fsyncs.incr();
        log_metrics().fsync_us.record_duration(started.elapsed());
        synced.map_err(|e| {
            let e = io_err(what, e);
            self.poisoned = Some(e.clone());
            e
        })
    }

    /// Seal the active segment and start a fresh one.
    fn rotate(&mut self) -> Result<(), MailboxError> {
        if self.cfg.sync {
            self.sync_active("fsync sealed segment")?;
        }
        let next = self.active_id + 1;
        self.create_segment(next)?;
        self.active_id = next;
        log_metrics().rotations.incr();
        Ok(())
    }

    fn encode_put(mailbox: &[u8; 32], seq: u64, round: u64, sealed: &[u8]) -> Vec<u8> {
        let mut rec = Vec::with_capacity(1 + 32 + 8 + 8 + 4 + sealed.len() + 8);
        rec.push(KIND_PUT);
        rec.extend_from_slice(mailbox);
        rec.extend_from_slice(&seq.to_le_bytes());
        rec.extend_from_slice(&round.to_le_bytes());
        rec.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
        rec.extend_from_slice(sealed);
        rec.extend_from_slice(&fnv64(&rec).to_le_bytes());
        rec
    }

    fn encode_txn(kind: u8, round: u64, batch: u64) -> Vec<u8> {
        let mut rec = Vec::with_capacity(1 + 8 + 8 + 8);
        rec.push(kind);
        rec.extend_from_slice(&round.to_le_bytes());
        rec.extend_from_slice(&batch.to_le_bytes());
        rec.extend_from_slice(&fnv64(&rec).to_le_bytes());
        rec
    }

    /// Remember a committed delivery-batch id for dedup, evicting the
    /// oldest beyond [`BATCH_DEDUP_WINDOW`].
    fn record_committed(&mut self, round: u64, batch: u64) {
        if self.committed.insert((round, batch)) {
            self.committed_order.push_back((round, batch));
            while self.committed_order.len() > BATCH_DEDUP_WINDOW {
                if let Some(old) = self.committed_order.pop_front() {
                    self.committed.remove(&old);
                }
            }
        }
    }

    fn encode_ack(mailbox: &[u8; 32], upto: u64) -> Vec<u8> {
        let mut rec = Vec::with_capacity(1 + 32 + 8 + 8);
        rec.push(KIND_ACK);
        rec.extend_from_slice(mailbox);
        rec.extend_from_slice(&upto.to_le_bytes());
        rec.extend_from_slice(&fnv64(&rec).to_le_bytes());
        rec
    }

    fn read_sealed(&self, loc: &EntryLoc) -> Result<Vec<u8>, MailboxError> {
        let seg = self.segments.get(&loc.seg).expect("live entry's segment");
        let mut buf = vec![0u8; loc.len as usize];
        seg.file
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
            // Re-record the ack watermark so deleting this segment's ACK
            // records cannot regress retention on recovery.
            let acked = self.index.get(&mailbox).map_or(0, |b| b.acked);
            if acked > 0 {
                self.append(&Self::encode_ack(&mailbox, acked), false)?;
            }
            // Copy the mailbox's live entries out of the doomed segment,
            // preserving seq and round (replay skips duplicates, so a
            // crash between copy and delete is safe).
            let locs: Vec<(usize, EntryLoc)> = self
                .index
                .get(&mailbox)
                .map(|b| {
                    b.entries
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.seg == id)
                        .map(|(i, e)| (i, *e))
                        .collect()
                })
                .unwrap_or_default();
            for (i, loc) in locs {
                let sealed = self.read_sealed(&loc)?;
                let rec = Self::encode_put(&mailbox, loc.seq, loc.round, &sealed);
                let at = self.append(&rec, false)?;
                let new_loc = EntryLoc {
                    seg: self.active_id,
                    offset: at + 1 + 32 + 8 + 8 + 4,
                    ..loc
                };
                let active = self.segments.get_mut(&self.active_id).expect("active");
                active.live += 1;
                active.live_bytes += loc.len as u64;
                active.put_bytes += loc.len as u64;
                active.touched.insert(mailbox);
                self.index.get_mut(&mailbox).expect("indexed").entries[i] = new_loc;
            }
        }
        self.flush()?;
        let seg = self.segments.remove(&id).expect("candidate exists");
        std::fs::remove_file(&seg.path).map_err(|e| io_err("delete compacted segment", e))?;
        self.sync_dir()?;
        log_metrics().compactions.incr();
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
        let seq = self.index.entry(msg.mailbox).or_default().next;
        let rec = Self::encode_put(&msg.mailbox, seq, round, &msg.sealed);
        let at = self.append(&rec, true)?;
        let b = self.index.get_mut(&msg.mailbox).expect("just inserted");
        b.next = seq + 1;
        b.entries.push_back(EntryLoc {
            seq,
            round,
            seg: self.active_id,
            offset: at + 1 + 32 + 8 + 8 + 4,
            len: msg.sealed.len() as u32,
        });
        let seg = self.segments.get_mut(&self.active_id).expect("active");
        seg.live += 1;
        seg.live_bytes += msg.sealed.len() as u64;
        seg.put_bytes += msg.sealed.len() as u64;
        seg.touched.insert(msg.mailbox);
        store_metrics().puts.incr();
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
        let locs: Vec<EntryLoc> = b
            .entries
            .iter()
            .skip(start)
            .take(end - start)
            .copied()
            .collect();
        let mut entries = Vec::with_capacity(locs.len());
        for loc in locs {
            entries.push(PageEntry {
                seq: loc.seq,
                round: loc.round,
                sealed: self.read_sealed(&loc)?,
            });
        }
        store_metrics().pages.incr();
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
        self.check_poisoned()?;
        if upto <= b.acked {
            return Ok(0); // idempotent replay of an old ack
        }
        self.append(&Self::encode_ack(mailbox, upto), true)?;
        let b = self.index.get_mut(mailbox).expect("checked above");
        b.acked = upto;
        let mut retired = Vec::new();
        while b.entries.front().is_some_and(|e| e.seq < upto) {
            retired.push(b.entries.pop_front().expect("front checked"));
        }
        for loc in &retired {
            let seg = self.segments.get_mut(&loc.seg).expect("live segment");
            seg.live -= 1;
            seg.live_bytes -= loc.len as u64;
        }
        store_metrics().acks.add(retired.len() as u64);
        self.compact_eligible()?;
        Ok(retired.len() as u64)
    }

    fn pending(&self, mailbox: &[u8; 32]) -> Result<u64, MailboxError> {
        let b = self
            .index
            .get(mailbox)
            .ok_or(MailboxError::UnknownMailbox { mailbox: *mailbox })?;
        Ok(b.entries.len() as u64)
    }

    fn flush(&mut self) -> Result<(), MailboxError> {
        self.check_poisoned()?;
        if self.dirty && self.cfg.sync {
            self.sync_active("fsync active segment")?;
        }
        self.dirty = false;
        Ok(())
    }

    fn begin_batch(&mut self, round: u64, batch: u64) -> Result<bool, MailboxError> {
        // Before the dedup answer: an id a failed sync left in the
        // window is not on disk.
        self.check_poisoned()?;
        if self.committed.contains(&(round, batch)) {
            return Ok(false); // durably committed: dedup hit
        }
        self.append(&Self::encode_txn(KIND_TXN_BEGIN, round, batch), true)?;
        Ok(true)
    }

    fn commit_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError> {
        // Not durable until the caller's flush(); one fsync covers the
        // whole bracket, and recovery rolls back anything uncommitted.
        self.append(&Self::encode_txn(KIND_TXN_COMMIT, round, batch), false)?;
        self.record_committed(round, batch);
        Ok(())
    }

    fn abort_batch(&mut self, round: u64, batch: u64) -> Result<(), MailboxError> {
        self.append(&Self::encode_txn(KIND_TXN_ABORT, round, batch), false)?;
        // Make the rollback durable before the error reply goes out.
        self.flush()
    }
}

enum Record {
    Put {
        end: usize,
        mailbox: [u8; 32],
        seq: u64,
        round: u64,
        payload_offset: usize,
        payload_len: u32,
    },
    Ack {
        end: usize,
        mailbox: [u8; 32],
        upto: u64,
    },
    Txn {
        end: usize,
        kind: u8,
        round: u64,
        batch: u64,
    },
}

/// Parse one record at `o`; `None` means a torn/absent record (replay
/// truncates there).
fn parse_record(bytes: &[u8], o: usize) -> Option<Record> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let kind = *bytes.get(o)?;
    match kind {
        KIND_PUT => {
            let header_end = o + 1 + 32 + 8 + 8 + 4;
            if bytes.len() < header_end {
                return None;
            }
            let len = u32::from_le_bytes(
                bytes[header_end - 4..header_end]
                    .try_into()
                    .expect("4 bytes"),
            );
            if len as usize > MAX_SEALED {
                return None;
            }
            let end = header_end + len as usize + 8;
            if bytes.len() < end {
                return None;
            }
            let stored = u64_at(end - 8);
            if fnv64(&bytes[o..end - 8]) != stored {
                return None;
            }
            Some(Record::Put {
                end,
                mailbox: bytes[o + 1..o + 33].try_into().expect("32 bytes"),
                seq: u64_at(o + 33),
                round: u64_at(o + 41),
                payload_offset: header_end,
                payload_len: len,
            })
        }
        KIND_ACK => {
            let end = o + 1 + 32 + 8 + 8;
            if bytes.len() < end {
                return None;
            }
            let stored = u64_at(end - 8);
            if fnv64(&bytes[o..end - 8]) != stored {
                return None;
            }
            Some(Record::Ack {
                end,
                mailbox: bytes[o + 1..o + 33].try_into().expect("32 bytes"),
                upto: u64_at(o + 33),
            })
        }
        KIND_TXN_BEGIN | KIND_TXN_COMMIT | KIND_TXN_ABORT => {
            let end = o + 1 + 8 + 8 + 8;
            if bytes.len() < end {
                return None;
            }
            let stored = u64_at(end - 8);
            if fnv64(&bytes[o..end - 8]) != stored {
                return None;
            }
            Some(Record::Txn {
                end,
                kind,
                round: u64_at(o + 1),
                batch: u64_at(o + 9),
            })
        }
        _ => None,
    }
}

/// Apply replayed (or staged-then-committed) PUTs to the index with the
/// standard idempotence rules: duplicate sequence numbers and already
/// acked entries are skipped, everything else is inserted in seq order
/// and counted live against its segment.  `current` is the segment
/// being replayed (not yet inserted into `segments`).
fn apply_staged(
    index: &mut HashMap<[u8; 32], BoxIndex>,
    segments: &mut BTreeMap<u64, Segment>,
    current: &mut Segment,
    current_id: u64,
    staged: Vec<StagedPut>,
) {
    for p in staged {
        let b = index.entry(p.mailbox).or_default();
        b.next = b.next.max(p.seq + 1);
        let dup = b.entries.iter().any(|e| e.seq == p.seq);
        if p.seq >= b.acked && !dup {
            let loc = EntryLoc {
                seq: p.seq,
                round: p.round,
                seg: p.seg,
                offset: p.offset,
                len: p.len,
            };
            // Replay order is append order, which is seq order per
            // mailbox except for compaction copies; insert sorted.
            let pos = b.entries.partition_point(|e| e.seq < p.seq);
            b.entries.insert(pos, loc);
            let owner = if p.seg == current_id {
                &mut *current
            } else {
                segments.get_mut(&p.seg).expect("segment replayed")
            };
            owner.live += 1;
            owner.live_bytes += p.len as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            sync: false,
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
        let cfg = LogStoreConfig {
            segment_bytes: 512,
            sync: false,
        };
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
        let cfg = LogStoreConfig {
            segment_bytes: 256,
            sync: false,
        };
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
    /// The bug the poison flag closes: the index runs ahead of a sync
    /// that then fails.  Without it the retried batch hits the dedup
    /// window and the retried ack the idempotence shortcut — both
    /// answered as done for records that never reached the disk, and
    /// the next `flush` "succeeds" because the kernel reports a
    /// write-back error once.
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
        s.fail_next_sync = true;
        assert!(matches!(s.flush(), Err(MailboxError::Storage { .. })));

        // Every retry is refused — not dedup-acked, not re-acked, not
        // "flushed" by a sync that no longer carries the error.
        let storage = |r: Result<(), MailboxError>| matches!(r, Err(MailboxError::Storage { .. }));
        assert!(storage(s.flush()));
        assert!(storage(s.begin_batch(2, 7).map(drop)));
        assert!(storage(s.begin_batch(2, 8).map(drop)));
        assert!(storage(s.commit_batch(2, 8)));
        assert!(storage(s.abort_batch(2, 8)));
        assert!(storage(s.put(3, msg(1, b"more")).map(drop)));
        assert!(storage(s.ack(&[1u8; 32], 1).map(drop)));
        assert!(storage(s.ack(&[1u8; 32], 2).map(drop)));

        // Reopening replays what the file holds and serves again.
        drop(s);
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        s.put(4, msg(1, b"after")).unwrap();
        s.flush().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed append is as final as a failed sync.  Half of the
    /// failed record is in the `O_APPEND` file, so without the poison
    /// the next record is indexed at the wrong offset (its `pread`
    /// serves the torn record's bytes) and replay, truncating at the
    /// torn record, drops it although it was flushed and acknowledged.
    #[test]
    fn failed_append_poisons_the_store_until_reopen() {
        let dir = tmp("poison-append");
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        s.put(1, msg(1, b"kept")).unwrap();
        s.ack(&[1u8; 32], 0).unwrap();
        s.flush().unwrap();

        s.fail_next_append = true;
        let storage = |r: Result<(), MailboxError>| matches!(r, Err(MailboxError::Storage { .. }));
        assert!(storage(s.put(2, msg(1, b"torn")).map(drop)));

        // (a) Every later operation is refused: nothing may land after
        // the torn record, and nothing may be acknowledged.
        assert!(storage(s.put(3, msg(1, b"after")).map(drop)));
        assert!(storage(s.ack(&[1u8; 32], 1).map(drop)));
        assert!(storage(s.begin_batch(3, 0).map(drop)));
        assert!(storage(s.commit_batch(3, 0)));
        assert!(storage(s.abort_batch(3, 0)));
        assert!(storage(s.flush()));

        // (b) Reopening cuts the torn record off and recovers everything
        // acknowledged before the failure — intact, and appendable.
        drop(s);
        let mut s = LogMailboxStore::open(&dir, 0, 1, LogStoreConfig::default()).unwrap();
        assert_eq!(s.pending(&[1u8; 32]), Ok(1));
        s.put(4, msg(1, b"after")).unwrap();
        s.flush().unwrap();
        let page = s.fetch_page(&[1u8; 32], 0, 8).unwrap();
        let sealed: Vec<&[u8]> = page.entries.iter().map(|e| &e.sealed[..]).collect();
        assert_eq!(sealed, [&b"kept"[..], b"after"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rotation syncs the segment it seals; that sync failing poisons
    /// the store like a failed flush.
    #[test]
    fn failed_rotation_sync_poisons_too() {
        let dir = tmp("poison-rotate");
        let cfg = LogStoreConfig {
            segment_bytes: 64,
            sync: true,
        };
        let mut s = LogMailboxStore::open(&dir, 0, 1, cfg).unwrap();
        s.put(1, msg(1, &[7u8; 64])).unwrap();
        s.fail_next_sync = true;
        assert!(matches!(
            s.put(1, msg(1, &[8u8; 64])),
            Err(MailboxError::Storage { .. })
        ));
        assert!(matches!(s.flush(), Err(MailboxError::Storage { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
