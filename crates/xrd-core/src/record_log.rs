//! [`RecordLog`]: the one crash-safe append-only file under every
//! durable log in the system — the mix daemon's control-state journal
//! (magic `XRDJRNL1`; its records live in `xrd-net`'s `daemon.rs`) and
//! each segment of the mailbox
//! [`LogMailboxStore`](crate::mailbox::LogMailboxStore).  Both are a
//! record *schema* plus an in-memory index over this file; framing,
//! replay, torn-tail repair and the failure rules are written here
//! once.  Both daemons use it the same way: a request handler appends,
//! and the reactor tick's one commit syncs (or, for the journal after a
//! key activation, rewrites) before any reply that depends on it leaves.
//!
//! ## On-disk layout
//!
//! An 8-byte magic chosen by the user, then records:
//!
//! ```text
//! RECORD = [len:u32][payload:len][fnv64]
//! ```
//!
//! All integers little-endian; `fnv64` is FNV-1a-64 over the length and
//! the payload (torn-write detection, not adversarial integrity — the
//! files sit in directories only the operator can read, and mailbox
//! payloads are already AEAD-sealed for their owners).  The log never
//! parses a payload.
//!
//! ## Rules
//!
//! * [`RecordLog::open`] creates or replays.  A record that does not
//!   check out — the crash-mid-append case — and everything behind it
//!   is the **torn tail**: it is cut off (and the cut synced) and every
//!   record before it survives.  A file that is a strict prefix of the
//!   magic (0–7 bytes) is the crash before the header landed and starts
//!   fresh (1–7 bytes count as a torn tail; an empty file is merely
//!   new); eight bytes that are *not* the magic are somebody else's
//!   file — [`std::io::ErrorKind::InvalidData`], the file untouched.
//! * [`RecordLog::append`] is one `write`; nothing is durable until
//!   [`RecordLog::sync`] (one `fdatasync`) returns.
//! * [`RecordLog::rewrite`] atomically replaces the whole file with a
//!   snapshot (temp file + rename + directory fsync): a crash leaves
//!   the old log or the new one, never a mix.
//! * **A failed append or sync is final.**  A failed `write` (`ENOSPC`,
//!   `EIO`) may leave part of its record in the file: a record appended
//!   after it would sit behind a torn one, and replay — which cuts at
//!   the first torn record — would drop it although it was synced and
//!   acknowledged.  A failed `fdatasync` is reported by the kernel
//!   once: a retried sync would "succeed" without the data.  So either
//!   failure latches, and every later `append`/`sync`/`rewrite` (and
//!   [`RecordLog::check`], for users answering from an index that ran
//!   ahead of the disk) is refused until the file is reopened; `open`
//!   cuts the torn record off and keeps everything acknowledged before
//!   it.  A `rewrite` that fails before its rename leaves the log as it
//!   was and may be retried (the daemons do not: a failed commit of
//!   either kind refuses everything after it until a restart).

use std::fs::{File, OpenOptions};
use std::io::{Error, ErrorKind, Read, Result, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

const MAGIC_LEN: usize = 8;
/// Largest payload a record may carry; replay reads a larger length
/// field as a torn one.
pub const MAX_RECORD: usize = 1 << 24;

/// FNV-1a 64.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Frame one record — the concatenation of `parts` — onto `buf`.
fn push_record(buf: &mut Vec<u8>, parts: &[&[u8]]) -> Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > MAX_RECORD {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            format!("{len}-byte record exceeds the {MAX_RECORD}-byte cap"),
        ));
    }
    let start = buf.len();
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    for part in parts {
        buf.extend_from_slice(part);
    }
    let sum = fnv64(&buf[start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Where the intact record starting at `o` ends; `None` if it is torn.
fn record_end(bytes: &[u8], o: usize) -> Option<usize> {
    let len = u32::from_le_bytes(bytes.get(o..o + 4)?.try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD {
        return None;
    }
    let sum_at = o + 4 + len;
    let stored = u64::from_le_bytes(bytes.get(sum_at..sum_at + 8)?.try_into().expect("8 bytes"));
    (fnv64(&bytes[o..sum_at]) == stored).then_some(sum_at + 8)
}

/// Fsync the directory holding `path`, making a create, rename or
/// delete of it durable.
fn sync_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Failure-injection seam: which operation fails next.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The next append writes half its record, then fails.
    Append,
    /// The next sync fails.
    Sync,
}

/// What [`RecordLog::open`] found in the file.
pub struct Replay {
    bytes: Vec<u8>,
    /// End of the intact prefix of `bytes`.
    end: usize,
    /// Whether a torn tail (or a torn header) was cut off.
    pub torn: bool,
}

impl Replay {
    /// Every intact record in append order: the file offset of its
    /// payload — what [`RecordLog::append`] returned when it was
    /// written — and the payload, borrowed from the bytes read.
    pub fn records(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let mut o = MAGIC_LEN;
        std::iter::from_fn(move || {
            if o >= self.end {
                return None;
            }
            let at = o + 4;
            let len = u32::from_le_bytes(self.bytes[o..at].try_into().expect("4 bytes")) as usize;
            o = at + len + 8;
            Some((at as u64, &self.bytes[at..at + len]))
        })
    }
}

/// An append-only file of checksummed records; see the [module
/// docs](self) for the format and the rules.
pub struct RecordLog {
    path: PathBuf,
    file: File,
    magic: &'static [u8; MAGIC_LEN],
    len: u64,
    /// The record being framed, reused so an append allocates nothing.
    frame: Vec<u8>,
    /// Why an earlier append or sync failed; set once, never cleared.
    failed: Option<String>,
    #[cfg(test)]
    pub(crate) fault: Option<Fault>,
}

impl RecordLog {
    /// Open the log at `path`, creating it if absent; durable (header
    /// and directory entry) when this returns.
    pub fn open(
        path: impl Into<PathBuf>,
        magic: &'static [u8; MAGIC_LEN],
    ) -> Result<(RecordLog, Replay)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut end = MAGIC_LEN;
        let mut torn = false;
        if bytes.len() < MAGIC_LEN && magic.starts_with(&bytes) {
            // New, or the header never landed whole — and then nothing
            // behind it did either.
            if !bytes.is_empty() {
                torn = true;
                file.set_len(0)?;
            }
            file.write_all(magic)?;
            file.sync_data()?;
            sync_dir(&path)?;
        } else if !bytes.starts_with(magic) {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "{}: not a {} log (foreign header), left untouched",
                    path.display(),
                    String::from_utf8_lossy(magic)
                ),
            ));
        } else {
            while let Some(next) = record_end(&bytes, end) {
                end = next;
            }
            if end < bytes.len() {
                torn = true;
                file.set_len(end as u64)?;
                file.sync_data()?;
            }
        }
        let log = RecordLog {
            path,
            file,
            magic,
            len: end as u64,
            frame: Vec::new(),
            failed: None,
            #[cfg(test)]
            fault: None,
        };
        Ok((log, Replay { bytes, end, torn }))
    }

    /// Bytes in the file (rotation and compaction triggers).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Refuse if an earlier append or sync failed.
    pub fn check(&self) -> Result<()> {
        match &self.failed {
            Some(why) => Err(Error::other(format!(
                "log failed earlier ({why}); reopen to recover"
            ))),
            None => Ok(()),
        }
    }

    /// Pass `result` through, failing the log for good on an error.
    fn latch(&mut self, result: Result<()>) -> Result<()> {
        if let Err(e) = &result {
            self.failed = Some(e.to_string());
        }
        result
    }

    /// Whether the test seam asks for `fault` now (consuming it).
    #[cfg(test)]
    fn injected(&mut self, fault: Fault) -> bool {
        self.fault.take_if(|armed| *armed == fault).is_some()
    }

    fn write_frame(&mut self) -> Result<()> {
        #[cfg(test)]
        if self.injected(Fault::Append) {
            self.file.write_all(&self.frame[..self.frame.len() / 2])?;
            return Err(Error::other("injected append failure"));
        }
        self.file.write_all(&self.frame)
    }

    /// Append one record — the concatenation of `parts`, so a caller
    /// puts a fixed header in front of a payload it already holds
    /// without copying it first — in one `write`.  Returns the file
    /// offset of the payload's first byte.  Not durable until
    /// [`RecordLog::sync`].
    pub fn append(&mut self, parts: &[&[u8]]) -> Result<u64> {
        self.check()?;
        self.frame.clear();
        push_record(&mut self.frame, parts)?;
        let written = self.write_frame();
        self.latch(written)?;
        let at = self.len + 4;
        self.len += self.frame.len() as u64;
        Ok(at)
    }

    /// Make everything appended so far durable (`fdatasync`).
    pub fn sync(&mut self) -> Result<()> {
        self.check()?;
        #[cfg(test)]
        if self.injected(Fault::Sync) {
            return self.latch(Err(Error::other("injected sync failure")));
        }
        let synced = self.file.sync_data();
        self.latch(synced)
    }

    /// Atomically replace the log with exactly `records` (each a whole
    /// payload) — the compaction move for state where only the latest
    /// snapshot matters.  Durable when this returns.
    pub fn rewrite(&mut self, records: &[&[u8]]) -> Result<()> {
        self.check()?;
        let mut image = self.magic.to_vec();
        for record in records {
            push_record(&mut image, &[record])?;
        }
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&image)?;
        file.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = file;
        self.len = image.len() as u64;
        // Past the rename the old file is gone: a directory sync that
        // fails now leaves which one a crash keeps unknown.
        let synced = sync_dir(&self.path);
        self.latch(synced)
    }

    /// Read `buf.len()` bytes at `offset` (`pread`) — a payload, or a
    /// slice of one, at the offset `append` or replay reported.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    /// Delete the file, durably.
    pub fn delete(self) -> Result<()> {
        std::fs::remove_file(&self.path)?;
        sync_dir(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"XRDTEST1";

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("xrd-reclog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Reopen `path`, returning the log, its records and whether a torn
    /// tail was cut.
    fn reopen(path: &Path) -> (RecordLog, Vec<Vec<u8>>, bool) {
        let (log, replay) = RecordLog::open(path, MAGIC).expect("reopen");
        let records = replay.records().map(|(_, rec)| rec.to_vec()).collect();
        (log, records, replay.torn)
    }

    fn append_then_sync(log: &mut RecordLog, payload: &[u8]) -> u64 {
        let at = log.append(&[payload]).expect("append");
        log.sync().expect("sync");
        at
    }

    /// Every later mutating call is refused.
    fn assert_refuses(log: &mut RecordLog) {
        assert!(log.check().is_err());
        assert!(log.append(&[b"later"]).is_err());
        assert!(log.sync().is_err());
        assert!(log.rewrite(&[b"later"]).is_err());
    }

    /// An append lands its parts as one payload at the offset it
    /// returns, and replay reports the same offsets.
    #[test]
    fn offsets_name_the_payload_on_append_and_on_replay() {
        let path = tmp("offsets");
        let (mut log, replay) = RecordLog::open(&path, MAGIC).unwrap();
        assert!(!replay.torn && replay.records().next().is_none());
        let first = log.append(&[b"head:", b"body"]).unwrap();
        let second = log.append(&[]).unwrap();
        let third = log.append(&[&[0xFF; 300]]).unwrap();
        log.sync().unwrap();
        assert_eq!(first, 8 + 4);
        let mut body = [0u8; 4];
        log.read_exact_at(&mut body, first + 5).unwrap();
        assert_eq!(&body, b"body");
        assert_eq!(log.len_bytes(), std::fs::metadata(&path).unwrap().len());

        let (_, replay) = RecordLog::open(&path, MAGIC).unwrap();
        let got: Vec<(u64, &[u8])> = replay.records().collect();
        assert_eq!(
            got,
            [
                (first, &b"head:body"[..]),
                (second, &b""[..]),
                (third, &[0xFF; 300][..])
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The crash-mid-write sweep: cut the file at *every* byte — inside
    /// the header, inside each record, on each boundary.  Reopening
    /// keeps exactly the records that landed whole, reports a torn tail
    /// unless the cut fell on a boundary (or left nothing at all), and
    /// leaves a log whose next append survives.
    #[test]
    fn reopen_after_truncation_at_every_byte() {
        let golden = tmp("sweep-golden");
        let payloads: [&[u8]; 3] = [b"one", b"", b"three-is-longer"];
        let mut ends = vec![MAGIC_LEN as u64];
        {
            let (mut log, _) = RecordLog::open(&golden, MAGIC).unwrap();
            for payload in payloads {
                append_then_sync(&mut log, payload);
                ends.push(log.len_bytes());
            }
        }
        let bytes = std::fs::read(&golden).unwrap();
        let work = tmp("sweep-work");
        for cut in 0..=bytes.len() {
            std::fs::write(&work, &bytes[..cut]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut as u64).count();
            let kept = whole.saturating_sub(1);
            let (mut log, records, torn) = reopen(&work);
            assert_eq!(records, payloads[..kept], "cut at byte {cut}");
            let clean = cut == 0 || ends.contains(&(cut as u64));
            assert_eq!(torn, !clean, "cut at byte {cut}");
            assert_eq!(log.len_bytes(), ends[kept], "cut at byte {cut}");

            append_then_sync(&mut log, b"next");
            let (_, records, torn) = reopen(&work);
            assert_eq!(records[..kept], payloads[..kept], "cut at byte {cut}");
            assert_eq!(records[kept..], [b"next"], "cut at byte {cut}");
            assert!(!torn, "cut at byte {cut}: the repair was not durable");
        }
        std::fs::remove_file(&golden).unwrap();
        std::fs::remove_file(&work).unwrap();
    }

    #[test]
    fn flipped_checksum_byte_drops_exactly_the_damaged_suffix() {
        let path = tmp("flip");
        let (mut log, _) = RecordLog::open(&path, MAGIC).unwrap();
        append_then_sync(&mut log, b"keep");
        let keep_end = log.len_bytes();
        append_then_sync(&mut log, b"damaged");
        let damaged_end = log.len_bytes();
        append_then_sync(&mut log, b"behind-it");
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[damaged_end as usize - 1] ^= 0xA5;
        std::fs::write(&path, &bytes).unwrap();

        let (log, records, torn) = reopen(&path);
        assert_eq!(records, [b"keep"]);
        assert!(torn);
        assert_eq!(log.len_bytes(), keep_end);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep_end);
        std::fs::remove_file(&path).unwrap();
    }

    /// Eight bytes that are not the magic — or fewer that are not a
    /// prefix of it — are somebody else's file.
    #[test]
    fn foreign_header_is_refused_and_left_untouched() {
        let path = tmp("foreign");
        for foreign in [&b"XRDTEST0 and then some"[..], b"XRDTEST0", b"abc"] {
            std::fs::write(&path, foreign).unwrap();
            let err = RecordLog::open(&path, MAGIC).err().expect("refused");
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert_eq!(std::fs::read(&path).unwrap(), foreign);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A failed append is final.  Half of the failed record is in the
    /// file, so without the latch the next record lands behind a torn
    /// one and replay drops it — synced and acknowledged.
    #[test]
    fn failed_append_is_final_until_reopen() {
        let path = tmp("failed-append");
        let (mut log, _) = RecordLog::open(&path, MAGIC).unwrap();
        append_then_sync(&mut log, b"prepare");
        log.fault = Some(Fault::Append);
        assert!(log.append(&[b"torn"]).is_err());
        assert_refuses(&mut log);

        // Reopening cuts the torn record off, keeps everything
        // acknowledged before it, and what is appended next survives.
        drop(log);
        let (mut log, records, torn) = reopen(&path);
        assert_eq!(records, [b"prepare"]);
        assert!(torn);
        append_then_sync(&mut log, b"activate");
        let (_, records, _) = reopen(&path);
        assert_eq!(records, [&b"prepare"[..], b"activate"]);
        std::fs::remove_file(&path).unwrap();
    }

    /// So is a failed sync: the kernel reports a write-back error once,
    /// and a second `fdatasync` would return `Ok` without the data.
    #[test]
    fn failed_sync_is_final_until_reopen() {
        let path = tmp("failed-sync");
        let (mut log, _) = RecordLog::open(&path, MAGIC).unwrap();
        append_then_sync(&mut log, b"acknowledged");
        log.append(&[b"in flight"]).unwrap();
        log.fault = Some(Fault::Sync);
        assert!(log.sync().is_err());
        assert_refuses(&mut log);

        drop(log);
        let (mut log, records, _) = reopen(&path);
        assert_eq!(records[0], b"acknowledged");
        append_then_sync(&mut log, b"after");
        std::fs::remove_file(&path).unwrap();
    }

    /// A rewrite replaces the file with exactly its records, and one
    /// that fails before its rename — here a directory squatting on the
    /// temp path — leaves the log as it was, usable and retryable.
    #[test]
    fn rewrite_replaces_the_file_and_a_failed_one_changes_nothing() {
        let path = tmp("rewrite");
        let squatter = PathBuf::from(format!("{}.tmp", path.display()));
        let (mut log, _) = RecordLog::open(&path, MAGIC).unwrap();
        for i in 0..20u8 {
            log.append(&[&[i; 100]]).unwrap();
        }
        log.sync().unwrap();
        let before = log.len_bytes();

        std::fs::create_dir(&squatter).unwrap();
        assert!(log.rewrite(&[b"snapshot"]).is_err());
        assert_eq!(log.len_bytes(), before);
        append_then_sync(&mut log, &[20; 100]);
        assert_eq!(reopen(&path).1.len(), 21);

        std::fs::remove_dir(&squatter).unwrap();
        log.rewrite(&[b"snapshot", b"open-round"]).unwrap();
        assert!(log.len_bytes() < before, "compaction must shrink the log");
        append_then_sync(&mut log, b"later");
        let (_, records, torn) = reopen(&path);
        assert_eq!(records, [&b"snapshot"[..], b"open-round", b"later"]);
        assert!(!torn);
        std::fs::remove_file(&path).unwrap();
    }

    /// A payload replay would read as a torn length field is refused
    /// before a byte of it is written — and fails nothing.
    #[test]
    fn oversized_record_is_refused_without_failing_the_log() {
        let path = tmp("oversized");
        let (mut log, _) = RecordLog::open(&path, MAGIC).unwrap();
        let err = log.append(&[&vec![0u8; MAX_RECORD], b"+"]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        append_then_sync(&mut log, b"fine");
        assert_eq!(reopen(&path).1, [b"fine"]);
        std::fs::remove_file(&path).unwrap();
    }
}
