//! A tiny fsync'd record journal for daemon control state.
//!
//! [`Journal`] is the durability primitive behind crash-tolerant
//! daemons: a single append-only file of checksummed records that a
//! respawned process replays to recover the small, precious state that
//! must survive `kill -9` — inner-key rotation epochs and shares, the
//! open submission-window round, delivery dedup ids.  It reuses the
//! record/checksum/torn-tail machinery of the log-structured mailbox
//! store ([`crate::mailbox::LogMailboxStore`]) in miniature: one file,
//! opaque payloads, no index.
//!
//! ## On-disk layout
//!
//! An 8-byte magic (`XRDJRNL1`) followed by records:
//!
//! ```text
//! RECORD = [len:u32][payload:len][fnv64]
//! ```
//!
//! All integers little-endian; `fnv64` is FNV-1a-64 over every
//! preceding byte of the record (torn-write detection, not adversarial
//! integrity — the journal sits next to the daemon's secret config, in
//! a directory only the operator can read).  A torn record at the tail
//! — the crash-mid-append case — is truncated away on open and counted
//! under `daemon.journal.torn_tails`; everything before it survives.
//!
//! ## Semantics
//!
//! * [`Journal::open`] replays the file and hands back every intact
//!   payload in append order; interpreting them is the caller's
//!   business (the journal never parses payloads).
//! * [`Journal::append`] stages a record; [`Journal::sync`] makes
//!   everything staged durable (`fdatasync`).  [`Journal::append_sync`]
//!   does both, for callers whose records are rare enough that one
//!   fsync each is fine.
//! * [`Journal::rewrite`] atomically replaces the whole journal with a
//!   compacted snapshot (temp file + rename + directory fsync) — the
//!   compaction move for state where only the latest epoch matters.
//!
//! ## A failed append or sync is final
//!
//! The rule of the mailbox log (`mailbox/log.rs`): once an append or an
//! `fdatasync` fails, the journal is **failed** and [`Journal::append`],
//! [`Journal::sync`] and [`Journal::rewrite`] refuse until it is
//! reopened.  A failed write (`ENOSPC`, `EIO`) may leave part of its
//! record in the `O_APPEND` file; a record appended after it would sit
//! behind a torn one, and replay — which truncates at the first torn
//! record — would silently drop it although it was synced and
//! acknowledged (for a mix daemon: an `ACTIVATE`, i.e. a respawned hop
//! rejoining with stale keys).  [`Journal::open`] cuts the torn record
//! off and keeps everything acknowledged before it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"XRDJRNL1";
/// Sanity cap on a record payload during replay: anything larger is a
/// torn length field, not a real control record.
const MAX_RECORD: usize = 1 << 20;

/// FNV-1a 64 — torn-write detection for journal records (shared with
/// the mailbox log's record format).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Journal metric handles, resolved once per process.
fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: std::sync::OnceLock<JournalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| JournalMetrics {
        appends: xrd_obs::counter("daemon.journal.appends"),
        rewrites: xrd_obs::counter("daemon.journal.rewrites"),
        recovered: xrd_obs::counter("daemon.journal.records_recovered"),
        torn_tails: xrd_obs::counter("daemon.journal.torn_tails"),
    })
}

struct JournalMetrics {
    /// Records appended.
    appends: &'static xrd_obs::Counter,
    /// Whole-journal compactions ([`Journal::rewrite`]).
    rewrites: &'static xrd_obs::Counter,
    /// Intact records replayed on open.
    recovered: &'static xrd_obs::Counter,
    /// Torn record tails truncated on open.
    torn_tails: &'static xrd_obs::Counter,
}

/// One record as encoded on disk: length prefix, payload, checksum.
fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + payload.len() + 8);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&fnv64(&rec).to_le_bytes());
    rec
}

/// Parse the record at `o`; `None` means torn (truncate here).
fn parse_record(bytes: &[u8], o: usize) -> Option<(Vec<u8>, usize)> {
    let len_end = o.checked_add(4)?;
    if len_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[o..len_end].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD {
        return None;
    }
    let end = len_end.checked_add(len)?.checked_add(8)?;
    if end > bytes.len() {
        return None;
    }
    let stored = u64::from_le_bytes(bytes[end - 8..end].try_into().expect("8 bytes"));
    if fnv64(&bytes[o..end - 8]) != stored {
        return None;
    }
    Some((bytes[len_end..end - 8].to_vec(), end))
}

/// An append-only, fsync'd record journal; see the [module
/// docs](self) for format and semantics.
pub struct Journal {
    path: PathBuf,
    file: File,
    len: u64,
    sync: bool,
    /// Why an earlier append or sync failed; set once, never cleared
    /// (see the module docs).
    failed: Option<String>,
    /// Test seam: make the next append write half its record and fail.
    #[cfg(test)]
    fail_next_append: bool,
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying every intact
    /// record.  A torn tail — the crash-mid-append case — is truncated
    /// away; a corrupt *magic* is an error (that file is not ours to
    /// repair).  Returns the journal plus the recovered payloads in
    /// append order.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Journal, Vec<Vec<u8>>)> {
        Self::open_with(path, true)
    }

    /// [`Journal::open`] with fsync optionally disabled (tests and
    /// benchmarks measuring pure record cost; daemons leave it on).
    pub fn open_with(
        path: impl Into<PathBuf>,
        sync: bool,
    ) -> std::io::Result<(Journal, Vec<Vec<u8>>)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let journal = |file, len| Journal {
            path: path.clone(),
            file,
            len,
            sync,
            failed: None,
            #[cfg(test)]
            fail_next_append: false,
        };
        if bytes.is_empty() {
            file.write_all(MAGIC)?;
            if sync {
                file.sync_data()?;
            }
            return Ok((journal(file, MAGIC.len() as u64), Vec::new()));
        }
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(std::io::Error::other(format!(
                "{}: not a journal (bad magic)",
                path.display()
            )));
        }
        let mut records = Vec::new();
        let mut o = MAGIC.len();
        while o < bytes.len() {
            match parse_record(&bytes, o) {
                Some((payload, end)) => {
                    records.push(payload);
                    o = end;
                }
                None => {
                    journal_metrics().torn_tails.incr();
                    file.set_len(o as u64)?;
                    if sync {
                        file.sync_data()?;
                    }
                    break;
                }
            }
        }
        journal_metrics().recovered.add(records.len() as u64);
        Ok((journal(file, o as u64), records))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently in the journal file (compaction trigger).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Refuse if an earlier append or sync failed.
    fn check_failed(&self) -> std::io::Result<()> {
        match &self.failed {
            Some(why) => Err(std::io::Error::other(format!(
                "journal failed earlier ({why}); reopen to recover"
            ))),
            None => Ok(()),
        }
    }

    /// Pass `result` through, failing the journal for good on an error.
    fn latch(&mut self, result: std::io::Result<()>) -> std::io::Result<()> {
        if let Err(e) = &result {
            self.failed = Some(e.to_string());
        }
        result
    }

    /// Stage one record.  Not durable until [`Journal::sync`].
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.check_failed()?;
        let rec = encode_record(payload);
        #[cfg(test)]
        let rec = if self.fail_next_append {
            rec[..rec.len() / 2].to_vec()
        } else {
            rec
        };
        let written = self.file.write_all(&rec);
        #[cfg(test)]
        let written = if std::mem::take(&mut self.fail_next_append) {
            Err(std::io::Error::other("injected append failure"))
        } else {
            written
        };
        self.latch(written)?;
        self.len += rec.len() as u64;
        journal_metrics().appends.incr();
        Ok(())
    }

    /// Make everything staged durable (`fdatasync`).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.check_failed()?;
        if self.sync {
            let synced = self.file.sync_data();
            self.latch(synced)?;
        }
        Ok(())
    }

    /// Append one record and fsync it — the common case for rare
    /// control-state records.
    pub fn append_sync(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.append(payload)?;
        self.sync()
    }

    /// Atomically replace the journal with a compacted snapshot: the
    /// given records are written to a temp file, fsync'd, renamed over
    /// the journal, and the directory fsync'd — a crash at any point
    /// leaves either the old journal or the new one, never a mix.
    pub fn rewrite(&mut self, records: &[&[u8]]) -> std::io::Result<()> {
        self.check_failed()?;
        let tmp = self.path.with_extension("journal.tmp");
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(MAGIC)?;
        let mut len = MAGIC.len() as u64;
        for payload in records {
            let rec = encode_record(payload);
            file.write_all(&rec)?;
            len += rec.len() as u64;
        }
        if self.sync {
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        if self.sync {
            if let Some(dir) = self.path.parent() {
                if let Ok(d) = File::open(dir) {
                    let _ = d.sync_data();
                }
            }
        }
        self.file = file;
        self.len = len;
        journal_metrics().rewrites.incr();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failed append is final.  Half of the failed record is in the
    /// `O_APPEND` file, so without the latch the next record lands
    /// behind a torn one and replay drops it — synced and acknowledged.
    #[test]
    fn failed_append_fails_the_journal_until_reopen() {
        let path = std::env::temp_dir().join(format!("xrd-jrnl-failed-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append_sync(b"prepare").unwrap();
        j.fail_next_append = true;
        assert!(j.append_sync(b"torn").is_err());

        // (a) Every later operation is refused.
        assert!(j.append(b"activate").is_err());
        assert!(j.sync().is_err());
        assert!(j.rewrite(&[b"activate"]).is_err());

        // (b) Reopening cuts the torn record off, keeps everything
        // acknowledged before it, and what is appended next survives.
        drop(j);
        let (mut j, records) = Journal::open(&path).unwrap();
        assert_eq!(records, [b"prepare".to_vec()]);
        j.append_sync(b"activate").unwrap();
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records, [b"prepare".to_vec(), b"activate".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }
}
