//! The mix daemon's state journal: a [`RecordLog`] behind the
//! `XRDJRNL1` magic, counted under `daemon.journal.*`.
//!
//! [`Journal`] holds the small, precious control state a respawned
//! daemon must recover to survive `kill -9` — inner-key rotation epochs
//! and shares, the open submission-window round.  The file format, the
//! torn-tail repair on open and the "a failed append or sync is final"
//! rule are [`RecordLog`]'s (see [`crate::record_log`]); the payloads
//! are the daemon's (`JREC_*` in `xrd-net`'s `daemon.rs`) and are never
//! parsed here.  Control records are rare, so each one is appended and
//! synced on its own ([`Journal::append_sync`]); a rotation's
//! activation, after which only the new bundle matters, compacts the
//! file with [`Journal::rewrite`].
//!
//! The journal is write-*ahead*: the daemon journals the state a
//! transition would produce and only then moves memory, so a record
//! that failed to land (answered `STORAGE`) leaves nothing behind that
//! a retry could be acknowledged from.

use std::path::PathBuf;

use crate::record_log::RecordLog;

const MAGIC: &[u8; 8] = b"XRDJRNL1";

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
    /// Records appended (and synced).
    appends: &'static xrd_obs::Counter,
    /// Whole-journal compactions ([`Journal::rewrite`]).
    rewrites: &'static xrd_obs::Counter,
    /// Intact records replayed on open.
    recovered: &'static xrd_obs::Counter,
    /// Torn tails (or torn headers) cut off on open.
    torn_tails: &'static xrd_obs::Counter,
}

/// A mix daemon's durable control state; see the [module docs](self).
pub struct Journal {
    log: RecordLog,
}

impl Journal {
    /// Open (or create) the journal at `path`, returning it plus the
    /// recovered payloads in append order.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Journal, Vec<Vec<u8>>)> {
        let (log, replay) = RecordLog::open(path, MAGIC)?;
        let records: Vec<Vec<u8>> = replay.records().map(|(_, rec)| rec.to_vec()).collect();
        if replay.torn {
            journal_metrics().torn_tails.incr();
        }
        journal_metrics().recovered.add(records.len() as u64);
        Ok((Journal { log }, records))
    }

    /// Bytes currently in the journal file.
    pub fn len_bytes(&self) -> u64 {
        self.log.len_bytes()
    }

    /// Append one record and make it durable.
    pub fn append_sync(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.log.append(&[payload])?;
        self.log.sync()?;
        journal_metrics().appends.incr();
        Ok(())
    }

    /// Atomically replace the journal with exactly `records`.
    pub fn rewrite(&mut self, records: &[&[u8]]) -> std::io::Result<()> {
        self.log.rewrite(records)?;
        journal_metrics().rewrites.incr();
        Ok(())
    }
}
