//! Durability contract of the daemon state [`Journal`], through its
//! public surface: records survive reopen byte-for-byte, a torn tail
//! (the crash landing mid-write) is truncated away without losing the
//! intact prefix, a corrupted checksum drops exactly the damaged
//! record, a torn header starts fresh while a foreign one is refused,
//! and [`Journal::rewrite`] compacts atomically.  (The byte-by-byte
//! sweeps and the failure latch are `RecordLog`'s unit tests.)

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;

use xrd_core::Journal;

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("xrd-journal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn records_round_trip_across_reopen() {
    let path = tmp("roundtrip");
    {
        let (mut j, records) = Journal::open(&path).expect("fresh journal opens");
        assert!(records.is_empty(), "fresh journal has no records");
        j.append_sync(b"alpha").expect("append");
        j.append_sync(b"").expect("empty payloads are records too");
        j.append_sync(&[0xFFu8; 300]).expect("append");
    }
    let (_, records) = Journal::open(&path).expect("reopen");
    assert_eq!(records.len(), 3);
    assert_eq!(records[0], b"alpha");
    assert_eq!(records[1], b"");
    assert_eq!(records[2], vec![0xFFu8; 300]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_is_truncated_and_journal_stays_appendable() {
    let path = tmp("torn");
    let intact_len = {
        let (mut j, _) = Journal::open(&path).expect("open");
        j.append_sync(b"one").expect("append");
        j.append_sync(b"two").expect("append");
        j.len_bytes()
    };
    // A crash mid-append: a length header promising more bytes than
    // ever hit the disk.
    let mut f = OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("raw open");
    f.write_all(&[64, 0, 0, 0, b'x', b'y']).expect("torn write");
    drop(f);

    let (mut j, records) = Journal::open(&path).expect("reopen tolerates torn tail");
    assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
    assert_eq!(
        j.len_bytes(),
        intact_len,
        "file truncated back to the intact prefix"
    );

    // The journal is immediately usable: the next append lands where
    // the torn record was cut away.
    j.append_sync(b"three").expect("append after truncation");
    drop(j);
    let (_, records) = Journal::open(&path).expect("reopen");
    assert_eq!(
        records,
        vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_checksum_drops_the_damaged_suffix() {
    let path = tmp("corrupt");
    {
        let (mut j, _) = Journal::open(&path).expect("open");
        j.append_sync(b"keep-a").expect("append");
        j.append_sync(b"keep-b").expect("append");
        j.append_sync(b"damaged").expect("append");
    }
    // Flip one byte inside the last record's checksum.
    let mut bytes = std::fs::read(&path).expect("read raw");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xA5;
    std::fs::write(&path, &bytes).expect("write raw");

    let (_, records) = Journal::open(&path).expect("reopen tolerates corruption");
    assert_eq!(records, vec![b"keep-a".to_vec(), b"keep-b".to_vec()]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rewrite_compacts_to_exactly_the_given_records() {
    let path = tmp("rewrite");
    {
        let (mut j, _) = Journal::open(&path).expect("open");
        for i in 0..20u8 {
            j.append_sync(&[i; 100]).expect("append");
        }
        let before = j.len_bytes();
        j.rewrite(&[b"active-config", b"open-round"])
            .expect("rewrite");
        assert!(j.len_bytes() < before, "compaction must shrink the journal");
        // Post-rewrite appends extend the compacted file.
        j.append_sync(b"later").expect("append after rewrite");
    }
    let (_, records) = Journal::open(&path).expect("reopen");
    assert_eq!(
        records,
        vec![
            b"active-config".to_vec(),
            b"open-round".to_vec(),
            b"later".to_vec()
        ]
    );
    let _ = std::fs::remove_file(&path);
}

/// The crash before the 8-byte header landed whole: a respawn must
/// come up on an empty journal, not fail forever on a 3-byte file.
#[test]
fn torn_header_starts_a_fresh_journal() {
    let path = tmp("torn-header");
    std::fs::write(&path, b"XRD").expect("write raw");
    let (mut j, records) = Journal::open(&path).expect("a torn header is not an error");
    assert!(records.is_empty());
    j.append_sync(b"first").expect("append");
    drop(j);
    let (_, records) = Journal::open(&path).expect("reopen");
    assert_eq!(records, vec![b"first".to_vec()]);
    let _ = std::fs::remove_file(&path);
}

/// Eight bytes that are not the journal's magic are somebody else's
/// file: refused, and not a byte of it changed.
#[test]
fn foreign_header_is_refused_and_the_file_left_alone() {
    let path = tmp("foreign");
    let foreign = b"XRDMBOX2 is a mailbox segment, not a journal";
    std::fs::write(&path, foreign).expect("write raw");
    let err = Journal::open(&path).err().expect("foreign file refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(std::fs::read(&path).expect("read raw"), foreign);
    let _ = std::fs::remove_file(&path);
}
