//! Append-only campaign run journal: the checkpoint behind
//! `--journal`/`--resume`.
//!
//! Layout: an 8-byte magic (`KFIJRNL2`), a CRC-framed header carrying
//! the experiment seed (a journal from a different seed describes a
//! different plan and must not be merged), then one CRC frame per
//! completed run. Each frame's payload is
//!
//! ```text
//! campaign letter (1 byte) · job index (varint) ·
//! RunRecord wire encoding · per-run Metrics delta wire encoding
//! ```
//!
//! Frames are CRC-32 checked ([`kfi_trace::frame`]); a torn or corrupt
//! tail — the normal aftermath of `SIGKILL` mid-write — silently ends
//! the readable prefix instead of failing the resume. Appends are
//! fsync'd in batches of [`FLUSH_BATCH`] entries so a crash loses at
//! most one batch of *journal entries*, never already-synced ones.

use kfi_injector::{wire, RunRecord};
use kfi_trace::frame::{read_frames, write_frame, FrameTail};
use kfi_trace::{codec, Metrics};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// File magic: journal format version 2. Version 1 entries carried
/// eleven more metrics counters; their frames pass the CRC but do not
/// decode, so a version 1 journal is refused rather than read as a torn
/// tail.
pub const MAGIC: &[u8; 8] = b"KFIJRNL2";

/// Appends are fsync'd every this many entries (and on [`Journal::sync`]).
/// The value trades the crash-loss window (at most this many runs are
/// re-executed on resume) against fsync overhead; 16 keeps the journal
/// under the ≤2% wall-clock budget measured in `EXPERIMENTS.md`.
pub const FLUSH_BATCH: usize = 16;

/// One journaled run: enough to skip re-executing it on resume and to
/// reproduce the merged campaign metrics bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Campaign letter (A/B/C).
    pub campaign: char,
    /// Index of the job in the campaign's deterministic plan.
    pub index: usize,
    /// The completed run.
    pub record: RunRecord,
    /// The per-run metrics delta (`rig.take_metrics()` after the run,
    /// plus the supervisor's own counters for this job).
    pub metrics: Metrics,
}

fn encode_entry(e: &JournalEntry) -> Vec<u8> {
    let mut payload = Vec::with_capacity(128);
    payload.push(e.campaign as u8);
    codec::put_varint(&mut payload, e.index as u64);
    wire::encode_record(&mut payload, &e.record);
    e.metrics.encode_into(&mut payload);
    payload
}

fn decode_entry(payload: &[u8]) -> Option<JournalEntry> {
    let mut pos = 0;
    let campaign = *payload.first()? as char;
    pos += 1;
    let index = codec::get_varint(payload, &mut pos).ok()? as usize;
    let record = wire::decode_record(payload, &mut pos).ok()?;
    let metrics = Metrics::decode_from(payload, &mut pos).ok()?;
    if pos != payload.len() {
        return None;
    }
    Some(JournalEntry { campaign, index, record, metrics })
}

/// An open journal being appended to.
pub struct Journal {
    file: File,
    pending: usize,
    /// fsync batches completed so far (surfaced on stderr; flush counts
    /// differ between an interrupted-and-resumed campaign and an
    /// uninterrupted one, so they never reach the dataset).
    pub flushes: u64,
    /// Set by the first failed append. A reader stops at a torn frame,
    /// so nothing written after one could ever be resumed.
    failed: bool,
}

impl Journal {
    /// Creates (truncating) a journal for a campaign plan with the
    /// given seed.
    ///
    /// # Errors
    ///
    /// A path that is not a regular file ([`JournalError::NotAFile`]),
    /// and I/O errors.
    pub fn create(path: &Path, seed: u64) -> std::io::Result<Journal> {
        regular_file(path).map_err(std::io::Error::other)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = File::create(path)?;
        let mut buf = Vec::with_capacity(32);
        buf.extend_from_slice(MAGIC);
        let mut header = Vec::new();
        codec::put_varint(&mut header, seed);
        write_frame(&mut buf, &header);
        file.write_all(&buf)?;
        file.sync_data()?;
        Ok(Journal { file, pending: 0, flushes: 1, failed: false })
    }

    /// Opens an existing journal for appending. The caller must know
    /// the file ends cleanly on a frame boundary — appending after a
    /// torn tail orphans the new frames (readers stop at the damage).
    /// Resume goes through [`resume`], which truncates the damage
    /// first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_to(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file, pending: 0, flushes: 0, failed: false })
    }

    /// Appends one entry, fsyncing every [`FLUSH_BATCH`] appends.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. After the first, every append fails
    /// without writing.
    pub fn append(&mut self, entry: &JournalEntry) -> std::io::Result<()> {
        if self.failed {
            return Err(std::io::Error::other("journal closed by an earlier failed append"));
        }
        let payload = encode_entry(entry);
        let mut framed = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut framed, &payload);
        let written = self.file.write_all(&framed).and_then(|()| {
            self.pending += 1;
            if self.pending >= FLUSH_BATCH {
                self.sync()?;
            }
            Ok(())
        });
        self.failed = written.is_err();
        written
    }

    /// Forces any pending appends to disk. Does nothing after a failed
    /// append, which the caller has already been told of.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.pending > 0 && !self.failed {
            self.file.sync_data()?;
            self.pending = 0;
            self.flushes += 1;
        }
        Ok(())
    }
}

/// Why a journal could not be used for resume.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read.
    Io(std::io::Error),
    /// Not a journal (bad magic) or an unreadable header.
    BadHeader,
    /// The path names a device, a pipe or a directory, not a file.
    NotAFile,
    /// The journal was written for a different seed — its plan is not
    /// ours, so none of its entries apply.
    SeedMismatch {
        /// Seed in the journal header.
        found: u64,
        /// Seed of the current experiment.
        expected: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "I/O error: {e}"),
            JournalError::BadHeader => write!(f, "not a run journal (bad magic or header)"),
            JournalError::NotAFile => write!(f, "not a regular file"),
            JournalError::SeedMismatch { found, expected } => {
                write!(f, "written for seed {found}, not the experiment's seed {expected}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Refuses a path that names a device, a pipe or a directory before
/// anything opens it: opening a pipe blocks until its other end is
/// opened, and a device may never end or may refuse the first write. A
/// path with no metadata (one that does not exist yet) is left to the
/// open.
fn regular_file(path: &Path) -> Result<(), JournalError> {
    match std::fs::metadata(path) {
        Ok(meta) if !meta.is_file() => Err(JournalError::NotAFile),
        _ => Ok(()),
    }
}

/// Reads a journal from `file`: its decodable entries, how its frames
/// end, and the byte length of the valid prefix (the point a resume
/// must truncate to before appending) and of the whole file. A bad
/// magic and an unreadable header are refused before the rest is read;
/// after the header, entries are decoded until the first damaged frame
/// or undecodable payload.
fn load(
    file: &mut File,
    expected_seed: u64,
) -> Result<(Vec<JournalEntry>, FrameTail, u64, u64), JournalError> {
    // The magic and the header's frame prefix; the seed is one varint.
    let mut buf = vec![0u8; MAGIC.len() + 8];
    file.read_exact(&mut buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => JournalError::BadHeader,
        _ => JournalError::Io(e),
    })?;
    let header_len = u32::from_le_bytes(buf[MAGIC.len()..][..4].try_into().expect("4 bytes"));
    if &buf[..MAGIC.len()] != MAGIC || header_len > 10 {
        return Err(JournalError::BadHeader);
    }
    file.read_to_end(&mut buf)?;
    let (frames, mut tail) = read_frames(&buf[MAGIC.len()..]);
    let mut frames = frames.into_iter();
    let header = frames.next().ok_or(JournalError::BadHeader)?;
    let mut pos = 0;
    let found = codec::get_varint(header, &mut pos).map_err(|_| JournalError::BadHeader)?;
    if found != expected_seed {
        return Err(JournalError::SeedMismatch { found, expected: expected_seed });
    }
    let mut valid_len = (MAGIC.len() + 8 + header.len()) as u64;
    let mut entries = Vec::new();
    for frame in frames {
        match decode_entry(frame) {
            Some(e) => {
                entries.push(e);
                valid_len += (8 + frame.len()) as u64;
            }
            None => {
                // CRC-valid frame with an undecodable payload: fence it
                // off like corruption so appends land before it, never
                // after.
                tail = FrameTail::Corrupt { offset: valid_len as usize - MAGIC.len() };
                break;
            }
        }
    }
    Ok((entries, tail, valid_len, buf.len() as u64))
}

/// Reads every decodable entry from a journal, validating the magic and
/// seed. A truncated or corrupt tail (torn final write) ends the result
/// without error; an entry whose payload fails to decode likewise ends
/// it — everything before the damage is still good.
///
/// # Errors
///
/// [`JournalError`] on I/O failure, a path that is not a regular file,
/// bad magic/header, or seed mismatch.
pub fn read_journal(path: &Path, expected_seed: u64) -> Result<Vec<JournalEntry>, JournalError> {
    read_journal_tail(path, expected_seed).map(|(entries, _)| entries)
}

/// Like [`read_journal`] but also reports whether the file ended
/// cleanly (used by tests and the resume report).
///
/// # Errors
///
/// Same as [`read_journal`].
pub fn read_journal_tail(
    path: &Path,
    expected_seed: u64,
) -> Result<(Vec<JournalEntry>, FrameTail), JournalError> {
    regular_file(path)?;
    let (entries, tail, _, _) = load(&mut File::open(path)?, expected_seed)?;
    Ok((entries, tail))
}

/// Resumes from an existing journal: reads its valid prefix, truncates
/// any torn/corrupt tail (so subsequent appends stay reachable — frames
/// written after damage would be invisible to every future reader), and
/// reopens the file for appending.
///
/// # Errors
///
/// Same as [`read_journal`].
pub fn resume(
    path: &Path,
    expected_seed: u64,
) -> Result<(Vec<JournalEntry>, Journal), JournalError> {
    regular_file(path)?;
    let mut file = OpenOptions::new().read(true).append(true).open(path)?;
    let (entries, _tail, valid_len, len) = load(&mut file, expected_seed)?;
    if valid_len < len {
        file.set_len(valid_len)?;
        file.sync_data()?;
    }
    Ok((entries, Journal { file, pending: 0, flushes: 0, failed: false }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfi_injector::{Campaign, InjectionTarget, Outcome};

    fn entry(index: usize) -> JournalEntry {
        let mut metrics = Metrics::default();
        metrics.runs = 1;
        metrics.instructions = 1000 + index as u64;
        metrics.run_cycles.record(42);
        JournalEntry {
            campaign: 'A',
            index,
            record: RunRecord {
                target: InjectionTarget {
                    campaign: Campaign::A,
                    function: format!("fn_{index}"),
                    subsystem: "fs".into(),
                    insn_addr: 0xc010_0000 + index as u32,
                    insn_len: 3,
                    byte_index: 1,
                    bit_mask: 0x20,
                    is_branch: false,
                },
                mode: 2,
                outcome: Outcome::NotManifested,
                activation_tsc: Some(777),
                run_cycles: 1234,
                sanitizer_violations: 0,
            },
            metrics,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kfi-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_entries() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path, 2003).unwrap();
        for i in 0..20 {
            j.append(&entry(i)).unwrap();
        }
        j.sync().unwrap();
        let back = read_journal(&path, 2003).unwrap();
        assert_eq!(back.len(), 20);
        for (i, e) in back.iter().enumerate() {
            assert_eq!(*e, entry(i));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seed_mismatch_rejected() {
        let path = tmp("seed");
        Journal::create(&path, 1).unwrap();
        assert!(matches!(
            read_journal(&path, 2),
            Err(JournalError::SeedMismatch { found: 1, expected: 2 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let path = tmp("torn");
        let mut j = Journal::create(&path, 9).unwrap();
        for i in 0..5 {
            j.append(&entry(i)).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        let whole = std::fs::read(&path).unwrap();
        // Chop off part of the final frame: a torn write.
        std::fs::write(&path, &whole[..whole.len() - 7]).unwrap();
        let (entries, tail) = read_journal_tail(&path, 9).unwrap();
        assert_eq!(entries.len(), 4);
        assert!(matches!(tail, FrameTail::Truncated { .. }));
        // Corrupt a byte inside the last intact frame instead.
        let mut bad = whole.clone();
        let n = bad.len();
        bad[n - 3] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let (entries, tail) = read_journal_tail(&path, 9).unwrap();
        assert_eq!(entries.len(), 4);
        assert!(matches!(tail, FrameTail::Corrupt { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_1_journal_rejected_untouched() {
        let path = tmp("v1");
        let mut j = Journal::create(&path, 3).unwrap();
        j.append(&entry(0)).unwrap();
        j.sync().unwrap();
        drop(j);
        let mut v1 = std::fs::read(&path).unwrap();
        v1[..MAGIC.len()].copy_from_slice(b"KFIJRNL1");
        std::fs::write(&path, &v1).unwrap();
        assert!(matches!(read_journal(&path, 3), Err(JournalError::BadHeader)));
        assert!(matches!(resume(&path, 3), Err(JournalError::BadHeader)));
        assert_eq!(std::fs::read(&path).unwrap(), v1, "a refused journal is left as it was");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn not_a_journal_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(read_journal(&path, 0), Err(JournalError::BadHeader)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_torn_tail_so_appends_stay_reachable() {
        let path = tmp("resume-tear");
        let mut j = Journal::create(&path, 7).unwrap();
        for i in 0..5 {
            j.append(&entry(i)).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() - 7]).unwrap();

        let (entries, mut j) = resume(&path, 7).unwrap();
        assert_eq!(entries.len(), 4);
        // Re-run of the torn run: its fresh entry must land where the
        // damage was, not after it.
        j.append(&entry(4)).unwrap();
        j.sync().unwrap();
        drop(j);

        let (back, tail) = read_journal_tail(&path, 7).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back[4], entry(4));
        assert!(matches!(tail, FrameTail::Clean));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_to_continues_existing() {
        let path = tmp("appendto");
        let mut j = Journal::create(&path, 5).unwrap();
        j.append(&entry(0)).unwrap();
        j.sync().unwrap();
        drop(j);
        let mut j = Journal::append_to(&path).unwrap();
        j.append(&entry(1)).unwrap();
        j.sync().unwrap();
        drop(j);
        let back = read_journal(&path, 5).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1], entry(1));
        std::fs::remove_file(&path).unwrap();
    }
}
