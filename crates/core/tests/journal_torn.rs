//! Journal torn-tail recovery, fuzzed: truncate or bit-flip the
//! journal at arbitrary byte offsets and assert resume refuses the file
//! as `BadHeader` exactly when the damage starts in the magic or the
//! header frame, and otherwise resumes from a strict prefix of the
//! original entries — never a corrupted record — and that re-appending
//! the missing entries reproduces the undamaged file byte-for-byte. A
//! journal of another seed is refused and left as it was.

use kfi_core::journal::{read_journal, resume, Journal, JournalEntry, JournalError};
use kfi_injector::{Campaign, InjectionTarget, Outcome, RunRecord};
use kfi_trace::Metrics;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 4242;

fn entry(index: usize) -> JournalEntry {
    let mut metrics = Metrics::default();
    metrics.runs = 1;
    metrics.instructions = 5_000 + index as u64;
    metrics.dirty_pages = index as u64 * 17;
    metrics.run_cycles.record(1_000 + index as u64);
    JournalEntry {
        campaign: ['A', 'B', 'C'][index % 3],
        index,
        record: RunRecord {
            target: InjectionTarget {
                campaign: [Campaign::A, Campaign::B, Campaign::C][index % 3],
                function: format!("fn_{index}"),
                subsystem: if index % 2 == 0 { "fs".into() } else { "net".into() },
                insn_addr: 0xc010_0000 + index as u32 * 7,
                insn_len: 1 + (index % 6) as u8,
                byte_index: index % 6,
                bit_mask: 1 << (index % 8),
                is_branch: index % 5 == 0,
            },
            mode: (index % 3) as u32,
            outcome: if index % 4 == 0 { Outcome::NotActivated } else { Outcome::NotManifested },
            activation_tsc: Some(10_000 + index as u64),
            run_cycles: 50_000 + index as u64,
            sanitizer_violations: 0,
        },
        metrics,
    }
}

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kfi-journal-torn-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}-{}", std::process::id(), UNIQ.fetch_add(1, Ordering::Relaxed)))
}

/// Writes a journal of `n` entries and returns its bytes.
fn build(path: &PathBuf, n: usize) -> Vec<u8> {
    let mut j = Journal::create(path, SEED).unwrap();
    for i in 0..n {
        j.append(&entry(i)).unwrap();
    }
    j.sync().unwrap();
    drop(j);
    std::fs::read(path).unwrap()
}

/// The length of the magic and the header frame: a journal's bytes
/// before its first entry.
fn header_len() -> usize {
    let path = tmp("empty");
    let len = build(&path, 0).len();
    let _ = std::fs::remove_file(&path);
    len
}

/// The shared postcondition for damage whose first changed byte is at
/// offset `damage`: resume refuses the file as `BadHeader` when that is
/// inside the magic or the header frame, and otherwise yields an exact
/// prefix of the original entries; re-appending the missing suffix
/// must reproduce the pristine bytes exactly.
fn check_damage(path: &PathBuf, pristine: &[u8], n: usize, damage: usize) -> Result<(), String> {
    let header_end = header_len();
    match resume(path, SEED) {
        Err(JournalError::BadHeader) => {
            prop_assert!(damage < header_end, "refused damage at {damage}, past the header");
        }
        Err(e) => prop_assert!(false, "damage at {damage}: {e}"),
        Ok((entries, mut j)) => {
            prop_assert!(
                damage >= header_end,
                "resumed although the damage at {damage} is in the header"
            );
            prop_assert!(entries.len() <= n, "resume invented entries");
            for (i, e) in entries.iter().enumerate() {
                prop_assert_eq!(e, &entry(i), "resume replayed a corrupted record at {}", i);
            }
            // Re-run the "lost" suffix: the rewritten journal must be
            // byte-identical to one that was never damaged.
            for i in entries.len()..n {
                j.append(&entry(i)).map_err(|e| e.to_string())?;
            }
            j.sync().map_err(|e| e.to_string())?;
            drop(j);
            let healed = std::fs::read(path).map_err(|e| e.to_string())?;
            prop_assert_eq!(
                healed,
                pristine.to_vec(),
                "healed journal differs from the undamaged one"
            );
            let back = read_journal(path, SEED).map_err(|e| e.to_string())?;
            prop_assert_eq!(back.len(), n);
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at any byte offset: resume keeps an exact prefix and
    /// healing reproduces the pristine bytes.
    #[test]
    fn truncation_at_any_offset_resumes_prefix(
        n in 1usize..24,
        cut_sel in any::<u32>(),
    ) {
        let path = tmp("trunc");
        let pristine = build(&path, n);
        let cut = cut_sel as usize % pristine.len();
        std::fs::write(&path, &pristine[..cut]).unwrap();
        check_damage(&path, &pristine, n, cut)?;
    }

    /// A bit flip at any byte offset: the CRC (or the header check)
    /// fences the damage; everything before it replays identically.
    #[test]
    fn bitflip_at_any_offset_never_replays_corruption(
        n in 1usize..24,
        hit_sel in any::<u32>(),
        bit in 0u8..8,
    ) {
        let path = tmp("flip");
        let pristine = build(&path, n);
        let mut bad = pristine.clone();
        let hit = hit_sel as usize % bad.len();
        bad[hit] ^= 1 << bit;
        std::fs::write(&path, &bad).unwrap();
        check_damage(&path, &pristine, n, hit)?;
    }

    /// Truncation *and* a flip inside the surviving prefix — compound
    /// damage, same guarantee.
    #[test]
    fn compound_damage_still_fenced(
        n in 2usize..24,
        cut_sel in any::<u32>(),
        hit_sel in any::<u32>(),
        bit in 0u8..8,
    ) {
        let path = tmp("both");
        let pristine = build(&path, n);
        let cut = 1 + cut_sel as usize % (pristine.len() - 1);
        let mut bad = pristine[..cut].to_vec();
        let hit = hit_sel as usize % bad.len();
        bad[hit] ^= 1 << bit;
        std::fs::write(&path, &bad).unwrap();
        check_damage(&path, &pristine, n, hit)?;
    }
}

/// Every single-bit flip in the magic or the header frame is refused as
/// `BadHeader`.
#[test]
fn every_header_bit_flip_is_refused() {
    let path = tmp("header");
    let pristine = build(&path, 3);
    for hit in 0..header_len() {
        for bit in 0..8 {
            let mut bad = pristine.clone();
            bad[hit] ^= 1 << bit;
            std::fs::write(&path, &bad).unwrap();
            check_damage(&path, &pristine, 3, hit).unwrap();
        }
    }
}

/// A journal written for another seed describes another plan: resume
/// refuses it and leaves every byte as it was, even a torn tail that a
/// resume of the right seed would cut off.
#[test]
fn a_journal_of_another_seed_is_refused_unchanged() {
    let path = tmp("seed");
    let pristine = build(&path, 5);
    let torn = &pristine[..pristine.len() - 3];
    std::fs::write(&path, torn).unwrap();
    match resume(&path, SEED + 1) {
        Err(JournalError::SeedMismatch { found, expected }) => {
            assert_eq!((found, expected), (SEED, SEED + 1));
        }
        Err(e) => panic!("expected a seed mismatch, got {e}"),
        Ok((entries, _)) => panic!("resumed {} entries of another seed's plan", entries.len()),
    }
    assert_eq!(std::fs::read(&path).unwrap(), torn, "a refused resume changed the journal");
    let _ = std::fs::remove_file(&path);
}
