//! An unusable `--journal` stops `repro_all` before the study: it
//! exits 2 with `[kfi] journal <path>: <why>` on stderr, prints nothing
//! on stdout and leaves the journal as it found it.

use kfi_core::journal::{Journal, MAGIC};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kfi-journal-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Runs `repro_all --cap 1 --seed 12 --csv --journal <journal>` plus
/// `extra`, and checks that it refused the journal.
fn assert_refused(journal: &Path, extra: &[&str], why: &str) {
    assert_refused_by(Command::new(env!("CARGO_BIN_EXE_repro_all")), journal, extra, why);
}

/// [`assert_refused`], with `repro_all` spawned by `cmd`.
fn assert_refused_by(mut cmd: Command, journal: &Path, extra: &[&str], why: &str) {
    let out = cmd
        .args(["--cap", "1", "--seed", "12", "--csv", "--journal"])
        .arg(journal)
        .args(extra)
        .output()
        .expect("spawn repro_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    let want = format!("[kfi] journal {}: {why}", journal.display());
    assert!(stderr.contains(&want), "no `{want}` in stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "stdout:\n{}", String::from_utf8_lossy(&out.stdout));
}

/// A fresh journal of `seed`, holding only its header, and its bytes.
fn journal_bytes(name: &str, seed: u64) -> (PathBuf, Vec<u8>) {
    let path = tmp(name);
    drop(Journal::create(&path, seed).unwrap());
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn a_journal_of_another_seed_exits_2_untouched() {
    let (path, bytes) = journal_bytes("seed-11", 11);
    assert_refused(&path, &["--resume"], "written for seed 11, not the experiment's seed 12");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_version_1_journal_exits_2_untouched() {
    let (path, mut bytes) = journal_bytes("v1", 12);
    bytes[..MAGIC.len()].copy_from_slice(b"KFIJRNL1");
    std::fs::write(&path, &bytes).unwrap();
    assert_refused(&path, &["--resume"], "not a run journal");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_file(&path);
}

/// A device is refused before it is opened: `/dev/full` would fail
/// only on the header's write and `/dev/null` on its sync.
#[cfg(target_os = "linux")]
#[test]
fn a_device_journal_exits_2() {
    assert_refused(Path::new("/dev/full"), &[], "not a regular file");
    assert_refused(Path::new("/dev/null"), &[], "not a regular file");
}

/// A pipe is refused before it is opened, which would block until its
/// other end opened; `timeout` ends a run that blocks.
#[cfg(target_os = "linux")]
#[test]
fn a_fifo_journal_exits_2_without_blocking() {
    let fifo = tmp("fifo");
    let _ = std::fs::remove_file(&fifo);
    assert!(Command::new("mkfifo").arg(&fifo).status().expect("spawn mkfifo").success());
    for extra in [&[][..], &["--resume"][..]] {
        let mut timed = Command::new("timeout");
        timed.args(["60", env!("CARGO_BIN_EXE_repro_all")]);
        assert_refused_by(timed, &fifo, extra, "not a regular file");
    }
    let _ = std::fs::remove_file(&fifo);
}

/// A regular-file path whose journal cannot be created exits 2 with the
/// I/O error.
#[test]
fn an_uncreatable_journal_exits_2() {
    let plain = tmp("plain");
    std::fs::write(&plain, b"a file, not a directory").unwrap();
    assert_refused(&plain.join("journal"), &[], "File exists");
    assert_eq!(std::fs::read(&plain).unwrap(), b"a file, not a directory");
    let _ = std::fs::remove_file(&plain);
}

/// A device is refused before it is read. Under the address-space
/// limit, reading `/dev/zero` whole would end in "out of memory"
/// instead of taking the host's memory.
#[cfg(target_os = "linux")]
#[test]
fn a_device_journal_is_refused_before_it_is_read() {
    let mut limited = Command::new("sh");
    limited.args(["-c", "ulimit -v 400000; exec \"$0\" \"$@\"", env!("CARGO_BIN_EXE_repro_all")]);
    assert_refused_by(limited, Path::new("/dev/zero"), &["--resume"], "not a regular file");
}
