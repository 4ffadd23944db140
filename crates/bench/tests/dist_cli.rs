//! End-to-end distributed-runner robustness through the real
//! `repro_all` binary: worker pools of any size, chaos SIGKILLs
//! mid-campaign, wedged handshakes and a resume from a torn journal
//! must all print a dataset byte-identical to the in-process
//! supervisor — with zero silently-lost plan indices, proven from the
//! journal.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const BASE_ARGS: &[&str] = &["--cap", "2", "--seed", "11", "--csv"];
const SEED: u64 = 11;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kfi-dist-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Runs `repro_all` to completion, returning (stdout, stderr).
fn run_repro(extra: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(BASE_ARGS)
        .args(extra)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro_all");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "repro_all failed with {:?}\nstderr:\n{stderr}", out.status);
    (String::from_utf8(out.stdout).expect("stdout is UTF-8"), stderr)
}

/// Extracts `key=value` from the `[kfi] dist:` stderr summary.
fn dist_stat(stderr: &str, key: &str) -> u64 {
    let line = stderr
        .lines()
        .rfind(|l| l.starts_with("[kfi] dist: spawned="))
        .unwrap_or_else(|| panic!("no dist summary in stderr:\n{stderr}"));
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no `{key}=` in: {line}"))
        .parse()
        .expect("stat parses")
}

/// Asserts the journal covers every plan index of every campaign
/// exactly once — the "zero silently-lost plan indices" check. The
/// per-campaign plan sizes are read off the CSV record rows, which the
/// byte-identity assertions anchor to the in-process truth.
fn assert_journal_covers_plan(journal: &PathBuf, stdout: &str) {
    let mut plan_sizes: BTreeMap<char, usize> = BTreeMap::new();
    for l in stdout.lines() {
        let mut fields = l.split(',');
        if let Some(c @ ("A" | "B" | "C")) = fields.next() {
            // Record rows have a function name second; metrics rows put
            // a run count there. Count only record rows.
            if fields.next().is_some_and(|f| f.parse::<u64>().is_err()) {
                *plan_sizes.entry(c.chars().next().unwrap()).or_default() += 1;
            }
        }
    }
    assert_eq!(plan_sizes.len(), 3, "CSV is missing campaigns: {plan_sizes:?}");

    let entries = kfi_core::journal::read_journal(journal, SEED).expect("journal reads");
    let mut seen: BTreeMap<char, Vec<usize>> = BTreeMap::new();
    for e in &entries {
        seen.entry(e.campaign).or_default().push(e.index);
    }
    for (campaign, n) in plan_sizes {
        let mut indices = seen.remove(&campaign).unwrap_or_default();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..n).collect::<Vec<_>>(),
            "campaign {campaign}: journal does not cover the plan exactly once"
        );
    }
    assert!(seen.is_empty(), "journal has entries for unknown campaigns: {seen:?}");
}

#[test]
fn dist_stdout_matches_in_process_at_any_worker_count() {
    let (reference, _) = run_repro(&["--threads", "1"]);
    assert!(reference.contains("campaign,function,subsystem"), "dataset missing from stdout");
    let mut wire_bytes = Vec::new();
    for workers in ["1", "2", "4"] {
        let (out, err) = run_repro(&["--dist-workers", workers]);
        assert_eq!(out, reference, "dist stdout differs at {workers} workers");
        wire_bytes.push(dist_stat(&err, "wire_bytes"));
    }
    assert!(wire_bytes[0] > 0, "no bytes streamed over worker pipes");
    assert!(
        wire_bytes.iter().all(|w| *w == wire_bytes[0]),
        "wire_bytes must be worker-count invariant: {wire_bytes:?}"
    );
}

#[test]
fn chaos_kills_workers_without_disturbing_a_byte() {
    // The in-process truth, journaled.
    let jref = tmp("journal-ref");
    let _ = std::fs::remove_file(&jref);
    let (reference, _) = run_repro(&["--threads", "1", "--journal", jref.to_str().unwrap()]);

    // Chaos: 4 workers, seeded kill/stall/crash schedule. At least one
    // worker dies by SIGKILL mid-campaign (the schedule's first event
    // is always a kill) and its lease is reassigned.
    let jchaos = tmp("journal-chaos");
    let _ = std::fs::remove_file(&jchaos);
    let (out, err) =
        run_repro(&["--dist-workers", "4", "--chaos", "1", "--journal", jchaos.to_str().unwrap()]);
    assert!(dist_stat(&err, "chaos_kills") >= 1, "chaos never killed a worker:\n{err}");
    assert!(dist_stat(&err, "respawned") >= 1, "no worker was respawned:\n{err}");
    assert_eq!(out, reference, "chaos disturbed the dataset");

    // Journal bytes identical to the in-process run, and no plan index
    // lost or duplicated despite the kills.
    let a = std::fs::read(&jref).unwrap();
    let b = std::fs::read(&jchaos).unwrap();
    assert_eq!(a, b, "chaos disturbed the journal bytes");
    assert_journal_covers_plan(&jchaos, &out);

    let _ = std::fs::remove_file(&jref);
    let _ = std::fs::remove_file(&jchaos);
}

#[test]
fn a_journal_cut_mid_frame_resumes_through_the_pool() {
    // The in-process truth, journaled.
    let clean = tmp("resume-clean.journal");
    let _ = std::fs::remove_file(&clean);
    let (reference, _) = run_repro(&["--threads", "1", "--journal", clean.to_str().unwrap()]);
    let bytes = std::fs::read(&clean).unwrap();

    // Frame starts after the magic: the seed header, then one per run.
    let mut starts = Vec::new();
    let mut pos = kfi_core::journal::MAGIC.len();
    while pos < bytes.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    assert_eq!(pos, bytes.len(), "the clean journal ends on a frame boundary");
    // Cut a copy in the middle of the frame after about half the runs.
    let kept = (starts.len() - 1) / 2;
    assert!(kept > 0, "the clean journal holds too few runs to cut");
    let (from, to) = (starts[1 + kept], starts.get(2 + kept).copied().unwrap_or(bytes.len()));
    let cut = tmp("resume-cut.journal");
    std::fs::write(&cut, &bytes[..(from + to) / 2]).unwrap();

    let (out, err) =
        run_repro(&["--dist-workers", "2", "--journal", cut.to_str().unwrap(), "--resume"]);
    assert_eq!(out, reference, "the resumed dist run printed another dataset");
    assert_eq!(
        std::fs::read(&cut).unwrap(),
        bytes,
        "the resumed journal differs from the clean one"
    );
    let want = format!("[kfi] journal: {kept} runs resumed");
    assert!(err.contains(&want), "no `{want}` in stderr:\n{err}");

    let _ = std::fs::remove_file(&clean);
    let _ = std::fs::remove_file(&cut);
}

#[test]
fn wedged_handshake_is_reaped_and_lease_reassigned() {
    let (reference, _) = run_repro(&["--threads", "1"]);
    // The first spawned worker parks before its handshake; a short boot
    // budget reaps it, respawns the slot, and the campaign completes.
    let (out, err) = run_repro(&[
        "--dist-workers",
        "1",
        "--wedge-first-handshake",
        "--dist-handshake-ms",
        "700",
    ]);
    assert!(dist_stat(&err, "handshake_timeouts") >= 1, "wedged worker never reaped:\n{err}");
    assert!(dist_stat(&err, "respawned") >= 1, "reaped slot never respawned:\n{err}");
    assert_eq!(out, reference, "handshake reap disturbed the dataset");
}

#[test]
fn workers_with_a_drifted_plan_are_retired_and_the_study_degrades_in_process() {
    let opts =
        kfi_bench::ReproOptions { cap: Some(2), seed: SEED, threads: 1, ..Default::default() };
    let exp = kfi_core::Experiment::prepare(opts.to_config()).expect("experiment prepares");
    let jref = tmp("drift-ref.journal");
    let jdist = tmp("drift-dist.journal");
    let sup = kfi_core::supervisor::SupervisorConfig {
        journal: Some(jref.clone()),
        ..Default::default()
    };
    let reference = kfi_core::run_study_supervised(&exp, &sup).expect("in-process study").study;

    // Workers spawned with another cap plan another study: their Hello
    // carries another plan fingerprint.
    let drifted = kfi_bench::ReproOptions { cap: Some(3), ..opts.clone() };
    let workers = 2;
    let mut cfg = kfi_core::DistConfig::new(
        workers,
        PathBuf::from(env!("CARGO_BIN_EXE_repro_all")),
        drifted.to_worker_args(),
    );
    cfg.journal = Some(jdist.clone());
    let dist = kfi_core::run_study_dist(&exp, &cfg).expect("dist study");

    assert_eq!(dist.report.workers_quarantined, workers as u64, "{:?}", dist.report);
    let plan: usize = reference.campaigns.values().map(|c| c.records.len()).sum();
    assert_eq!(dist.report.jobs_degraded, plan as u64, "{:?}", dist.report);
    for (letter, want) in &reference.campaigns {
        assert_eq!(dist.study.campaigns[letter].records, want.records, "campaign {letter}");
    }
    let (a, b) = (std::fs::read(&jref).unwrap(), std::fs::read(&jdist).unwrap());
    assert_eq!(a, b, "the degraded run journaled other bytes");
    let _ = std::fs::remove_file(&jref);
    let _ = std::fs::remove_file(&jdist);
}
