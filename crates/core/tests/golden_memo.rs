//! Golden-run memoization equivalence: a campaign whose workers fork
//! one shared post-boot snapshot and share one memoized set of golden
//! runs ([`ExperimentConfig::memoize`], the default) must be
//! bit-identical — records, metrics, CSV dataset, journal bytes — to
//! the recompute-per-rig reference path, at any worker count and
//! through the supervisor's retry-on-fresh-rig machinery.

use kfi_core::supervisor::{run_plan_supervised, PanicInjection, SupervisorConfig};
use kfi_core::{CampaignResult, Experiment, ExperimentConfig, RecordRow};
use kfi_injector::{Campaign, RigConfig};
use kfi_profiler::ProfilerConfig;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn experiment(memoize: bool, threads: usize) -> Experiment {
    Experiment::prepare(ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads,
        memoize,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("prepare")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kfi-golden-memo-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// The full downstream dataset of a campaign: record CSV + metrics CSV.
fn csv_of(result: &CampaignResult) -> (String, String) {
    let rows: Vec<RecordRow> = result.records.iter().map(RecordRow::from_record).collect();
    (kfi_core::to_csv(&rows), kfi_core::metrics_to_csv([('A', &result.metrics)]))
}

#[test]
fn memoized_campaign_is_bit_identical_to_recompute_per_rig() {
    let reference = experiment(false, 1);
    let booted = |exp: &Experiment| exp.checkpoint_stats().is_some();
    assert!(!booted(&reference), "prepare must not share its profiling base");
    let base = reference.run_campaign(Campaign::A);
    assert!(!booted(&reference), "the recompute path must never touch the shared base");
    let (base_csv, base_metrics_csv) = csv_of(&base);
    assert!(base.metrics.runs > 0);

    for threads in [1, 2, 4] {
        let exp = experiment(true, threads);
        let got = exp.run_campaign(Campaign::A);
        assert_eq!(got.records, base.records, "records diverged ({threads} workers, memoized)");
        assert_eq!(got.metrics, base.metrics, "metrics diverged ({threads} workers, memoized)");
        let (csv, metrics_csv) = csv_of(&got);
        assert_eq!(csv, base_csv, "record CSV diverged ({threads} workers, memoized)");
        assert_eq!(metrics_csv, base_metrics_csv, "metrics CSV diverged ({threads} workers)");
        assert!(booted(&exp), "the memoized path forks the shared base ({threads} workers)");
    }
}

#[test]
fn retried_runs_get_fresh_uncontaminated_forks() {
    let exp = experiment(true, 2);
    // Preparing profiled the golden runs of the base every rig forks.
    assert!(exp.checkpoint_stats().is_some());
    for _ in 0..3 {
        drop(exp.make_rig().expect("fork"));
    }
    let base = exp.run_campaign(Campaign::A);

    // Panic the first attempt of a few jobs: the supervisor retries
    // each on a fresh rig, which under memoization is a new fork of the
    // same shared base — it must reproduce the healthy record exactly.
    let panicking: BTreeSet<usize> = [0usize, 3, 7].into_iter().collect();
    let cfg = SupervisorConfig {
        inject_panic: PanicInjection::Transient(panicking.clone()),
        ..SupervisorConfig::default()
    };
    let out =
        run_plan_supervised(&exp, Campaign::A, exp.planned(Campaign::A), &cfg).expect("supervised");
    assert_eq!(out.result.records, base.records, "retried forks diverged from healthy runs");
    assert_eq!(out.result.metrics.rig_panics, panicking.len() as u64);
    assert_eq!(out.result.metrics.run_retries, panicking.len() as u64);
    let mut cleaned = out.result.metrics.clone();
    cleaned.rig_panics = 0;
    cleaned.run_retries = 0;
    assert_eq!(cleaned, base.metrics);
}

#[test]
fn a_failed_golden_run_fails_prepare_naming_its_mode() {
    let err = Experiment::prepare(ExperimentConfig {
        rig: RigConfig { golden_budget: 1_000, ..RigConfig::default() },
        ..Default::default()
    })
    .err()
    .expect("no golden run fits in 1000 cycles");
    assert!(err.contains("golden run for mode 0 failed"), "{err}");
}

#[test]
fn journal_bytes_are_identical_with_and_without_memoization() {
    let journal = tmp("journal");

    let run = |memoize: bool, threads: usize| -> (CampaignResult, Vec<u8>) {
        let _ = std::fs::remove_file(&journal);
        let exp = experiment(memoize, threads);
        let cfg =
            SupervisorConfig { journal: Some(journal.clone()), ..SupervisorConfig::default() };
        let out = run_plan_supervised(&exp, Campaign::A, exp.planned(Campaign::A), &cfg)
            .expect("journaled run");
        (out.result, std::fs::read(&journal).expect("journal written"))
    };

    let (base, base_bytes) = run(false, 1);
    for threads in [1, 2, 4] {
        let (got, bytes) = run(true, threads);
        assert_eq!(got.records, base.records);
        assert_eq!(
            bytes, base_bytes,
            "journal bytes diverged under memoization ({threads} workers)"
        );
    }

    // Resume identity: with the journal complete, a memoized resumed
    // run at any worker count re-runs nothing and leaves the journal
    // bytes untouched.
    for threads in [1, 4] {
        let exp = experiment(true, threads);
        let cfg = SupervisorConfig {
            journal: Some(journal.clone()),
            resume: true,
            ..SupervisorConfig::default()
        };
        let resumed = run_plan_supervised(&exp, Campaign::A, exp.planned(Campaign::A), &cfg)
            .expect("resumed run");
        assert_eq!(resumed.report.resumed_runs, base.records.len());
        assert_eq!(resumed.result.records, base.records);
        assert_eq!(
            std::fs::read(&journal).expect("journal readable"),
            base_bytes,
            "resume rewrote the journal ({threads} workers)"
        );
    }
    let _ = std::fs::remove_file(&journal);
}
