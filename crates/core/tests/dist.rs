//! Distributed-coordinator properties that need no worker subprocess:
//! plan fingerprinting, dedup/lease bookkeeping invariants, and the
//! pool-collapse degradation path (every spawn fails → the campaign
//! still completes in-process with a byte-identical dataset and zero
//! lost plan indices).

use kfi_core::supervisor::SupervisorConfig;
use kfi_core::{plan_fingerprint, run_study_dist, DistConfig, Experiment, ExperimentConfig};
use kfi_injector::Campaign;
use kfi_profiler::ProfilerConfig;
use std::path::PathBuf;

fn experiment(seed: u64, cap: usize, threads: usize) -> Experiment {
    Experiment::prepare(ExperimentConfig {
        seed,
        max_per_function: Some(cap),
        threads,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("prepare")
}

#[test]
fn fingerprint_is_config_determined_not_schedule_determined() {
    // Scheduling knobs (thread count) must not move the fingerprint;
    // plan-determining knobs (seed, cap) must.
    let base = experiment(11, 2, 1);
    let fp = plan_fingerprint(&base);
    assert_eq!(
        fp,
        plan_fingerprint(&experiment(11, 2, 4)),
        "thread count leaked into the plan fingerprint"
    );
    assert_ne!(fp, plan_fingerprint(&experiment(12, 2, 1)), "seed must change the fingerprint");
    assert_ne!(fp, plan_fingerprint(&experiment(11, 3, 1)), "cap must change the fingerprint");
}

#[test]
fn pool_collapse_degrades_to_in_process_with_zero_lost_jobs() {
    let exp = experiment(11, 2, 1);
    let (reference, _) = kfi_core::run_study_supervised(&exp, &SupervisorConfig::default())
        .map(|s| (s.study, s.report))
        .expect("supervised runs");

    // A worker exe that cannot exist: every spawn fails, every slot is
    // quarantined immediately, and the coordinator must fall back to
    // the in-process path for the entire plan.
    let cfg = DistConfig::new(3, PathBuf::from("/nonexistent/kfi-no-such-worker"), vec![]);
    let dist = run_study_dist(&exp, &cfg).expect("degraded run completes");

    assert_eq!(dist.report.workers_quarantined, 3, "all slots must be quarantined");
    assert_eq!(dist.report.workers_spawned, 0);
    let planned: usize =
        [Campaign::A, Campaign::B, Campaign::C].iter().map(|c| exp.plan(*c).len()).sum();
    assert_eq!(dist.report.jobs_degraded as usize, planned, "every job ran in-process");
    assert_eq!(dist.report.wire_bytes_streamed, 0, "no result crossed a pipe");

    // Zero silently-lost plan indices, and record-for-record equality
    // with the supervised run.
    for (letter, result) in &dist.study.campaigns {
        let reference = &reference.campaigns[letter];
        let campaign = [Campaign::A, Campaign::B, Campaign::C]
            .into_iter()
            .find(|c| c.letter() == *letter)
            .unwrap();
        assert_eq!(
            result.records.len(),
            exp.plan(campaign).len(),
            "campaign {letter} lost plan indices"
        );
        assert_eq!(result.records, reference.records, "campaign {letter} records differ");
        assert_eq!(result.metrics, reference.metrics, "campaign {letter} metrics differ");
        assert_eq!(result.functions_injected, reference.functions_injected);
    }
}

#[test]
fn degraded_dist_run_journals_identically_to_supervised() {
    let exp = experiment(11, 2, 1);
    let dir = std::env::temp_dir().join("kfi-core-dist-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let jsup = dir.join(format!("sup-{}", std::process::id()));
    let jdist = dir.join(format!("dist-{}", std::process::id()));
    let _ = std::fs::remove_file(&jsup);
    let _ = std::fs::remove_file(&jdist);

    let sup_cfg = SupervisorConfig { journal: Some(jsup.clone()), ..SupervisorConfig::default() };
    kfi_core::run_study_supervised(&exp, &sup_cfg).expect("supervised runs");

    let mut cfg = DistConfig::new(2, PathBuf::from("/nonexistent/kfi-no-such-worker"), vec![]);
    cfg.journal = Some(jdist.clone());
    run_study_dist(&exp, &cfg).expect("degraded run completes");

    let a = std::fs::read(&jsup).unwrap();
    let b = std::fs::read(&jdist).unwrap();
    assert_eq!(a, b, "degraded dist journal differs from the supervised journal");
    let _ = std::fs::remove_file(&jsup);
    let _ = std::fs::remove_file(&jdist);
}
