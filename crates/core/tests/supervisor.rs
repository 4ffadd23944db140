//! Campaign-supervisor robustness: panic containment with zero lost
//! records, journaled resume equivalence after a torn journal, poison
//! quarantine, and wall-clock watchdog completion.

use kfi_core::supervisor::{run_plan_supervised, PanicInjection, SupervisorConfig};
use kfi_core::{CampaignResult, Experiment, ExperimentConfig};
use kfi_injector::{Campaign, Outcome};
use kfi_profiler::ProfilerConfig;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn mini_experiment(threads: usize) -> Experiment {
    Experiment::prepare(ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("prepare")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kfi-supervisor-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn baseline(exp: &Experiment) -> CampaignResult {
    exp.run_campaign(Campaign::A)
}

#[test]
fn transient_panics_lose_zero_records() {
    let exp = mini_experiment(2);
    let base = baseline(&exp);
    let panicking: BTreeSet<usize> = [0usize, 3, 7].into_iter().collect();
    let cfg = SupervisorConfig {
        inject_panic: PanicInjection::Transient(panicking.clone()),
        ..SupervisorConfig::default()
    };
    let out =
        run_plan_supervised(&exp, Campaign::A, exp.planned(Campaign::A), &cfg).expect("supervised");
    // Every record present and bit-identical to the healthy campaign:
    // the retried runs reproduce exactly on a fresh rig.
    assert_eq!(out.result.records, base.records);
    assert_eq!(out.result.metrics.rig_panics, panicking.len() as u64);
    assert_eq!(out.result.metrics.run_retries, panicking.len() as u64);
    assert_eq!(out.result.metrics.quarantined_runs, 0);
    assert!(out.result.records.iter().all(|r| !matches!(r.outcome, Outcome::RigFault(_))));
    // Outside the supervisor's own counters the metrics must match the
    // healthy campaign too.
    let mut cleaned = out.result.metrics.clone();
    cleaned.rig_panics = 0;
    cleaned.run_retries = 0;
    assert_eq!(cleaned, base.metrics);
}

#[test]
fn persistent_panic_is_quarantined_as_rig_fault() {
    let exp = mini_experiment(1);
    let base = baseline(&exp);
    let qdir = tmp("quarantine");
    let _ = std::fs::remove_dir_all(&qdir);
    let cfg = SupervisorConfig {
        inject_panic: PanicInjection::Persistent([2usize].into_iter().collect()),
        quarantine_dir: Some(qdir.clone()),
        ..SupervisorConfig::default()
    };
    let out =
        run_plan_supervised(&exp, Campaign::A, exp.planned(Campaign::A), &cfg).expect("supervised");
    assert_eq!(out.result.records.len(), base.records.len(), "no record may be lost");
    match &out.result.records[2].outcome {
        Outcome::RigFault(msg) => assert!(msg.contains("injected worker panic"), "{msg}"),
        other => panic!("expected RigFault at index 2, got {other:?}"),
    }
    for (i, (got, want)) in out.result.records.iter().zip(base.records.iter()).enumerate() {
        if i != 2 {
            assert_eq!(got, want, "record {i} disturbed by the quarantined neighbor");
        }
    }
    assert_eq!(out.result.metrics.quarantined_runs, 1);
    assert_eq!(out.report.quarantined.len(), 1);
    let q = &out.report.quarantined[0];
    assert_eq!(q.index, 2);
    let artifact = q.path.as_ref().expect("artifact written");
    let text = std::fs::read_to_string(artifact).expect("artifact readable");
    assert!(text.contains("kfi quarantine artifact"));
    assert!(text.contains(&format!("seed: {}", exp.config.seed)));
    assert!(text.contains("injected worker panic"));
    let _ = std::fs::remove_dir_all(&qdir);
}

#[test]
fn torn_journal_resume_is_bit_identical() {
    let journal = tmp("journal");
    let _ = std::fs::remove_file(&journal);

    // Uninterrupted supervised run, single worker, journal on.
    let exp1 = mini_experiment(1);
    let cfg1 = SupervisorConfig { journal: Some(journal.clone()), ..SupervisorConfig::default() };
    let full = run_plan_supervised(&exp1, Campaign::A, exp1.planned(Campaign::A), &cfg1)
        .expect("journaled run");
    assert_eq!(full.report.resumed_runs, 0);

    // The journal-on run must itself match the journal-off baseline.
    let base = baseline(&exp1);
    assert_eq!(full.result.records, base.records);
    assert_eq!(full.result.metrics, base.metrics);

    // Tear the journal mid-record — the SIGKILL aftermath — and resume
    // with a different worker count.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 11]).unwrap();
    let exp2 = mini_experiment(2);
    let cfg2 = SupervisorConfig {
        journal: Some(journal.clone()),
        resume: true,
        ..SupervisorConfig::default()
    };
    let resumed = run_plan_supervised(&exp2, Campaign::A, exp2.planned(Campaign::A), &cfg2)
        .expect("resumed run");
    assert!(resumed.report.resumed_runs > 0, "resume must skip journaled runs");
    assert!(
        resumed.report.resumed_runs < full.result.records.len(),
        "the torn tail must force at least one re-run"
    );
    assert_eq!(resumed.result.records, full.result.records);
    assert_eq!(resumed.result.metrics, full.result.metrics);

    // And the journal is now complete: a second resume re-runs nothing.
    let again = run_plan_supervised(&exp2, Campaign::A, exp2.planned(Campaign::A), &cfg2)
        .expect("second resume");
    assert_eq!(again.report.resumed_runs, full.result.records.len());
    assert_eq!(again.result.records, full.result.records);
    assert_eq!(again.result.metrics, full.result.metrics);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn wall_watchdog_reaps_runs_and_campaign_completes() {
    let exp = mini_experiment(1);
    let planned = exp.plan(Campaign::A).len();
    let cfg = SupervisorConfig {
        wall_budget: Some(std::time::Duration::ZERO),
        // No retries: an aborted run is a result (Hang / NotActivated),
        // not a poisoned one, so none should be quarantined.
        ..SupervisorConfig::default()
    };
    let out =
        run_plan_supervised(&exp, Campaign::A, exp.planned(Campaign::A), &cfg).expect("supervised");
    assert_eq!(out.result.records.len(), planned, "campaign must complete");
    assert!(
        out.result.metrics.wall_watchdog_fired > 0,
        "a zero wall budget must reap at least one run"
    );
    assert_eq!(out.result.metrics.quarantined_runs, 0);
    // A reaped run is cut short before its outcome can be anything
    // other than the watchdog views: hang (aborted after activation)
    // or not-activated (aborted before the trigger fired).
    for r in &out.result.records {
        assert!(
            !matches!(r.outcome, Outcome::RigFault(_)),
            "watchdog aborts are results, not rig faults: {:?}",
            r.outcome
        );
    }
}
