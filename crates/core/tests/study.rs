//! Small-scale end-to-end study: prepare the experiment, run all three
//! campaigns with capped targets, and sanity-check the paper-shape
//! properties of the results.

use kfi_core::{stats, Experiment, ExperimentConfig};
use kfi_injector::Campaign;
use kfi_profiler::ProfilerConfig;

fn small_experiment() -> Experiment {
    Experiment::prepare(ExperimentConfig {
        seed: 7,
        max_per_function: Some(6),
        threads: 4,
        profiler: ProfilerConfig { period: 501 },
        ..Default::default()
    })
    .expect("prepare")
}

#[test]
fn full_small_study() {
    let exp = small_experiment();
    assert!(
        exp.target_functions.len() >= 8,
        "too few target functions: {:?}",
        exp.target_functions
    );
    let names = &exp.target_functions;
    assert!(
        names.iter().any(|n| n == "do_generic_file_read")
            || names.iter().any(|n| n == "pipe_read")
            || names.iter().any(|n| n == "schedule"),
        "{names:?}"
    );

    let study = exp.run_all();
    for (letter, result) in &study.campaigns {
        let t = result.total();
        assert!(t.injected > 20, "campaign {letter}: {t:?}");
        assert!(t.activated > 0, "campaign {letter} activated nothing");
        assert_eq!(
            t.activated,
            t.not_manifested + t.fsv + t.crash + t.hang,
            "campaign {letter}: {t:?}"
        );
        assert!(t.activated <= t.injected);
    }

    let c = &study.campaigns[&'C'];
    assert!(c.records.iter().all(|r| r.target.is_branch));

    let a = &study.campaigns[&'A'];
    for r in &a.records {
        if let kfi_injector::Outcome::Crash(i) = &r.outcome {
            assert!(!i.subsystem.is_empty());
        }
    }
}

#[test]
fn plan_respects_cap_and_seed() {
    let exp = small_experiment();
    let p1 = exp.plan(Campaign::A);
    let p2 = exp.plan(Campaign::A);
    assert_eq!(p1, p2, "planning must be deterministic");
    let mut counts = std::collections::BTreeMap::new();
    for t in &p1 {
        *counts.entry(t.function.clone()).or_insert(0usize) += 1;
    }
    assert!(counts.values().all(|c| *c <= 6));
}

#[test]
fn threads_do_not_change_results() {
    let mut cfg = ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads: 1,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    };
    let exp1 = Experiment::prepare(cfg.clone()).unwrap();
    let r1 = exp1.run_campaign(Campaign::C);
    cfg.threads = 4;
    let exp4 = Experiment::prepare(cfg).unwrap();
    let r4 = exp4.run_campaign(Campaign::C);
    let key = |r: &kfi_injector::RunRecord| {
        (r.target.insn_addr, r.target.byte_index, r.outcome.category().to_string())
    };
    let k1: Vec<_> = r1.records.iter().map(key).collect();
    let k4: Vec<_> = r4.records.iter().map(key).collect();
    assert_eq!(k1, k4);
}

/// Campaign metrics are merged from per-worker registries with pure
/// addition, so the aggregate must be bit-identical for any worker
/// count — the sharding (`i % threads`) must be invisible.
#[test]
fn threads_do_not_change_metrics() {
    let base = ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads: 1,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    };
    let mut results = Vec::new();
    for threads in [1, 2, 4] {
        let exp = Experiment::prepare(ExperimentConfig { threads, ..base.clone() }).unwrap();
        results.push((threads, exp.run_campaign(Campaign::A).metrics));
    }
    let (_, one) = &results[0];
    assert!(one.runs > 0);
    assert_eq!(
        one.runs,
        one.outcomes.iter().sum::<u64>(),
        "every run must be classified exactly once"
    );
    assert_eq!(one.runs, one.run_cycles.total());
    assert!(one.runs_not_activated < one.runs, "some runs must activate");
    assert!(one.instructions > 0);
    for (threads, m) in &results[1..] {
        assert_eq!(one, m, "metrics changed between 1 and {threads} workers");
    }
}

#[test]
fn stats_pipeline_over_real_records() {
    let exp = small_experiment();
    let result = exp.run_campaign(Campaign::A);
    let tallies = result.tallies();
    assert!(!tallies.is_empty());
    let total: usize = tallies.values().map(|t| t.injected).sum();
    assert_eq!(total, result.records.len());
    let hist = stats::latency_histogram(&result.records, None);
    let crashes = result.total().crash;
    assert_eq!(hist.iter().sum::<usize>(), crashes);
    let rows: Vec<_> = result.records.iter().map(kfi_core::RecordRow::from_record).collect();
    let csv = kfi_core::to_csv(&rows);
    assert_eq!(csv.lines().count(), rows.len() + 1);
}
