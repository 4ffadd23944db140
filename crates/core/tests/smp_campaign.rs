//! `cpus = 2` campaign determinism: an injection campaign against the
//! SMP kernel on a two-CPU machine is bit-identical across host worker
//! counts and across a torn-journal resume. The guest interleaving is
//! a pure function of `(smp_seed, smp_quantum)` — the host scheduler
//! never enters it — so adding a second guest CPU must not cost any of
//! the reproducibility guarantees the uniprocessor campaigns have. Nor
//! may the execution tier: the block engine runs while one CPU runs
//! alone, and must yield the dataset single-stepping does.

mod common;

use common::engine_stats;
use kfi_core::supervisor::{run_plan_supervised, SupervisorConfig};
use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, RigConfig};
use kfi_kernel::KernelBuildOptions;
use kfi_machine::ExecTier;
use kfi_profiler::ProfilerConfig;
use std::path::PathBuf;

fn smp_experiment(threads: usize) -> Experiment {
    smp_experiment_with(threads, RigConfig { cpus: 2, ..RigConfig::default() })
}

fn smp_experiment_with(threads: usize, rig: RigConfig) -> Experiment {
    Experiment::prepare(ExperimentConfig {
        seed: 23,
        max_per_function: Some(1),
        threads,
        kernel: KernelBuildOptions { smp: true, ..KernelBuildOptions::default() },
        rig,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("prepare")
}

#[test]
fn smp_campaign_is_bit_identical_on_the_block_tier_and_single_stepped() {
    let blocks_exp = smp_experiment(2);
    let blocks = blocks_exp.run_campaign(Campaign::A);
    let rig = RigConfig { cpus: 2, tier: ExecTier::Cached, ..RigConfig::default() };
    let stepped_exp = smp_experiment_with(2, rig);
    let stepped = stepped_exp.run_campaign(Campaign::A);

    // Anti-vacuity: the two-CPU rig really replays chained blocks, and
    // the reference really single-steps.
    let ((hits, _, _), (_, follows, _)) = engine_stats(&blocks_exp);
    assert!(hits > 0, "the block tier must run on two CPUs");
    assert!(follows > 0, "chaining must run on two CPUs");
    assert_eq!(engine_stats(&stepped_exp), Default::default());

    assert_eq!(blocks.records, stepped.records);
    assert_eq!(blocks.metrics, stepped.metrics);
}

#[test]
fn smp_rigs_get_the_uniprocessor_profile_and_plans() {
    let smp = smp_experiment(1);
    let uni = smp_experiment_with(1, RigConfig::default());
    // The profiling base of a two-CPU experiment is not its shared base.
    assert!(smp.checkpoint_stats().is_none());
    assert!(uni.checkpoint_stats().is_some());
    assert_eq!(smp.profile, uni.profile);
    assert_eq!(smp.target_functions, uni.target_functions);
    for c in [Campaign::A, Campaign::B, Campaign::C] {
        let plan = smp.plan(c);
        assert_eq!(plan, uni.plan(c), "campaign {}", c.letter());
        let modes = |exp: &Experiment| plan.iter().map(|t| exp.mode_for(t)).collect::<Vec<_>>();
        assert_eq!(modes(&smp), modes(&uni), "campaign {}", c.letter());
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kfi-smp-campaign-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

#[test]
fn smp_campaign_is_bit_identical_across_workers_and_resume() {
    let exp = smp_experiment(1);

    // Anti-vacuity: the rig really is a two-CPU machine whose second
    // CPU was brought online by the SMP kernel's startup IPI during
    // boot (a parked AP would make every assertion below trivially
    // true of a uniprocessor).
    {
        let mut rig = exp.make_rig().expect("smp rig boots");
        let m = rig.machine_mut();
        assert_eq!(m.cpus(), 2, "rig must be a two-CPU machine");
        assert!(m.cpu_state(1).tsc > 0, "the AP must have executed during boot");
    }

    // One worker, journaled: the reference dataset.
    let journal = tmp("journal");
    let _ = std::fs::remove_file(&journal);
    let cfg1 = SupervisorConfig { journal: Some(journal.clone()), ..SupervisorConfig::default() };
    let one = run_plan_supervised(&exp, Campaign::A, exp.planned(Campaign::A), &cfg1)
        .expect("1-worker run");
    assert!(!one.result.records.is_empty());

    // 2 and 4 workers (batched claim/report path): bit-identical
    // records and merged metrics.
    for threads in [2usize, 4] {
        let e = exp.with_threads(threads);
        let out = run_plan_supervised(
            &e,
            Campaign::A,
            e.planned(Campaign::A),
            &SupervisorConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{threads}-worker run: {e}"));
        assert_eq!(out.result.records, one.result.records, "{threads} workers diverged");
        assert_eq!(out.result.metrics, one.result.metrics, "{threads}-worker metrics diverged");
    }

    // Tear the journal tail (the SIGKILL aftermath) and resume with a
    // different worker count: same dataset, some runs replayed free.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 11]).unwrap();
    let cfg2 = SupervisorConfig {
        journal: Some(journal.clone()),
        resume: true,
        ..SupervisorConfig::default()
    };
    let two = exp.with_threads(2);
    let resumed = run_plan_supervised(&two, Campaign::A, two.planned(Campaign::A), &cfg2)
        .expect("resumed run");
    assert!(resumed.report.resumed_runs > 0, "resume must replay journaled runs");
    assert!(
        resumed.report.resumed_runs < one.result.records.len(),
        "the torn tail must force at least one re-run"
    );
    assert_eq!(resumed.result.records, one.result.records);
    assert_eq!(resumed.result.metrics, one.result.metrics);
    let _ = std::fs::remove_file(&journal);
}
