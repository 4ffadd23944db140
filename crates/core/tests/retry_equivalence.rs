//! The supervisor's retry policy re-executes a poisoned or panicked
//! run on a *fresh* rig and keeps only the final attempt. That is only
//! sound if a run is a pure function of its target and workload mode:
//! this property test pins down that an arbitrary planned injection
//! produces a bit-identical record and metrics delta on a rig that has
//! already executed many other runs and on a freshly built one.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, InjectorRig};
use kfi_profiler::ProfilerConfig;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

static EXP: OnceLock<Experiment> = OnceLock::new();
static DIRTY: OnceLock<Mutex<InjectorRig>> = OnceLock::new();

fn exp() -> &'static Experiment {
    EXP.get_or_init(|| {
        Experiment::prepare(ExperimentConfig {
            seed: 11,
            max_per_function: Some(2),
            threads: 1,
            profiler: ProfilerConfig { period: 997 },
            ..Default::default()
        })
        .expect("prepare")
    })
}

fn dirty_rig() -> &'static Mutex<InjectorRig> {
    DIRTY.get_or_init(|| Mutex::new(exp().make_rig().expect("rig boots")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn retry_on_a_fresh_rig_is_bit_identical(pick in 0usize..1024) {
        let exp = exp();
        let plan = exp.plan(Campaign::A);
        let t = &plan[pick % plan.len()];
        let mode = exp.mode_for(t);

        // The long-lived rig has run whatever earlier cases threw at
        // it — exactly the state a worker's rig is in when a retryable
        // failure strikes some unrelated later job.
        let mut dirty = dirty_rig().lock().expect("rig lock");
        let _ = dirty.take_metrics();
        let r_dirty = dirty.run_one(t, mode);
        let d_dirty = dirty.take_metrics();
        drop(dirty);

        // The retry path: same job, brand-new rig.
        let mut fresh = exp.make_rig().expect("fresh rig boots");
        let _ = fresh.take_metrics();
        let r_fresh = fresh.run_one(t, mode);
        let d_fresh = fresh.take_metrics();

        prop_assert_eq!(&r_dirty, &r_fresh);
        prop_assert_eq!(d_dirty, d_fresh);
    }
}
