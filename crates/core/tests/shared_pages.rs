//! Rigs share guest memory with the base they fork: a fresh rig owns no
//! page of it, and an injection run makes private only pages it wrote.
//! A fork, restore or reboot that copied guest memory eagerly again
//! would fail here, not only show as resident memory.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::Campaign;
use kfi_profiler::ProfilerConfig;

#[test]
fn rigs_own_only_the_pages_their_runs_write() {
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 2003,
        max_per_function: Some(1),
        threads: 1,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("prepare");
    let mut rigs = [exp.make_rig().expect("rig"), exp.make_rig().expect("rig")];
    for rig in &mut rigs {
        assert_eq!(rig.machine_mut().mem.private_pages(), 0, "a fresh rig owns a page");
    }
    let [ran, idle] = &mut rigs;
    let mut wrote = false;
    for target in exp.plan(Campaign::A).iter().take(24) {
        let record = ran.run_one(target, exp.mode_for(target));
        let m = ran.machine_mut();
        let (private, dirty) = (m.mem.private_pages(), m.dirty_page_count());
        assert!(private <= dirty, "{:?}: {private} private pages, {dirty} dirty", record.outcome);
        wrote |= record.activation_tsc.is_some() && private > 0;
    }
    assert!(wrote, "no run wrote a page");
    assert_eq!(idle.machine_mut().mem.private_pages(), 0, "another rig's runs made a page private");
}
