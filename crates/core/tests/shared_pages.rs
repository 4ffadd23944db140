//! Rigs share guest memory and the disk with the base they fork: a fresh
//! rig owns no page of either, and an injection run makes private only
//! pages it wrote. A fork, restore or reboot that copied guest memory or
//! the disk eagerly again would fail here, not only show as resident
//! memory.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, InjectorRig};
use kfi_profiler::ProfilerConfig;

/// The disk pages the rig owns, and those written since its restore.
fn disk_pages(rig: &mut InjectorRig) -> (u32, u32) {
    let disk = rig.machine_mut().disk.as_ref().expect("disk attached");
    (disk.private_pages(), disk.dirty_page_count())
}

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
        assert_eq!(disk_pages(rig).0, 0, "a fresh rig owns a disk page");
    }
    let [ran, idle] = &mut rigs;
    let reboots = |exp: &Experiment| {
        let s = exp.severity_stats().expect("shared base");
        s.power_on_reboots + s.exact_reboots
    };
    let (mut wrote, mut wrote_disk) = (false, false);
    // Whether the last executed run rebooted in its severity assessment,
    // and whether a run was checked after one.
    let (mut rebooted, mut after_reboot) = (false, false);
    for target in exp.plan(Campaign::A).iter().take(24) {
        let before = reboots(&exp);
        let record = ran.run_one(target, exp.mode_for(target));
        let m = ran.machine_mut();
        let (private, dirty) = (m.mem.private_pages(), m.dirty_page_count());
        assert!(private <= dirty, "{:?}: {private} private pages, {dirty} dirty", record.outcome);
        let (disk_private, disk_dirty) = disk_pages(ran);
        assert!(
            disk_private <= disk_dirty,
            "{:?}: {disk_private} private disk pages, {disk_dirty} written{}",
            record.outcome,
            if rebooted { " after a rebooted crash" } else { "" }
        );
        if record.activation_tsc.is_some() {
            wrote |= private > 0;
            wrote_disk |= disk_private > 0;
            after_reboot |= rebooted;
            rebooted = reboots(&exp) > before;
        }
    }
    assert!(wrote && wrote_disk, "no run wrote a page: memory {wrote}, disk {wrote_disk}");
    assert!(after_reboot, "no run followed a crash whose assessment rebooted");
    assert_eq!(idle.machine_mut().mem.private_pages(), 0, "another rig's runs made a page private");
    assert_eq!(disk_pages(idle).0, 0, "another rig's runs made a disk page private");
}
