//! The severity stores of a [`kfi_injector::RigShared`] must be exact:
//! a stored verdict is the verdict a fresh fsck and reboot with the
//! crash's own residue would give.
//!
//! * The [`kfi_injector::PowerOnStore`] reboots each crash disk once from
//!   the power-on residue under the residue observer; its verdict serves
//!   every crash with that disk whose residue
//!   ([`kfi_machine::Machine::reset_residue`]) the footprint admits.
//! * The [`kfi_injector::SeverityStore`] keys every other crash by
//!   everything its reboot reads — disk and residue — so equal keys mean
//!   equal reboots.
//!
//! A verdict the wall-clock abort flag cut short is stored in neither.

use kfi_injector::{
    plan_campaign, plan_function, Campaign, InjectionTarget, InjectorRig, Outcome, RigConfig,
    RigShared, RunRecord, Severity, SeverityStats,
};
use kfi_kernel::mkfs::FileSpec;
use kfi_kernel::{build_kernel, fsck, BootConfig, FsckReport, KernelBuildOptions, KernelImage};
use kfi_machine::{Machine, MonitorEvent, Ramdisk, RunExit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};

/// One workload mode (context1, which drives pipes) keeps each fresh
/// base down to one boot and one golden capture.
const N_MODES: u32 = 1;

fn inputs() -> &'static (KernelImage, Vec<FileSpec>) {
    static INPUTS: OnceLock<(KernelImage, Vec<FileSpec>)> = OnceLock::new();
    INPUTS.get_or_init(|| {
        (
            build_kernel(KernelBuildOptions::default()).unwrap(),
            kfi_workloads::suite_files().unwrap(),
        )
    })
}

/// A new base with empty severity stores.
fn fresh_base() -> Arc<RigShared> {
    let (image, files) = inputs();
    RigShared::boot(image.clone(), files, N_MODES, RigConfig::default()).expect("base boots")
}

/// The BUG() assertion branch of `pipe_read` reversed: an immediate
/// invalid-opcode crash under mode 0.
fn bug_crash(image: &KernelImage) -> InjectionTarget {
    let mut rng = StdRng::seed_from_u64(1);
    let text = &image.program.text;
    plan_function(image, "pipe_read", Campaign::C, &mut rng)
        .into_iter()
        .find(|t| {
            let off = (t.insn_addr + t.insn_len as u32 - text.base) as usize;
            text.bytes.get(off..off + 2) == Some(&[0x0f, 0x0b][..])
        })
        .expect("pipe_read must contain a BUG() assertion")
}

fn crashed(r: &RunRecord) -> bool {
    matches!(r.outcome, Outcome::Crash(_))
}

/// A fork of `base` left in the post-crash state of `t`: the second run
/// of a crash is a store hit, which skips the reboot.
fn crashed_fork(base: &Arc<RigShared>, t: &InjectionTarget) -> InjectorRig {
    let mut rig = InjectorRig::fork(base).expect("fork");
    assert!(crashed(&rig.run_one(t, 0)));
    let hits = base.severity_stats().hits;
    assert!(crashed(&rig.run_one(t, 0)));
    assert_eq!(base.severity_stats().hits, hits + 1, "a repeat is a hit");
    rig
}

/// Reboots since `before`: captures in either store.
fn reboots_since(base: &RigShared, before: SeverityStats) -> (u64, u64) {
    let now = base.severity_stats();
    (now.power_on_reboots - before.power_on_reboots, now.exact_reboots - before.exact_reboots)
}

/// Makes one more translation resident in the rig's TLB. The disk is
/// untouched, so only the reset residue changes.
fn perturb_tlb(rig: &mut InjectorRig) {
    let m = rig.machine_mut();
    let before = m.reset_residue();
    // The top page of the kernel's linear map: mapped, rarely touched.
    assert!(m.probe_translate(0xc07f_f000).is_some());
    assert_ne!(m.reset_residue(), before, "the probe must add a TLB entry");
}

/// Makes the kernel's entry page resident in the rig's TLB, mapped one
/// frame off: a stale entry the reboot's very first fetch would read.
/// The page 2 MiB away shares its TLB slot and evicts a current entry;
/// the page table is restored afterwards, so only the residue changes.
fn stale_entry_page(rig: &mut InjectorRig) {
    let page = rig.image.entry & !0xfff;
    let m = rig.machine_mut();
    let before = m.reset_residue();
    let cr3 = m.cpu.cr3 & !0xfff;
    let pde = m.mem.read_u32(cr3 + (page >> 22) * 4);
    let pte_addr = (pde & !0xfff) + ((page >> 12) & 0x3ff) * 4;
    let pte = m.mem.read_u32(pte_addr);
    assert!(m.probe_translate(page ^ 0x20_0000).is_some());
    m.mem.write_u32(pte_addr, pte.wrapping_add(0x1000));
    assert!(m.probe_translate(page).is_some());
    m.mem.write_u32(pte_addr, pte);
    assert_ne!(m.reset_residue(), before, "the probe must add a stale entry");
}

/// Reboots `m`'s disk from `m`'s residue on a fresh machine, returning
/// the verdict — fsck, then the rig's reboot rule, spelled out
/// independently — and the rebooted machine.
fn reference_reboot(m: &Machine, image: &KernelImage, boot_cycles: u64) -> (Severity, Machine) {
    let disk = m.disk.as_ref().expect("disk").bytes().to_vec();
    let (_, files) = inputs();
    let manifest = kfi_kernel::mkfs(2048, files).manifest;
    let report = fsck(&disk, &manifest);
    let mut fresh = Machine::new(*m.config());
    fresh.disk = Some(Ramdisk::from_bytes(disk));
    kfi_kernel::load_into(&mut fresh, image, &BootConfig::default());
    fresh.install_residue(&m.reset_residue());
    let exit = fresh.run(boot_cycles * 4 + 1_000_000);
    let event = |code| fresh.monitor_events().iter().any(|(_, e)| *e == MonitorEvent::Event(code));
    let boots = matches!(exit, RunExit::Halted | RunExit::CycleLimit)
        && event(kfi_kernel::layout::events::BOOT_OK)
        && !event(kfi_kernel::layout::events::PANIC);
    let severity = match report {
        FsckReport::Unrecoverable { .. } => Severity::MostSevere,
        _ if !boots => Severity::MostSevere,
        FsckReport::Fixed { .. } => Severity::Severe,
        FsckReport::Clean => Severity::Normal,
    };
    (severity, fresh)
}

/// Writes the disk's last sector: a disk no store has seen.
fn new_disk(rig: &mut InjectorRig) {
    let disk = rig.machine_mut().disk.as_mut().expect("disk");
    let bytes = disk.bytes();
    let last = bytes.len() - 1;
    disk.load(last, &[bytes[last] ^ 0x5a]);
}

#[test]
fn memoized_verdicts_equal_a_standalone_rigs_on_a_campaign_slice() {
    let base = fresh_base();
    let mut rig = InjectorRig::fork(&base).expect("fork");
    let functions: Vec<String> = ["pipe_read", "pipe_write", "sys_read", "sys_write", "do_fork"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rng = StdRng::seed_from_u64(2003);
    let plan = plan_campaign(&rig.image, &functions, Campaign::A, &mut rng);
    let slice: Vec<&InjectionTarget> =
        plan.iter().filter(|t| rig.would_activate(t.insn_addr, 0)).take(48).collect();
    let crashes: Vec<(InjectionTarget, RunRecord)> = slice
        .into_iter()
        .map(|t| (t.clone(), rig.run_one(t, 0)))
        .filter(|(_, r)| crashed(r))
        .collect();
    let stats = base.severity_stats();
    assert!(crashes.len() >= 4, "the slice must crash a few times, got {}", crashes.len());
    assert_eq!(stats.crashes, crashes.len() as u64, "one assessment per crash");
    assert!(stats.hits > 0, "the slice must share a severity reboot: {stats:?}");
    assert!(stats.power_on_reboots > 0, "{stats:?}");
    // The reference path: a standalone rig reboots every crash with its
    // own residue and consults no store.
    let (image, files) = inputs();
    let mut standalone =
        InjectorRig::new(image.clone(), files, N_MODES, RigConfig::default()).expect("boots");
    for (t, memoized) in &crashes {
        assert_eq!(&standalone.run_one(t, 0), memoized, "{t:?}");
    }
}

/// Whether the rig's machine holds a boot's state: a run's monitor log
/// starts at the snapshot, after the boot announced itself.
fn rebooted(rig: &mut InjectorRig) -> bool {
    let boot_ok = MonitorEvent::Event(kfi_kernel::layout::events::BOOT_OK);
    rig.machine_mut().monitor_events().iter().any(|(_, e)| *e == boot_ok)
}

#[test]
fn the_reference_rig_reboots_every_crash() {
    let (image, files) = inputs();
    let t = bug_crash(image);
    let mut reference =
        InjectorRig::new(image.clone(), files, N_MODES, RigConfig::default()).expect("boots");
    for run in 0..2 {
        assert!(crashed(&reference.run_one(&t, 0)));
        assert!(rebooted(&mut reference), "run {run}: the reference memoizes nothing");
    }
    // A fork of a memoizing base keeps the second crash's state.
    let mut fork = crashed_fork(&fresh_base(), &t);
    assert!(!rebooted(&mut fork), "a hit leaves the crash state");
}

#[test]
fn a_repeated_crash_is_a_hit_with_an_identical_record() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let mut rig = InjectorRig::fork(&base).expect("fork");
    let first = rig.run_one(&t, 0);
    assert!(crashed(&first), "{first:?}");
    let stats = base.severity_stats();
    assert_eq!((stats.crashes, stats.power_on_reboots, stats.hits), (1, 1, 0));
    let mut other = InjectorRig::fork(&base).expect("fork");
    assert_eq!(rig.run_one(&t, 0), first);
    assert_eq!(other.run_one(&t, 0), first);
    let again = base.severity_stats();
    assert_eq!((again.crashes, again.hits), (3, 2));
    assert_eq!(reboots_since(&base, stats), (0, 0));
}

#[test]
fn a_residue_the_power_on_reboot_never_read_shares_its_entry() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let mut rig = crashed_fork(&base, &t);
    let before = base.severity_stats();
    let verdict = rig.assess_severity();
    perturb_tlb(&mut rig);
    assert_eq!(rig.assess_severity(), verdict);
    assert_eq!(reboots_since(&base, before), (0, 0), "a new TLB residue, but never read: a hit");
    assert_eq!(base.severity_stats().hits, before.hits + 2);
}

#[test]
fn a_residue_the_power_on_reboot_read_gets_its_own_exact_entry() {
    let base = fresh_base();
    let (image, _) = inputs();
    let t = bug_crash(image);
    let mut rig = crashed_fork(&base, &t);
    let (power_on_verdict, _) = rig.assess_severity();
    stale_entry_page(&mut rig);
    let (reference, _) = reference_reboot(rig.machine_mut(), image, base.boot_cycles());
    let before = base.severity_stats();
    let (severity, _) = rig.assess_severity();
    assert_eq!(reboots_since(&base, before), (0, 1), "rejected by the power-on footprint");
    assert_eq!(severity, reference, "the exact entry holds the reference verdict");
    assert_ne!(severity, power_on_verdict, "the stale entry changes how the reboot runs");
    // A second crash with the same disk and residue shares that entry.
    let mut again = crashed_fork(&base, &t);
    stale_entry_page(&mut again);
    let before = base.severity_stats();
    assert_eq!(again.assess_severity().0, reference);
    assert_eq!(reboots_since(&base, before), (0, 0));
}

#[test]
fn an_exact_reboot_after_a_power_on_reboot_reboots_the_crash_disk() {
    let base = fresh_base();
    let (image, _) = inputs();
    let t = bug_crash(image);
    let mut rig = crashed_fork(&base, &t);
    new_disk(&mut rig);
    stale_entry_page(&mut rig);
    let (severity, reference) = reference_reboot(rig.machine_mut(), image, base.boot_cycles());
    let before = base.severity_stats();
    assert_eq!(rig.assess_severity().0, severity);
    assert_eq!(reboots_since(&base, before), (1, 1), "power-on reboot, then the exact one");
    let m = rig.machine_mut();
    assert_eq!(m.disk.as_ref().unwrap().bytes(), reference.disk.as_ref().unwrap().bytes());
    assert_eq!(m.console(), reference.console());
    assert_eq!(m.monitor_events(), reference.monitor_events());
}

/// Sets the abort flag on `rig`, assesses, and clears it again.
fn assess_aborted(rig: &mut InjectorRig) -> Severity {
    rig.machine_mut().set_abort_flag(Some(Arc::new(AtomicBool::new(true))));
    let (severity, _) = rig.assess_severity();
    rig.machine_mut().set_abort_flag(None);
    severity
}

#[test]
fn a_power_on_reboot_cut_short_by_the_abort_flag_is_not_stored() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let mut aborted = crashed_fork(&base, &t);
    new_disk(&mut aborted);
    let before = base.severity_stats();
    assert_eq!(assess_aborted(&mut aborted), Severity::MostSevere, "cut short before BOOT_OK");
    assert_eq!(reboots_since(&base, before).0, 1, "the aborted power-on reboot ran");

    // The same input on another fork must reboot again, in full.
    let mut rig = crashed_fork(&base, &t);
    new_disk(&mut rig);
    let before = base.severity_stats();
    let verdict = rig.assess_severity();
    assert_eq!(reboots_since(&base, before), (1, 0), "nothing was stored for the aborted disk");
    let mut again = crashed_fork(&base, &t);
    new_disk(&mut again);
    let before = base.severity_stats();
    assert_eq!(again.assess_severity(), verdict);
    assert_eq!(reboots_since(&base, before), (0, 0), "the full reboot's verdict was stored");
}

#[test]
fn an_exact_reboot_cut_short_by_the_abort_flag_is_not_stored() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let mut aborted = crashed_fork(&base, &t);
    stale_entry_page(&mut aborted);
    let before = base.severity_stats();
    assert_eq!(assess_aborted(&mut aborted), Severity::MostSevere, "cut short before BOOT_OK");
    assert_eq!(reboots_since(&base, before), (0, 1), "the aborted exact reboot ran");

    let mut rig = crashed_fork(&base, &t);
    stale_entry_page(&mut rig);
    let before = base.severity_stats();
    let verdict = rig.assess_severity();
    assert_eq!(reboots_since(&base, before), (0, 1), "nothing was stored for the aborted input");
    let mut again = crashed_fork(&base, &t);
    stale_entry_page(&mut again);
    let before = base.severity_stats();
    assert_eq!(again.assess_severity(), verdict);
    assert_eq!(reboots_since(&base, before), (0, 0), "the full reboot's verdict was stored");
}

#[test]
fn the_boot_loader_reset_leaves_the_residue_unchanged() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let mut rig = crashed_fork(&base, &t);
    let image = rig.image.clone();
    let m = rig.machine_mut();
    let before = m.reset_residue();
    kfi_kernel::load_into(m, &image, &BootConfig::default());
    assert_eq!(m.reset_residue(), before);
}
