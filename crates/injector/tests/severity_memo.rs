//! The severity store ([`kfi_injector::SeverityStore`]) must be exact: a
//! stored verdict is the verdict a fresh fsck and reboot would give.
//! Its key holds everything the reboot reads — the disk's difference
//! from the post-boot image and the machine state the reboot inherits
//! ([`kfi_machine::Machine::reset_residue`]) — so equal keys mean equal
//! reboots, and a verdict the wall-clock abort flag cut short is never
//! stored.

use kfi_injector::{
    plan_campaign, plan_function, Campaign, InjectionTarget, InjectorRig, Outcome, RigConfig,
    RigShared, RunRecord, Severity,
};
use kfi_kernel::mkfs::FileSpec;
use kfi_kernel::{build_kernel, BootConfig, KernelBuildOptions, KernelImage};
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

/// A new base with empty golden and severity stores.
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
    let hits = base.severity_store().hits();
    assert!(crashed(&rig.run_one(t, 0)));
    assert_eq!(base.severity_store().hits(), hits + 1, "a repeat is a hit");
    rig
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

#[test]
fn stored_verdicts_equal_fresh_reboots_on_a_campaign_slice() {
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
    let store = base.severity_store();
    assert!(crashes.len() >= 4, "the slice must crash a few times, got {}", crashes.len());
    assert!(store.hits() > 0, "the slice must repeat a severity input");
    assert_eq!(store.captures() + store.hits(), crashes.len() as u64, "one request per crash");
    for (t, memoized) in &crashes {
        let fresh = fresh_base();
        let mut reference = InjectorRig::fork(&fresh).expect("fork");
        assert_eq!(&reference.run_one(t, 0), memoized, "{t:?}");
        assert_eq!(fresh.severity_store().captures(), 1, "the reference really rebooted");
    }
}

#[test]
fn a_repeated_crash_is_a_hit_with_an_identical_record() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let mut rig = InjectorRig::fork(&base).expect("fork");
    let first = rig.run_one(&t, 0);
    assert!(crashed(&first), "{first:?}");
    let store = base.severity_store();
    assert_eq!((store.captures(), store.hits()), (1, 0));
    let mut other = InjectorRig::fork(&base).expect("fork");
    assert_eq!(rig.run_one(&t, 0), first);
    assert_eq!(other.run_one(&t, 0), first);
    assert_eq!((store.captures(), store.hits()), (1, 2));
}

#[test]
fn equal_disks_with_different_tlb_residue_are_distinct_entries() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let mut rig = crashed_fork(&base, &t);
    let store = base.severity_store();
    let captures = store.captures();
    rig.assess_severity();
    assert_eq!(store.captures(), captures, "same disk, same residue: a hit");
    perturb_tlb(&mut rig);
    rig.assess_severity();
    assert_eq!(store.captures(), captures + 1, "same disk, new TLB residue: a new entry");
}

#[test]
fn a_reboot_cut_short_by_the_abort_flag_is_not_stored() {
    let base = fresh_base();
    let t = bug_crash(&inputs().0);
    let store = base.severity_store();

    let mut aborted = crashed_fork(&base, &t);
    perturb_tlb(&mut aborted);
    aborted.machine_mut().set_abort_flag(Some(Arc::new(AtomicBool::new(true))));
    let captures = store.captures();
    let (severity, _) = aborted.assess_severity();
    assert_eq!(store.captures(), captures + 1, "the aborted reboot ran");
    assert_eq!(severity, Severity::MostSevere, "cut short before BOOT_OK");

    // The same input on another fork must reboot again, in full.
    let mut rig = crashed_fork(&base, &t);
    perturb_tlb(&mut rig);
    let (captures, hits) = (store.captures(), store.hits());
    rig.assess_severity();
    assert_eq!(
        (store.captures(), store.hits()),
        (captures + 1, hits),
        "nothing was stored for the aborted input"
    );
    let mut again = crashed_fork(&base, &t);
    perturb_tlb(&mut again);
    let hits = store.hits();
    again.assess_severity();
    assert_eq!(store.hits(), hits + 1, "the full reboot's verdict was stored");
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
