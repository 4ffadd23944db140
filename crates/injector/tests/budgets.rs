//! Rig budget and hang-classification boundaries: blown boot/golden
//! budgets must surface as clean [`RigError`]s (never a wedged rig),
//! and the watchdog views of a wedged guest — `cli;hlt` without a
//! shutdown report, or a blown cycle budget — must classify as
//! [`Outcome::Hang`].

use kfi_injector::{
    Campaign, InjectionTarget, InjectorRig, Outcome, RigConfig, RigError, RigShared,
};
use kfi_kernel::{build_kernel, KernelBuildOptions};
use kfi_machine::RunExit;

fn rig_with(config: RigConfig) -> Result<InjectorRig, RigError> {
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let files = kfi_workloads::suite_files().unwrap();
    InjectorRig::new(image, &files, 1, config)
}

fn any_target(rig: &InjectorRig) -> InjectionTarget {
    let sym = rig.image.program.symbols.lookup("pipe_read").unwrap().clone();
    InjectionTarget {
        campaign: Campaign::A,
        function: "pipe_read".into(),
        subsystem: sym.subsystem.clone().unwrap_or_else(|| "fs".into()),
        insn_addr: sym.value,
        insn_len: 1,
        byte_index: 0,
        bit_mask: 0x01,
        is_branch: false,
    }
}

#[test]
fn tiny_boot_budget_is_a_clean_boot_error() {
    let err = rig_with(RigConfig { boot_budget: 10_000, ..RigConfig::default() })
        .err()
        .expect("boot cannot fit in 10k cycles");
    assert!(matches!(err, RigError::BootFailed(_)), "{err}");
}

#[test]
fn tiny_golden_budget_is_a_clean_golden_error() {
    let config = RigConfig { golden_budget: 1_000, ..RigConfig::default() };
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let files = kfi_workloads::suite_files().unwrap();
    // A shared base fails when it boots, before anything forks it.
    let shared = RigShared::boot(image, &files, 2, config).err();
    for err in [rig_with(config).err(), shared] {
        match err.expect("no golden run fits in 1k cycles") {
            RigError::GoldenFailed { mode, .. } => assert_eq!(mode, 0),
            other => panic!("expected GoldenFailed, got {other}"),
        }
    }
}

#[test]
fn golden_budget_is_measured_from_the_snapshot_not_from_reset() {
    // Pin the boundary semantics the RigConfig docs promise: the
    // golden budget covers the golden run alone — boot cycles do not
    // eat into it — and a capture landing exactly on the budget still
    // succeeds (the check is strictly-greater-than).
    let reference = rig_with(RigConfig::default()).expect("rig boots");
    let cycles = reference.golden(0).cycles;
    assert!(cycles > 0);
    assert!(
        reference.boot_cycles() > 0,
        "a zero-cycle boot would make the from-snapshot claim vacuous"
    );

    let exact = rig_with(RigConfig { golden_budget: cycles, ..RigConfig::default() })
        .expect("exact-budget golden capture must succeed");
    assert_eq!(exact.golden(0).cycles, cycles);

    let err = rig_with(RigConfig { golden_budget: cycles / 2, ..RigConfig::default() })
        .err()
        .expect("half the needed cycles cannot fit the golden run");
    match err {
        RigError::GoldenFailed { mode, .. } => assert_eq!(mode, 0),
        other => panic!("expected GoldenFailed, got {other}"),
    }
}

#[test]
fn default_budgets_match_the_former_magic_numbers() {
    let d = RigConfig::default();
    assert_eq!(d.boot_budget, 80_000_000);
    assert_eq!(d.golden_budget, 400_000_000);
    assert!(!d.sanitizer);
    assert_eq!(d.cpus, 1, "golden corpora are captured on a uniprocessor");
}

#[test]
fn cycle_limit_exit_classifies_as_hang() {
    let mut rig = rig_with(RigConfig::default()).expect("rig boots");
    let t = any_target(&rig);
    // The watchdog's view of a run that never stopped consuming its
    // budget — including one reaped by the wall-clock abort flag,
    // which surfaces as the same exit.
    let outcome = rig.classify_exit(&t, 0, 0, RunExit::CycleLimit);
    assert_eq!(outcome, Outcome::Hang);
}

#[test]
fn halt_without_shutdown_report_classifies_as_hang() {
    // Corrupted code wandering into a stray cli;hlt halts the CPU
    // without the kernel ever reporting SHUTDOWN or PANIC: from the
    // hardware watchdog's point of view the system is simply gone.
    // Clearing the logs puts the machine in exactly that state — a
    // halted CPU and an empty monitor log.
    let mut rig = rig_with(RigConfig::default()).expect("rig boots");
    let t = any_target(&rig);
    rig.machine_mut().clear_logs();
    let outcome = rig.classify_exit(&t, 0, 0, RunExit::Halted);
    assert_eq!(outcome, Outcome::Hang);
}
