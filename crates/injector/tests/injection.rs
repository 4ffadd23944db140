//! End-to-end injection tests: plan real campaigns, run them on the
//! booted kernel, and check the classifier's work.

use kfi_injector::{
    plan_function, Campaign, FsvKind, InjectionTarget, InjectorRig, Outcome, RigConfig,
};
use kfi_kernel::layout::causes;
use kfi_kernel::{build_kernel, KernelBuildOptions};
use rand::SeedableRng;

fn rig() -> InjectorRig {
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let files = kfi_workloads::suite_files().unwrap();
    InjectorRig::new(image, &files, 3, RigConfig::default()).expect("rig boots")
}

#[test]
fn golden_runs_are_captured() {
    let rig = rig();
    for mode in 0..3 {
        let g = rig.golden(mode);
        assert!(!g.results.is_empty(), "mode {mode}");
        assert!(g.cycles > 10_000);
        assert!(g.console.contains("runner:"));
    }
}

#[test]
fn coverage_predicts_activation() {
    let rig = rig();
    let pr = rig.image.program.symbols.addr_of("pipe_read").unwrap();
    assert!(rig.would_activate(pr, 0));
    let rb = rig.image.program.symbols.addr_of("sys_reboot").unwrap();
    assert!(rig.would_activate(rb, 1));
}

#[test]
fn null_branch_reversal_crashes_with_null_pointer() {
    // Campaign C on the BUG() assertion branch in pipe_read: reversing
    // the branch executes ud2a -> invalid opcode (the dominant campaign
    // C crash cause in the paper's Figure 6).
    let mut rig = rig();
    let targets = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        plan_function(&rig.image, "pipe_read", Campaign::C, &mut rng)
    };
    assert!(!targets.is_empty());
    let text = rig.image.program.text.clone();
    let bug_branch: Vec<&InjectionTarget> = targets
        .iter()
        .filter(|t| {
            let off = (t.insn_addr + t.insn_len as u32 - text.base) as usize;
            text.bytes.get(off..off + 2) == Some(&[0x0f, 0x0b][..])
        })
        .collect();
    assert!(!bug_branch.is_empty(), "pipe_read must contain a BUG() assertion");
    let rec = rig.run_one(bug_branch[0], 0); // context1 drives pipe_read
    match &rec.outcome {
        Outcome::Crash(info) => {
            assert_eq!(info.cause, causes::INVALID_OP, "{info:?}");
            assert_eq!(info.subsystem, "fs", "{info:?}");
            assert_eq!(info.function.as_deref(), Some("pipe_read"));
            assert!(info.latency < 1000, "BUG fires immediately: {info:?}");
        }
        other => panic!("expected invalid-opcode crash, got {other:?}"),
    }
}

#[test]
fn unactivated_target_is_not_activated() {
    let mut rig = rig();
    // dhry (mode 1) never reads pipes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let targets = plan_function(&rig.image, "pipe_read", Campaign::A, &mut rng);
    let rec = rig.run_one(&targets[0], 1);
    assert_eq!(rec.outcome, Outcome::NotActivated);
    assert_eq!(rec.run_cycles, 0, "fast path must skip the run");
}

#[test]
fn campaign_a_sample_produces_plausible_mix() {
    let mut rig = rig();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut targets = Vec::new();
    for f in ["pipe_read", "pipe_write", "sys_read", "do_generic_file_read"] {
        targets.extend(plan_function(&rig.image, f, Campaign::A, &mut rng));
    }
    let mut activated = 0;
    let mut crashes = 0;
    let mut not_manifested = 0;
    for t in targets.iter().take(60) {
        let rec = rig.run_one(t, 0);
        if rec.outcome.activated() {
            activated += 1;
        }
        match rec.outcome {
            Outcome::Crash(_) => crashes += 1,
            Outcome::NotManifested => not_manifested += 1,
            _ => {}
        }
    }
    assert!(activated > 5, "nothing activated");
    assert!(crashes > 0, "no crashes at all is implausible");
    assert!(not_manifested > 0, "everything crashed — also implausible");
}

#[test]
fn crash_latency_and_propagation_fields_are_sane() {
    let mut rig = rig();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let targets = plan_function(&rig.image, "do_generic_file_read", Campaign::A, &mut rng);
    let mut seen_crash = false;
    for t in targets.iter().take(80) {
        let rec = rig.run_one(t, 2); // fstime drives file reads
        if let Outcome::Crash(info) = &rec.outcome {
            seen_crash = true;
            assert!(info.latency < 500_000_000);
            assert!(!info.subsystem.is_empty());
            assert!(info.cause >= 1 && info.cause <= 16);
        }
    }
    assert!(seen_crash, "80 random byte corruptions should crash at least once");
}

#[test]
fn fsv_detected_when_results_differ() {
    let mut rig = rig();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut targets = Vec::new();
    for f in ["pipe_read", "pipe_write", "sys_read", "sys_write"] {
        targets.extend(plan_function(&rig.image, f, Campaign::C, &mut rng));
    }
    let mut fsv = 0;
    let mut ran = 0;
    for t in &targets {
        let rec = rig.run_one(t, 0);
        if rec.outcome.activated() {
            ran += 1;
        }
        if let Outcome::FailSilenceViolation(kind) = &rec.outcome {
            fsv += 1;
            if let FsvKind::WrongResult { expected, got } = kind {
                assert_ne!(expected, got);
            }
        }
    }
    assert!(ran > 3, "too few activated C targets");
    assert!(fsv > 0, "reversed error-check branches must cause FSVs");
}

#[test]
fn severity_assessment_levels() {
    let mut rig = rig();
    // Healthy disk: an (artificial) crash state assesses as Normal.
    let (sev, report) = rig.assess_severity();
    assert_eq!(sev, kfi_injector::Severity::Normal, "{report:?}");

    // Corrupt the superblock magic: unrecoverable -> MostSevere.
    {
        let m = rig.machine_mut();
        let disk = m.disk.as_mut().unwrap();
        let magic = disk.bytes()[1024];
        disk.load(1024, &[magic ^ 0xff]);
    }
    let (sev, report) = rig.assess_severity();
    assert_eq!(sev, kfi_injector::Severity::MostSevere, "{report:?}");
}

#[test]
fn severity_fixable_corruption_is_severe() {
    let mut rig = rig();
    // Leak a block in the bitmap: fsck fixes it -> Severe (the system
    // still boots).
    {
        let m = rig.machine_mut();
        let disk = m.disk.as_mut().unwrap();
        let blk = 2000u32;
        let at = 2 * 1024 + (blk / 8) as usize;
        let bits = disk.bytes()[at];
        disk.load(at, &[bits | 1 << (blk % 8)]);
    }
    let (sev, report) = rig.assess_severity();
    assert_eq!(sev, kfi_injector::Severity::Severe, "{report:?}");
}

#[test]
fn corrupted_init_binary_is_most_severe() {
    let mut rig = rig();
    // Flip a bit inside /init's content on disk: manifest checksum
    // mismatch -> reinstall territory (the paper's Table 5 case 1).
    {
        let m = rig.machine_mut();
        let disk = m.disk.as_mut().unwrap();
        // /init's first data block: find the KBIN magic "KBIN".
        let bytes = disk.bytes();
        let pos = (12 * 1024..bytes.len() - 4)
            .find(|&i| &bytes[i..i + 4] == b"KBIN")
            .expect("a KBIN header on disk");
        disk.load(pos + 20, &[bytes[pos + 20] ^ 1]); // corrupt payload, not the header
    }
    let (sev, _) = rig.assess_severity();
    assert_eq!(sev, kfi_injector::Severity::MostSevere);
}

#[test]
fn triple_fault_runs_classify_and_reboot_cleanly() {
    // Corrupting printk makes the oops path recurse into the corrupted
    // code: a realistic crash-handler cascade ending in a triple fault.
    // The severity reboot-test must still pass (the disk is fine).
    let mut rig = rig();
    let pk = rig.image.program.symbols.lookup("printk").unwrap().clone();
    let t = kfi_injector::InjectionTarget {
        campaign: Campaign::A,
        function: "printk".into(),
        subsystem: pk.subsystem.clone().unwrap(),
        insn_addr: pk.value + 3,
        insn_len: 1,
        byte_index: 0,
        bit_mask: 0x10,
        is_branch: false,
    };
    let rec = rig.run_one(&t, 0);
    if let Outcome::Crash(info) = &rec.outcome {
        // Whatever the cause, a clean disk must never be "most severe".
        assert_ne!(info.severity, kfi_injector::Severity::MostSevere, "{info:?}");
    }
}
