//! A forked rig resumes each injection run from the checkpoint at its
//! target's first-hit tick instead of the post-boot snapshot. Every such
//! run must equal a standalone rig's from-snapshot run record for record
//! and metric for metric, in the corners where the prefix matters: a
//! first hit before the first tick, a first hit on the very step a tick
//! is due, hangs (whose deadline counts from the snapshot), crashes whose
//! classification reads prefix trap-log entries, and fail-silence
//! violations whose console holds prefix output. A capture the abort
//! flag cuts short is not stored.

use kfi_injector::{
    plan_campaign, Campaign, InjectionTarget, InjectorRig, Outcome, RigConfig, RigShared, RunRecord,
};
use kfi_kernel::layout::events;
use kfi_kernel::mkfs::FileSpec;
use kfi_kernel::KernelImage;
use kfi_kernel::{boot, build_kernel, mkfs, set_run_mode, BootConfig, KernelBuildOptions};
use kfi_machine::{MonitorEvent, Ramdisk, StepEvent, KERNEL_CS};
use kfi_trace::Metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

const N_MODES: u32 = 3;

/// What the fault-free run of one mode looks like from the snapshot,
/// stepped like the golden capture.
struct Prefix {
    /// Kernel address → (first-hit tick, whether that first boundary
    /// was itself tick-due).
    first: BTreeMap<u32, (u32, bool)>,
    /// Per tick cut `k` (index `k - 1`): the machine clock and the
    /// console length there.
    cuts: Vec<(u64, usize)>,
    /// Clocks of the trap-log entries.
    traps: Vec<u64>,
}

struct Setup {
    image: KernelImage,
    shared: Arc<RigShared>,
    standalone: Mutex<InjectorRig>,
    prefixes: Vec<Prefix>,
}

fn prefixes(image: &KernelImage, files: &[FileSpec]) -> Vec<Prefix> {
    let fs = mkfs(2048, files);
    let mut m = boot(image, fs.disk, &BootConfig::default());
    while !matches!(m.monitor_events().last(), Some((_, MonitorEvent::Event(events::RUNNER_START))))
    {
        assert_eq!(m.step(), StepEvent::Executed);
    }
    let snapshot = m.snapshot();
    let disk = m.disk.as_ref().expect("disk").bytes().to_vec();
    (0..N_MODES)
        .map(|mode| {
            m.disk = Some(Ramdisk::from_bytes(disk.clone()));
            m.restore(&snapshot);
            set_run_mode(&mut m, mode);
            let mut p = Prefix { first: BTreeMap::new(), cuts: Vec::new(), traps: Vec::new() };
            loop {
                let due = m.tick_due();
                if due {
                    p.cuts.push((m.max_tsc(), m.console().len()));
                }
                if m.cpu.cs == KERNEL_CS {
                    p.first.entry(m.cpu.eip).or_insert((p.cuts.len() as u32, due));
                }
                match m.step() {
                    StepEvent::Executed => {}
                    StepEvent::Halted => break,
                    other => panic!("golden run of mode {mode}: {other:?}"),
                }
            }
            p.traps = m.trap_log().iter().map(|t| t.tsc).collect();
            p
        })
        .collect()
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let image = build_kernel(KernelBuildOptions::default()).unwrap();
        let files = kfi_workloads::suite_files().unwrap();
        let shared = RigShared::boot(image.clone(), &files, N_MODES, RigConfig::default())
            .expect("base boots");
        let standalone = InjectorRig::new(image.clone(), &files, N_MODES, RigConfig::default())
            .expect("standalone rig boots");
        let prefixes = prefixes(&image, &files);
        Setup { image, shared, standalone: Mutex::new(standalone), prefixes }
    })
}

/// The standalone rig's record and metrics for one run.
fn reference(t: &InjectionTarget, mode: u32) -> (RunRecord, Metrics) {
    let mut rig = setup().standalone.lock().unwrap();
    let record = rig.run_one(t, mode);
    (record, rig.take_metrics())
}

/// Runs `t` on the fork and on the standalone rig, asserts they agree,
/// and returns the record and whether the fork resumed. The tests run
/// on parallel threads and share one base, so one call runs at a time:
/// otherwise another test's resumed runs would count as this one's.
fn agree(fork: &mut InjectorRig, t: &InjectionTarget, mode: u32) -> (RunRecord, bool) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let resumed = setup().shared.checkpoint_stats().resumed;
    let record = fork.run_one(t, mode);
    let metrics = fork.take_metrics();
    let (want, want_metrics) = reference(t, mode);
    assert_eq!(record, want, "{t:?} mode {mode}");
    assert_eq!(metrics, want_metrics, "{t:?} mode {mode}");
    (record, setup().shared.checkpoint_stats().resumed > resumed)
}

/// A target flipping one bit of the instruction at `addr`.
fn target_at(addr: u32, mask: u8) -> InjectionTarget {
    InjectionTarget {
        campaign: Campaign::A,
        function: "?".into(),
        subsystem: "kernel".into(),
        insn_addr: addr,
        insn_len: 1,
        byte_index: 0,
        bit_mask: mask,
        is_branch: false,
    }
}

#[test]
fn first_hits_before_the_first_tick_run_from_the_snapshot() {
    let s = setup();
    let mut fork = InjectorRig::fork(&s.shared).expect("fork");
    for (mode, p) in s.prefixes.iter().enumerate() {
        let early = p.first.iter().filter(|(_, (tick, _))| *tick == 0).map(|(a, _)| *a);
        let early: Vec<u32> = early.step_by(97).take(4).collect();
        assert!(!early.is_empty(), "mode {mode}");
        for addr in early {
            let (record, resumed) = agree(&mut fork, &target_at(addr, 0x01), mode as u32);
            assert!(record.activation_tsc.is_some() && !resumed, "tick 0 runs from the snapshot");
        }
    }
    // The kernel's fault-free runs never reach a new kernel instruction
    // on a tick-due step (ticks land in loops), so the breakpoint-on-a-
    // due-tick corner is pinned on a crafted guest in kfi-machine's
    // `tests/checkpoint.rs`; here every first hit past tick 0 that the
    // plan below reaches is checked against the standalone rig.
    let due = s.prefixes.iter().flat_map(|p| p.first.values()).filter(|(t, d)| *t > 0 && *d);
    assert_eq!(due.count(), 0, "a kernel first hit on a due tick: test it here");
}

#[test]
fn resumed_hangs_crashes_and_fsvs_equal_the_standalone_rigs() {
    let s = setup();
    let mut fork = InjectorRig::fork(&s.shared).expect("fork");
    let functions: Vec<String> = [
        "schedule",
        "do_page_fault",
        "sys_read",
        "sys_write",
        "pipe_read",
        "pipe_write",
        "ext2_bmap",
        "bread",
        "memcpy",
        "get_free_page",
    ]
    .iter()
    .map(|f| f.to_string())
    .collect();
    let (mut hang, mut crash, mut fsv) = (false, false, false);
    'plans: for campaign in [Campaign::C, Campaign::A, Campaign::B] {
        let mut rng = StdRng::seed_from_u64(2003);
        let plan = plan_campaign(&s.image, &functions, campaign, &mut rng);
        for (i, t) in plan.iter().enumerate() {
            let mode = i as u32 % N_MODES;
            let p = &s.prefixes[mode as usize];
            let Some(&(tick, _)) = p.first.get(&t.insn_addr) else { continue };
            if tick == 0 {
                continue;
            }
            let (record, resumed) = agree(&mut fork, t, mode);
            assert!(resumed, "a forked run with a first hit past tick 0 resumes");
            let (cut_tsc, cut_console) = p.cuts[tick as usize - 1];
            match record.outcome {
                Outcome::Hang => hang = true,
                Outcome::Crash(_) => crash |= p.traps.iter().any(|&tsc| tsc < cut_tsc),
                Outcome::FailSilenceViolation(_) => fsv |= cut_console > 0,
                _ => {}
            }
            if hang && crash && fsv {
                break 'plans;
            }
        }
    }
    assert!(hang, "no resumed run hung");
    assert!(crash, "no resumed crash read prefix trap-log entries");
    assert!(fsv, "no resumed fail-silence violation had prefix console output");
}

#[test]
fn a_capture_cut_short_by_the_abort_flag_is_not_stored() {
    let s = setup();
    let (image, files) = (s.image.clone(), kfi_workloads::suite_files().unwrap());
    let base = RigShared::boot(image, &files, N_MODES, RigConfig::default()).expect("boots");
    let mut fork = InjectorRig::fork(&base).expect("fork");
    let p = &s.prefixes[0];
    let (&addr, _) = p.first.iter().find(|(_, (tick, _))| *tick >= 2).expect("a late target");
    let t = target_at(addr, 0x01);
    let flag = Arc::new(AtomicBool::new(true));
    fork.machine_mut().set_abort_flag(Some(flag.clone()));
    fork.run_one(&t, 0);
    assert_eq!(base.checkpoint_stats().captured, 0, "an aborted capture is not stored");
    assert_eq!(base.checkpoint_stats().resumed, 0, "and nothing resumed from it");
    fork.machine_mut().set_abort_flag(None);
    fork.take_metrics();
    let record = fork.run_one(&t, 0);
    let stats = base.checkpoint_stats();
    assert_eq!((stats.captured, stats.resumed), (1, 1), "{stats}");
    assert!(stats.skipped_cycles > 0 && stats.bytes > 0, "{stats}");
    assert_eq!(record, reference(&t, 0).0);
}
