//! A copy-on-write forked rig ([`InjectorRig::fork`]) must be
//! observationally indistinguishable from a fresh-booted one
//! ([`InjectorRig::new`]): same golden runs, and — for arbitrary
//! planned injections — bit-identical run records, metrics deltas, and
//! full post-run architectural state including a digest of all guest
//! memory. After a crash, a fork whose severity verdict came from its
//! base's stores keeps the crash state instead of rebooting, so the state
//! is compared whenever the fork's assessment captured: it then rebooted
//! the same disk as the fresh rig, either from the crash's own residue
//! or from the power-on residue when that reboot's footprint admitted
//! the crash's — and those two reboots must end alike. Every injection run
//! exercises the fork's snapshot-restore path (each run resets to the
//! shared snapshot) and its bit flips are
//! self-modifying-code writes into pages shared copy-on-write with the
//! base image, so the proptest covers both of the scary cases: restore
//! against an `Arc`-shared baseline and SMC against CoW pages. The
//! post-run state includes a disk digest, so the disk's copy-on-write
//! reset (sector-granular, against the shared post-boot image) is held
//! to the same standard.

use kfi_injector::{plan_campaign, Campaign, InjectorRig, RigConfig, RigShared};
use kfi_kernel::{build_kernel, KernelBuildOptions};
use kfi_machine::Machine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};

/// Two workload modes keep golden capture cheap while still covering
/// the per-mode dimension of the golden runs.
const N_MODES: u32 = 2;

struct Setup {
    shared: Arc<RigShared>,
    /// Plan of campaign A over every injectable function.
    plan: Vec<kfi_injector::InjectionTarget>,
}

static SETUP: OnceLock<Setup> = OnceLock::new();
static FORKED: OnceLock<Mutex<InjectorRig>> = OnceLock::new();
static FRESH: OnceLock<Mutex<InjectorRig>> = OnceLock::new();

fn setup() -> &'static Setup {
    SETUP.get_or_init(|| {
        let image = build_kernel(KernelBuildOptions::default()).unwrap();
        let files = kfi_workloads::suite_files().unwrap();
        let shared = RigShared::boot(image, &files, N_MODES, RigConfig::default())
            .expect("shared base boots");
        let functions: Vec<String> = {
            let rig = InjectorRig::fork(&shared).expect("fork");
            rig.image
                .program
                .symbols
                .functions()
                .filter(|s| matches!(s.subsystem.as_deref(), Some("arch" | "fs" | "kernel" | "mm")))
                .map(|s| s.name.clone())
                .collect()
        };
        let rig = InjectorRig::fork(&shared).expect("fork");
        let mut rng = StdRng::seed_from_u64(2003);
        let mut plan = plan_campaign(&rig.image, &functions, Campaign::A, &mut rng);
        plan.truncate(4096);
        Setup { shared, plan }
    })
}

fn forked_rig() -> &'static Mutex<InjectorRig> {
    FORKED.get_or_init(|| Mutex::new(InjectorRig::fork(&setup().shared).expect("fork")))
}

fn fresh_rig() -> &'static Mutex<InjectorRig> {
    FRESH.get_or_init(|| {
        let image = build_kernel(KernelBuildOptions::default()).unwrap();
        let files = kfi_workloads::suite_files().unwrap();
        Mutex::new(
            InjectorRig::new(image, &files, N_MODES, RigConfig::default())
                .expect("fresh rig boots"),
        )
    })
}

/// 64-bit FNV-1a, for the memory digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything architecturally observable about a post-run machine.
#[derive(Debug, PartialEq)]
struct PostRunState {
    regs: [u32; 8],
    eip: u32,
    eflags: u32,
    cs: u32,
    cr0: u32,
    cr2: u32,
    cr3: u32,
    tsc: u64,
    halted: bool,
    console: Vec<u8>,
    mem_digest: u64,
    /// Digest of the disk image — the fork's disk resets copy-on-write
    /// against the shared post-boot image while the fresh rig's used to
    /// be rebuilt from scratch, and the two must stay byte-identical.
    disk_digest: u64,
    disk_io: (u64, u64),
}

fn capture(m: &mut Machine) -> PostRunState {
    let disk = m.disk.as_ref().expect("disk attached");
    PostRunState {
        regs: m.cpu.regs,
        eip: m.cpu.eip,
        eflags: m.cpu.eflags.bits(),
        cs: m.cpu.cs,
        cr0: m.cpu.cr0,
        cr2: m.cpu.cr2,
        cr3: m.cpu.cr3,
        tsc: m.cpu.tsc,
        halted: m.cpu.halted,
        console: m.console().to_vec(),
        mem_digest: m.mem.digest(),
        disk_digest: fnv1a(&disk.bytes()),
        disk_io: disk.io_stats(),
    }
}

#[test]
fn forked_goldens_match_fresh_boot_goldens() {
    let forked = forked_rig().lock().unwrap();
    let fresh = fresh_rig().lock().unwrap();
    assert_eq!(forked.boot_cycles(), fresh.boot_cycles());
    let text_base = fresh.image.program.text.base;
    let text_len = fresh.image.program.text.bytes.len() as u32;
    for mode in 0..N_MODES {
        let (a, b) = (forked.golden(mode), fresh.golden(mode));
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.console, b.console, "mode {mode} golden console");
        assert_eq!(a.results, b.results, "mode {mode} golden results");
        assert_eq!(a.cycles, b.cycles, "mode {mode} golden cycles");
        // Coverage bit-for-bit, probed through the public API.
        for addr in (text_base..text_base + text_len).step_by(7) {
            assert_eq!(a.covers(addr, text_base), b.covers(addr, text_base), "addr {addr:#x}");
        }
    }
}

#[test]
fn forks_share_the_base_golden_runs_and_start_unexecuted() {
    let shared = &setup().shared;
    let a = InjectorRig::fork(shared).expect("fork");
    let mut b = InjectorRig::fork(shared).expect("fork");
    for mode in 0..N_MODES {
        assert!(std::ptr::eq(a.golden(mode), b.golden(mode)), "mode {mode}: one run per base");
    }
    // The base captured the golden runs before it was shared, so no
    // fork executes one.
    let m = b.machine_mut();
    assert_eq!(m.counters().instructions, 0, "a fresh fork has retired no instruction");
    assert_eq!(m.max_tsc(), shared.boot_cycles(), "a fresh fork sits at the snapshot");
}

#[test]
fn a_second_fork_is_fresh_not_contaminated() {
    // Held throughout: the proptest reads the capture counters of the
    // shared severity stores, so no other run may use them meanwhile.
    let _store = forked_rig().lock().unwrap();
    // Dirty a fork with runs, then fork again: the new fork's record
    // for the same target matches a run on the long-lived fresh rig.
    let mut first = InjectorRig::fork(&setup().shared).expect("fork");
    // Pick a target the mode-0 golden run covers and that crashes, so
    // the machines really execute (a NotActivated run never touches
    // them) and the severity assessment runs.
    let t = setup()
        .plan
        .iter()
        .find(|t| first.would_activate(t.insn_addr, 0) && crashed(&first.run_one(t, 0)))
        .expect("some planned target crashes under mode 0");
    let r1 = first.run_one(t, 0);

    let mut second = InjectorRig::fork(&setup().shared).expect("fork");
    let r2 = second.run_one(t, 0);

    let mut fresh = fresh_rig().lock().unwrap();
    let _ = fresh.take_metrics();
    let r3 = fresh.run_one(t, 0);
    assert_eq!(r1, r2, "rerun on a dirty fork == first run on a new fork");
    assert_eq!(r2, r3, "new fork == fresh-booted rig");

    // `second` took its verdict from the store `first` filled and kept
    // the crash state. A fork of a new base has an empty store, so it
    // reboots from the same input as the fresh rig and must end in the
    // same state.
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let files = kfi_workloads::suite_files().unwrap();
    let base = RigShared::boot(image, &files, N_MODES, RigConfig::default()).expect("base boots");
    let mut cold = InjectorRig::fork(&base).expect("fork");
    assert_eq!(cold.run_one(t, 0), r3, "fork of a new base == fresh-booted rig");
    let stats = base.severity_stats();
    assert_eq!((stats.crashes, stats.power_on_reboots, stats.hits), (1, 1, 0), "empty stores miss");
    assert_eq!(
        capture(cold.machine_mut()),
        capture(fresh.machine_mut()),
        "post-run machine state diverged between fork and fresh boot"
    );
}

fn crashed(r: &kfi_injector::RunRecord) -> bool {
    matches!(r.outcome, kfi_injector::Outcome::Crash(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn forked_and_fresh_rigs_agree_on_arbitrary_injections(
        pick in 0usize..4096,
        mode in 0u32..N_MODES,
    ) {
        let setup = setup();
        let t = &setup.plan[pick % setup.plan.len()];

        let mut forked = forked_rig().lock().unwrap();
        let _ = forked.take_metrics();
        let reboots = |s: kfi_injector::SeverityStats| s.power_on_reboots + s.exact_reboots;
        let before = reboots(setup.shared.severity_stats());
        let r_fork = forked.run_one(t, mode);
        // A capture means the fork's assessment missed the stores and
        // rebooted like the fresh rig does after every crash.
        let rebooted = reboots(setup.shared.severity_stats()) > before;
        let d_fork = forked.take_metrics();
        let s_fork = capture(forked.machine_mut());
        drop(forked);

        let mut fresh = fresh_rig().lock().unwrap();
        let _ = fresh.take_metrics();
        let r_fresh = fresh.run_one(t, mode);
        let d_fresh = fresh.take_metrics();
        let s_fresh = capture(fresh.machine_mut());

        let activated = r_fork.activation_tsc.is_some();
        prop_assert_eq!(&r_fork, &r_fresh);
        prop_assert_eq!(d_fork, d_fresh);
        if activated && (!crashed(&r_fork) || rebooted) {
            // A NotActivated run never touches the machine, so its
            // state still reflects unrelated earlier cases; only an
            // executed run leaves comparable state behind, and after a
            // crash only a fork that rebooted.
            prop_assert_eq!(s_fork, s_fresh);
        }
    }
}
