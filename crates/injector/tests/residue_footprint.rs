//! The residue observer on real campaign crashes, uniprocessor and SMP.
//!
//! * Rebooting a crashed machine in place is the same as booting a fresh
//!   machine on the crash disk and installing the crash's residue
//!   ([`Machine::install_residue`]): the reboot routine relies on it to
//!   reboot any crash on the rig's one machine.
//! * Whenever the footprint of the power-on reboot of a crash disk
//!   admits a residue — the crash's own, perturbed at random — rebooting
//!   from that residue ends in the power-on reboot's full state.

use kfi_injector::{
    plan_campaign, Campaign, InjectionTarget, InjectorRig, Outcome, RigConfig, RigShared,
};
use kfi_kernel::{build_kernel, load_into, BootConfig, KernelBuildOptions};
use kfi_machine::{
    Cpu, Machine, MachineConfig, MonitorEvent, Ramdisk, ResetResidue, ResidueFootprint, TrapRecord,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One workload mode keeps each base down to one golden capture.
const N_MODES: u32 = 1;
/// Crashes collected per CPU count.
const CRASHES: usize = 4;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Memory, every CPU, console, monitor events, trap log and disk. The
/// debug address registers are left out: the injector's disarmed
/// breakpoint stays in them, dead with `dr7 = 0` and unreadable by the
/// guest.
#[derive(Debug, Clone, PartialEq)]
struct FullState {
    mem: u64,
    cpus: Vec<Cpu>,
    console: Vec<u8>,
    monitor: Vec<(u64, MonitorEvent)>,
    trap_log: Vec<TrapRecord>,
    disk: u64,
    smp_digest: u64,
}

fn full_state(m: &Machine) -> FullState {
    FullState {
        mem: m.mem.digest(),
        cpus: (0..m.cpus() as usize)
            .map(|i| Cpu { dr: [0; 4], ..m.cpu_state(i).clone() })
            .collect(),
        console: m.console().to_vec(),
        monitor: m.monitor_events().to_vec(),
        trap_log: m.trap_log().to_vec(),
        disk: fnv1a(&m.disk.as_ref().expect("disk").bytes()),
        smp_digest: m.smp_digest(),
    }
}

/// A base for `cpus` guest CPUs and some of its crashing targets.
struct Setup {
    base: Arc<RigShared>,
    crashes: Vec<InjectionTarget>,
    /// Per crash index: the power-on reboot's end state and footprint.
    power_on: Mutex<BTreeMap<usize, (FullState, ResidueFootprint)>>,
}

fn setup(cpus: u32) -> &'static Setup {
    static SETUPS: [OnceLock<Setup>; 2] = [OnceLock::new(), OnceLock::new()];
    SETUPS[(cpus - 1) as usize].get_or_init(|| {
        let image = build_kernel(KernelBuildOptions { smp: cpus > 1, ..Default::default() })
            .expect("kernel builds");
        let files = kfi_workloads::suite_files().expect("suite files");
        let base =
            RigShared::boot(image, &files, N_MODES, RigConfig { cpus, ..Default::default() })
                .expect("base boots");
        let mut rig = InjectorRig::fork(&base).expect("fork");
        let functions: Vec<String> =
            ["pipe_read", "pipe_write", "sys_read", "sys_write", "do_fork"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let mut rng = StdRng::seed_from_u64(2003);
        let plan = plan_campaign(&rig.image, &functions, Campaign::A, &mut rng);
        let mut crashes = Vec::new();
        for t in &plan {
            if crashes.len() < CRASHES
                && rig.would_activate(t.insn_addr, 0)
                && matches!(rig.run_one(t, 0).outcome, Outcome::Crash(_))
            {
                crashes.push(t.clone());
            }
        }
        assert_eq!(crashes.len(), CRASHES, "the plan must crash a few times");
        Setup { base, crashes, power_on: Mutex::new(BTreeMap::new()) }
    })
}

/// A fork left in the post-crash state of `t`: its stores already hold
/// the verdict, so the repeat skips the reboot.
fn crashed_fork(setup: &Setup, t: &InjectionTarget) -> InjectorRig {
    let mut rig = InjectorRig::fork(&setup.base).expect("fork");
    let hits = setup.base.severity_stats().hits;
    assert!(matches!(rig.run_one(t, 0).outcome, Outcome::Crash(_)));
    assert!(setup.base.severity_stats().hits > hits, "a repeated crash is a hit");
    rig
}

fn budget(setup: &Setup) -> u64 {
    setup.base.boot_cycles() * 4 + 1_000_000
}

/// Boots a fresh machine on `disk` from `residue`, observed or not, for
/// the severity reboot's budget.
fn reboot(
    setup: &Setup,
    rig: &InjectorRig,
    config: MachineConfig,
    disk: &[u8],
    residue: &ResetResidue,
    observe: bool,
) -> (FullState, Option<ResidueFootprint>) {
    let mut m = Machine::new(config);
    m.disk = Some(Ramdisk::from_bytes(disk.to_vec()));
    load_into(&mut m, &rig.image, &BootConfig::default());
    m.install_residue(residue);
    if observe {
        m.observe_residue();
    }
    m.run(budget(setup));
    let footprint = m.take_residue_footprint();
    (full_state(&m), footprint)
}

#[test]
fn rebooting_in_place_equals_installing_the_residue_on_a_fresh_machine() {
    for cpus in [1, 2] {
        let setup = setup(cpus);
        for t in &setup.crashes {
            let mut rig = crashed_fork(setup, t);
            let image = rig.image.clone();
            let m = rig.machine_mut();
            let (config, residue) = (*m.config(), m.reset_residue());
            let disk = m.disk.as_ref().expect("disk").bytes().to_vec();
            let (fresh, _) = reboot(setup, &rig, config, &disk, &residue, false);
            let m = rig.machine_mut();
            m.disk = Some(Ramdisk::from_bytes(disk));
            load_into(m, &image, &BootConfig::default());
            m.run(budget(setup));
            assert_eq!(full_state(m), fresh, "cpus = {cpus}, {t:?}");
        }
    }
}

/// A perturbation of a crash's residue: extra TLB entries made resident
/// by probes, optionally a stale entry for the kernel's entry page, and
/// replacements for the scalar parts.
#[derive(Debug, Clone)]
struct Perturbation {
    probes: Vec<u32>,
    stale_entry_page: bool,
    timer: Option<u64>,
    idt_base: Option<u32>,
    latches: [Option<u32>; 3],
}

fn perturbation() -> impl Strategy<Value = Perturbation> {
    // Kernel linear map, user text and user stack pages.
    let probe = (0u32..3, 0u32..2048).prop_map(|(kind, p)| match kind {
        0 => 0xc000_0000 + p * 0x1000,
        1 => 0x0804_8000 + p % 64 * 0x1000,
        _ => 0xbfff_0000 + p % 16 * 0x1000,
    });
    // Kept, a multiple of the default timer period, or anything.
    let timer = (0u32..3, 1u64..30, 1u64..10_000_000).prop_map(|(kind, k, d)| match kind {
        0 => None,
        1 => Some(k * 50_000),
        _ => Some(d),
    });
    let idt = (0u32..3, 0u32..4096).prop_map(|(kind, o)| match kind {
        0 => None,
        1 => Some(0),
        _ => Some(0xc000_0000 + o * 8),
    });
    let latch = || {
        (0u32..3, 1u32..0x10_0000).prop_map(|(kind, v)| match kind {
            0 => None,
            1 => Some(0),
            _ => Some(v),
        })
    };
    (proptest::collection::vec(probe, 0..6), 0u32..4, timer, idt, (latch(), latch(), latch()))
        .prop_map(|(probes, stale, timer, idt_base, (lba, dma, status))| Perturbation {
            probes,
            stale_entry_page: stale == 0,
            timer,
            idt_base,
            latches: [lba, dma, status],
        })
}

/// The crash residue of `rig`, perturbed by `p`.
fn perturbed_residue(rig: &mut InjectorRig, p: &Perturbation) -> ResetResidue {
    let page = rig.image.entry & !0xfff;
    let m = rig.machine_mut();
    // The residue is CPU 0's; make it active so probes reach its TLB.
    // Parking the other CPUs changes neither the disk nor the residue.
    let before = m.reset_residue();
    m.reset_secondary_cpus();
    assert_eq!(m.reset_residue(), before);
    for &a in &p.probes {
        m.probe_translate(a);
    }
    if p.stale_entry_page {
        // Evict the slot through the page 2 MiB away, then probe the
        // entry page through a page table pointing one frame off.
        let cr3 = m.cpu.cr3 & !0xfff;
        let pde = m.mem.read_u32(cr3 + (page >> 22) * 4);
        let pte_addr = (pde & !0xfff) + ((page >> 12) & 0x3ff) * 4;
        let pte = m.mem.read_u32(pte_addr);
        m.probe_translate(page ^ 0x20_0000);
        m.mem.write_u32(pte_addr, pte.wrapping_add(0x1000));
        m.probe_translate(page);
        m.mem.write_u32(pte_addr, pte);
    }
    m.reset_residue().with_scalars(p.timer, p.idt_base, p.latches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn an_admitted_residue_reboots_like_the_power_on_residue(
        smp in any::<bool>(),
        pick in 0usize..CRASHES,
        p in perturbation(),
    ) {
        let setup = setup(if smp { 2 } else { 1 });
        let t = &setup.crashes[pick];
        let mut rig = crashed_fork(setup, t);
        let residue = perturbed_residue(&mut rig, &p);
        let m = rig.machine_mut();
        let config = *m.config();
        let disk = m.disk.as_ref().expect("disk").bytes().to_vec();
        let power_on = {
            let mut cache = setup.power_on.lock().unwrap();
            cache
                .entry(pick)
                .or_insert_with(|| {
                    let r = ResetResidue::power_on(&config);
                    let (state, footprint) = reboot(setup, &rig, config, &disk, &r, true);
                    (state, footprint.expect("observed"))
                })
                .clone()
        };
        let (state, footprint) = power_on;
        if footprint.admits(&residue) {
            let (residue_state, _) = reboot(setup, &rig, config, &disk, &residue, false);
            prop_assert_eq!(residue_state, state);
        }
    }
}
