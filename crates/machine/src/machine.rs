//! The simulated machine: CPU + memory + MMU + devices + trap delivery.

use crate::cpu::{Cpu, KERNEL_CS, USER_CS};
use crate::mem::{MemImage, PhysMem};
use crate::mmu::{translate, Access, PageFault, Tlb};
use crate::ramdisk::{Ramdisk, SECTOR_SIZE};
use crate::trap::{TrapRecord, Vector};
use kfi_trace::{EventKind, TraceSink};

mod checkpoint;
pub use checkpoint::Checkpoint;

/// Well-known I/O port numbers.
pub mod ports {
    /// Console byte output (like the Bochs/QEMU 0xE9 debug port).
    pub const CONSOLE: u16 = 0xe9;
    /// Monitor: generic event code.
    pub const MON_EVENT: u16 = 0xf0;
    /// Monitor: workload result value.
    pub const MON_RESULT: u16 = 0xf1;
    /// Monitor: crash cause code (written by the guest crash handler).
    pub const MON_CRASH_CAUSE: u16 = 0xf2;
    /// Monitor: crash EIP (written by the guest crash handler).
    pub const MON_CRASH_EIP: u16 = 0xf3;
    /// Monitor: current pid trace.
    pub const MON_PID: u16 = 0xf4;
    /// Monitor: index of the CPU executing the `in` (read-only).
    pub const MON_CPU_ID: u16 = 0xf5;
    /// Monitor: number of guest CPUs (read-only).
    pub const MON_NCPUS: u16 = 0xf6;
    /// Monitor: send an IPI. Bits `[15:8]` select the target CPU; bit
    /// 16 selects the kind (0 = reschedule doorbell, delivered through
    /// IDT vector 0x21 once the target has IF set; 1 = startup, which
    /// installs the sender's paging/IDT state on the target and jumps
    /// it to the [`MON_IPI_ARG`] latch, regardless of IF). A no-op on
    /// uniprocessor machines and for out-of-range targets.
    pub const MON_IPI: u16 = 0xf7;
    /// Monitor: set TSS.esp0 (kernel stack for user→kernel transitions).
    pub const MON_SET_ESP0: u16 = 0xf8;
    /// Monitor: latch the startup-IPI entry point for [`MON_IPI`].
    pub const MON_IPI_ARG: u16 = 0xf9;
    /// Block device: LBA latch.
    pub const BLK_LBA: u16 = 0x1f0;
    /// Block device: DMA physical address latch.
    pub const BLK_DMA: u16 = 0x1f1;
    /// Block device: command (1 = read sector, 2 = write sector).
    pub const BLK_CMD: u16 = 0x1f2;
    /// Block device: status (0 = ok, 1 = error, read-only).
    pub const BLK_STATUS: u16 = 0x1f7;
}

/// A monitor-port event recorded with its TSC timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEvent {
    /// Generic event code (`OUT 0xF0`).
    Event(u32),
    /// Workload result value (`OUT 0xF1`).
    Result(u32),
    /// Crash cause code from the guest crash handler (`OUT 0xF2`).
    CrashCause(u32),
    /// Crash EIP from the guest crash handler (`OUT 0xF3`).
    CrashEip(u32),
    /// Current pid trace (`OUT 0xF4`).
    Pid(u32),
}

/// The outcome of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// One instruction (or one trap delivery) completed.
    Executed,
    /// An armed debug-register breakpoint matched EIP *before* execution.
    /// The breakpoint auto-disarms (one-shot), mirroring the injector's
    /// use of DR registers.
    DebugBreak {
        /// Which DR register matched (0..=3).
        index: usize,
    },
    /// CPU halted with interrupts disabled: nothing can wake it.
    Halted,
    /// Trap delivery failed recursively; the machine has reset itself
    /// conceptually (the run must end).
    TripleFault,
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Debug breakpoint hit.
    DebugBreak {
        /// Which DR register matched.
        index: usize,
    },
    /// `cli; hlt` — the guest stopped itself (shutdown or panic).
    Halted,
    /// Triple fault.
    TripleFault,
    /// The cycle budget was exhausted (the watchdog's view of a hang).
    CycleLimit,
}

/// The most executed steps that may pass between polls of the
/// wall-clock [abort flag](Machine::set_abort_flag) inside
/// [`Machine::run`]. The run loop polls once per iteration, and an
/// iteration is one step or one chained block segment of at most half
/// this many instructions, so a livelocked run is reaped promptly.
pub const ABORT_CHECK_STEPS: u32 = 4096;

/// How [`Machine::run`] executes guest code.
///
/// Every tier is observationally identical: registers, memory, traps,
/// timing and the TLB statistics agree instruction for instruction,
/// and the two cached tiers also agree on the decode-cache statistics
/// (the checker's `pair_decode_cache` and `pair_block_engine` prove it
/// in lockstep). [`Machine::step`] is one instruction on every tier, and
/// the sanitizer makes [`Machine::run`] single-step on every tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// The reference interpreter: every fetch runs the decoder.
    Interp,
    /// The decoded-instruction cache, single-stepped.
    Cached,
    /// The decode cache plus the chained block engine, which replays
    /// recorded traces of decoded instructions: what every campaign
    /// runs.
    Chained,
}

/// Machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Guest physical memory in bytes (default 8 MiB).
    pub phys_mem: u32,
    /// Timer interrupt period in cycles (default 50 000).
    pub timer_period: u64,
    /// Whether the timer fires at all.
    pub timer_enabled: bool,
    /// The execution tier (default [`ExecTier::Chained`]). The other
    /// tiers are the references that equivalence tests, the checker and
    /// benchmarks compare it against.
    pub tier: ExecTier,
    /// Per-step architectural-state sanitizer (default false). When on,
    /// every step validates the invariants listed in the crate docs
    /// (canonical EFLAGS, monotonic TSC, CR2-iff-#PF, decode-cache
    /// coherence, MMU walk idempotence) and records violations for
    /// [`Machine::sanitizer_violations`]. Roughly doubles execution
    /// cost; meant for the checker's sweeps, not for campaigns.
    pub sanitizer: bool,
    #[doc(hidden)]
    /// Test-only hook: makes every ALU flag update leak a non-canonical
    /// EFLAGS image, so the checker's self-test can prove the sanitizer
    /// detects a broken flag writer. Never set outside that self-test.
    pub flag_update_bug: bool,
    #[doc(hidden)]
    /// Test-only hook: skips the TSS.esp0 kernel-stack switch when a
    /// trap is delivered from user mode, so the interrupt frame lands
    /// on the *user* stack — the classic broken-stack-switch kernel
    /// bug. The checker's self-test proves its ring-transition pair
    /// detects this. Never set outside that self-test.
    pub ring_switch_bug: bool,
    /// Number of guest CPUs (default 1). With `cpus = 1` the machine
    /// allocates no SMP state at all and executes exactly the
    /// uniprocessor code path. With `cpus > 1`, secondary CPUs start
    /// parked (halted, interrupts off) until a startup IPI, and the CPUs
    /// interleave round-robin at [`MachineConfig::smp_quantum`]-step
    /// slices over the shared physical memory. [`Machine::run`] uses the
    /// block engine while the active CPU runs alone and single-steps
    /// while another CPU is live or an IPI is pending.
    pub cpus: u32,
    /// Round-robin slice length in steps for `cpus > 1` (default 64).
    /// Together with [`MachineConfig::smp_seed`] this fully determines
    /// the interleaving: the schedule is a pure function of machine
    /// state, never of host threads or wall-clock time.
    pub smp_quantum: u32,
    /// Interleaving seed (default 0). Zero keeps every slice exactly
    /// [`MachineConfig::smp_quantum`] steps; a nonzero seed jitters
    /// slice lengths with a deterministic xorshift draw so campaigns
    /// can explore different (but reproducible) interleavings.
    pub smp_seed: u64,
    #[doc(hidden)]
    /// Test-only hook: silently drops reschedule IPIs at the send port,
    /// modeling a kernel whose cross-CPU reschedule doorbell is lost —
    /// the checker's self-test proves the lockstep rig catches the
    /// missed wake-up. Never set outside that self-test.
    pub ipi_drop_bug: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            phys_mem: 8 << 20,
            timer_period: 50_000,
            timer_enabled: true,
            tier: ExecTier::Chained,
            sanitizer: false,
            flag_update_bug: false,
            ring_switch_bug: false,
            cpus: 1,
            smp_quantum: 64,
            smp_seed: 0,
            ipi_drop_bug: false,
        }
    }
}

/// Counters the host can inspect after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired.
    pub instructions: u64,
    /// Faults delivered (vectors 0..=14).
    pub faults: u64,
    /// System calls delivered.
    pub syscalls: u64,
    /// Timer interrupts delivered.
    pub timer_irqs: u64,
    /// Reschedule IPIs delivered (always 0 on uniprocessor machines).
    pub ipis: u64,
}

/// A point-in-time machine snapshot (CPU + memory + timer/device latches).
///
/// The disk is deliberately *not* part of the snapshot: it models the
/// persistent medium that survives reboots, and freezes into a
/// [`DiskImage`](crate::DiskImage) of its own ([`Ramdisk::snapshot`]).
///
/// Each snapshot carries a process-unique `id` so [`Machine::restore`]
/// can recognise "restoring the same baseline as last time" and reset
/// only the pages dirtied since — the identity is bookkeeping, not
/// state, so equality compares contents only.
///
/// The memory is a [`MemImage`]: a shared table of immutable pages.
/// Taking a snapshot shares every page the machine itself shares (the
/// zero page, the pages of the snapshot it was restored from) and
/// copies only the pages it wrote since; cloning a snapshot — and
/// handing clones to worker threads — shares the whole table.
/// [`Machine::fork`] builds a whole machine directly in snapshot state
/// off those shared pages.
#[derive(Debug, Clone)]
pub struct Snapshot {
    id: u64,
    cpu: Cpu,
    mem: MemImage,
    next_tick: u64,
    blk_lba: u32,
    blk_dma: u32,
    blk_status: u32,
    /// Per-CPU contexts, scheduler position and in-flight IPIs for
    /// SMP machines; `None` for uniprocessor machines, keeping their
    /// snapshots exactly what they always were.
    smp: Option<crate::smp::SmpSnapshot>,
}

impl Snapshot {
    /// The snapshot's process-unique identity, drawn from the counter
    /// that also numbers [`DiskImage`](crate::DiskImage)s.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        self.cpu == other.cpu
            && self.mem == other.mem
            && self.next_tick == other.next_tick
            && self.blk_lba == other.blk_lba
            && self.blk_dma == other.blk_dma
            && self.blk_status == other.blk_status
            && self.smp == other.smp
    }
}

impl Eq for Snapshot {}

pub(crate) static NEXT_SNAPSHOT_ID: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(1);

/// The machine state a reboot inherits: see [`Machine::reset_residue`].
///
/// Opaque on purpose — it exists to be compared (a memo key) and
/// installed ([`Machine::install_residue`]), not read.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ResetResidue {
    next_tick: u64,
    idt_base: u32,
    tlb: Vec<crate::mmu::TlbEntry>,
    blk: [u32; 3],
}

impl ResetResidue {
    /// The residue of a machine that was just powered on with `config`:
    /// what [`Machine::new`] leaves — the first timer deadline one
    /// period out, IDT base 0, an empty TLB and zeroed block latches.
    pub fn power_on(config: &MachineConfig) -> ResetResidue {
        ResetResidue { next_tick: config.timer_period, idt_base: 0, tlb: Vec::new(), blk: [0; 3] }
    }

    #[doc(hidden)]
    /// Test-only: this residue with the given parts replaced — timer
    /// deadline, IDT base, block latches `(lba, dma, status)` — for
    /// building perturbed residues around real crashes. The TLB part is
    /// perturbed through the machine instead (a probe makes a
    /// translation resident).
    pub fn with_scalars(
        mut self,
        next_tick: Option<u64>,
        idt_base: Option<u32>,
        blk: [Option<u32>; 3],
    ) -> ResetResidue {
        self.next_tick = next_tick.unwrap_or(self.next_tick);
        self.idt_base = idt_base.unwrap_or(self.idt_base);
        for (latch, new) in self.blk.iter_mut().zip(blk) {
            *latch = new.unwrap_or(*latch);
        }
        self
    }
}

/// What a reboot from the power-on residue read of the residue, one
/// channel per [`ResetResidue`] field, recorded by the residue observer
/// ([`Machine::observe_residue`]). [`ResidueFootprint::admits`] tells
/// which other residues that reboot could not have told apart from the
/// power-on one: rebooting the same image and disk from any of them
/// ends in the same memory, CPU state, console, monitor events, trap
/// log and disk.
#[derive(Debug, Clone)]
pub struct ResidueFootprint {
    timer_period: u64,
    /// The largest multiple of the timer period not above
    /// `max(tsc, deadline)` at CPU 0's first timer event that changed
    /// guest state; `None` when there was none.
    timer_bound: Option<u64>,
    /// Whether CPU 0's IDT base was read before its first `lidt`, and
    /// whether that `lidt` happened.
    idt_read: bool,
    idt_loaded: bool,
    /// Per block latch `(lba, dma, status)`: read before the guest
    /// wrote it.
    blk_read: [bool; 3],
    /// CPU 0's TLB log.
    tlb: crate::mmu::TlbLog,
}

impl ResidueFootprint {
    /// Whether rebooting from `residue` would run exactly like the
    /// observed power-on reboot.
    ///
    /// * **Timer deadline.** Deadlines are positive multiples of the
    ///   period, and a tick lost with IF clear only advances the
    ///   deadline to the next multiple above the TSC. So until the first
    ///   state-changing event (a tick delivered with IF set, or a halted
    ///   fast-forward) a multiple `d` of the period never fires earlier
    ///   than the power-on deadline, and at that event it agrees iff
    ///   `d` is at most the recorded bound.
    /// * **IDT base.** Admitted when equal to the power-on 0, or
    ///   replaced by an `lidt` before anything read it. (A base never
    ///   replaced would outlive the reboot in the CPU state even if
    ///   unread.)
    /// * **TLB.** Each resident entry must be one the log admits (see
    ///   its docs); entries are gone after the first flush.
    /// * **Block latches.** A latch read before it was written must
    ///   hold the power-on 0.
    pub fn admits(&self, residue: &ResetResidue) -> bool {
        let ResetResidue { next_tick, idt_base, tlb, blk } = residue;
        let timer = *next_tick != 0
            && next_tick.checked_rem(self.timer_period) == Some(0)
            && self.timer_bound.is_none_or(|k| *next_tick <= k);
        let idt = *idt_base == 0 || (self.idt_loaded && !self.idt_read);
        let latches = blk.iter().zip(self.blk_read).all(|(v, read)| !read || *v == 0);
        timer && idt && latches && tlb.iter().all(|e| self.tlb.admits(e))
    }
}

/// The residue observer's machine-level channels (the TLB channel lives
/// in CPU 0's [`Tlb`], so it travels with CPU 0's context on SMP).
#[derive(Debug, Default)]
struct ResidueObserver {
    timer_bound: Option<u64>,
    idt_read: bool,
    idt_written: bool,
    blk_read: [bool; 3],
    blk_written: [bool; 3],
}

pub(crate) enum Fault {
    Page(PageFault),
    Vec(Vector, Option<u32>),
}

pub(crate) type XResult<T> = Result<T, Fault>;

/// A compile-time observer of [`Machine::run_observed`]: it sees the
/// step boundaries and executed steps that single-stepping the same run
/// with [`Machine::step`] would pass, including those inside blocks on
/// the chained tier, in the same order.
///
/// A *boundary* is the top of one such step: the active CPU is about to
/// execute `cpu.eip` or take an interrupt, and `tick` says whether the
/// boundary is a tick cut ([`Machine::tick_due`]). The run shows a
/// boundary only once it will take the step there (not at the boundary
/// where the deadline ends it). After each step that completes —
/// [`StepEvent::Executed`], an exception delivered included — it shows
/// the active CPU's state.
///
/// `()` observes nothing; its hooks compile away, which is what
/// [`Machine::run`] and [`Machine::run_to_tick`] pass.
pub trait StepObserver {
    /// A step boundary, with the active CPU before the step.
    fn boundary(&mut self, cpu: &Cpu, tick: bool);
    /// The active CPU after an executed step.
    fn executed(&mut self, cpu: &Cpu);
}

impl StepObserver for () {
    #[inline(always)]
    fn boundary(&mut self, _: &Cpu, _: bool) {}
    #[inline(always)]
    fn executed(&mut self, _: &Cpu) {}
}

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use kfi_machine::{Machine, MachineConfig, RunExit};
///
/// let mut m = Machine::new(MachineConfig::default());
/// // mov $0x2a, %eax ; out %al, $0xe9 ; cli ; hlt
/// m.mem.load(0x1000, &[0xb0, 0x2a, 0xe6, 0xe9, 0xfa, 0xf4]);
/// m.cpu.eip = 0x1000;
/// assert_eq!(m.run(1_000), RunExit::Halted);
/// assert_eq!(m.console(), &[0x2a]);
/// ```
#[derive(Debug)]
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: Cpu,
    /// Guest physical memory.
    pub mem: PhysMem,
    /// The attached disk, if any.
    pub disk: Option<Ramdisk>,
    pub(crate) tlb: Tlb,
    pub(crate) decode_cache: crate::decode_cache::DecodeCache,
    pub(crate) block_cache: crate::block::BlockCache,
    pub(crate) trace: TraceSink,
    /// Allocated iff `config.sanitizer`; boxed so the disabled case
    /// costs one pointer.
    pub(crate) san: Option<Box<crate::sanitizer::Sanitizer>>,
    config: MachineConfig,
    console: Vec<u8>,
    monitor: Vec<(u64, MonitorEvent)>,
    trap_log: Vec<TrapRecord>,
    pub(crate) counters: Counters,
    pub(crate) next_tick: u64,
    blk_lba: u32,
    blk_dma: u32,
    blk_status: u32,
    /// Parked per-CPU contexts + IPI queues; allocated iff
    /// `config.cpus > 1`, so uniprocessor machines pay one pointer.
    pub(crate) smp: Option<Box<crate::smp::SmpState>>,
    delivering: u32,
    pub(crate) triple_faulted: bool,
    /// Cooperative wall-clock abort: when the supervisor's watchdog
    /// sets the flag, [`Machine::run`] returns [`RunExit::CycleLimit`]
    /// at its next check, degrading the run to the watchdog's view of a
    /// hang. Host-side only — never part of snapshots.
    abort: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// The residue observer ([`Machine::observe_residue`]); `None` (the
    /// default) costs one branch on each slow path it hooks.
    observer: Option<Box<ResidueObserver>>,
}

impl Machine {
    /// Creates a machine with zeroed memory, no disk, EIP = 0.
    pub fn new(config: MachineConfig) -> Machine {
        Machine {
            cpu: Cpu::new(0),
            mem: PhysMem::new(config.phys_mem),
            disk: None,
            tlb: Tlb::new(),
            decode_cache: crate::decode_cache::DecodeCache::new(config.tier != ExecTier::Interp),
            block_cache: crate::block::BlockCache::new(),
            trace: TraceSink::Null,
            san: config.sanitizer.then(|| Box::new(crate::sanitizer::Sanitizer::new())),
            config,
            console: Vec::new(),
            monitor: Vec::new(),
            trap_log: Vec::new(),
            counters: Counters::default(),
            next_tick: config.timer_period,
            blk_lba: 0,
            blk_dma: 0,
            blk_status: 0,
            smp: (config.cpus > 1).then(|| {
                Box::new(crate::smp::SmpState::new(
                    config.cpus,
                    config.timer_period,
                    config.smp_seed,
                ))
            }),
            delivering: 0,
            triple_faulted: false,
            abort: None,
            observer: None,
        }
    }

    /// Installs (or clears) the cooperative wall-clock abort flag.
    /// While the flag reads `true`, [`Machine::run`] exits with
    /// [`RunExit::CycleLimit`] within [`ABORT_CHECK_STEPS`] steps.
    pub fn set_abort_flag(&mut self, flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>) {
        self.abort = flag;
    }

    /// Whether the [abort flag](Machine::set_abort_flag) reads set. After
    /// a [`RunExit::CycleLimit`] this tells a run the flag may have cut
    /// short from one that spent its whole budget.
    pub fn abort_requested(&self) -> bool {
        self.abort.as_ref().is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// The state a reboot does not reset, for a reboot that wipes memory
    /// ([`PhysMem::clear`]), clears the logs ([`Machine::clear_logs`]),
    /// parks the secondary CPUs ([`Machine::reset_secondary_cpus`]) and
    /// reloads CPU 0's registers, control registers, `dr7` and TSC — the
    /// boot loader's reset (`kfi_kernel::load_into`). What survives is
    /// CPU 0's timer deadline, IDT base and resident TLB entries, plus
    /// the block-device latches. Together with the disk, the image and
    /// the configuration, this residue determines how such a reboot
    /// runs, so equal residues make equal reboots.
    ///
    /// The reset makes CPU 0 active, so on an SMP machine whose active
    /// CPU is another one, the residue comes from CPU 0's parked
    /// context.
    pub fn reset_residue(&self) -> ResetResidue {
        // Exhaustive on purpose: a new field fails to compile here until
        // it is classified as residue or as reset.
        let Machine {
            cpu,
            tlb,
            next_tick,
            blk_lba,
            blk_dma,
            blk_status,
            smp,
            // `mem.clear()` makes every page the zero page and bumps every
            // page generation, which invalidates every decode- and
            // block-cache entry (both validate against those generations).
            mem: _,
            decode_cache: _,
            block_cache: _,
            // Persistent medium: the caller keys the disk separately.
            disk: _,
            // Reset by `clear_logs`.
            console: _,
            monitor: _,
            trap_log: _,
            counters: _,
            delivering: _,
            triple_faulted: _,
            // Host-side; the guest never reads them.
            trace: _,
            san: _,
            abort: _,
            observer: _,
            // Fixed for the machine's life.
            config: _,
        } = self;
        let (cpu0, tlb0, next_tick0) = match smp.as_deref() {
            // `reset_secondary_cpus` rebuilds every application-processor
            // context, the IPI queues and the scheduler state; only CPU
            // 0's context survives, and it becomes the active one.
            Some(crate::smp::SmpState {
                ctxs,
                active,
                slice_left: _,
                rng: _,
                ipi_arg: _,
                pending: _,
            }) if *active != 0 => {
                let crate::smp::CpuCtx { cpu, tlb, next_tick } = &ctxs[0];
                (cpu, tlb, *next_tick)
            }
            _ => (cpu, tlb, *next_tick),
        };
        let Cpu {
            idt_base,
            // Reloaded by the boot loader.
            regs: _,
            eip: _,
            eflags: _,
            cs: _,
            cr0: _,
            cr2: _,
            cr3: _,
            esp0: _,
            dr7: _,
            tsc: _,
            halted: _,
            // Dead once `dr7 = 0`, and the guest cannot write debug
            // registers.
            dr: _,
        } = cpu0;
        ResetResidue {
            next_tick: next_tick0,
            idt_base: *idt_base,
            tlb: tlb0.resident(),
            blk: [*blk_lba, *blk_dma, *blk_status],
        }
    }

    /// Makes `residue` this machine's [reset residue](Machine::reset_residue):
    /// the inverse of that method, so that after the boot loader's reset
    /// (`kfi_kernel::load_into`) a machine reboots exactly like one that
    /// crashed with `residue`. TLB statistics are untouched.
    pub fn install_residue(&mut self, residue: &ResetResidue) {
        // Exhaustive on purpose, mirroring `reset_residue`.
        let Machine {
            cpu,
            tlb,
            next_tick,
            blk_lba,
            blk_dma,
            blk_status,
            smp,
            mem: _,
            decode_cache: _,
            block_cache: _,
            disk: _,
            console: _,
            monitor: _,
            trap_log: _,
            counters: _,
            delivering: _,
            triple_faulted: _,
            trace: _,
            san: _,
            abort: _,
            observer: _,
            config: _,
        } = self;
        let (cpu0, tlb0, next_tick0) = match smp.as_deref_mut() {
            Some(crate::smp::SmpState {
                ctxs,
                active,
                slice_left: _,
                rng: _,
                ipi_arg: _,
                pending: _,
            }) if *active != 0 => {
                let crate::smp::CpuCtx { cpu, tlb, next_tick } = &mut ctxs[0];
                (cpu, tlb, next_tick)
            }
            _ => (cpu, tlb, next_tick),
        };
        let Cpu {
            idt_base,
            regs: _,
            eip: _,
            eflags: _,
            cs: _,
            cr0: _,
            cr2: _,
            cr3: _,
            esp0: _,
            dr7: _,
            tsc: _,
            halted: _,
            dr: _,
        } = cpu0;
        let ResetResidue { next_tick: r_tick, idt_base: r_idt, tlb: r_tlb, blk } = residue;
        *next_tick0 = *r_tick;
        *idt_base = *r_idt;
        tlb0.install(r_tlb);
        [*blk_lba, *blk_dma, *blk_status] = *blk;
    }

    /// Arms the residue observer over CPU 0, which from now on records
    /// each read of reset-residue state until
    /// [`Machine::take_residue_footprint`]. Arm it right after installing
    /// the [power-on residue](ResetResidue::power_on): the footprint
    /// describes a run that started from it. Off by default; its hooks
    /// sit only on slow paths (the miss walk, TLB insert and flush, the
    /// timer crossing, trap delivery, a startup IPI send, `lidt` and
    /// port I/O), and the timer and IDT channels fire only while CPU 0
    /// is active.
    ///
    /// Two reads need no hook of their own. A halted fast-forward is
    /// always followed, in the same step, by a tick delivered with IF
    /// set at `max(tsc, deadline)`, which records the same bound; and
    /// the `int n` privilege check reads the IDT base only in a step
    /// that goes on to deliver a trap through it.
    pub fn observe_residue(&mut self) {
        self.observer = Some(Box::default());
        self.cpu0_tlb_mut().set_log(Some(Box::default()));
    }

    /// Disarms the residue observer and returns what it recorded since
    /// [`Machine::observe_residue`] (`None` when it was not armed).
    pub fn take_residue_footprint(&mut self) -> Option<ResidueFootprint> {
        let obs = self.observer.take()?;
        let tlb = self.cpu0_tlb_mut().set_log(None).map(|log| *log).unwrap_or_default();
        Some(ResidueFootprint {
            timer_period: self.config.timer_period,
            timer_bound: obs.timer_bound,
            idt_read: obs.idt_read,
            idt_loaded: obs.idt_written,
            blk_read: obs.blk_read,
            tlb,
        })
    }

    /// CPU 0's TLB, live or parked.
    fn cpu0_tlb_mut(&mut self) -> &mut Tlb {
        match self.smp.as_deref_mut() {
            Some(smp) if smp.active != 0 => &mut smp.ctxs[0].tlb,
            _ => &mut self.tlb,
        }
    }

    /// The observer, while armed and CPU 0 is active: the per-CPU
    /// channels (timer, IDT) watch CPU 0 only.
    fn cpu0_observer(&mut self) -> Option<&mut ResidueObserver> {
        let cpu0 = self.smp.as_ref().is_none_or(|smp| smp.active == 0);
        self.observer.as_deref_mut().filter(|_| cpu0)
    }

    /// Observer hook: CPU 0's IDT base is about to be read.
    pub(crate) fn observe_idt_read(&mut self) {
        if let Some(obs) = self.cpu0_observer() {
            obs.idt_read |= !obs.idt_written;
        }
    }

    /// Observer hook: CPU 0 loads a new IDT base.
    pub(crate) fn observe_lidt(&mut self) {
        if let Some(obs) = self.cpu0_observer() {
            obs.idt_written = true;
        }
    }

    /// Observer hook: CPU 0's timer delivers a tick with IF set, the
    /// first timer event that changes guest state (a halted
    /// fast-forward comes with one). The first one fixes the bound.
    fn observe_timer_event(&mut self) {
        let (tsc, next_tick, period) = (self.cpu.tsc, self.next_tick, self.config.timer_period);
        if let Some(obs) = self.cpu0_observer() {
            let t = tsc.max(next_tick);
            obs.timer_bound.get_or_insert(t - t % period.max(1));
        }
    }

    /// Observer hook: block latch `i` (0 = lba, 1 = dma, 2 = status) is
    /// read (`write == false`) or written. The latches are machine-wide,
    /// so any CPU's access counts.
    fn observe_latch(&mut self, i: usize, write: bool) {
        if let Some(obs) = self.observer.as_deref_mut() {
            if write {
                obs.blk_written[i] = true;
            } else {
                obs.blk_read[i] |= !obs.blk_written[i];
            }
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Console output so far.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Console output as lossy UTF-8.
    pub fn console_string(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// Monitor events `(tsc, event)` so far.
    pub fn monitor_events(&self) -> &[(u64, MonitorEvent)] {
        &self.monitor
    }

    /// Recorded fault deliveries.
    pub fn trap_log(&self) -> &[TrapRecord] {
        &self.trap_log
    }

    /// Execution counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// TLB `(hits, misses)` since the last [`Machine::restore`] (or the
    /// checkpoint [installed](Machine::install) after it), summed over
    /// every CPU's TLB on SMP machines. A guest CR3 reload flushes the
    /// TLB and keeps counting.
    pub fn tlb_stats(&self) -> (u64, u64) {
        let (mut hits, mut misses) = self.tlb.stats();
        if let Some(smp) = &self.smp {
            for (i, ctx) in smp.ctxs.iter().enumerate() {
                if i != smp.active {
                    let (h, m) = ctx.tlb.stats();
                    hits += h;
                    misses += m;
                }
            }
        }
        (hits, misses)
    }

    /// Number of guest CPUs.
    pub fn cpus(&self) -> u32 {
        self.config.cpus.max(1)
    }

    /// Index of the CPU whose state currently lives in [`Machine::cpu`]
    /// (always 0 on uniprocessor machines).
    pub fn active_cpu(&self) -> usize {
        self.smp.as_ref().map(|smp| smp.active).unwrap_or(0)
    }

    /// Architectural state of CPU `index`: the live state for the
    /// active CPU, the parked context for any other.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cpus()`.
    pub fn cpu_state(&self, index: usize) -> &Cpu {
        match &self.smp {
            None => {
                assert_eq!(index, 0, "uniprocessor machine has only CPU 0");
                &self.cpu
            }
            Some(smp) if index == smp.active => &self.cpu,
            Some(smp) => &smp.ctxs[index].cpu,
        }
    }

    /// Mutable architectural state of CPU `index`, live or parked (e.g.
    /// to arm a debug register on a CPU that is not active).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cpus()`.
    pub fn cpu_state_mut(&mut self, index: usize) -> &mut Cpu {
        match &mut self.smp {
            None => {
                assert_eq!(index, 0, "uniprocessor machine has only CPU 0");
                &mut self.cpu
            }
            Some(smp) if index == smp.active => &mut self.cpu,
            Some(smp) => &mut smp.ctxs[index].cpu,
        }
    }

    /// The maximum TSC across all CPUs (just the TSC on uniprocessor
    /// machines). Per-CPU TSCs drift apart under interleaving, so this
    /// is the machine-wide "time" the SMP run budget counts against.
    pub fn max_tsc(&self) -> u64 {
        let mut t = self.cpu.tsc;
        if let Some(smp) = &self.smp {
            for (i, ctx) in smp.ctxs.iter().enumerate() {
                if i != smp.active {
                    t = t.max(ctx.cpu.tsc);
                }
            }
        }
        t
    }

    /// FNV-1a digest over every CPU's architectural state plus the
    /// scheduler position and in-flight IPIs; 0 on uniprocessor
    /// machines. The checker folds this into its state comparison so
    /// parked-CPU divergence can't hide between quantum boundaries.
    pub fn smp_digest(&self) -> u64 {
        let Some(smp) = &self.smp else { return 0 };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let put = |h: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        put(&mut h, smp.active as u64);
        put(&mut h, u64::from(smp.slice_left));
        put(&mut h, smp.rng);
        put(&mut h, u64::from(smp.ipi_arg));
        for i in 0..smp.ctxs.len() {
            let cpu = self.cpu_state(i);
            for r in cpu.regs {
                put(&mut h, u64::from(r));
            }
            put(&mut h, u64::from(cpu.eip));
            put(&mut h, u64::from(cpu.eflags.bits()));
            put(&mut h, u64::from(cpu.cs));
            put(&mut h, u64::from(cpu.cr0));
            put(&mut h, u64::from(cpu.cr2));
            put(&mut h, u64::from(cpu.cr3));
            put(&mut h, u64::from(cpu.idt_base));
            put(&mut h, u64::from(cpu.esp0));
            put(&mut h, cpu.tsc);
            put(&mut h, u64::from(cpu.halted));
            for ipi in &smp.pending[i] {
                match ipi {
                    crate::smp::Ipi::Resched => put(&mut h, 1),
                    crate::smp::Ipi::Startup { entry, cr0, cr3, idt_base } => {
                        put(&mut h, 2);
                        put(&mut h, u64::from(*entry));
                        put(&mut h, u64::from(*cr0));
                        put(&mut h, u64::from(*cr3));
                        put(&mut h, u64::from(*idt_base));
                    }
                }
            }
            put(&mut h, 0xff);
        }
        h
    }

    /// Parks every secondary CPU back into wait-for-startup reset state
    /// and clears all in-flight IPIs: the SMP half of a machine reset.
    /// CPU 0's context becomes the active one; its architectural state
    /// is left for the caller to reinitialize (the boot loader does).
    /// A no-op on uniprocessor machines.
    pub fn reset_secondary_cpus(&mut self) {
        if self.smp.is_none() {
            return;
        }
        self.smp_switch(0);
        let timer_period = self.config.timer_period;
        let seed = self.config.smp_seed;
        let smp = self.smp.as_mut().unwrap();
        for ctx in smp.ctxs.iter_mut().skip(1) {
            *ctx = crate::smp::CpuCtx::parked(timer_period);
        }
        for q in &mut smp.pending {
            q.clear();
        }
        smp.slice_left = 0;
        smp.rng = seed;
        smp.ipi_arg = 0;
    }

    /// Decoded-instruction cache `(hits, misses, invalidations)` since
    /// the last [`Machine::restore`] (or the checkpoint
    /// [installed](Machine::install) after it). All zero on
    /// [`ExecTier::Interp`].
    pub fn decode_stats(&self) -> (u64, u64, u64) {
        self.decode_cache.stats()
    }

    /// Basic-block cache `(hits, misses, invalidations)` since the last
    /// [`Machine::restore`]; [`Machine::release_blocks`] keeps counting,
    /// and a resumed machine counts only the blocks it replays itself.
    /// All zero below [`ExecTier::Chained`].
    pub fn block_stats(&self) -> (u64, u64, u64) {
        self.block_cache.stats()
    }

    /// Block-chain `(links, follows, breaks)` since the last
    /// [`Machine::restore`], counted as [`Machine::block_stats`] are:
    /// exits linked to a successor block, links followed without
    /// re-entering the dispatch loop, and links torn down because the
    /// successor block was invalidated or evicted. All zero below
    /// [`ExecTier::Chained`].
    pub fn chain_stats(&self) -> (u64, u64, u64) {
        self.block_cache.chain_stats()
    }

    /// Number of physical pages dirtied since the last snapshot restore
    /// (the pages the next restore resets).
    pub fn dirty_page_count(&self) -> u32 {
        self.mem.dirty_page_count()
    }

    /// Sanitizer violation messages recorded so far (empty when the
    /// sanitizer is disabled or nothing fired). At most the first
    /// [`32`](crate::sanitizer) distinct reports are retained verbatim;
    /// [`Machine::sanitizer_violation_count`] keeps the full count.
    /// Cumulative for the life of the machine — [`Machine::restore`]
    /// and [`Machine::clear_logs`] do *not* clear them (a violation is
    /// host-side evidence of a simulator bug, not guest state).
    pub fn sanitizer_violations(&self) -> &[String] {
        self.san.as_ref().map(|s| s.violations.as_slice()).unwrap_or(&[])
    }

    /// Total sanitizer violations recorded (including those past the
    /// retained-message cap).
    pub fn sanitizer_violation_count(&self) -> u64 {
        self.san.as_ref().map(|s| s.count).unwrap_or(0)
    }

    /// Installs a trace sink. [`TraceSink::Null`] (the default) makes
    /// every emit site a no-op.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The current trace sink.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the trace sink (e.g. to drain or clear it).
    pub fn trace_sink_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Removes and returns the trace sink, leaving [`TraceSink::Null`].
    pub fn take_trace_sink(&mut self) -> TraceSink {
        std::mem::take(&mut self.trace)
    }

    /// Captures CPU + memory + device-latch state (every CPU's state on
    /// SMP machines, plus the scheduler position and in-flight IPIs).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            id: NEXT_SNAPSHOT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            cpu: self.cpu.clone(),
            mem: self.mem.snapshot(),
            next_tick: self.next_tick,
            blk_lba: self.blk_lba,
            blk_dma: self.blk_dma,
            blk_status: self.blk_status,
            smp: self.smp.as_ref().map(|smp| {
                let mut cpus: Vec<(Cpu, u64)> =
                    smp.ctxs.iter().map(|c| (c.cpu.clone(), c.next_tick)).collect();
                cpus[smp.active] = (self.cpu.clone(), self.next_tick);
                crate::smp::SmpSnapshot {
                    cpus,
                    active: smp.active,
                    slice_left: smp.slice_left,
                    rng: smp.rng,
                    ipi_arg: smp.ipi_arg,
                    pending: smp.pending.iter().map(|q| q.iter().cloned().collect()).collect(),
                }
            }),
        }
    }

    /// Restores a snapshot, clearing logs, counters and every cache
    /// statistic: [`Machine::counters`], [`Machine::tlb_stats`],
    /// [`Machine::decode_stats`], [`Machine::block_stats`] and
    /// [`Machine::chain_stats`] all read zero afterwards, so each counts
    /// the run that follows. The disk is left untouched (swap it
    /// explicitly if the experiment needs a fresh one).
    ///
    /// Restored pages share the snapshot's pages again, so a restore
    /// copies no page bytes; when restoring the same snapshot as the
    /// previous restore, only the pages dirtied in between are reset
    /// (otherwise every page is, which is what a restore after a reboot
    /// pays: one reference per page). The decode cache is
    /// flushed either way — entries for untouched pages would still be
    /// valid, but carrying cache warmth across runs would make per-run
    /// hit/miss counts depend on worker scheduling. With every cache
    /// empty, page generations restart at zero, so from here on they
    /// count writes since the restore on any machine (what lets a
    /// [`Checkpoint`] carry them from one machine to another).
    pub fn restore(&mut self, s: &Snapshot) {
        self.cpu = s.cpu.clone();
        self.mem.restore_from(&s.mem, s.id);
        self.decode_cache.reset();
        self.block_cache.reset();
        self.mem.zero_gens();
        self.next_tick = s.next_tick;
        self.blk_lba = s.blk_lba;
        self.blk_dma = s.blk_dma;
        self.blk_status = s.blk_status;
        self.tlb.flush();
        self.tlb.set_stats((0, 0));
        assert_eq!(
            self.smp.is_some(),
            s.smp.is_some(),
            "snapshot/machine CPU-count mismatch (SMP vs uniprocessor)"
        );
        if let (Some(smp), Some(snap)) = (self.smp.as_mut(), s.smp.as_ref()) {
            assert_eq!(smp.ctxs.len(), snap.cpus.len(), "snapshot CPU-count mismatch");
            for (ctx, (cpu, next_tick)) in smp.ctxs.iter_mut().zip(&snap.cpus) {
                ctx.cpu = cpu.clone();
                ctx.next_tick = *next_tick;
                ctx.tlb.flush();
                ctx.tlb.set_stats((0, 0));
            }
            smp.active = snap.active;
            smp.slice_left = snap.slice_left;
            smp.rng = snap.rng;
            smp.ipi_arg = snap.ipi_arg;
            for (q, p) in smp.pending.iter_mut().zip(&snap.pending) {
                q.clear();
                q.extend(p.iter().cloned());
            }
        }
        self.console.clear();
        self.monitor.clear();
        self.trap_log.clear();
        self.counters = Counters::default();
        self.delivering = 0;
        self.triple_faulted = false;
    }

    /// Frees every cached block and the block table, which a flush (as
    /// [`Machine::restore`] does) leaves allocated until the slots are
    /// reused. Meant for right after a restore, where the cache is
    /// empty anyway: what runs next counts exactly as after the flush.
    /// The block and chain statistics are kept. A golden capture calls
    /// it between modes, so that the blocks of one mode's run are not
    /// kept alive through the next.
    pub fn release_blocks(&mut self) {
        self.block_cache.release();
    }

    /// Builds a new machine directly in the state captured by `s`: a
    /// copy-on-write fork off a shared snapshot, which is
    /// `Machine::new(config)` followed by `restore(s)`.
    ///
    /// The new memory shares every page of the snapshot and owns none
    /// ([`PhysMem::private_pages`] is 0): a page is copied only on the
    /// fork's first write to it, so a fork costs one reference per
    /// page, not a copy of guest memory. That restore syncs its dirty
    /// baseline to `s`, so the fork's next [`Machine::restore`] of the
    /// same snapshot is O(pages dirtied). The snapshot's pages are
    /// read, never written: any number of threads may fork the same
    /// snapshot concurrently.
    ///
    /// All caches (decode, block, TLB) start empty and every statistic
    /// at zero, as [`Machine::restore`] leaves them, and the decode and
    /// block tables are not allocated until the fork executes. No disk
    /// is attached (snapshots never contain one).
    ///
    /// # Panics
    ///
    /// Panics if `config.phys_mem` differs from the snapshot's memory
    /// size.
    pub fn fork(s: &Snapshot, config: MachineConfig) -> Machine {
        assert_eq!(
            config.phys_mem.next_multiple_of(crate::mem::PAGE_SIZE),
            s.mem.size(),
            "fork config memory size mismatch"
        );
        assert_eq!(
            config.cpus.max(1) as usize,
            s.smp.as_ref().map(|smp| smp.cpus.len()).unwrap_or(1),
            "fork config CPU count mismatch"
        );
        let mut m = Machine::new(config);
        m.restore(s);
        m
    }

    /// Clears logs, counters and latched fault state (the reboot path:
    /// a machine reset ends a triple-fault condition).
    pub fn clear_logs(&mut self) {
        self.console.clear();
        self.monitor.clear();
        self.trap_log.clear();
        self.counters = Counters::default();
        self.delivering = 0;
        self.triple_faulted = false;
    }

    /// Translates a linear address for host-side inspection (no fault
    /// side effects, kernel privilege, read access).
    pub fn probe_translate(&mut self, addr: u32) -> Option<u32> {
        translate(
            &self.mem,
            &mut self.tlb,
            self.cpu.cr3,
            self.cpu.paging(),
            addr,
            Access::Read,
            false,
        )
        .ok()
    }

    /// Reads guest-virtual memory for host-side inspection. Returns the
    /// number of bytes successfully read (stops at the first unmapped
    /// page).
    pub fn probe_read(&mut self, addr: u32, buf: &mut [u8]) -> usize {
        for (i, b) in buf.iter_mut().enumerate() {
            match self.probe_translate(addr.wrapping_add(i as u32)) {
                Some(pa) => *b = self.mem.read_u8(pa),
                None => return i,
            }
        }
        buf.len()
    }

    /// Writes guest-virtual memory for host-side instrumentation (the
    /// injector's bit flips). Returns `false` if any page is unmapped.
    pub fn probe_write(&mut self, addr: u32, bytes: &[u8]) -> bool {
        // Translate everything first so the write is all-or-nothing.
        let mut phys = Vec::with_capacity(bytes.len());
        for i in 0..bytes.len() {
            match self.probe_translate(addr.wrapping_add(i as u32)) {
                Some(pa) => phys.push(pa),
                None => return false,
            }
        }
        for (pa, b) in phys.into_iter().zip(bytes) {
            self.mem.write_u8(pa, *b);
        }
        true
    }

    // ---- guest memory access (with faults) ----

    #[inline]
    pub(crate) fn xlate(&mut self, addr: u32, access: Access) -> XResult<u32> {
        let user = self.cpu.is_user();
        translate(&self.mem, &mut self.tlb, self.cpu.cr3, self.cpu.paging(), addr, access, user)
            .map_err(Fault::Page)
    }

    fn xlate_kernel(&mut self, addr: u32, access: Access) -> XResult<u32> {
        translate(&self.mem, &mut self.tlb, self.cpu.cr3, self.cpu.paging(), addr, access, false)
            .map_err(Fault::Page)
    }

    #[inline]
    pub(crate) fn read_virt_u8(&mut self, addr: u32) -> XResult<u8> {
        let pa = self.xlate(addr, Access::Read)?;
        Ok(self.mem.read_u8(pa))
    }

    #[inline]
    pub(crate) fn read_virt_u32(&mut self, addr: u32) -> XResult<u32> {
        if addr & 0xfff <= 0xffc {
            let pa = self.xlate(addr, Access::Read)?;
            Ok(self.mem.read_u32(pa))
        } else {
            // Straddles a page boundary: one translation per page (the
            // byte-wise path did four), faulting in the same order with
            // the same CR2 — first `addr`, then the second page's base.
            let pa1 = self.xlate(addr, Access::Read)?;
            let page2 = (addr | 0xfff).wrapping_add(1);
            let pa2 = self.xlate(page2, Access::Read)?;
            let k = page2.wrapping_sub(addr); // bytes on page 1 (1..=3)
            let mut v = [0u8; 4];
            for (i, b) in v.iter_mut().enumerate() {
                let i = i as u32;
                let pa = if i < k { pa1.wrapping_add(i) } else { pa2.wrapping_add(i - k) };
                *b = self.mem.read_u8(pa);
            }
            Ok(u32::from_le_bytes(v))
        }
    }

    #[inline]
    pub(crate) fn write_virt_u8(&mut self, addr: u32, val: u8) -> XResult<()> {
        let pa = self.xlate(addr, Access::Write)?;
        self.mem.write_u8(pa, val);
        Ok(())
    }

    #[inline]
    pub(crate) fn write_virt_u32(&mut self, addr: u32, val: u32) -> XResult<()> {
        if addr & 0xfff <= 0xffc {
            let pa = self.xlate(addr, Access::Write)?;
            self.mem.write_u32(pa, val);
            Ok(())
        } else {
            // Check both pages before writing anything (all-or-nothing,
            // same translation order and CR2 as before), then write the
            // bytes physically — two translations instead of six.
            let pa1 = self.xlate(addr, Access::Write)?;
            let pa_last = self.xlate(addr.wrapping_add(3), Access::Write)?;
            let page2_pa = pa_last & !0xfff;
            let k = 0x1000 - (addr & 0xfff); // bytes on page 1 (1..=3)
            for (i, b) in val.to_le_bytes().iter().enumerate() {
                let i = i as u32;
                let pa = if i < k { pa1.wrapping_add(i) } else { page2_pa.wrapping_add(i - k) };
                self.mem.write_u8(pa, *b);
            }
            Ok(())
        }
    }

    fn write_kernel_u32(&mut self, addr: u32, val: u32) -> XResult<()> {
        let pa = self.xlate_kernel(addr, Access::Write)?;
        self.mem.write_u32(pa, val);
        Ok(())
    }

    fn read_kernel_u32(&mut self, addr: u32) -> XResult<u32> {
        let pa = self.xlate_kernel(addr, Access::Read)?;
        Ok(self.mem.read_u32(pa))
    }

    // ---- stack helpers ----

    pub(crate) fn push(&mut self, val: u32) -> XResult<()> {
        let esp = self.cpu.reg(4).wrapping_sub(4);
        self.write_virt_u32(esp, val)?;
        self.cpu.set_reg(4, esp);
        Ok(())
    }

    pub(crate) fn pop(&mut self) -> XResult<u32> {
        let esp = self.cpu.reg(4);
        let v = self.read_virt_u32(esp)?;
        self.cpu.set_reg(4, esp.wrapping_add(4));
        Ok(v)
    }

    // ---- port I/O ----

    pub(crate) fn port_in(&mut self, port: u16) -> u32 {
        match port {
            ports::BLK_STATUS => {
                self.observe_latch(2, false);
                self.blk_status
            }
            ports::CONSOLE => 0,
            ports::MON_CPU_ID => self.active_cpu() as u32,
            ports::MON_NCPUS => self.cpus(),
            _ => 0xffff_ffff,
        }
    }

    pub(crate) fn port_out(&mut self, port: u16, value: u32) {
        let tsc = self.cpu.tsc;
        match port {
            ports::CONSOLE => self.console.push(value as u8),
            ports::MON_EVENT => self.monitor.push((tsc, MonitorEvent::Event(value))),
            ports::MON_RESULT => self.monitor.push((tsc, MonitorEvent::Result(value))),
            ports::MON_CRASH_CAUSE => self.monitor.push((tsc, MonitorEvent::CrashCause(value))),
            ports::MON_CRASH_EIP => self.monitor.push((tsc, MonitorEvent::CrashEip(value))),
            ports::MON_PID => self.monitor.push((tsc, MonitorEvent::Pid(value))),
            ports::MON_SET_ESP0 => self.cpu.esp0 = value,
            ports::MON_IPI => self.ipi_command(value),
            ports::MON_IPI_ARG => {
                if let Some(smp) = self.smp.as_mut() {
                    smp.ipi_arg = value;
                }
            }
            ports::BLK_LBA => {
                self.observe_latch(0, true);
                self.blk_lba = value;
            }
            ports::BLK_DMA => {
                self.observe_latch(1, true);
                self.blk_dma = value;
            }
            ports::BLK_CMD => {
                self.block_command(value);
                self.observe_latch(2, true);
            }
            _ => {}
        }
    }

    fn block_command(&mut self, cmd: u32) {
        if self.disk.is_some() && (cmd == 1 || cmd == 2) {
            self.observe_latch(0, false);
            self.observe_latch(1, false);
        }
        let Some(disk) = self.disk.as_mut() else {
            self.blk_status = 1;
            return;
        };
        let mut buf = [0u8; SECTOR_SIZE];
        match cmd {
            1 => {
                let ok = disk.read_sector(self.blk_lba, &mut buf);
                for (i, b) in buf.iter().enumerate() {
                    self.mem.write_u8(self.blk_dma.wrapping_add(i as u32), *b);
                }
                self.blk_status = u32::from(!ok);
            }
            2 => {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = self.mem.read_u8(self.blk_dma.wrapping_add(i as u32));
                }
                let ok = disk.write_sector(self.blk_lba, &buf);
                self.blk_status = u32::from(!ok);
            }
            _ => self.blk_status = 1,
        }
    }

    // ---- SMP scheduling and IPIs ----

    /// Swaps CPU `next`'s context into the live slots (`cpu`, TLB,
    /// timer deadline), parking the current active CPU's. No-op when
    /// `next` is already active.
    fn smp_switch(&mut self, next: usize) {
        let mut smp = self.smp.take().expect("smp_switch on a uniprocessor machine");
        let act = smp.active;
        if next != act {
            std::mem::swap(&mut self.cpu, &mut smp.ctxs[act].cpu);
            std::mem::swap(&mut self.tlb, &mut smp.ctxs[act].tlb);
            std::mem::swap(&mut self.next_tick, &mut smp.ctxs[act].next_tick);
            std::mem::swap(&mut self.cpu, &mut smp.ctxs[next].cpu);
            std::mem::swap(&mut self.tlb, &mut smp.ctxs[next].tlb);
            std::mem::swap(&mut self.next_tick, &mut smp.ctxs[next].next_tick);
            smp.active = next;
        }
        self.smp = Some(smp);
    }

    /// Whether CPU `index` could execute an instruction *immediately*
    /// if scheduled: running, or halted with a deliverable IPI pending
    /// (delivery outranks the halted check in [`Machine::step`]).
    fn cpu_live(&self, index: usize) -> bool {
        let smp = self.smp.as_ref().unwrap();
        let cpu = if index == smp.active { &self.cpu } else { &smp.ctxs[index].cpu };
        if !cpu.halted {
            return true;
        }
        smp.pending[index].iter().any(|ipi| match ipi {
            crate::smp::Ipi::Startup { .. } => true,
            crate::smp::Ipi::Resched => cpu.eflags.if_(),
        })
    }

    /// Whether CPU `index` could ever make progress: live now, or
    /// halted-but-wakeable by its timer.
    fn cpu_runnable(&self, index: usize) -> bool {
        if self.cpu_live(index) {
            return true;
        }
        let smp = self.smp.as_ref().unwrap();
        let cpu = if index == smp.active { &self.cpu } else { &smp.ctxs[index].cpu };
        cpu.halted && self.config.timer_enabled && cpu.eflags.if_()
    }

    /// Round-robin slice accounting, run once at the top of every
    /// [`Machine::step`] on SMP machines. Rotates when the active CPU's
    /// slice is exhausted or it can no longer execute, preferring CPUs
    /// that are live *right now*; only when no CPU is live does a
    /// merely timer-wakeable (idle) CPU get scheduled. That fallback is
    /// the sole path into the halted fast-forward, so a sleeping CPU
    /// can never leap the machine clock while another CPU still has
    /// work — the run budget counts the machine-wide maximum TSC, and
    /// an idle CPU jumping a full timer period per visit would starve
    /// the busy ones of wall time. If no CPU is runnable at all the
    /// active one stays put and the step reports [`StepEvent::Halted`].
    fn smp_schedule(&mut self) {
        let smp = self.smp.as_ref().unwrap();
        let (act, n) = (smp.active, smp.ctxs.len());
        if smp.slice_left == 0 || !self.cpu_live(act) {
            let mut next = act;
            for k in 1..=n {
                let j = (act + k) % n;
                if self.cpu_live(j) {
                    next = j;
                    break;
                }
            }
            if next == act && !self.cpu_live(act) {
                for k in 1..=n {
                    let j = (act + k) % n;
                    if self.cpu_runnable(j) {
                        next = j;
                        break;
                    }
                }
            }
            self.smp_switch(next);
            let quantum = self.config.smp_quantum;
            let smp = self.smp.as_mut().unwrap();
            smp.slice_left = smp.next_quantum(quantum);
        }
        let smp = self.smp.as_mut().unwrap();
        smp.slice_left = smp.slice_left.saturating_sub(1);
    }

    /// Whether the active CPU runs alone: it is not halted, no IPI waits
    /// for it, and no other CPU is [live](Machine::cpu_live). Then
    /// [`Machine::smp_schedule`] can only renew the active CPU's own
    /// slice (its rotation scan finds no other live CPU) and
    /// [`Machine::smp_take_ipi`] has nothing to deliver. Parked CPUs
    /// never change on their own, so only an IPI send can end this.
    fn smp_alone(&self) -> bool {
        let smp = self.smp.as_ref().unwrap();
        !self.cpu.halted
            && smp.pending[smp.active].is_empty()
            && (0..smp.ctxs.len()).all(|j| j == smp.active || !self.cpu_live(j))
    }

    /// Settles the scheduler after a block in which the active CPU
    /// retired `steps` steps alone. Before each of them
    /// [`Machine::smp_schedule`] would have renewed the slice if it was
    /// exhausted and then consumed one step, with no rotation (see
    /// [`Machine::smp_alone`]); this applies that rule `steps` times. A
    /// renewal draws the jitter `rng` exactly as often as stepping
    /// would, so a seeded schedule comes out identical.
    fn smp_settle(&mut self, mut steps: u64) {
        let quantum = self.config.smp_quantum;
        let smp = self.smp.as_mut().unwrap();
        while steps > 0 {
            if smp.slice_left == 0 {
                smp.slice_left = smp.next_quantum(quantum);
            }
            let k = steps.min(u64::from(smp.slice_left));
            smp.slice_left -= k as u32;
            steps -= k;
        }
    }

    /// Delivers at most one pending IPI to the active CPU (startup
    /// unconditionally, reschedule only once IF is set), consuming the
    /// step like a timer delivery does. Returns `None` when nothing is
    /// deliverable.
    fn smp_take_ipi(&mut self) -> Option<StepEvent> {
        let if_set = self.cpu.eflags.if_();
        let smp = self.smp.as_mut().unwrap();
        let q = &mut smp.pending[smp.active];
        let idx = q.iter().position(|ipi| match ipi {
            crate::smp::Ipi::Startup { .. } => true,
            crate::smp::Ipi::Resched => if_set,
        })?;
        let ipi = q.remove(idx).unwrap();
        match ipi {
            crate::smp::Ipi::Startup { entry, cr0, cr3, idt_base } => {
                self.cpu.eip = entry;
                self.cpu.cr0 = cr0;
                self.cpu.cr3 = cr3;
                self.cpu.idt_base = idt_base;
                self.cpu.halted = false;
                self.cpu.tsc += 40; // mode-switch cost, like any delivery
                self.tlb.flush();
                Some(StepEvent::Executed)
            }
            crate::smp::Ipi::Resched => {
                self.cpu.halted = false;
                let eip = self.cpu.eip;
                self.deliver(Vector::Ipi, None, eip);
                Some(if self.triple_faulted { StepEvent::TripleFault } else { StepEvent::Executed })
            }
        }
    }

    /// Handles a write to [`ports::MON_IPI`]. See the port docs for the
    /// encoding. Uniprocessor machines and out-of-range targets ignore
    /// the write, like any other unknown port traffic.
    fn ipi_command(&mut self, value: u32) {
        let (cr0, cr3, idt_base) = (self.cpu.cr0, self.cpu.cr3, self.cpu.idt_base);
        let drop_resched = self.config.ipi_drop_bug;
        let Some(smp) = self.smp.as_mut() else { return };
        let target = ((value >> 8) & 0xff) as usize;
        if target >= smp.ctxs.len() {
            return;
        }
        if value & (1 << 16) != 0 {
            let entry = smp.ipi_arg;
            smp.pending[target].push_back(crate::smp::Ipi::Startup { entry, cr0, cr3, idt_base });
            self.observe_idt_read();
        } else if !drop_resched {
            smp.pending[target].push_back(crate::smp::Ipi::Resched);
        }
    }

    // ---- trap delivery ----

    /// Delivers a trap/interrupt through the IDT. `return_eip` is what
    /// the handler's `iret` resumes to (the faulting instruction for
    /// faults; the next instruction for `int n` and interrupts).
    pub(crate) fn deliver(&mut self, vector: Vector, err: Option<u32>, return_eip: u32) {
        let from_user = self.cpu.is_user();
        if vector.is_fault() {
            self.counters.faults += 1;
            self.trap_log.push(TrapRecord {
                tsc: self.cpu.tsc,
                vector,
                error_code: err,
                eip: return_eip,
                cr2: self.cpu.cr2,
                from_user,
            });
            self.trace.emit(
                self.cpu.tsc,
                EventKind::ExceptionRaised {
                    vector: vector.number(),
                    eip: return_eip,
                    error_code: err,
                },
            );
        } else if vector == Vector::Syscall {
            self.counters.syscalls += 1;
            self.trace.emit(self.cpu.tsc, EventKind::SyscallEntry { nr: self.cpu.reg(0) });
        } else if vector == Vector::Ipi {
            self.counters.ipis += 1;
            self.trace.emit(self.cpu.tsc, EventKind::IpiDelivered { eip: return_eip });
        } else {
            self.counters.timer_irqs += 1;
            self.trace.emit(self.cpu.tsc, EventKind::WatchdogTick { eip: return_eip });
        }

        self.delivering += 1;
        let result = self.try_deliver(vector, err, return_eip, from_user);
        self.delivering -= 1;

        if result.is_err() {
            if vector == Vector::DoubleFault {
                self.triple_faulted = true;
            } else {
                self.deliver(Vector::DoubleFault, Some(0), return_eip);
            }
        } else {
            self.cpu.tsc += 40; // mode-switch cost
        }
    }

    fn try_deliver(
        &mut self,
        vector: Vector,
        err: Option<u32>,
        return_eip: u32,
        from_user: bool,
    ) -> XResult<()> {
        self.observe_idt_read();
        let base = self.cpu.idt_base.wrapping_add(vector.number() as u32 * 8);
        let handler = self.read_kernel_u32(base)?;
        let flags = self.read_kernel_u32(base.wrapping_add(4))?;
        if flags & 1 == 0 {
            // Not present. Escalate as a nested failure so the caller
            // goes to double fault (delivering *anything* else through
            // the same broken IDT would loop).
            return Err(Fault::Vec(
                Vector::SegmentNotPresent,
                Some((vector.number() as u32) << 3 | 2),
            ));
        }

        let old_esp = self.cpu.reg(4);
        let old_cs = self.cpu.cs;
        let old_flags = self.cpu.eflags.bits();

        // Switch to the kernel stack for user→kernel transitions.
        let mut sp =
            if from_user && !self.config.ring_switch_bug { self.cpu.esp0 } else { old_esp };
        let kpush = |m: &mut Machine, sp: &mut u32, v: u32| -> XResult<()> {
            *sp = sp.wrapping_sub(4);
            m.write_kernel_u32(*sp, v)
        };
        if from_user {
            kpush(self, &mut sp, old_esp)?;
        }
        kpush(self, &mut sp, old_flags)?;
        kpush(self, &mut sp, old_cs)?;
        kpush(self, &mut sp, return_eip)?;
        if let Some(e) = err {
            kpush(self, &mut sp, e)?;
        }

        self.cpu.set_reg(4, sp);
        self.cpu.cs = KERNEL_CS;
        self.cpu.eip = handler;
        self.cpu.eflags.set_if(false);
        self.cpu.halted = false;
        Ok(())
    }

    pub(crate) fn do_iret(&mut self) -> XResult<()> {
        let esp = self.cpu.reg(4);
        let eip = self.read_virt_u32(esp)?;
        let cs = self.read_virt_u32(esp.wrapping_add(4))?;
        let flags = self.read_virt_u32(esp.wrapping_add(8))?;
        match cs {
            KERNEL_CS => {
                self.cpu.set_reg(4, esp.wrapping_add(12));
                self.cpu.cs = KERNEL_CS;
            }
            USER_CS => {
                let user_esp = self.read_virt_u32(esp.wrapping_add(12))?;
                self.cpu.set_reg(4, user_esp);
                self.cpu.cs = USER_CS;
            }
            _ => return Err(Fault::Vec(Vector::GeneralProtection, Some(cs & 0xffff))),
        }
        self.cpu.eip = eip;
        let was_if = self.cpu.eflags.if_();
        self.cpu.eflags = kfi_isa::Eflags::from_bits(flags);
        if self.cpu.is_user() && !was_if {
            // Returning to user always re-enables interrupts in our
            // model (the kernel frame carries IF anyway).
            let mut f = self.cpu.eflags;
            f.set_if(true);
            self.cpu.eflags = f;
        }
        Ok(())
    }

    // ---- stepping ----

    /// Executes one instruction (or delivers one pending interrupt) on
    /// the active CPU. On SMP machines the round-robin scheduler may
    /// first rotate which CPU is active — the rotation is a pure
    /// function of machine state, so single-stepping is deterministic
    /// there too.
    pub fn step(&mut self) -> StepEvent {
        if self.smp.is_some() {
            self.smp_schedule();
        }
        if self.san.is_none() {
            return self.step_inner();
        }
        let prev_tsc = self.cpu.tsc;
        let prev_cr2 = self.cpu.cr2;
        let prev_traps = self.trap_log.len();
        if let Some(san) = self.san.as_mut() {
            san.cr2_write_ok = false;
        }
        let ev = self.step_inner();
        self.sanitize_step(prev_tsc, prev_cr2, prev_traps, ev);
        ev
    }

    /// Post-step invariant validation (see [`crate::sanitizer`]).
    fn sanitize_step(&mut self, prev_tsc: u64, prev_cr2: u32, prev_traps: usize, ev: StepEvent) {
        let bits = self.cpu.eflags.bits();
        let eip = self.cpu.eip;
        let tsc = self.cpu.tsc;
        let cr2 = self.cpu.cr2;
        // #PF delivered this step => CR2 holds the logged fault address.
        let pf_cr2_mismatch = self.trap_log[prev_traps..]
            .iter()
            .filter(|t| t.vector == Vector::PageFault)
            .next_back()
            .filter(|t| t.cr2 != cr2)
            .map(|t| t.cr2);
        let Some(san) = self.san.as_mut() else { return };
        if !kfi_isa::Eflags::is_canonical(bits) {
            san.report(format!("non-canonical EFLAGS image {bits:#010x} at eip {eip:#010x}"));
        }
        if tsc < prev_tsc {
            san.report(format!("TSC moved backwards ({prev_tsc} -> {tsc}) at eip {eip:#010x}"));
        } else if ev == StepEvent::Executed && tsc == prev_tsc {
            san.report(format!("TSC did not advance over an executed step at eip {eip:#010x}"));
        }
        if cr2 != prev_cr2 && !san.cr2_write_ok {
            san.report(format!(
                "CR2 changed ({prev_cr2:#010x} -> {cr2:#010x}) without #PF delivery or mov-to-cr2 \
                 at eip {eip:#010x}"
            ));
        }
        if let Some(logged) = pf_cr2_mismatch {
            san.report(format!(
                "#PF delivered with CR2 {cr2:#010x} != logged fault address {logged:#010x}"
            ));
        }
    }

    fn step_inner(&mut self) -> StepEvent {
        if self.triple_faulted {
            return StepEvent::TripleFault;
        }

        // Pending IPIs outrank the halted check: a startup IPI is how a
        // parked CPU comes to life at all, and a reschedule IPI wakes a
        // sleeping one exactly like the timer would.
        if self.smp.is_some() {
            if let Some(ev) = self.smp_take_ipi() {
                return ev;
            }
        }

        if self.cpu.halted {
            if self.config.timer_enabled && self.cpu.eflags.if_() {
                // Fast-forward to the next tick (the crossing below, in
                // this same step, is the residue observer's timer event).
                self.cpu.tsc = self.cpu.tsc.max(self.next_tick);
            } else {
                return StepEvent::Halted;
            }
        }

        // Debug-register instruction breakpoint (one-shot).
        if self.cpu.dr7 != 0 && !self.cpu.halted {
            if let Some(index) = self.cpu.breakpoint_match(self.cpu.eip) {
                self.cpu.disarm_breakpoint(index);
                return StepEvent::DebugBreak { index };
            }
        }

        // Timer.
        if self.config.timer_enabled && self.cpu.tsc >= self.next_tick {
            if self.cpu.eflags.if_() {
                self.observe_timer_event();
            }
            while self.next_tick <= self.cpu.tsc {
                self.next_tick += self.config.timer_period;
            }
            if self.cpu.eflags.if_() {
                self.cpu.halted = false;
                let eip = self.cpu.eip;
                self.deliver(Vector::Timer, None, eip);
                if self.triple_faulted {
                    return StepEvent::TripleFault;
                }
                return StepEvent::Executed;
            }
        }

        self.counters.instructions += 1;
        match self.exec_one() {
            Ok(()) => StepEvent::Executed,
            Err(fault) => {
                let eip = self.cpu.eip;
                let (vector, err) = match fault {
                    Fault::Page(pf) => {
                        self.cpu.cr2 = pf.addr;
                        if let Some(san) = self.san.as_mut() {
                            san.cr2_write_ok = true;
                        }
                        (Vector::PageFault, Some(pf.error_code()))
                    }
                    Fault::Vec(v, e) => (v, e),
                };
                self.deliver(vector, err, eip);
                if self.triple_faulted {
                    StepEvent::TripleFault
                } else {
                    StepEvent::Executed
                }
            }
        }
    }

    /// Runs until a breakpoint, halt, triple fault, the cycle budget is
    /// exhausted, or the [abort flag](Machine::set_abort_flag) is set
    /// (also reported as [`RunExit::CycleLimit`] — the watchdog's view).
    ///
    /// The budget counts against the machine-wide clock
    /// [`Machine::max_tsc`] (just the TSC on a uniprocessor): per-CPU
    /// TSCs drift under interleaving, and budgeting the laggard would
    /// stretch the watchdog by the drift.
    ///
    /// Each iteration takes one [`Machine::step`] when the next step
    /// needs per-step precision, and otherwise executes through the
    /// block engine. A step is needed when the tier is below
    /// [`ExecTier::Chained`] or the sanitizer (whose contract is
    /// per-step validation) is on, a triple fault is latched, the CPU
    /// is halted, a timer tick is due, a breakpoint matches at EIP, or,
    /// on an SMP machine, the active CPU does not run alone: another CPU
    /// is live, an IPI is pending for it, or it is halted. A uniprocessor is the case with no
    /// scheduler. While the active CPU runs alone, a quantum boundary
    /// only renews its own slice, so blocks are not cut there; the slice
    /// and the jitter state are advanced afterwards by the steps each
    /// block retired, and a port write that may send an IPI ends the
    /// block.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        self.run_loop(max_cycles, false, &mut ()).expect("an uncut run ends only with an exit")
    }

    /// [`Machine::run`], showing `obs` every step boundary and every
    /// executed step that single-stepping the same run with
    /// [`Machine::step`] passes (see [`StepObserver`]), inside blocks
    /// too, without cutting blocks short. The observer is a type
    /// parameter, so [`Machine::run`]'s `()` costs nothing.
    pub fn run_observed<O: StepObserver>(&mut self, max_cycles: u64, obs: &mut O) -> RunExit {
        self.run_loop(max_cycles, false, obs).expect("an uncut run ends only with an exit")
    }

    /// [`Machine::run`], but also stopping at the top of the next loop
    /// iteration where the active CPU's tick is [due](Machine::tick_due),
    /// not counting one the call starts at: a *tick cut*, where it
    /// returns `None`. The uncut loop passes through the same state —
    /// the tick is due only at a loop top, because a block's limit is
    /// `min(deadline, next_tick)` — so a cut changes nothing about the
    /// run that continues from it (see [`Checkpoint`]).
    pub fn run_to_tick(&mut self, max_cycles: u64) -> Option<RunExit> {
        self.run_loop(max_cycles, true, &mut ())
    }

    /// The one run loop behind [`Machine::run`], [`Machine::run_observed`]
    /// and [`Machine::run_to_tick`]; inlined so the uncut loop pays
    /// nothing for the cut.
    #[inline(always)]
    fn run_loop<O: StepObserver>(
        &mut self,
        max_cycles: u64,
        cut: bool,
        obs: &mut O,
    ) -> Option<RunExit> {
        let mut now = self.max_tsc();
        let deadline = now.saturating_add(max_cycles);
        let blocks = self.config.tier == ExecTier::Chained && self.san.is_none();
        // A cut call never stops at the loop top it starts at.
        let mut started = !cut;
        loop {
            // Parked CPUs' TSCs do not move, so this running maximum
            // stays equal to `max_tsc()` without rescanning them.
            now = now.max(self.cpu.tsc);
            if now >= deadline || self.abort_requested() {
                return Some(RunExit::CycleLimit);
            }
            if cut && started && self.tick_due() {
                return None;
            }
            started = true;
            obs.boundary(&self.cpu, self.tick_due());
            let event = if blocks && !self.needs_step() {
                let retired = self.counters.instructions;
                self.exec_block(deadline, obs);
                if self.smp.is_some() {
                    self.smp_settle(self.counters.instructions - retired);
                }
                // A fault cascade inside the block can latch a triple
                // fault; report it before the deadline, as a step would.
                if self.triple_faulted {
                    StepEvent::TripleFault
                } else {
                    StepEvent::Executed
                }
            } else {
                let event = self.step();
                if event == StepEvent::Executed {
                    obs.executed(&self.cpu);
                }
                event
            };
            match event {
                StepEvent::Executed => {}
                StepEvent::DebugBreak { index } => return Some(RunExit::DebugBreak { index }),
                StepEvent::Halted => return Some(RunExit::Halted),
                StepEvent::TripleFault => return Some(RunExit::TripleFault),
            }
        }
    }

    /// Whether [`Machine::run`] must take the next step through
    /// [`Machine::step`] rather than the block engine (see there).
    fn needs_step(&self) -> bool {
        self.triple_faulted
            || self.cpu.halted
            || self.tick_due()
            || (self.cpu.dr7 != 0 && self.cpu.breakpoint_match(self.cpu.eip).is_some())
            || (self.smp.is_some() && !self.smp_alone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_with(code: &[u8]) -> Machine {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        m.mem.load(0x1000, code);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000); // stack
        m
    }

    #[test]
    fn console_output() {
        // mov $'h', %al; out %al,$0xe9; mov $'i', %al; out %al,$0xe9; cli; hlt
        let mut m = machine_with(&[0xb0, b'h', 0xe6, 0xe9, 0xb0, b'i', 0xe6, 0xe9, 0xfa, 0xf4]);
        assert_eq!(m.run(1000), RunExit::Halted);
        assert_eq!(m.console_string(), "hi");
    }

    #[test]
    fn monitor_events() {
        // mov $42,%eax ; mov $0xf1,%dx ... we use out to imm port 0xf1:
        // b8 2a 00 00 00  mov $42,%eax
        // e7 f1           out %eax,$0xf1
        // fa f4           cli; hlt
        let mut m = machine_with(&[0xb8, 42, 0, 0, 0, 0xe7, 0xf1, 0xfa, 0xf4]);
        assert_eq!(m.run(1000), RunExit::Halted);
        assert_eq!(m.monitor_events().len(), 1);
        assert!(matches!(m.monitor_events()[0].1, MonitorEvent::Result(42)));
    }

    #[test]
    fn debug_breakpoint_fires_once() {
        // Two NOPs then cli;hlt.
        let mut m = machine_with(&[0x90, 0x90, 0xfa, 0xf4]);
        m.cpu.arm_breakpoint(1, 0x1001);
        assert_eq!(m.run(1000), RunExit::DebugBreak { index: 1 });
        assert_eq!(m.cpu.eip, 0x1001);
        // Resuming continues past the (disarmed) breakpoint.
        assert_eq!(m.run(1000), RunExit::Halted);
    }

    #[test]
    fn abort_flag_reaps_a_tight_loop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // jmp .-0 (EB FE): livelocks forever without intervention.
        let mut m = machine_with(&[0xeb, 0xfe]);
        let flag = Arc::new(AtomicBool::new(true));
        m.set_abort_flag(Some(flag.clone()));
        // Budget far beyond what the abort check needs: the flag, not
        // the cycle limit, must end the run.
        let before = m.cpu.tsc;
        assert_eq!(m.run(u64::MAX / 2), RunExit::CycleLimit);
        assert!(m.cpu.tsc - before < 10 * u64::from(ABORT_CHECK_STEPS) * 16);
        // Cleared flag: runs to the (small) cycle budget as usual.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(m.run(1_000), RunExit::CycleLimit);
        m.set_abort_flag(None);
        assert_eq!(m.run(1_000), RunExit::CycleLimit);
    }

    #[test]
    fn ud2_without_idt_triple_faults() {
        let mut m = machine_with(&[0x0f, 0x0b]);
        // IDT base 0 with zeroed memory: entry not present -> #NP
        // escalation -> #DF -> also bad -> triple fault.
        assert_eq!(m.run(1000), RunExit::TripleFault);
        // The fault was recorded before delivery failed.
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::InvalidOpcode));
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::DoubleFault));
    }

    #[test]
    fn idt_dispatch_and_iret() {
        // Set up an IDT at 0x2000 with vector 6 (#UD) -> handler 0x3000.
        // Code at 0x1000: ud2  (raises #UD)
        // Handler at 0x3000: writes 'U' to console, then iret to... the
        // return eip is the ud2 itself, so the handler instead skips it:
        // add $2, (%esp)  -- bump saved eip past the 2-byte ud2
        // iret
        let mut m = machine_with(&[0x0f, 0x0b, 0xb0, b'K', 0xe6, 0xe9, 0xfa, 0xf4]);
        m.cpu.idt_base = 0x2000;
        m.mem.write_u32(0x2000 + 6 * 8, 0x3000);
        m.mem.write_u32(0x2000 + 6 * 8 + 4, 1);
        m.mem.load(
            0x3000,
            &[
                0xb0, b'U', 0xe6, 0xe9, // mov $'U',%al; out
                0x83, 0x04, 0x24, 0x02, // addl $2, (%esp)
                0xcf, // iret
            ],
        );
        assert_eq!(m.run(10_000), RunExit::Halted);
        assert_eq!(m.console_string(), "UK");
        assert_eq!(m.trap_log().len(), 1);
        assert_eq!(m.trap_log()[0].vector, Vector::InvalidOpcode);
        assert_eq!(m.trap_log()[0].eip, 0x1000);
    }

    #[test]
    fn page_fault_sets_cr2_and_error_code() {
        // Enable paging with an empty page directory at 0x4000 except
        // one identity-mapped 4 MiB... simpler: map the code page and
        // leave the target unmapped.
        let mut m = machine_with(&[]);
        // Build identity mapping for 0x0000_0000..0x0040_0000.
        let cr3 = 0x4000u32;
        let pt = 0x5000u32;
        m.mem.write_u32(cr3, pt | 7);
        for i in 0..1024u32 {
            m.mem.write_u32(pt + i * 4, (i << 12) | 3);
        }
        // Unmap page at 0x6000 to force a fault.
        m.mem.write_u32(pt + 6 * 4, 0);
        // Code: mov 0x6000, %eax  (a1 00 60 00 00) -> #PF
        m.mem.load(0x1000, &[0xa1, 0x00, 0x60, 0x00, 0x00]);
        m.cpu.cr3 = cr3;
        m.cpu.cr0 |= crate::cpu::CR0_PG;
        let _ = m.run(100);
        let pf = m.trap_log().iter().find(|t| t.vector == Vector::PageFault).unwrap();
        assert_eq!(pf.cr2, 0x6000);
        assert_eq!(pf.error_code, Some(0)); // not-present, read, kernel
        assert_eq!(pf.eip, 0x1000);
    }

    #[test]
    fn timer_preempts() {
        let mut m = Machine::new(MachineConfig {
            timer_enabled: true,
            timer_period: 100,
            ..Default::default()
        });
        // IDT at 0x2000: vector 0x20 -> handler 0x3000 (counts, iret).
        m.cpu.idt_base = 0x2000;
        m.mem.write_u32(0x2000 + 0x20 * 8, 0x3000);
        m.mem.write_u32(0x2000 + 0x20 * 8 + 4, 1);
        // handler: inc %ecx... must preserve; just: inc %ebx; iret
        m.mem.load(0x3000, &[0x43, 0xcf]);
        // main: sti; spin: jmp spin
        m.mem.load(0x1000, &[0xfb, 0xeb, 0xfe]);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        let _ = m.run(1000);
        assert!(m.cpu.get(kfi_isa::Reg::Ebx) >= 2, "timer fired repeatedly");
        assert!(m.counters().timer_irqs >= 2);
    }

    #[test]
    fn hlt_with_interrupts_waits_for_timer() {
        let mut m = Machine::new(MachineConfig {
            timer_enabled: true,
            timer_period: 1000,
            ..Default::default()
        });
        m.cpu.idt_base = 0x2000;
        m.mem.write_u32(0x2000 + 0x20 * 8, 0x3000);
        m.mem.write_u32(0x2000 + 0x20 * 8 + 4, 1);
        // Timer handler: cli; hlt (stop everything).
        m.mem.load(0x3000, &[0xfa, 0xf4]);
        // main: sti; hlt; (should wake into handler)
        m.mem.load(0x1000, &[0xfb, 0xf4]);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        assert_eq!(m.run(100_000), RunExit::Halted);
        assert_eq!(m.counters().timer_irqs, 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = machine_with(&[0x40, 0x40, 0x40, 0xfa, 0xf4]); // inc eax x3
        let snap = m.snapshot();
        assert_eq!(m.run(100), RunExit::Halted);
        assert_eq!(m.cpu.get(kfi_isa::Reg::Eax), 3);
        m.restore(&snap);
        assert_eq!(m.cpu.get(kfi_isa::Reg::Eax), 0);
        assert_eq!(m.cpu.eip, 0x1000);
        assert_eq!(m.run(100), RunExit::Halted);
        assert_eq!(m.cpu.get(kfi_isa::Reg::Eax), 3);
    }

    #[test]
    fn fork_matches_restore_and_is_isolated() {
        let mut m = machine_with(&[0x40, 0x40, 0x40, 0xfa, 0xf4]); // inc eax x3
        let snap = m.snapshot();
        assert_eq!(m.run(100), RunExit::Halted);

        // Two concurrent forks of the same snapshot, plus the original
        // restored: all three run to the same final state.
        let mut a = Machine::fork(&snap, *m.config());
        let mut b = Machine::fork(&snap, *m.config());
        m.restore(&snap);
        assert_eq!(a.cpu, m.cpu);
        assert_eq!(a.snapshot(), snap, "fork re-snapshots to equal contents");
        assert_eq!(a.run(100), RunExit::Halted);
        // Writes in fork `a` are invisible to fork `b` and to `m`.
        a.mem.write_u8(0x5000, 0xee);
        assert_eq!(b.mem.read_u8(0x5000), 0);
        assert_eq!(m.mem.read_u8(0x5000), 0);
        assert_eq!(b.run(100), RunExit::Halted);
        assert_eq!(m.run(100), RunExit::Halted);
        assert_eq!(a.cpu, b.cpu);
        assert_eq!(b.cpu, m.cpu);
        assert_eq!(a.counters(), m.counters());

        // A fork's first restore of its own base snapshot is already a
        // dirty-page restore, and brings it back to snapshot state.
        a.restore(&snap);
        assert_eq!(a.cpu, snap.cpu);
        assert_eq!(a.mem.read_u8(0x5000), 0);
        assert_eq!(a.run(100), RunExit::Halted);
        assert_eq!(a.cpu.get(kfi_isa::Reg::Eax), 3);
    }

    #[test]
    #[should_panic(expected = "fork config memory size mismatch")]
    fn fork_rejects_mismatched_memory_size() {
        let m = machine_with(&[0xf4]);
        let snap = m.snapshot();
        let _ = Machine::fork(&snap, MachineConfig { phys_mem: 4096, ..*m.config() });
    }

    #[test]
    fn block_device_dma() {
        let mut m = machine_with(&[]);
        let mut disk = Ramdisk::new(8);
        let mut sect = [0u8; SECTOR_SIZE];
        sect[0] = 0x5a;
        sect[511] = 0xa5;
        disk.write_sector(3, &sect);
        m.disk = Some(disk);
        // Program the latches directly via port_out (host-side test).
        m.port_out(ports::BLK_LBA, 3);
        m.port_out(ports::BLK_DMA, 0x7000);
        m.port_out(ports::BLK_CMD, 1);
        assert_eq!(m.port_in(ports::BLK_STATUS), 0);
        assert_eq!(m.mem.read_u8(0x7000), 0x5a);
        assert_eq!(m.mem.read_u8(0x7000 + 511), 0xa5);
        // Write path.
        m.mem.write_u8(0x7000, 0x77);
        m.port_out(ports::BLK_CMD, 2);
        let mut back = [0u8; SECTOR_SIZE];
        m.disk.as_mut().unwrap().read_sector(3, &mut back);
        assert_eq!(back[0], 0x77);
        // Out-of-range -> error status.
        m.port_out(ports::BLK_LBA, 999);
        m.port_out(ports::BLK_CMD, 1);
        assert_eq!(m.port_in(ports::BLK_STATUS), 1);
    }

    #[test]
    fn cycle_limit_is_watchdog() {
        let mut m = machine_with(&[0xeb, 0xfe]); // jmp self
        assert_eq!(m.run(500), RunExit::CycleLimit);
    }
}
#[cfg(test)]
mod sanitizer_tests {
    use super::*;

    fn sanitized(code: &[u8]) -> Machine {
        let mut m = Machine::new(MachineConfig {
            timer_enabled: false,
            sanitizer: true,
            ..Default::default()
        });
        m.mem.load(0x1000, code);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        m
    }

    #[test]
    fn clean_program_has_no_violations() {
        // add $1,%eax x3; push/pop; cli; hlt — ALU flags, stack, halt.
        let mut m = sanitized(&[0x40, 0x40, 0x40, 0x50, 0x58, 0xfa, 0xf4]);
        assert_eq!(m.run(1000), RunExit::Halted);
        assert_eq!(m.sanitizer_violations(), &[] as &[String]);
        assert_eq!(m.sanitizer_violation_count(), 0);
    }

    #[test]
    fn page_fault_and_mov_to_cr2_are_legal_cr2_writers() {
        // Identity-map the low 4 MiB minus the page at 0x6000, fault on
        // it, handle via IDT vector 14 -> cli;hlt handler.
        let mut m = sanitized(&[]);
        let cr3 = 0x4000u32;
        let pt = 0x5000u32;
        m.mem.write_u32(cr3, pt | 7);
        for i in 0..1024u32 {
            m.mem.write_u32(pt + i * 4, (i << 12) | 3);
        }
        m.mem.write_u32(pt + 6 * 4, 0);
        m.cpu.idt_base = 0x2000;
        m.mem.write_u32(0x2000 + 14 * 8, 0x3000);
        m.mem.write_u32(0x2000 + 14 * 8 + 4, 1);
        m.mem.load(0x3000, &[0xfa, 0xf4]); // handler: cli; hlt
                                           // mov %eax,%cr2 ; mov 0x6000,%eax (#PF)
        m.mem.load(0x1000, &[0x0f, 0x22, 0xd0, 0xa1, 0x00, 0x60, 0x00, 0x00]);
        m.cpu.set_reg(0, 0xdead_0000);
        m.cpu.cr3 = cr3;
        m.cpu.cr0 |= crate::cpu::CR0_PG;
        assert_eq!(m.run(10_000), RunExit::Halted);
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::PageFault));
        assert_eq!(m.cpu.cr2, 0x6000);
        assert_eq!(m.sanitizer_violations(), &[] as &[String]);
    }

    #[test]
    fn broken_flag_update_is_caught() {
        let mut m = Machine::new(MachineConfig {
            timer_enabled: false,
            sanitizer: true,
            flag_update_bug: true,
            ..Default::default()
        });
        m.mem.load(0x1000, &[0x83, 0xc0, 0x01, 0xfa, 0xf4]); // add $1,%eax; cli; hlt
        m.cpu.eip = 0x1000;
        assert_eq!(m.run(1000), RunExit::Halted);
        assert!(m.sanitizer_violation_count() > 0, "sanitizer missed the seeded flag bug");
        assert!(m.sanitizer_violations()[0].contains("non-canonical EFLAGS"));
    }

    #[test]
    fn decode_cache_hits_validated_against_fresh_decode() {
        // Tight loop so the cache serves hits; the re-decode must agree.
        let mut m = sanitized(&[0x48, 0x75, 0xfd, 0xfa, 0xf4]); // dec %eax; jne -3
        m.cpu.set_reg(0, 50);
        assert_eq!(m.run(100_000), RunExit::Halted);
        let (hits, _, _) = m.decode_stats();
        assert!(hits > 0, "loop must exercise the decode cache");
        assert_eq!(m.sanitizer_violations(), &[] as &[String]);
    }

    #[test]
    fn sanitizer_disabled_costs_nothing_and_reports_nothing() {
        let mut m = Machine::new(MachineConfig {
            timer_enabled: false,
            flag_update_bug: true, // bug present but no sanitizer watching
            ..Default::default()
        });
        m.mem.load(0x1000, &[0x40, 0xfa, 0xf4]);
        m.cpu.eip = 0x1000;
        assert_eq!(m.run(1000), RunExit::Halted);
        assert_eq!(m.sanitizer_violation_count(), 0);
    }
}

#[cfg(test)]
mod smp_tests {
    use super::*;

    /// CPU0 latches 0x2000 as the startup entry and boots CPU1, then
    /// spin-waits on a flag at 0x9000; CPU1 prints 'A', sets the flag,
    /// and halts; CPU0 prints 'B' and halts.
    fn startup_program(m: &mut Machine) {
        m.mem.load(
            0x1000,
            &[
                0xb8, 0x00, 0x20, 0x00, 0x00, // mov $0x2000,%eax
                0xe7, 0xf9, // out %eax,$0xf9 (latch entry)
                0xb8, 0x00, 0x01, 0x01, 0x00, // mov $0x10100,%eax
                0xe7, 0xf7, // out %eax,$0xf7 (startup -> CPU1)
                0xa1, 0x00, 0x90, 0x00, 0x00, // spin: mov 0x9000,%eax
                0x83, 0xf8, 0x01, // cmp $1,%eax
                0x75, 0xf6, // jne spin
                0xb0, b'B', 0xe6, 0xe9, // out 'B'
                0xfa, 0xf4, // cli; hlt
            ],
        );
        m.mem.load(
            0x2000,
            &[
                0xb0, b'A', 0xe6, 0xe9, // out 'A'
                0xc7, 0x05, 0x00, 0x90, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // movl $1,0x9000
                0xfa, 0xf4, // cli; hlt
            ],
        );
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
    }

    fn smp_machine(cpus: u32) -> Machine {
        Machine::new(MachineConfig { timer_enabled: false, cpus, ..Default::default() })
    }

    #[test]
    fn startup_ipi_brings_a_second_cpu_online() {
        let mut m = smp_machine(2);
        startup_program(&mut m);
        assert_eq!(m.run(1_000_000), RunExit::Halted);
        // CPU1 must have printed before CPU0 saw the flag.
        assert_eq!(m.console_string(), "AB");
        assert!(m.cpu_state(1).halted);
        assert_eq!(m.cpu_state(1).eip & !0xfff, 0x2000);
    }

    #[test]
    fn parked_secondary_cpu_is_observationally_invisible() {
        // The same program, timer on, never starting CPU1: a 2-CPU
        // machine must match the 1-CPU machine in every observable.
        let run = |cpus: u32| {
            let mut m =
                Machine::new(MachineConfig { timer_period: 100, cpus, ..Default::default() });
            m.cpu.idt_base = 0x2000;
            m.mem.write_u32(0x2000 + 0x20 * 8, 0x3000);
            m.mem.write_u32(0x2000 + 0x20 * 8 + 4, 1);
            m.mem.load(0x3000, &[0x43, 0xcf]); // inc %ebx; iret
            m.mem.load(0x1000, &[0xfb, 0x48, 0x75, 0xfd, 0xfa, 0xf4]); // sti; dec; jne; cli; hlt
            m.cpu.set_reg(0, 5_000);
            m.cpu.eip = 0x1000;
            m.cpu.set_reg(4, 0x8000);
            assert_eq!(m.run(10_000_000), RunExit::Halted);
            m
        };
        let up = run(1);
        let smp = run(2);
        assert_eq!(up.cpu, smp.cpu);
        assert_eq!(up.counters(), smp.counters());
        assert_eq!(up.console(), smp.console());
        assert_eq!(up.trap_log(), smp.trap_log());
    }

    #[test]
    fn resched_ipi_wakes_a_sleeping_cpu() {
        let mut m = smp_machine(2);
        // IDT vector 0x21 -> handler at 0x4000 (prints 'R', iret).
        m.cpu.idt_base = 0x3000;
        m.mem.write_u32(0x3000 + 0x21 * 8, 0x4000);
        m.mem.write_u32(0x3000 + 0x21 * 8 + 4, 1);
        m.mem.load(0x4000, &[0xb0, b'R', 0xe6, 0xe9, 0xcf]);
        m.mem.load(
            0x1000,
            &[
                0xb8, 0x00, 0x20, 0x00, 0x00, // mov $0x2000,%eax
                0xe7, 0xf9, // latch entry
                0xb8, 0x00, 0x01, 0x01, 0x00, // startup -> CPU1
                0xe7, 0xf7, //
                0xfb, 0xf4, // sti; hlt (wait for the doorbell)
                0xfa, 0xf4, // cli; hlt
            ],
        );
        m.mem.load(
            0x2000,
            &[
                0xb8, 0x00, 0x00, 0x00, 0x00, // mov $0,%eax (resched -> CPU0)
                0xe7, 0xf7, // out %eax,$0xf7
                0xfa, 0xf4, // cli; hlt
            ],
        );
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        assert_eq!(m.run(1_000_000), RunExit::Halted);
        assert_eq!(m.console_string(), "R");
        assert_eq!(m.counters().ipis, 1);
        assert!(m.trap_log().is_empty(), "an IPI is not a fault");
    }

    #[test]
    fn dropped_resched_ipi_leaves_the_target_asleep() {
        let mut m = Machine::new(MachineConfig {
            timer_enabled: false,
            cpus: 2,
            ipi_drop_bug: true,
            ..Default::default()
        });
        m.cpu.idt_base = 0x3000;
        m.mem.write_u32(0x3000 + 0x21 * 8, 0x4000);
        m.mem.write_u32(0x3000 + 0x21 * 8 + 4, 1);
        m.mem.load(0x4000, &[0xb0, b'R', 0xe6, 0xe9, 0xcf]);
        m.mem.load(
            0x1000,
            &[
                0xb8, 0x00, 0x20, 0x00, 0x00, 0xe7, 0xf9, // latch
                0xb8, 0x00, 0x01, 0x01, 0x00, 0xe7, 0xf7, // startup -> CPU1
                0xfb, 0xf4, // sti; hlt — sleeps forever: the doorbell is dropped
                0xfa, 0xf4,
            ],
        );
        m.mem.load(0x2000, &[0xb8, 0x00, 0x00, 0x00, 0x00, 0xe7, 0xf7, 0xfa, 0xf4]);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        // CPU1 halts after its (dropped) send; CPU0 sleeps with IF set
        // but no timer and no pending IPI — nothing can ever wake it,
        // so the whole machine reports Halted with the handler unrun.
        assert_eq!(m.run(200_000), RunExit::Halted);
        assert_eq!(m.console_string(), "");
        assert_eq!(m.counters().ipis, 0);
    }

    #[test]
    fn interleaving_is_deterministic_for_a_fixed_seed_and_quantum() {
        let mk = || {
            let mut m = Machine::new(MachineConfig {
                timer_enabled: false,
                cpus: 2,
                smp_quantum: 7,
                smp_seed: 0xfeed_beef,
                ..Default::default()
            });
            startup_program(&mut m);
            m
        };
        let (mut a, mut b) = (mk(), mk());
        let mut schedule = Vec::new();
        loop {
            assert_eq!(a.active_cpu(), b.active_cpu(), "schedules diverged");
            assert_eq!(a.smp_digest(), b.smp_digest(), "state diverged");
            schedule.push(a.active_cpu());
            let (ea, eb) = (a.step(), b.step());
            assert_eq!(ea, eb);
            if ea == StepEvent::Halted {
                break;
            }
        }
        // Both CPUs actually got scheduled (the interleaving is real).
        assert!(schedule.contains(&0) && schedule.contains(&1));
        assert_eq!(a.console_string(), "AB");
    }

    #[test]
    fn different_seeds_change_the_schedule_but_not_the_outcome() {
        let run = |seed: u64| {
            let mut m = Machine::new(MachineConfig {
                timer_enabled: false,
                cpus: 2,
                smp_quantum: 9,
                smp_seed: seed,
                ..Default::default()
            });
            startup_program(&mut m);
            assert_eq!(m.run(1_000_000), RunExit::Halted);
            (m.console_string(), m.max_tsc())
        };
        let (ca, ta) = run(1);
        let (cb, tb) = run(2);
        assert_eq!(ca, "AB");
        assert_eq!(cb, "AB");
        // The interleavings differ (almost surely visible as timing).
        assert_ne!(ta, tb, "distinct seeds should yield distinct interleavings");
    }

    #[test]
    fn smp_snapshot_restore_and_fork_roundtrip() {
        let mut m = smp_machine(2);
        startup_program(&mut m);
        // Step into the middle of the cross-CPU dance, snapshot there.
        for _ in 0..100 {
            m.step();
        }
        let snap = m.snapshot();
        let console_at_snap = m.console().len();
        assert_eq!(m.run(1_000_000), RunExit::Halted);
        let final_console = m.console_string();
        // Restore clears the console, so the replay reproduces only the
        // post-snapshot suffix of the output.
        let replay_console = &final_console[console_at_snap..];
        let final_digest = m.smp_digest();

        m.restore(&snap);
        assert_eq!(m.snapshot(), snap, "restore reproduces the snapshot");
        assert_eq!(m.run(1_000_000), RunExit::Halted);
        assert_eq!(m.console_string(), replay_console);
        assert_eq!(m.smp_digest(), final_digest);

        let mut f = Machine::fork(&snap, *m.config());
        assert_eq!(f.snapshot(), snap, "fork starts at the snapshot");
        assert_eq!(f.run(1_000_000), RunExit::Halted);
        assert_eq!(f.console_string(), replay_console);
        assert_eq!(f.smp_digest(), final_digest);
    }

    #[test]
    fn reset_secondary_cpus_parks_the_world() {
        let mut m = smp_machine(2);
        startup_program(&mut m);
        assert_eq!(m.run(1_000_000), RunExit::Halted);
        m.reset_secondary_cpus();
        assert_eq!(m.active_cpu(), 0);
        assert!(m.cpu_state(1).halted);
        assert_eq!(m.cpu_state(1).eip, 0);
        assert_eq!(m.cpu_state(1).tsc, 0);
    }

    #[test]
    fn cpu_id_and_ncpus_ports() {
        // in %eax,$0xf5 (CPU id) -> console; in %eax,$0xf6 (ncpus) -> console.
        let code: &[u8] = &[
            0xe5, 0xf5, // in $0xf5,%eax
            0x04, b'0', // add $'0',%al
            0xe6, 0xe9, // out %al,$0xe9
            0xe5, 0xf6, // in $0xf6,%eax
            0x04, b'0', // add $'0',%al
            0xe6, 0xe9, // out %al,$0xe9
            0xfa, 0xf4, // cli; hlt
        ];
        let mut up = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        up.mem.load(0x1000, code);
        up.cpu.eip = 0x1000;
        assert_eq!(up.run(1_000), RunExit::Halted);
        assert_eq!(up.console_string(), "01");

        let mut smp = smp_machine(3);
        smp.mem.load(0x1000, code);
        smp.cpu.eip = 0x1000;
        assert_eq!(smp.run(10_000), RunExit::Halted);
        assert_eq!(smp.console_string(), "03");
    }

    /// Runs `mk`'s program to its halt twice — single-stepping, and
    /// through [`Machine::run`] — and requires identical full states:
    /// every CPU, the scheduler position and jitter state (the smp
    /// digest), memory, logs, counters, and cache and TLB statistics.
    fn assert_run_matches_stepping(mk: impl Fn() -> Machine) -> Machine {
        let mut stepped = mk();
        let mut steps = 0u32;
        while stepped.step() != StepEvent::Halted {
            steps += 1;
            assert!(steps < 1_000_000, "the stepped reference never halted");
        }
        let mut ran = mk();
        assert_eq!(ran.run(10_000_000), RunExit::Halted);
        assert!(ran.block_stats().0 > 0, "run must have replayed blocks");
        assert_eq!(ran.smp_digest(), stepped.smp_digest());
        for i in 0..ran.cpus() as usize {
            assert_eq!(ran.cpu_state(i), stepped.cpu_state(i), "CPU {i}");
        }
        assert_eq!(ran.counters(), stepped.counters());
        assert_eq!(ran.console(), stepped.console());
        assert_eq!(ran.monitor_events(), stepped.monitor_events());
        assert_eq!(ran.trap_log(), stepped.trap_log());
        assert_eq!(ran.tlb_stats(), stepped.tlb_stats());
        assert_eq!(ran.decode_stats(), stepped.decode_stats());
        assert_eq!(ran.mem.digest(), stepped.mem.digest());
        ran
    }

    fn jittered_smp_machine(smp_seed: u64) -> Machine {
        Machine::new(MachineConfig {
            timer_enabled: false,
            cpus: 2,
            smp_quantum: 7,
            smp_seed,
            ..Default::default()
        })
    }

    #[test]
    fn self_ipi_mid_trace_runs_like_single_stepping() {
        // A 1000-iteration loop whose 951st iteration rings CPU 0's own
        // reschedule doorbell from the middle of a hot trace. The
        // handler logs the iteration count (EBX) it interrupted, so an
        // IPI delivered even one instruction late shows.
        for smp_seed in [0, 0x5eed_f00d] {
            let ran = assert_run_matches_stepping(|| {
                let mut m = jittered_smp_machine(smp_seed);
                m.cpu.idt_base = 0x3000;
                m.mem.write_u32(0x3000 + 0x21 * 8, 0x4000);
                m.mem.write_u32(0x3000 + 0x21 * 8 + 4, 1);
                // mov %ebx,%eax; out %eax,$0xf1; iret
                m.mem.load(0x4000, &[0x89, 0xd8, 0xe7, 0xf1, 0xcf]);
                m.mem.load(
                    0x1000,
                    &[
                        0xfb, // sti
                        0xb9, 0xe8, 0x03, 0, 0,    // mov $1000,%ecx
                        0x43, // loop: inc %ebx
                        0x83, 0xf9, 50, // cmp $50,%ecx
                        0x75, 0x07, // jne skip
                        0xb8, 0, 0, 0, 0, // mov $0,%eax (reschedule -> CPU 0)
                        0xe7, 0xf7, // out %eax,$0xf7
                        0x42, // skip: inc %edx
                        0x49, // dec %ecx
                        0x75, 0xef, // jne loop
                        0xfa, 0xf4, // cli; hlt
                    ],
                );
                m.cpu.eip = 0x1000;
                m.cpu.set_reg(4, 0x8000);
                m
            });
            assert_eq!(ran.counters().ipis, 1);
            assert!(matches!(ran.monitor_events(), [(_, MonitorEvent::Result(951))]));
        }
    }

    #[test]
    fn waking_the_other_cpu_mid_trace_runs_like_single_stepping() {
        // CPU 0 sums a shared counter over a 1000-iteration loop and,
        // in its 951st iteration, starts CPU 1, which bumps that counter
        // 20 times and halts. The sum depends on every interleaving
        // decision, and CPU 0 runs alone both before and after.
        for smp_seed in [0, 0x5eed_f00d] {
            let ran = assert_run_matches_stepping(|| {
                let mut m = jittered_smp_machine(smp_seed);
                m.mem.load(
                    0x1000,
                    &[
                        0xb9, 0xe8, 0x03, 0, 0, // mov $1000,%ecx
                        0x03, 0x35, 0x00, 0x90, 0, 0, // loop: add 0x9000,%esi
                        0x83, 0xf9, 50, // cmp $50,%ecx
                        0x75, 0x0e, // jne skip
                        0xb8, 0x00, 0x20, 0, 0, // mov $0x2000,%eax
                        0xe7, 0xf9, // out %eax,$0xf9 (latch entry)
                        0xb8, 0x00, 0x01, 0x01, 0x00, // mov $0x10100,%eax
                        0xe7, 0xf7, // out %eax,$0xf7 (startup -> CPU 1)
                        0x42, // skip: inc %edx
                        0x49, // dec %ecx
                        0x75, 0xe3, // jne loop
                        0xfa, 0xf4, // cli; hlt
                    ],
                );
                m.mem.load(
                    0x2000,
                    &[
                        0xb9, 20, 0, 0, 0, // mov $20,%ecx
                        0xff, 0x05, 0x00, 0x90, 0, 0,    // loop: incl 0x9000
                        0x49, // dec %ecx
                        0x75, 0xf7, // jne loop
                        0xfa, 0xf4, // cli; hlt
                    ],
                );
                m.cpu.eip = 0x1000;
                m.cpu.set_reg(4, 0x8000);
                m
            });
            assert!(ran.cpu_state(1).halted && ran.cpu_state(1).tsc > 0, "CPU 1 ran");
            assert_eq!(ran.mem.read_u32(0x9000), 20);
        }
    }

    #[test]
    fn uniprocessor_machine_allocates_no_smp_state() {
        let m = Machine::new(MachineConfig::default());
        assert_eq!(m.cpus(), 1);
        assert_eq!(m.active_cpu(), 0);
        assert_eq!(m.smp_digest(), 0);
        // And its snapshots carry no SMP payload, so pre-SMP snapshot
        // equality semantics are untouched.
        assert!(m.snapshot().smp.is_none());
    }
}

#[cfg(test)]
mod residue_tests {
    use super::*;
    use crate::cpu::CR0_PG;

    /// A machine with paging on over an identity map of the low 4 MiB,
    /// a translation resident for page 0x6000, an IDT base and
    /// programmed block latches: every residue component is non-default.
    fn used_machine(cpus: u32) -> Machine {
        let mut m = Machine::new(MachineConfig { cpus, ..Default::default() });
        m.mem.write_u32(0x4000, 0x5000 | 7);
        for i in 0..1024u32 {
            m.mem.write_u32(0x5000 + i * 4, (i << 12) | 3);
        }
        m.cpu.cr3 = 0x4000;
        m.cpu.cr0 |= CR0_PG;
        assert_eq!(m.probe_translate(0x6000), Some(0x6000));
        m.cpu.idt_base = 0x2000;
        m.next_tick = 123_456;
        m.port_out(ports::BLK_LBA, 7);
        m.port_out(ports::BLK_DMA, 0x7000);
        m.port_out(ports::BLK_CMD, 1); // no disk attached: status 1
        m
    }

    /// What the boot loader resets (`kfi_kernel::load_into`, minus
    /// loading an image).
    fn reboot_reset(m: &mut Machine) {
        m.mem.clear();
        m.clear_logs();
        m.reset_secondary_cpus();
        m.cpu.regs = [0; 8];
        m.cpu.cs = KERNEL_CS;
        m.cpu.cr3 = 0x9000;
        m.cpu.cr0 = CR0_PG;
        m.cpu.cr2 = 0;
        m.cpu.eip = 0xc010_0000;
        m.cpu.esp0 = 0xc009_0000;
        m.cpu.eflags = kfi_isa::Eflags::new();
        m.cpu.halted = false;
        m.cpu.dr7 = 0;
        m.cpu.tsc = 0;
    }

    #[test]
    fn every_component_changes_the_residue() {
        let base = used_machine(1).reset_residue();
        let changes = |what: &str, mutate: &dyn Fn(&mut Machine)| {
            let mut m = used_machine(1);
            mutate(&mut m);
            assert_ne!(m.reset_residue(), base, "{what} must be part of the residue");
        };
        changes("timer deadline", &|m| m.next_tick += 1);
        changes("IDT base", &|m| m.cpu.idt_base += 8);
        changes("TLB flush", &|m| m.tlb.flush());
        changes("TLB insert", &|m| assert!(m.probe_translate(0x8000).is_some()));
        changes("LBA latch", &|m| m.port_out(ports::BLK_LBA, 8));
        changes("DMA latch", &|m| m.port_out(ports::BLK_DMA, 0x8000));
        changes("status latch", &|m| {
            m.disk = Some(Ramdisk::new(8));
            m.port_out(ports::BLK_CMD, 1); // LBA 7 exists: status 0
        });
    }

    #[test]
    fn reboot_reset_leaves_the_residue_unchanged() {
        let mut m = used_machine(1);
        let before = m.reset_residue();
        m.cpu.arm_breakpoint(2, 0x1234);
        m.cpu.tsc = 99_999;
        m.console.push(b'x');
        reboot_reset(&mut m);
        assert_eq!(m.reset_residue(), before);
    }

    #[test]
    fn smp_residue_is_cpu0s_even_while_another_cpu_is_active() {
        let mut m = used_machine(2);
        let cpu0 = m.reset_residue();
        m.smp_switch(1);
        assert_eq!(m.active_cpu(), 1);
        // CPU 1's live state is not the residue: the reset discards it.
        m.cpu.idt_base = 0x3000;
        m.next_tick = 1;
        m.tlb.flush();
        assert_eq!(m.reset_residue(), cpu0, "read from CPU 0's parked context");
        reboot_reset(&mut m);
        assert_eq!(m.active_cpu(), 0);
        assert_eq!(m.reset_residue(), cpu0);
    }
}

#[cfg(test)]
mod reboot_tests {
    use super::*;

    #[test]
    fn clear_logs_ends_a_triple_fault() {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        m.mem.load(0x1000, &[0x0f, 0x0b]); // ud2 with no IDT -> triple fault
        m.cpu.eip = 0x1000;
        assert_eq!(m.run(1000), RunExit::TripleFault);
        // A "reboot" must clear the latched condition.
        m.clear_logs();
        m.mem.clear();
        m.mem.load(0x1000, &[0xfa, 0xf4]); // cli; hlt
        m.cpu = crate::cpu::Cpu::new(0x1000);
        assert_eq!(m.run(1000), RunExit::Halted);
    }
}
