//! The injection rig: boot-snapshot management, golden runs, coverage,
//! single-run execution and outcome classification.

use crate::outcome::{CrashInfo, FsvKind, Outcome, RunRecord, Severity};
use crate::target::InjectionTarget;
use kfi_kernel::layout::{causes, events};
use kfi_kernel::{boot, fsck, mkfs::FileSpec, BootConfig, FsckReport, KernelImage};
use kfi_machine::{
    Checkpoint, Cpu, DiskImage, ExecTier, Machine, MachineConfig, MonitorEvent, Ramdisk,
    ResetResidue, ResidueFootprint, RunExit, Snapshot, StepEvent, StepObserver, TrapRecord, Vector,
};
use kfi_trace::{outcome as trace_outcome, subsystem as trace_subsystem};
use kfi_trace::{Event, EventKind, Metrics, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Rig configuration.
#[derive(Debug, Clone, Copy)]
pub struct RigConfig {
    /// Multiplier on the golden run length for the per-injection-run
    /// hang watchdog: each run's cycle budget is
    /// `golden.cycles * budget_factor + budget_slack`. This budget
    /// governs *injection* runs only — the golden capture itself is
    /// watched by [`RigConfig::golden_budget`] (it has no golden run to
    /// derive a multiplier from).
    pub budget_factor: u64,
    /// Extra flat cycle budget per injection run, added on top of the
    /// `budget_factor` multiple (see there).
    pub budget_slack: u64,
    /// The machine's execution tier (default [`ExecTier::Chained`]; the
    /// reference tiers are for equivalence tests). Campaign results,
    /// including the golden CSV, are bit-identical on every tier.
    pub tier: ExecTier,
    /// Cycle budget for reaching the post-boot snapshot point. Booting
    /// past this without the runner announcing itself is a clean
    /// [`RigError::BootFailed`], not a wedged rig.
    pub boot_budget: u64,
    /// Cycle budget for each golden (fault-free) reference run. The
    /// budget is measured from the snapshot point — boot cycles do not
    /// eat into it — and exceeding it surfaces as a clean
    /// [`RigError::GoldenFailed`], never a wedged rig. A capture that
    /// takes exactly this many cycles still succeeds (the boundary is
    /// pinned by `tests/budgets.rs`).
    pub golden_budget: u64,
    /// Whether the machine's per-step architectural-state sanitizer is
    /// enabled (see [`kfi_machine::MachineConfig::sanitizer`]).
    /// Violations observed during a run are counted into
    /// [`RunRecord::sanitizer_violations`] and the rig metrics.
    pub sanitizer: bool,
    /// Number of guest CPUs (see [`kfi_machine::MachineConfig::cpus`]).
    /// The default 1 is the golden-corpus configuration — the machine
    /// is structurally identical to the pre-SMP uniprocessor. Values
    /// above 1 only bring application processors online when the
    /// kernel was built with [`kfi_kernel::KernelBuildOptions::smp`].
    pub cpus: u32,
}

impl Default for RigConfig {
    fn default() -> RigConfig {
        RigConfig {
            budget_factor: 6,
            budget_slack: 2_000_000,
            tier: ExecTier::Chained,
            boot_budget: 80_000_000,
            golden_budget: 400_000_000,
            sanitizer: false,
            cpus: 1,
        }
    }
}

/// A golden (fault-free) reference run for one workload mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    /// Run mode.
    pub mode: u32,
    /// Console output from the post-boot snapshot to the clean halt.
    pub console: String,
    /// Result values reported by the workload(s).
    pub results: Vec<u32>,
    /// Cycles from snapshot to halt.
    pub cycles: u64,
    /// `(offset into kernel text, first-hit tick)` of every instruction
    /// address the run reached in kernel mode, ascending by offset. The
    /// first-hit tick of an address is the number of tick cuts
    /// ([`Machine::tick_due`] at a step boundary) at or before the first
    /// step boundary where some CPU was about to execute it.
    first_hits: Vec<(u32, u32)>,
}

impl GoldenRun {
    /// True when the golden run executed the instruction at `addr`.
    pub fn covers(&self, addr: u32, text_base: u32) -> bool {
        self.first_hit(addr, text_base).is_some()
    }

    /// The first-hit tick of the instruction at `addr` (see the field
    /// docs), or `None` when the golden run never executed it. A run
    /// with a breakpoint at `addr` cannot stop before the tick cut of
    /// that index, which is where a forked rig resumes it from
    /// ([`InjectorRig::run_one`]).
    pub fn first_hit(&self, addr: u32, text_base: u32) -> Option<u32> {
        let off = addr.checked_sub(text_base)?;
        let i = self.first_hits.binary_search_by_key(&off, |&(o, _)| o).ok()?;
        Some(self.first_hits[i].1)
    }
}

/// The golden capture's [`StepObserver`]: counts tick cuts, records
/// the first hit of every kernel-text address some CPU is about to
/// execute at a step boundary ([`GoldenRun::first_hit`]), and passes
/// every executed step on to `on_step`.
struct FirstHits<F> {
    text_base: u32,
    text_len: u32,
    /// The offsets seen so far, as a bitset, so that the per-step check
    /// stays cheap; each first hit is appended once, and sorted at the
    /// end.
    seen: Vec<u64>,
    first_hits: Vec<(u32, u32)>,
    ticks: u32,
    on_step: F,
}

impl<F: FnMut(&Cpu)> FirstHits<F> {
    fn new(image: &KernelImage, on_step: F) -> FirstHits<F> {
        let text_len = image.program.text.bytes.len() as u32;
        FirstHits {
            text_base: image.program.text.base,
            text_len,
            seen: vec![0; (text_len as usize).div_ceil(64)],
            first_hits: Vec::new(),
            ticks: 0,
            on_step,
        }
    }

    fn into_sorted(mut self) -> Vec<(u32, u32)> {
        self.first_hits.sort_unstable();
        self.first_hits
    }
}

impl<F: FnMut(&Cpu)> StepObserver for FirstHits<F> {
    /// Counts the tick cut, then records the first hit: an address
    /// reached on a tick-due boundary is hit at that cut.
    #[inline]
    fn boundary(&mut self, cpu: &Cpu, tick: bool) {
        self.ticks += u32::from(tick);
        if cpu.cs != kfi_machine::KERNEL_CS {
            return;
        }
        if let Some(off) = cpu.eip.checked_sub(self.text_base).filter(|&o| o < self.text_len) {
            let (w, bit) = ((off / 64) as usize, 1 << (off % 64));
            if self.seen[w] & bit == 0 {
                self.seen[w] |= bit;
                self.first_hits.push((off, self.ticks));
            }
        }
    }

    #[inline]
    fn executed(&mut self, cpu: &Cpu) {
        (self.on_step)(cpu);
    }
}

/// Why the rig could not be constructed.
#[derive(Debug)]
pub enum RigError {
    /// The kernel never reported BOOT_OK.
    BootFailed(String),
    /// A golden run did not complete cleanly.
    GoldenFailed {
        /// The failing run mode.
        mode: u32,
        /// Console output of the failing run.
        console: String,
    },
}

impl std::fmt::Display for RigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RigError::BootFailed(c) => write!(f, "kernel failed to boot: {c}"),
            RigError::GoldenFailed { mode, console } => {
                write!(f, "golden run for mode {mode} failed: {console}")
            }
        }
    }
}

impl std::error::Error for RigError {}

/// A campaign-wide exactly-once memo: each key's value is captured once
/// across all workers and shared afterwards.
///
/// The first asker for a key runs the capture while holding the key's
/// slot; concurrent askers block on that slot until it is filled and
/// then share the value. A capture may decline to be kept (see
/// [`OnceStore::get_or_capture_if`]); the slot then stays empty and the
/// next asker captures again. A poisoned slot (a capture that panicked)
/// is empty in the same way.
///
/// Three memos use it:
/// * [`CheckpointStore`]: prefix checkpoints by `(workload mode, tick)`;
/// * [`PowerOnStore`]: power-on severity reboots by crash disk;
/// * [`SeverityStore`]: post-crash severity verdicts by
///   [`SeverityKey`], for residues the power-on reboot read.
pub struct OnceStore<K, V> {
    #[allow(clippy::type_complexity)]
    entries: Mutex<BTreeMap<K, Arc<Mutex<Option<V>>>>>,
    hits: AtomicU64,
    captures: AtomicU64,
}

impl<K, V> Default for OnceStore<K, V> {
    fn default() -> Self {
        OnceStore {
            entries: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            captures: AtomicU64::new(0),
        }
    }
}

impl<K: Ord, V: Clone> OnceStore<K, V> {
    /// Returns the memoized value for `key`, running `capture` to
    /// produce it if this is the first request. Concurrent first
    /// requests for the same key execute `capture` once; the losers
    /// block until the winner finishes.
    pub fn get_or_capture(&self, key: K, capture: impl FnOnce() -> V) -> V {
        self.get_or_capture_if(key, || (capture(), true))
    }

    /// Like [`OnceStore::get_or_capture`], but `capture` also says
    /// whether its value may be kept. A value it declines goes to this
    /// caller only.
    pub fn get_or_capture_if(&self, key: K, capture: impl FnOnce() -> (V, bool)) -> V {
        let slot = self.entries.lock().expect("once store lock").entry(key).or_default().clone();
        // A slot is written once, after its capture returned, so a
        // capture that panicked left it empty and valid.
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = slot.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.captures.fetch_add(1, Ordering::Relaxed);
        let (v, keep) = capture();
        if keep {
            *slot = Some(v.clone());
        }
        v
    }

    /// The greatest key at or below `key` whose value is stored, with
    /// that value. A slot whose capture is still running reads as empty
    /// (this never blocks on one).
    pub fn floor(&self, key: &K) -> Option<(K, V)>
    where
        K: Clone,
    {
        let entries = self.entries.lock().expect("once store lock");
        entries.range(..=key).rev().find_map(|(k, slot)| {
            let v = slot.try_lock().ok()?.clone()?;
            Some((k.clone(), v))
        })
    }

    /// Number of captures actually executed (one per distinct key,
    /// regardless of how many rigs asked, plus one per declined value).
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Number of requests served from the memo without executing.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// A post-crash disk as `(lba, bytes)` of the sectors that differ from
/// the post-boot [`DiskImage`] ([`Ramdisk::delta_from`]).
pub type DiskDelta = Vec<(u32, Vec<u8>)>;

/// Everything the post-crash severity assessment reads that can differ
/// between crashes of one [`RigShared`] (whose image, manifest, post-boot
/// disk and configuration are fixed): the disk and the machine state the
/// reboot inherits.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeverityKey {
    /// The post-crash disk.
    disk: DiskDelta,
    /// The machine state the reboot does not reset
    /// ([`Machine::reset_residue`]).
    residue: ResetResidue,
}

/// The memo of post-crash severity verdicts for residues the power-on
/// reboot of their disk read ([`PowerOnStore`]): one fsck and reboot per
/// distinct [`SeverityKey`].
pub type SeverityStore = OnceStore<SeverityKey, (Severity, FsckReport)>;

/// The memo of power-on severity reboots: per distinct crash disk, one
/// fsck and one reboot from the [power-on residue](ResetResidue::power_on)
/// under the residue observer. Its verdict holds for every crash with
/// that disk whose residue the footprint admits. `None` for the
/// footprint means the fsck found the disk unrecoverable: there was no
/// reboot, and the verdict holds for every residue.
pub type PowerOnStore = OnceStore<DiskDelta, (Severity, FsckReport, Option<ResidueFootprint>)>;

/// How a [`RigShared`]'s crashes got their severity verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeverityStats {
    /// Severity assessments (one per crash run on a fork).
    pub crashes: u64,
    /// Reboots from the power-on residue: captures in the
    /// [`PowerOnStore`] whose fsck found the disk recoverable.
    pub power_on_reboots: u64,
    /// Reboots with a crash's own residue: captures in the
    /// [`SeverityStore`] (an unrecoverable disk never gets there).
    pub exact_reboots: u64,
    /// Assessments answered from the stores without an fsck or reboot.
    pub hits: u64,
}

impl std::fmt::Display for SeverityStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SeverityStats { crashes, power_on_reboots, exact_reboots, hits } = self;
        write!(
            f,
            "crashes={crashes} power_on_reboots={power_on_reboots} \
             exact_reboots={exact_reboots} hits={hits}"
        )
    }
}

/// The memo of prefix checkpoints: by `(workload mode, tick k)`, the
/// golden run's state at its `k`-th tick cut ([`Machine::run_to_tick`]),
/// for resuming injection runs whose target's first-hit tick is `k`.
/// Filled lazily during the campaign; a capture cut short is not stored.
pub type CheckpointStore = OnceStore<(u32, u32), Option<Arc<Checkpoint>>>;

/// How a [`RigShared`]'s injection runs used prefix checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Checkpoints captured and stored.
    pub captured: u64,
    /// Injection runs resumed from a checkpoint instead of the snapshot.
    pub resumed: u64,
    /// Golden-prefix cycles those runs did not execute.
    pub skipped_cycles: u64,
    /// Heap bytes the stored checkpoints hold beyond what they share
    /// ([`Checkpoint::fresh_bytes`]).
    pub bytes: u64,
}

impl std::fmt::Display for CheckpointStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let CheckpointStats { captured, resumed, skipped_cycles, bytes } = self;
        write!(
            f,
            "captured={captured} resumed={resumed} skipped_cycles={skipped_cycles} bytes={bytes}"
        )
    }
}

/// The shared, immutable post-boot base of a campaign: one boot's worth
/// of state (kernel image, [`Snapshot`] with shared memory pages,
/// [`DiskImage`] of the post-boot disk, filesystem manifest) with every
/// workload mode's golden run, captured on the booted machine before
/// the base is shared, plus the campaign-wide [`CheckpointStore`],
/// [`PowerOnStore`] and [`SeverityStore`].
///
/// Boot once with [`RigShared::boot`], then hand the `Arc` to every
/// worker; each [`InjectorRig::fork`] builds a private copy-on-write
/// machine off the shared snapshot, reads the golden runs through the
/// base and resolves its checkpoints and severity verdicts through the
/// stores. Nothing but the stores is ever written after construction,
/// and they only gain exact answers, so any number of threads may fork
/// concurrently — and a worker that poisons its private rig (panic,
/// sanitizer violation) can be handed a fresh fork with no way to have
/// contaminated the base.
pub struct RigShared {
    image: Arc<KernelImage>,
    config: RigConfig,
    machine_config: MachineConfig,
    snapshot: Snapshot,
    /// The campaign clock at the snapshot: the boot's duration in cycles.
    boot_cycles: u64,
    post_boot_disk: DiskImage,
    manifest: Arc<BTreeMap<String, (u32, u32)>>,
    /// The golden run of every workload mode. The paper keys a run by
    /// `(function, workload, kernel config)`, but a golden run arms no
    /// breakpoint and flips no bit, so one run per workload serves every
    /// function, and the kernel config is the base's own.
    golden: Vec<Arc<GoldenRun>>,
    /// Whether forks resume runs from prefix checkpoints and take
    /// severity verdicts from the stores. Off for [`InjectorRig::new`]'s
    /// private base, the reference, which starts every run at the
    /// snapshot and reboots every crash with its own residue.
    memoize: bool,
    power_on: PowerOnStore,
    severity: SeverityStore,
    /// Severity assessments, those answered without a capture, and
    /// power-on captures that rebooted.
    assessments: AtomicU64,
    assessment_hits: AtomicU64,
    power_on_reboots: AtomicU64,
    checkpoints: CheckpointStore,
    /// Stored checkpoints and their fresh bytes; resumed runs and the
    /// prefix cycles they skipped.
    checkpoints_stored: AtomicU64,
    checkpoint_bytes: AtomicU64,
    resumed_runs: AtomicU64,
    skipped_cycles: AtomicU64,
}

impl RigShared {
    /// [`RigShared::boot_and_capture`] with an observer that observes
    /// nothing.
    ///
    /// # Errors
    ///
    /// As for [`RigShared::boot_and_capture`].
    pub fn boot(
        image: KernelImage,
        files: &[FileSpec],
        n_modes: u32,
        config: RigConfig,
    ) -> Result<Arc<RigShared>, RigError> {
        RigShared::boot_and_capture(image, files, n_modes, config, |_, _| {})
    }

    /// Boots the kernel once to the snapshot point, then captures the
    /// golden run of every mode in `0..n_modes`, in mode order, on the
    /// booted machine. It calls `observe` with the active CPU after every
    /// executed step: with `None` while booting, up to and including the
    /// step that announces the runner, and with `Some(mode)` while
    /// capturing `mode`'s run, up to but excluding its halting step. The
    /// boot is single-stepped; the captures run on the rig's tier and see
    /// the same steps ([`Machine::run_observed`]). `kfi_profiler` samples
    /// the golden runs this way.
    ///
    /// # Errors
    ///
    /// [`RigError::BootFailed`] when the kernel never reaches the
    /// snapshot point within the boot budget, and
    /// [`RigError::GoldenFailed`] for the first mode whose run fails.
    pub fn boot_and_capture(
        image: KernelImage,
        files: &[FileSpec],
        n_modes: u32,
        config: RigConfig,
        observe: impl FnMut(Option<u32>, &Cpu),
    ) -> Result<Arc<RigShared>, RigError> {
        RigShared::prepare(image, files, n_modes, config, true, observe).map(Arc::new)
    }

    /// [`RigShared::boot_and_capture`], with the memos on or off.
    fn prepare(
        image: KernelImage,
        files: &[FileSpec],
        n_modes: u32,
        config: RigConfig,
        memoize: bool,
        mut observe: impl FnMut(Option<u32>, &Cpu),
    ) -> Result<RigShared, RigError> {
        let fsimg = kfi_kernel::mkfs(2048, files);
        let boot_config = BootConfig {
            tier: config.tier,
            sanitizer: config.sanitizer,
            cpus: config.cpus,
            ..Default::default()
        };
        let mut m = boot(&image, fsimg.disk, &boot_config);

        // Run to the snapshot point: the runner announcing itself (all
        // of init's own risky setup — fork, exec, file reads — is behind
        // this point, mirroring the paper where the injected activity is
        // driven by benchmark processes rather than by init).
        loop {
            if m.max_tsc() > config.boot_budget {
                return Err(RigError::BootFailed(m.console_string()));
            }
            match m.step() {
                StepEvent::Executed => observe(None, &m.cpu),
                _ => return Err(RigError::BootFailed(m.console_string())),
            }
            if let Some((_, MonitorEvent::Event(v))) = m.monitor_events().last() {
                if *v == events::RUNNER_START {
                    break;
                }
            }
        }
        let mut base = RigShared {
            image: Arc::new(image),
            config,
            machine_config: *m.config(),
            // All rig cycle accounting runs on the campaign clock: the
            // furthest-along CPU. On a uniprocessor this is exactly
            // `cpu.tsc` (golden byte-identity depends on that); on an SMP
            // machine it is monotonic even as the scheduler rotates the
            // active CPU, whose own tsc can sit far behind.
            boot_cycles: m.max_tsc(),
            snapshot: m.snapshot(),
            post_boot_disk: m.disk.as_ref().expect("disk attached").snapshot(),
            manifest: Arc::new(fsimg.manifest),
            golden: Vec::with_capacity(n_modes as usize),
            memoize,
            power_on: PowerOnStore::default(),
            severity: SeverityStore::default(),
            assessments: AtomicU64::new(0),
            assessment_hits: AtomicU64::new(0),
            power_on_reboots: AtomicU64::new(0),
            checkpoints: CheckpointStore::default(),
            checkpoints_stored: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            resumed_runs: AtomicU64::new(0),
            skipped_cycles: AtomicU64::new(0),
        };
        for mode in 0..n_modes {
            let run = base.capture_golden(&mut m, mode, |cpu| observe(Some(mode), cpu))?;
            base.golden.push(Arc::new(run));
        }
        Ok(base)
    }

    /// Restores `m` to the post-boot snapshot and its disk to the
    /// post-boot image. Both share the image's pages again, resetting
    /// only the pages written since the last restore: a severity reboot
    /// keeps the crash disk it took over, and its writes are tracked
    /// like the run's.
    fn restore(&self, m: &mut Machine) {
        let disk = &self.post_boot_disk;
        m.disk.get_or_insert_with(|| Ramdisk::fork(disk)).restore_from(disk);
        m.restore(&self.snapshot);
    }

    /// [`RigShared::restore`], then selects the run mode.
    fn reset(&self, m: &mut Machine, mode: u32) {
        self.restore(m);
        kfi_kernel::set_run_mode(m, mode);
        let tsc = m.max_tsc();
        m.trace_sink_mut().emit(tsc, EventKind::SnapshotRestore { mode });
    }

    /// Captures `mode`'s golden run on `m` from the snapshot, on the
    /// rig's tier, calling `observe` with the active CPU after every
    /// executed step (the halting step is not one), and frees the blocks
    /// the run recorded ([`Machine::release_blocks`]).
    fn capture_golden(
        &self,
        m: &mut Machine,
        mode: u32,
        observe: impl FnMut(&Cpu),
    ) -> Result<GoldenRun, RigError> {
        self.reset(m, mode);
        let mut capture = FirstHits::new(&self.image, observe);
        // The capture fails once the clock passes the budget, so one
        // that halts exactly on it succeeds.
        let budget = self.boot_cycles + self.config.golden_budget;
        let left = (budget + 1).saturating_sub(m.max_tsc());
        let exit = m.run_observed(left, &mut capture);
        m.release_blocks();
        let failed = match exit {
            RunExit::Halted => !has_event(m, events::SHUTDOWN) || has_event(m, events::PANIC),
            RunExit::CycleLimit => true,
            other => {
                let console = format!("{other:?}: {}", m.console_string());
                return Err(RigError::GoldenFailed { mode, console });
            }
        };
        if failed {
            return Err(RigError::GoldenFailed { mode, console: m.console_string() });
        }
        Ok(GoldenRun {
            mode,
            console: m.console_string(),
            results: results_of(m),
            cycles: m.max_tsc() - self.boot_cycles,
            first_hits: capture.into_sorted(),
        })
    }

    /// How this base's crashes got their severity verdicts so far.
    pub fn severity_stats(&self) -> SeverityStats {
        SeverityStats {
            crashes: self.assessments.load(Ordering::Relaxed),
            power_on_reboots: self.power_on_reboots.load(Ordering::Relaxed),
            exact_reboots: self.severity.captures(),
            hits: self.assessment_hits.load(Ordering::Relaxed),
        }
    }

    /// How this base's injection runs used prefix checkpoints so far.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        CheckpointStats {
            captured: self.checkpoints_stored.load(Ordering::Relaxed),
            resumed: self.resumed_runs.load(Ordering::Relaxed),
            skipped_cycles: self.skipped_cycles.load(Ordering::Relaxed),
            bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
        }
    }

    /// Boot duration in cycles (identical for every fork).
    pub fn boot_cycles(&self) -> u64 {
        self.boot_cycles
    }
}

/// The injection rig: a private machine forked off a [`RigShared`]
/// base, through which it reads the snapshot, the post-boot disk, the
/// golden runs and the memos, and the metrics of its runs.
///
/// Every rig is a copy-on-write fork ([`InjectorRig::fork`]).
/// [`InjectorRig::new`] forks a private base with its memos off: the
/// recompute-per-rig reference, which forks of a shared base equal run
/// by run (`tests/fork_equivalence.rs`).
pub struct InjectorRig {
    /// The kernel image under test, shared with the base.
    pub image: Arc<KernelImage>,
    machine: Machine,
    metrics: Metrics,
    shared: Arc<RigShared>,
}

/// Stable [`trace_outcome`] code for an [`Outcome`].
fn outcome_code(o: &Outcome) -> u8 {
    match o {
        Outcome::NotActivated => trace_outcome::NOT_ACTIVATED,
        Outcome::NotManifested => trace_outcome::NOT_MANIFESTED,
        Outcome::FailSilenceViolation(_) => trace_outcome::FAIL_SILENCE_VIOLATION,
        Outcome::Crash(_) => trace_outcome::CRASH,
        Outcome::Hang => trace_outcome::HANG,
        Outcome::RigFault(_) => trace_outcome::RIG_FAULT,
    }
}

fn results_of(m: &Machine) -> Vec<u32> {
    m.monitor_events()
        .iter()
        .filter_map(|(_, e)| match e {
            MonitorEvent::Result(v) => Some(*v),
            _ => None,
        })
        .collect()
}

fn has_event(m: &Machine, code: u32) -> bool {
    m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Event(v) if *v == code))
}

fn event_tsc(m: &Machine, code: u32) -> Option<u64> {
    m.monitor_events()
        .iter()
        .find(|(_, e)| matches!(e, MonitorEvent::Event(v) if *v == code))
        .map(|(t, _)| *t)
}

fn vector_to_cause(v: Vector, cr2: u32) -> u32 {
    match v {
        Vector::PageFault => {
            if cr2 < 4096 {
                causes::NULL_POINTER
            } else {
                causes::PAGING_REQUEST
            }
        }
        Vector::GeneralProtection => causes::GPF,
        Vector::InvalidOpcode => causes::INVALID_OP,
        Vector::DivideError => causes::DIVIDE,
        Vector::Overflow => causes::OVERFLOW,
        Vector::Bounds => causes::BOUNDS,
        Vector::InvalidTss => causes::INVALID_TSS,
        Vector::SegmentNotPresent => causes::SEGMENT_NP,
        Vector::StackFault => causes::STACK,
        Vector::DoubleFault => causes::DOUBLE_FAULT,
        Vector::Breakpoint => causes::INT3,
        Vector::Nmi => causes::NMI,
        Vector::CoprocSegOverrun => causes::COPROC,
        _ => causes::KERNEL_PANIC,
    }
}

impl InjectorRig {
    /// Boots a private base for the kernel with the given filesystem
    /// contents and `n_modes` workload modes, with its memos off, and
    /// forks it: the reference rig, which starts every run at the
    /// snapshot and reboots every crash with its own residue.
    ///
    /// # Errors
    ///
    /// [`RigError`] when boot or any golden run fails — experiments only
    /// make sense over a healthy baseline.
    pub fn new(
        image: KernelImage,
        files: &[FileSpec],
        n_modes: u32,
        config: RigConfig,
    ) -> Result<InjectorRig, RigError> {
        let base = RigShared::prepare(image, files, n_modes, config, false, |_, _| {})?;
        InjectorRig::fork(&Arc::new(base))
    }

    /// Forks a rig off a post-boot base: a private copy-on-write
    /// machine and disk built from the base's snapshot and disk image
    /// ([`Machine::fork`], [`Ramdisk::fork`]: neither owns a page until
    /// it writes one), reading the kernel image, manifest and golden runs
    /// through the base.
    ///
    /// # Errors
    ///
    /// Never: the base captured every golden run before it was shared.
    pub fn fork(shared: &Arc<RigShared>) -> Result<InjectorRig, RigError> {
        let mut machine = Machine::fork(&shared.snapshot, shared.machine_config);
        machine.disk = Some(Ramdisk::fork(&shared.post_boot_disk));
        Ok(InjectorRig {
            image: shared.image.clone(),
            machine,
            metrics: Metrics::default(),
            shared: shared.clone(),
        })
    }

    /// The golden run for a mode.
    pub fn golden(&self, mode: u32) -> &GoldenRun {
        &self.shared.golden[mode as usize]
    }

    /// Boot duration in cycles.
    pub fn boot_cycles(&self) -> u64 {
        self.shared.boot_cycles
    }

    /// Installs a ring-buffer trace sink of the given capacity on the
    /// rig's machine. Subsequent runs record their event timeline.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.machine.set_trace_sink(TraceSink::ring(capacity));
    }

    /// Removes the trace sink (back to zero-cost [`TraceSink::Null`]).
    pub fn disable_tracing(&mut self) {
        self.machine.set_trace_sink(TraceSink::Null);
    }

    /// Drains the recorded events (oldest first) without disturbing the
    /// sink. Empty when tracing is off.
    pub fn take_events(&mut self) -> Vec<Event> {
        let events = self.machine.trace_sink().events();
        self.machine.trace_sink_mut().clear();
        events
    }

    /// The metrics accumulated by this rig's runs so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Removes and returns the accumulated metrics, leaving zeroes.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// The checkpoint at tick cut `tick` (≥ 1) of `mode`'s golden run,
    /// from the base's [`CheckpointStore`]. A capture resumes from the
    /// stored checkpoint of the greatest lower tick of the mode (or the
    /// snapshot) with no breakpoint armed, runs on to the cut on this
    /// rig's machine, and shares unchanged pages with where it resumed.
    /// `None` when the capture was cut short (the abort flag, or a run
    /// that never reached the cut): then nothing is stored and the
    /// caller starts from the snapshot.
    fn checkpoint_at(&mut self, mode: u32, tick: u32) -> Option<Arc<Checkpoint>> {
        let shared = self.shared.clone();
        shared.checkpoints.get_or_capture_if((mode, tick), || {
            let from = shared.checkpoints.floor(&(mode, tick - 1));
            let (mut at, from) = match from {
                Some(((m, at), Some(c))) if m == mode => (at, Some(c)),
                _ => (0, None),
            };
            match &from {
                Some(c) => {
                    shared.restore(&mut self.machine);
                    self.machine.install(c);
                }
                None => shared.reset(&mut self.machine, mode),
            }
            // The snapshot itself is cut 1 when a tick is already due.
            if at == 0 && self.machine.tick_due() {
                at = 1;
            }
            let end = shared.boot_cycles + shared.golden[mode as usize].cycles;
            while at < tick {
                let left = end.saturating_sub(self.machine.max_tsc());
                if self.machine.run_to_tick(left).is_some() {
                    return (None, false);
                }
                at += 1;
            }
            let c = self.machine.checkpoint(from.as_deref());
            shared.checkpoints_stored.fetch_add(1, Ordering::Relaxed);
            shared.checkpoint_bytes.fetch_add(c.fresh_bytes() as u64, Ordering::Relaxed);
            (Some(Arc::new(c)), true)
        })
    }

    /// Whether the golden run of `mode` ever executes the instruction —
    /// the deterministic pre-check that lets non-activated injections
    /// skip the full run (the paper likewise proceeds to the next error
    /// without a reboot when the target is not activated). It reads the
    /// golden run's first-hit index ([`GoldenRun::first_hit`]), which
    /// also tells a rig where in the golden prefix to resume.
    pub fn would_activate(&self, addr: u32, mode: u32) -> bool {
        self.golden(mode).covers(addr, self.image.program.text.base)
    }

    /// Executes one injection run and classifies the outcome.
    ///
    /// Everything before the breakpoint fires is the golden run, so a
    /// fork of a memoizing base without a trace ring or sanitizer
    /// resumes from the checkpoint at the target's first-hit tick
    /// instead of the snapshot ([`CheckpointStore`]) and runs to the
    /// same absolute deadline. [`InjectorRig::new`]'s rig always starts
    /// at the snapshot — the reference that the resumed runs equal
    /// record for record, metric for metric.
    pub fn run_one(&mut self, target: &InjectionTarget, mode: u32) -> RunRecord {
        self.metrics.runs += 1;

        // Fast path: provably never executed under this workload.
        let text_base = self.image.program.text.base;
        let Some(tick) = self.golden(mode).first_hit(target.insn_addr, text_base) else {
            self.metrics.record_outcome(trace_outcome::NOT_ACTIVATED);
            self.metrics.run_cycles.record(0);
            return RunRecord {
                target: target.clone(),
                mode,
                outcome: Outcome::NotActivated,
                activation_tsc: None,
                run_cycles: 0,
                sanitizer_violations: 0,
            };
        };

        let config = self.shared.config;
        let resumable = self.shared.memoize
            && tick > 0
            && !config.sanitizer
            && !self.machine.trace_sink().is_enabled();
        let checkpoint = if resumable { self.checkpoint_at(mode, tick) } else { None };
        match &checkpoint {
            Some(_) => self.shared.restore(&mut self.machine),
            None => self.shared.reset(&mut self.machine, mode),
        }
        self.metrics.snapshot_restores += 1;
        // The breakpoint goes on the CPU that was active at the snapshot.
        let bp_cpu = self.machine.active_cpu();
        // Sanitizer violations are cumulative across restores; diff
        // around the run.
        let san_0 = self.machine.sanitizer_violation_count();
        let golden_cycles = self.golden(mode).cycles;
        let budget = golden_cycles * config.budget_factor + config.budget_slack;
        let start = self.shared.boot_cycles;
        if let Some(c) = &checkpoint {
            self.machine.install(c);
            self.shared.resumed_runs.fetch_add(1, Ordering::Relaxed);
            self.shared.skipped_cycles.fetch_add(c.max_tsc() - start, Ordering::Relaxed);
        }
        self.machine.cpu_state_mut(bp_cpu).arm_breakpoint(0, target.insn_addr);
        self.machine
            .trace_sink_mut()
            .emit(start, EventKind::InjectionArmed { addr: target.insn_addr });

        // The deadline counts from the snapshot wherever the run starts.
        let exit1 = self.machine.run((start + budget).saturating_sub(self.machine.max_tsc()));
        let activation_tsc = match exit1 {
            RunExit::DebugBreak { .. } => {
                let t = self.machine.max_tsc();
                self.machine
                    .trace_sink_mut()
                    .emit(t, EventKind::TriggerHit { addr: target.insn_addr });
                // Apply the flip (persistent for the rest of the run).
                let addr = target.insn_addr + target.byte_index as u32;
                let mut b = [0u8; 1];
                let read = self.machine.probe_read(addr, &mut b);
                debug_assert_eq!(read, 1, "target must be mapped");
                b[0] ^= target.bit_mask;
                let ok = self.machine.probe_write(addr, &b);
                debug_assert!(ok);
                self.machine
                    .trace_sink_mut()
                    .emit(t, EventKind::BitFlipApplied { addr, mask: target.bit_mask });
                t
            }
            // The breakpoint never fired even though the golden run says
            // it would — only possible if golden and run diverge, which
            // determinism forbids; classify conservatively.
            _ => {
                let run_cycles = self.machine.max_tsc().saturating_sub(start);
                let sanitizer_violations = self.absorb_sanitizer(san_0);
                self.absorb_run_counters();
                self.metrics.record_outcome(trace_outcome::NOT_ACTIVATED);
                self.metrics.run_cycles.record(run_cycles);
                self.metrics.run_cycles_total += run_cycles;
                return RunRecord {
                    target: target.clone(),
                    mode,
                    outcome: Outcome::NotActivated,
                    activation_tsc: None,
                    run_cycles,
                    sanitizer_violations,
                };
            }
        };

        // Run to completion.
        let mut exit2 = self.machine.run(budget);
        // A second DebugBreak is impossible (one-shot), but be safe.
        while let RunExit::DebugBreak { .. } = exit2 {
            exit2 = self.machine.run(budget);
        }

        // Measure before classification: the severity assessment reboots
        // the machine (resetting the TSC and its counters).
        let end_tsc = self.machine.max_tsc();
        let run_cycles = end_tsc.saturating_sub(start);
        let sanitizer_violations = self.absorb_sanitizer(san_0);
        self.absorb_run_counters();

        // Keep the severity-assessment reboot out of the timeline.
        let sink = self.machine.take_trace_sink();
        let outcome = self.classify_exit(target, mode, activation_tsc, exit2);
        self.machine.set_trace_sink(sink);

        let code = outcome_code(&outcome);
        self.metrics.record_outcome(code);
        self.metrics.run_cycles.record(run_cycles);
        self.metrics.run_cycles_total += run_cycles;
        self.machine.trace_sink_mut().emit(end_tsc, EventKind::OutcomeClassified { code });
        if let Outcome::Crash(info) = &outcome {
            self.metrics.record_crash_latency(info.latency);
            let from = trace_subsystem::id(&target.subsystem);
            let to = trace_subsystem::id(&info.subsystem);
            if from != to {
                self.machine
                    .trace_sink_mut()
                    .emit(end_tsc, EventKind::SubsystemTransition { from, to });
            }
        }

        RunRecord {
            target: target.clone(),
            mode,
            outcome,
            activation_tsc: Some(activation_tsc),
            run_cycles,
            sanitizer_violations,
        }
    }

    /// The sanitizer-violation delta since the start-of-run baseline,
    /// folded into the rig metrics.
    fn absorb_sanitizer(&mut self, san_0: u64) -> u64 {
        let delta = self.machine.sanitizer_violation_count() - san_0;
        self.metrics.sanitizer_violations += delta;
        delta
    }

    /// Folds the machine's execution counters and TLB and decode-cache
    /// statistics, which count from the run's restore (or its
    /// checkpoint's install), into the rig metrics, and records the
    /// run's dirty-page footprint. Must run before classification:
    /// severity assessment reboots the machine (and its reboot-and-fsck
    /// activity must stay out of run metrics).
    fn absorb_run_counters(&mut self) {
        let c = self.machine.counters();
        self.metrics.instructions += c.instructions;
        self.metrics.syscalls += c.syscalls;
        self.metrics.timer_irqs += c.timer_irqs;
        for t in self.machine.trap_log() {
            let v = t.vector.number() as usize;
            if v < self.metrics.faults_by_vector.len() {
                self.metrics.faults_by_vector[v] += 1;
            }
        }
        let (h, m) = self.machine.tlb_stats();
        self.metrics.tlb_hits += h;
        self.metrics.tlb_miss_walks += m;
        let (dh, dm, di) = self.machine.decode_stats();
        self.metrics.decode_hits += dh;
        self.metrics.decode_misses += dm;
        self.metrics.decode_invalidations += di;
        // The run's *own* footprint, not the pages reset at restore
        // time: restore cost depends on what the previous run on this
        // worker touched, which would vary with scheduling, while the
        // dirty count here is a pure function of this run.
        self.metrics.dirty_pages += u64::from(self.machine.dirty_page_count());
    }

    /// Classifies a finished run's [`RunExit`] into an [`Outcome`]
    /// (paper Table 3). Public so tests can pin the classification
    /// boundary directly — e.g. that a `cli;hlt` halt without a
    /// SHUTDOWN report, or a blown cycle budget, reads as [`Hang`]
    /// from the watchdog's point of view.
    ///
    /// Crash exits trigger the severity assessment, which reboots the
    /// rig's machine unless its base's [`SeverityStore`] already holds
    /// the verdict.
    ///
    /// [`Hang`]: Outcome::Hang
    pub fn classify_exit(
        &mut self,
        target: &InjectionTarget,
        mode: u32,
        activation_tsc: u64,
        exit: RunExit,
    ) -> Outcome {
        match exit {
            RunExit::CycleLimit => Outcome::Hang,
            RunExit::TripleFault => {
                // The guest handler never ran; reconstruct from the trap
                // log: the first fault of the terminal cascade.
                let fatal = self.fatal_trap(activation_tsc);
                let (cause, eip) = match fatal {
                    Some(t) => (vector_to_cause(t.vector, t.cr2), t.eip),
                    None => (causes::DOUBLE_FAULT, self.machine.cpu.eip),
                };
                let latency = fatal.map(|t| t.tsc.saturating_sub(activation_tsc)).unwrap_or(0);
                let (severity, _) = self.assess_severity();
                let (function, subsystem) = self.locate(eip, &target.subsystem);
                Outcome::Crash(CrashInfo {
                    cause,
                    eip,
                    function,
                    subsystem,
                    latency,
                    severity,
                    triple_fault: true,
                })
            }
            RunExit::Halted => {
                let m = &self.machine;
                if has_event(m, events::SHUTDOWN) {
                    return self.classify_completed(mode);
                }
                if has_event(m, events::PANIC) || has_event(m, events::OOPS) {
                    return self.classify_crash(activation_tsc, &target.subsystem);
                }
                // Halted without any report: corrupted code wandered
                // into a cli;hlt — the watchdog view is a hang.
                Outcome::Hang
            }
            RunExit::DebugBreak { .. } => unreachable!("drained by caller"),
        }
    }

    fn classify_completed(&mut self, mode: u32) -> Outcome {
        let golden = self.golden(mode);
        let results = results_of(&self.machine);
        let console = self.machine.console_string();
        if results != golden.results {
            return Outcome::FailSilenceViolation(FsvKind::WrongResult {
                expected: golden.results.clone(),
                got: results,
            });
        }
        if console != golden.console {
            return Outcome::FailSilenceViolation(FsvKind::ConsoleMismatch);
        }
        // Everything looked right — but did the run silently corrupt
        // the disk?
        let disk = self.machine.disk.as_ref().expect("disk");
        match fsck(disk, &self.shared.manifest) {
            FsckReport::Clean => Outcome::NotManifested,
            FsckReport::Fixed { notes, .. } => {
                Outcome::FailSilenceViolation(FsvKind::SilentCorruption {
                    detail: notes.first().cloned().unwrap_or_default(),
                })
            }
            FsckReport::Unrecoverable { reason } => {
                Outcome::FailSilenceViolation(FsvKind::SilentCorruption { detail: reason })
            }
        }
    }

    fn classify_crash(&mut self, activation_tsc: u64, target_subsystem: &str) -> Outcome {
        let m = &self.machine;
        let mut cause = None;
        let mut eip = None;
        for (_, e) in m.monitor_events() {
            match e {
                MonitorEvent::CrashCause(c) => cause = Some(*c),
                MonitorEvent::CrashEip(a) => eip = Some(*a),
                _ => {}
            }
        }
        let oops_tsc = event_tsc(m, events::OOPS)
            .or_else(|| event_tsc(m, events::PANIC))
            .unwrap_or(m.max_tsc());
        let fatal = self.fatal_trap(activation_tsc);
        let cause = cause
            .or_else(|| fatal.map(|t| vector_to_cause(t.vector, t.cr2)))
            .unwrap_or(causes::KERNEL_PANIC);
        let eip = eip.or_else(|| fatal.map(|t| t.eip)).unwrap_or(0);
        // Latency: fault-delivery time minus activation; for pure
        // software panics fall back to the report time.
        let latency = match fatal {
            Some(t) if t.tsc >= activation_tsc => t.tsc - activation_tsc,
            _ => oops_tsc.saturating_sub(activation_tsc),
        };
        let (severity, _) = self.assess_severity();
        let (function, subsystem) = self.locate(eip, target_subsystem);
        Outcome::Crash(CrashInfo {
            cause,
            eip,
            function,
            subsystem,
            latency,
            severity,
            triple_fault: false,
        })
    }

    /// Resolves a crash EIP to (function, subsystem) with the paper's
    /// attribution semantics:
    ///
    /// * crashes inside `lib` string helpers are charged to the
    ///   *injected* subsystem — Linux 2.4 inlined `memcpy`/`memset`
    ///   into their callers, so the paper's oopses landed in the caller;
    /// * crashes at unresolvable EIPs (corrupted control flow jumped
    ///   into user pages or unmapped space while still in kernel mode)
    ///   are likewise charged to the injected subsystem, whose corrupted
    ///   code was the last thing executing.
    fn locate(&self, eip: u32, injected_subsystem: &str) -> (Option<String>, String) {
        match self.image.function_of(eip) {
            Some(f) => {
                let sub = f.subsystem.clone().unwrap_or_else(|| "?".into());
                if sub == "lib" {
                    (Some(f.name.clone()), injected_subsystem.to_string())
                } else {
                    (Some(f.name.clone()), sub)
                }
            }
            None => (None, injected_subsystem.to_string()),
        }
    }

    /// The fatal trap: the last kernel-mode fault after activation,
    /// skipping the double-fault cascade down to its trigger.
    fn fatal_trap(&self, activation_tsc: u64) -> Option<TrapRecord> {
        let log = self.machine.trap_log();
        let mut candidate: Option<TrapRecord> = None;
        for t in log.iter().rev() {
            if t.tsc < activation_tsc {
                break;
            }
            if t.from_user {
                // User faults can't be the kernel's crash...
                if candidate.is_some() {
                    break;
                }
                continue;
            }
            match candidate {
                None => candidate = Some(*t),
                Some(c) => {
                    // Walk past the cascade: records essentially at the
                    // same instant belong to the same failure.
                    if c.tsc.saturating_sub(t.tsc) < 400
                        && (c.vector == Vector::DoubleFault
                            || c.vector == Vector::SegmentNotPresent)
                    {
                        candidate = Some(*t);
                    } else {
                        break;
                    }
                }
            }
        }
        candidate
    }

    /// Post-crash severity via fsck + a reboot attempt (paper §7.1):
    /// unrecoverable fs or unbootable system → most severe; repairable
    /// inconsistencies → severe; else normal. Returns the fsck report
    /// for the record.
    ///
    /// [`InjectorRig::new`]'s rig reboots every crash with its own
    /// residue. A fork of a memoizing base first asks the base's
    /// [`PowerOnStore`] for the crash disk, rebooting once per distinct
    /// disk from the power-on residue under the residue observer; when
    /// the footprint admits the crash's residue, that verdict is the one
    /// its own reboot would give. Any other residue goes through the
    /// [`SeverityStore`], keyed by everything the assessment reads
    /// ([`SeverityKey`]). A stored answer leaves the machine in its
    /// post-crash state; a computed one leaves it rebooted.
    pub fn assess_severity(&mut self) -> (Severity, FsckReport) {
        let residue = self.machine.reset_residue();
        let shared = self.shared.clone();
        if !shared.memoize {
            let disk = self.machine.disk.take().expect("disk");
            let ((severity, report, _), _) = self.reboot(disk, &residue, false);
            return (severity, report);
        }
        shared.assessments.fetch_add(1, Ordering::Relaxed);
        let disk = self.machine.disk.as_ref().expect("disk");
        let delta = disk.delta_from(&shared.post_boot_disk);
        let mut captured = false;
        // The crash disk, kept while a power-on reboot writes to a copy.
        let mut crash_disk = None;
        let (severity, report, footprint) =
            shared.power_on.get_or_capture_if(delta.clone(), || {
                captured = true;
                let disk = self.machine.disk.take().expect("disk");
                crash_disk = Some(disk.clone());
                let power_on = ResetResidue::power_on(self.machine.config());
                let ((severity, report, footprint), keep) = self.reboot(disk, &power_on, true);
                // Only a reboot leaves a footprint.
                if footprint.is_some() {
                    shared.power_on_reboots.fetch_add(1, Ordering::Relaxed);
                }
                ((severity, report, footprint), keep)
            });
        let verdict = if footprint.as_ref().is_none_or(|f| f.admits(&residue)) {
            (severity, report)
        } else {
            // After a power-on reboot in this call the machine holds that
            // reboot's disk, and the crash disk is the one kept aside.
            let key = SeverityKey { disk: delta, residue: residue.clone() };
            shared.severity.get_or_capture_if(key, || {
                captured = true;
                let disk = crash_disk.unwrap_or_else(|| self.machine.disk.take().expect("disk"));
                let ((severity, report, _), keep) = self.reboot(disk, &residue, false);
                ((severity, report), keep)
            })
        };
        if !captured {
            shared.assessment_hits.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// The one reboot routine behind [`InjectorRig::assess_severity`]:
    /// fsck of the crash disk `disk`, then — unless it is unrecoverable —
    /// a reboot of the rig's machine on it from `residue`, under the
    /// residue observer when `observe` is set (the footprint is `None`
    /// otherwise, and after an unrecoverable fsck). The machine takes the
    /// disk over as it is, pages and all. Also returns whether the
    /// verdict may be stored: not when the wall-clock abort flag may have
    /// cut the reboot short.
    fn reboot(
        &mut self,
        disk: Ramdisk,
        residue: &ResetResidue,
        observe: bool,
    ) -> ((Severity, FsckReport, Option<ResidueFootprint>), bool) {
        let report = fsck(&disk, &self.shared.manifest);
        let m = &mut self.machine;
        m.disk = Some(disk);
        if let FsckReport::Unrecoverable { .. } = report {
            return ((Severity::MostSevere, report, None), true);
        }
        // Reboot test on the (possibly damaged) disk.
        kfi_kernel::load_into(m, &self.image, &BootConfig::default());
        m.install_residue(residue);
        if observe {
            m.observe_residue();
        }
        let budget = self.shared.boot_cycles * 4 + 1_000_000;
        let boots = match m.run(budget) {
            RunExit::Halted | RunExit::CycleLimit => {
                has_event(m, events::BOOT_OK) && !has_event(m, events::PANIC)
            }
            _ => false,
        };
        let footprint = m.take_residue_footprint();
        let keep = !m.abort_requested();
        let severity = match report {
            _ if !boots => Severity::MostSevere,
            FsckReport::Fixed { .. } => Severity::Severe,
            _ => Severity::Normal,
        };
        ((severity, report, footprint), keep)
    }

    /// Borrow the machine (post-run inspection, e.g. crash dumps). After
    /// a crash run it holds the crash state or, when the severity
    /// assessment had to reboot, the reboot's state. On a fork, which
    /// one depends on whether another rig sharing the base assessed the
    /// same input first, so with several workers it depends on thread
    /// scheduling.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store of shared values or failures, as the checkpoint and
    /// severity stores keep.
    type Store = OnceStore<u32, Result<Arc<String>, String>>;

    fn value(key: u32) -> Result<Arc<String>, String> {
        Ok(Arc::new(format!("value {key}")))
    }

    #[test]
    fn once_store_captures_each_key_exactly_once() {
        let store = Store::default();
        let a = store.get_or_capture(0, || value(0)).unwrap();
        let b = store.get_or_capture(0, || panic!("second request must not capture")).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both callers share one value");
        let c = store.get_or_capture(1, || value(1)).unwrap();
        assert_eq!(*c, "value 1");
        assert_eq!(store.captures(), 2);
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn once_store_memoizes_failures_too() {
        let store = Store::default();
        let err = store.get_or_capture(0, || Err("boom".into())).unwrap_err();
        assert_eq!(err, "boom");
        let again =
            store.get_or_capture(0, || panic!("failure is memoized, not retried")).unwrap_err();
        assert_eq!(again, "boom");
        assert_eq!(store.captures(), 1);
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn once_store_concurrent_askers_share_one_capture() {
        let store = Arc::new(Store::default());
        let captures = Arc::new(AtomicU64::new(0));
        let values: Vec<Arc<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let captures = Arc::clone(&captures);
                    s.spawn(move || {
                        store
                            .get_or_capture(0, || {
                                captures.fetch_add(1, Ordering::Relaxed);
                                value(0)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(captures.load(Ordering::Relaxed), 1, "one thread captured");
        assert_eq!(store.captures(), 1);
        assert_eq!(store.hits(), 7);
        for v in &values[1..] {
            assert!(Arc::ptr_eq(&values[0], v));
        }
    }

    #[test]
    fn once_store_does_not_keep_a_declined_value() {
        let store = OnceStore::<u32, u32>::default();
        assert_eq!(store.get_or_capture_if(5, || (1, false)), 1, "the asker still gets it");
        assert_eq!(store.get_or_capture_if(5, || (2, true)), 2, "declined: captured again");
        assert_eq!(store.get_or_capture(5, || panic!("kept value must be served")), 2);
        assert_eq!((store.captures(), store.hits()), (2, 1));
    }

    #[test]
    fn once_store_recaptures_after_a_panicked_capture() {
        let store = OnceStore::<u32, u32>::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_capture(1, || panic!("capture dies"))
        }));
        assert!(panicked.is_err());
        assert_eq!(store.get_or_capture(1, || 7), 7);
        assert_eq!(store.get_or_capture(1, || panic!("kept value must be served")), 7);
    }
}

/// The observed golden capture against the single-stepped capture it
/// replaced, which stays here as the reference.
#[cfg(test)]
mod golden_reference {
    use super::*;
    use kfi_kernel::{build_kernel, KernelBuildOptions};
    use kfi_workloads::Suite;

    /// The reference capture: `mode`'s golden run single-stepped from
    /// the snapshot with [`Machine::step`], counting tick cuts and
    /// recording first hits at every step boundary, and calling
    /// `observe` after every executed step.
    fn capture_single_stepped(
        rig: &mut InjectorRig,
        mode: u32,
        mut observe: impl FnMut(&Cpu),
    ) -> Result<GoldenRun, RigError> {
        let shared = rig.shared.clone();
        shared.reset(&mut rig.machine, mode);
        let text_base = rig.image.program.text.base;
        let text_len = rig.image.program.text.bytes.len() as u32;
        let mut seen = vec![0u64; (text_len as usize).div_ceil(64)];
        let mut first_hits = Vec::new();
        let mut ticks = 0u32;
        let budget = shared.boot_cycles + shared.config.golden_budget;
        loop {
            let m = &mut rig.machine;
            if m.max_tsc() > budget {
                return Err(RigError::GoldenFailed { mode, console: m.console_string() });
            }
            ticks += u32::from(m.tick_due());
            let eip = m.cpu.eip;
            if m.cpu.cs == kfi_machine::KERNEL_CS {
                if let Some(off) = eip.checked_sub(text_base).filter(|&o| o < text_len) {
                    let (w, bit) = ((off / 64) as usize, 1 << (off % 64));
                    if seen[w] & bit == 0 {
                        seen[w] |= bit;
                        first_hits.push((off, ticks));
                    }
                }
            }
            match m.step() {
                StepEvent::Executed => observe(&m.cpu),
                StepEvent::Halted => break,
                other => {
                    let console = format!("{other:?}: {}", m.console_string());
                    return Err(RigError::GoldenFailed { mode, console });
                }
            }
        }
        let m = &rig.machine;
        if !has_event(m, events::SHUTDOWN) || has_event(m, events::PANIC) {
            return Err(RigError::GoldenFailed { mode, console: m.console_string() });
        }
        first_hits.sort_unstable();
        Ok(GoldenRun {
            mode,
            console: m.console_string(),
            results: results_of(m),
            cycles: m.max_tsc() - shared.boot_cycles,
            first_hits,
        })
    }

    /// The number of executed steps an observer saw, and a digest of the
    /// CPU state after each, in order.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Steps {
        count: u64,
        digest: u64,
    }

    impl Steps {
        fn push(&mut self, cpu: &Cpu) {
            self.count += 1;
            let words = [cpu.tsc, cpu.eip.into(), cpu.cs.into(), cpu.eflags.bits().into()];
            for w in words.into_iter().chain(cpu.regs.map(u64::from)) {
                self.digest = (self.digest.rotate_left(5) ^ w).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn assert_capture_equals_reference(kernel: KernelBuildOptions, suite: Suite, cpus: u32) {
        let image = build_kernel(kernel).unwrap();
        let files = suite.files().unwrap();
        let config = RigConfig { cpus, ..RigConfig::default() };
        let base = RigShared::boot(image, &files, suite.n_modes(), config).expect("boots");
        let mut rig = InjectorRig::fork(&base).expect("forks");
        for mode in 0..suite.n_modes() {
            let what = format!("{kernel:?} {suite:?} cpus {cpus} mode {mode}");
            let (mut got_steps, mut want_steps) = (Steps::default(), Steps::default());
            let got = base
                .capture_golden(&mut rig.machine, mode, |cpu| got_steps.push(cpu))
                .expect(&what);
            assert!(rig.machine.block_stats().0 > 0, "{what}: the capture replayed no block");
            assert_eq!(&got, rig.golden(mode), "{what}: the capture at boot differs");
            let want = capture_single_stepped(&mut rig, mode, |cpu| want_steps.push(cpu));
            let want = want.expect(&what);
            assert!(!want.first_hits.is_empty(), "{what}");
            assert_eq!(got, want, "{what}");
            assert_eq!(got_steps, want_steps, "{what}: the observed steps differ");
        }
    }

    #[test]
    fn observed_capture_equals_the_single_stepped_one() {
        let options = |f: fn(&mut KernelBuildOptions)| {
            let mut o = KernelBuildOptions::default();
            f(&mut o);
            o
        };
        let server = options(|o| o.server = true);
        let no_assertions = options(|o| o.assertions = false);
        let smp = options(|o| o.smp = true);
        assert_capture_equals_reference(KernelBuildOptions::default(), Suite::Paper, 1);
        assert_capture_equals_reference(server, Suite::Traffic, 1);
        assert_capture_equals_reference(no_assertions, Suite::Paper, 1);
        assert_capture_equals_reference(smp, Suite::Paper, 1);
        assert_capture_equals_reference(smp, Suite::Paper, 2);
    }
}
