//! Lockstep differential execution over paired machine configurations.
//!
//! Two machines running the same [`GenProgram`] under configurations
//! that must be observationally equivalent (decode cache on/off,
//! chained block engine vs single-step, ring/null trace sink,
//! snapshot-restore vs fresh boot, shared-snapshot fork vs fresh boot,
//! full pipeline vs bare interpreter across user/kernel ring
//! transitions) are stepped together; their [`StepEvent`]s are compared
//! after every step and the full architectural state — registers, flags, control
//! registers, TSC, console, monitor, trap history, counters, and an
//! FNV-1a digest of all of physical memory — at checkpoints and at
//! termination. The first divergence is reported with a disassembly of
//! the instruction stream around the diverging EIP.

use crate::gen::{apply_mid_flip, install, GenProgram, CODE_BASE};
use kfi_machine::{
    Counters, ExecTier, Machine, MachineConfig, MonitorEvent, Snapshot, StepEvent, TrapRecord,
};

/// How often (in steps) the full architectural state is compared during
/// lockstep; step events are compared every step regardless.
pub const CHECKPOINT_INTERVAL: u64 = 64;

/// Lockstep never runs longer than this many steps per side.
pub const MAX_STEPS: u64 = 200_000;

/// Which fields that a pair's configurations legitimately perturb
/// participate in a state comparison; every other field always does.
///
/// The decode-cache counters necessarily differ between cache-on and
/// cache-off machines, so only the pairs that compare the interpreter
/// with a cached tier exclude them.
#[derive(Debug, Clone, Copy)]
pub struct StateMask {
    /// Compare `(decode_hits, decode_misses, decode_invalidations)`.
    pub decode_stats: bool,
    /// Compare [`Machine::smp_digest`] — every CPU's architectural
    /// state, the scheduler position, and in-flight IPIs. Masked out
    /// only by the pair that compares a multi-CPU machine against a
    /// uniprocessor ([`pair_smp_parked`]), where the digests differ
    /// structurally (0 on the uniprocessor side) by design.
    pub smp_digest: bool,
}

impl StateMask {
    /// Compare everything.
    pub fn full() -> StateMask {
        StateMask { decode_stats: true, smp_digest: true }
    }
}

/// A comparable capture of everything architecturally observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// EAX..EDI in encoding order.
    pub regs: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// EFLAGS image.
    pub eflags: u32,
    /// Code segment selector.
    pub cs: u32,
    /// CR0.
    pub cr0: u32,
    /// CR2 (page-fault linear address).
    pub cr2: u32,
    /// CR3 (page-directory base).
    pub cr3: u32,
    /// IDT base.
    pub idt_base: u32,
    /// Kernel stack pointer for privilege transitions.
    pub esp0: u32,
    /// Time-stamp counter.
    pub tsc: u64,
    /// Halted with interrupts off.
    pub halted: bool,
    /// Console output.
    pub console: Vec<u8>,
    /// Monitor events with timestamps.
    pub monitor: Vec<(u64, MonitorEvent)>,
    /// Delivered faults.
    pub traps: Vec<TrapRecord>,
    /// Execution counters.
    pub counters: Counters,
    /// TLB `(hits, misses)`.
    pub tlb_stats: (u64, u64),
    /// `(hits, misses, invalidations)` — zeroed when masked out.
    pub decode_stats: (u64, u64, u64),
    /// FNV-1a over all of physical memory.
    pub mem_digest: u64,
    /// [`Machine::smp_digest`]: every CPU's state + scheduler position
    /// + in-flight IPIs (0 on uniprocessor machines) — zeroed when
    /// masked out. Folding this in means a parked CPU diverging between
    /// its quanta is caught at the next checkpoint, not at its next
    /// slice.
    pub smp_digest: u64,
}

impl ArchState {
    /// Captures `m` under `mask`.
    pub fn capture(m: &Machine, mask: &StateMask) -> ArchState {
        ArchState {
            regs: m.cpu.regs,
            eip: m.cpu.eip,
            eflags: m.cpu.eflags.bits(),
            cs: m.cpu.cs,
            cr0: m.cpu.cr0,
            cr2: m.cpu.cr2,
            cr3: m.cpu.cr3,
            idt_base: m.cpu.idt_base,
            esp0: m.cpu.esp0,
            tsc: m.cpu.tsc,
            halted: m.cpu.halted,
            console: m.console().to_vec(),
            monitor: m.monitor_events().to_vec(),
            traps: m.trap_log().to_vec(),
            counters: m.counters(),
            tlb_stats: m.tlb_stats(),
            decode_stats: if mask.decode_stats { m.decode_stats() } else { (0, 0, 0) },
            mem_digest: m.mem.digest(),
            smp_digest: if mask.smp_digest { m.smp_digest() } else { 0 },
        }
    }

    /// Human-readable list of fields differing between two captures.
    pub fn diff(&self, other: &ArchState) -> Vec<String> {
        let mut out = Vec::new();
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    out.push(format!(
                        "{}: {:x?} != {:x?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        cmp!(regs);
        cmp!(eip);
        cmp!(eflags);
        cmp!(cs);
        cmp!(cr0);
        cmp!(cr2);
        cmp!(cr3);
        cmp!(idt_base);
        cmp!(esp0);
        cmp!(tsc);
        cmp!(halted);
        cmp!(console);
        cmp!(monitor);
        cmp!(traps);
        cmp!(counters);
        cmp!(tlb_stats);
        cmp!(decode_stats);
        cmp!(mem_digest);
        cmp!(smp_digest);
        out
    }
}

/// The first observed disagreement between paired machines.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Step index at which the disagreement was observed.
    pub step: u64,
    /// What disagreed.
    pub detail: String,
    /// Disassembly context around the first machine's EIP.
    pub context: String,
}

/// Result of running one pair to completion.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Steps executed per side.
    pub steps: u64,
    /// First divergence, if any.
    pub divergence: Option<Divergence>,
    /// Sanitizer reports from both sides, labeled `a:` / `b:`.
    pub violations: Vec<String>,
}

impl PairOutcome {
    /// No divergence and no sanitizer violations.
    pub fn clean(&self) -> bool {
        self.divergence.is_none() && self.violations.is_empty()
    }
}

fn disasm_context(m: &mut Machine) -> String {
    let eip = m.cpu.eip;
    let start = eip.saturating_sub(8).max(CODE_BASE);
    let mut buf = [0u8; 32];
    let n = m.probe_read(start, &mut buf);
    let mut out = String::new();
    for line in kfi_asm::disassemble(&buf[..n], start) {
        let marker = if line.addr == eip { ">" } else { " " };
        out.push_str(&format!("  {marker} {:#07x}: {}\n", line.addr, line.text));
    }
    out
}

fn collect_violations(label: &str, m: &Machine, into: &mut Vec<String>) {
    for v in m.sanitizer_violations() {
        into.push(format!("{label}: {v}"));
    }
    let extra = m.sanitizer_violation_count() as usize - m.sanitizer_violations().len();
    if extra > 0 {
        into.push(format!("{label}: … {extra} further violations elided"));
    }
}

fn terminal(ev: StepEvent) -> bool {
    matches!(ev, StepEvent::Halted | StepEvent::TripleFault)
}

/// Steps `a` and `b` in lockstep over `prog` until both terminate (or
/// [`MAX_STEPS`]), comparing step events every step and full state at
/// checkpoints. A mid-run flip in `prog` is applied to both machines
/// before the same step index.
pub fn run_lockstep(
    a: &mut Machine,
    b: &mut Machine,
    prog: &GenProgram,
    mask: &StateMask,
) -> PairOutcome {
    let mut step = 0u64;
    let mut divergence = None;
    loop {
        if let Some(f) = prog.mid_flip.filter(|f| f.step == step) {
            apply_mid_flip(a, &f);
            apply_mid_flip(b, &f);
        }
        let eva = a.step();
        let evb = b.step();
        step += 1;
        if eva != evb {
            divergence = Some(Divergence {
                step,
                detail: format!("step events diverged: a={eva:?} b={evb:?}"),
                context: disasm_context(a),
            });
            break;
        }
        let done = terminal(eva);
        if done || step % CHECKPOINT_INTERVAL == 0 {
            let sa = ArchState::capture(a, mask);
            let sb = ArchState::capture(b, mask);
            if sa != sb {
                divergence = Some(Divergence {
                    step,
                    detail: format!("state diverged:\n    {}", sa.diff(&sb).join("\n    ")),
                    context: disasm_context(a),
                });
                break;
            }
        }
        if done || step >= MAX_STEPS {
            break;
        }
    }
    let mut violations = Vec::new();
    collect_violations("a", a, &mut violations);
    collect_violations("b", b, &mut violations);
    PairOutcome { steps: step, divergence, violations }
}

/// Pair: the cached tier vs the interpreter tier (lockstep; cache
/// counters excluded).
pub fn pair_decode_cache(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, MachineConfig { tier: ExecTier::Cached, ..base });
    let mut b = install(prog, MachineConfig { tier: ExecTier::Interp, ..base });
    run_lockstep(&mut a, &mut b, prog, &StateMask { decode_stats: false, smp_digest: true })
}

/// Pair: ring trace sink vs null sink (lockstep; tracing must be
/// invisible to the guest).
pub fn pair_trace_sink(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, base);
    a.set_trace_sink(kfi_trace::TraceSink::ring(256));
    let mut b = install(prog, base);
    run_lockstep(&mut a, &mut b, prog, &StateMask::full())
}

/// Pair: snapshot-restore-rerun vs fresh boot. Machine `a` runs the
/// program once, restores its boot snapshot, and runs again; a machine
/// that boots fresh runs once. Both runs must take the same steps and
/// end in the same state under [`StateMask::full`].
pub fn pair_restore(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, base);
    let snap = a.snapshot();
    let first = run_to_end(&mut a, prog);
    rerun_against_fresh(&mut a, &snap, first, prog, base, "restored")
}

/// Restores `a`, which ran `prog` once from `snap` in `first` steps, and
/// runs it again, against a machine installed fresh that runs it once.
/// Both reruns must take `first` steps and end in the same state under
/// [`StateMask::full`]: a restore leaves nothing of the earlier run
/// behind, its statistics included.
fn rerun_against_fresh(
    a: &mut Machine,
    snap: &Snapshot,
    first: u64,
    prog: &GenProgram,
    base: MachineConfig,
    what: &str,
) -> PairOutcome {
    a.restore(snap);
    let second = run_to_end(a, prog);
    let mut b = install(prog, base);
    let third = run_to_end(&mut b, prog);
    let states = format!("{what}-rerun state != fresh-boot state");
    let mut out = final_outcome(a, &b, &StateMask::full(), second, &states);
    if first != second || second != third {
        out.divergence = Some(Divergence {
            step: second.min(third),
            detail: format!(
                "step counts diverged: first-run={first} {what}-rerun={second} fresh={third}"
            ),
            context: disasm_context(a),
        });
    }
    out
}

/// The single-step reference pass of the pairs whose other side is
/// driven by [`Machine::run`]: the stepped machine, its step count, and
/// the campaign-clock ([`Machine::max_tsc`]) readings at which it
/// applied the program's mid-run flip and stopped.
#[derive(Debug)]
pub struct Reference {
    /// The single-stepped machine, in its final state.
    pub machine: Machine,
    /// Steps taken.
    pub steps: u64,
    /// Campaign clock at the boundary where the mid-run flip landed
    /// (`None` when the program has none or ended first).
    pub flip_tsc: Option<u64>,
    /// Campaign clock at the end.
    pub end_tsc: u64,
    /// Whether the run ended in a halt or triple fault (rather than at
    /// [`MAX_STEPS`]).
    pub terminated: bool,
}

/// Single-steps `prog` under `config` as the reference for a
/// [`run_to_reference`] side.
///
/// `run` stops at the first instruction boundary where the campaign
/// clock has reached its deadline, and instruction-boundary TSCs are
/// bit-identical across execution modes. So the flip and the stop must
/// land on a boundary that is the *first* to show its clock reading:
/// one right after a step that raised the clock. On a uniprocessor
/// every non-terminal step does, and the flip lands exactly before its
/// step index. On an SMP machine a laggard CPU can step under the
/// leader's clock, so the flip (and, past [`MAX_STEPS`], the stop)
/// waits for the next step that raises it.
pub fn reference_pass(prog: &GenProgram, config: MachineConfig) -> Reference {
    let mut m = install(prog, config);
    let mut flip_tsc = None;
    let mut steps = 0u64;
    let mut clock_rose = true;
    let terminated = loop {
        if let Some(f) =
            prog.mid_flip.filter(|f| clock_rose && flip_tsc.is_none() && steps >= f.step)
        {
            flip_tsc = Some(m.max_tsc());
            apply_mid_flip(&mut m, &f);
        }
        let before = m.max_tsc();
        let ev = m.step();
        steps += 1;
        clock_rose = m.max_tsc() > before;
        if terminal(ev) {
            break true;
        }
        if steps >= MAX_STEPS && clock_rose {
            break false;
        }
    };
    Reference { end_tsc: m.max_tsc(), machine: m, steps, flip_tsc, terminated }
}

/// Installs `prog` under `config` and drives it with [`Machine::run`]
/// to the reference's flip boundary, applies the flip, and runs on to
/// the reference's end (through the same terminal event, when the
/// reference terminated).
pub fn run_to_reference(prog: &GenProgram, config: MachineConfig, r: &Reference) -> Machine {
    let mut m = install(prog, config);
    if let (Some(f), Some(t)) = (prog.mid_flip, r.flip_tsc) {
        m.run(t - m.max_tsc());
        apply_mid_flip(&mut m, &f);
    }
    if r.terminated {
        // Slack covers the halted side's TSC not advancing past the
        // terminal event.
        m.run(r.end_tsc.saturating_sub(m.max_tsc()).saturating_add(100_000));
    } else {
        m.run(r.end_tsc - m.max_tsc());
    }
    m
}

/// Compares the final states of a run-driven pair under `mask`.
fn final_outcome(
    a: &mut Machine,
    b: &Machine,
    mask: &StateMask,
    steps: u64,
    what: &str,
) -> PairOutcome {
    let sa = ArchState::capture(a, mask);
    let sb = ArchState::capture(b, mask);
    let divergence = (sa != sb).then(|| Divergence {
        step: steps,
        detail: format!("{what}:\n    {}", sa.diff(&sb).join("\n    ")),
        context: disasm_context(a),
    });
    let mut violations = Vec::new();
    collect_violations("a", a, &mut violations);
    collect_violations("b", b, &mut violations);
    PairOutcome { steps, divergence, violations }
}

/// Pair: the chained tier vs the cached tier, single-stepped. Machine
/// `b` is the [`reference_pass`] on [`ExecTier::Cached`]: it
/// single-steps (via [`Machine::step`], which never uses blocks) while
/// recording the TSC at the pre-flip boundary and at termination.
/// Machine `a` runs [`ExecTier::Chained`] and is driven by
/// [`Machine::run`] against those recorded TSCs ([`run_to_reference`])
/// — instruction-boundary TSCs are bit-identical across tiers, so a
/// cycle deadline stops `a` exactly where the flip (or the comparison
/// point) belongs, and a mid-run flip lands *inside* chained segments,
/// the case where a stale chain link or a skipped re-translation would
/// show.
///
/// The comparison uses [`StateMask::full`]: unlike the cache-on/off
/// pair, the block engine keeps the decode-cache *and* TLB statistics
/// identical to single-stepping — that is the property that lets the
/// golden campaign CSV stay byte-identical on the chained tier.
///
/// Both sides force the sanitizer off: `run` falls back to
/// single-stepping under the sanitizer, which would make the pair
/// vacuous.
pub fn pair_block_engine(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let off = MachineConfig { tier: ExecTier::Cached, sanitizer: false, ..base };
    let r = reference_pass(prog, off);
    let mut a = run_to_reference(prog, MachineConfig { tier: ExecTier::Chained, ..off }, &r);
    let what = "chained state != single-step state";
    final_outcome(&mut a, &r.machine, &StateMask::full(), r.steps, what)
}

/// Pair: shared-snapshot fork vs fresh boot, in two legs.
///
/// Leg 1: machine `a` is a [`Machine::fork`] of a snapshot taken from
/// an installed (never-run) donor — the copy-on-write fork path the
/// campaign rigs use — while machine `b` is installed fresh. The two
/// run in full-mask lockstep: a fork starts with empty caches and
/// zeroed statistics, so *everything* must match, cache and TLB
/// counters included. A mid-run flip variant writes into the code page
/// here, which is exactly the self-modifying-code case a stale shared
/// decode/block cache would get wrong.
///
/// Leg 2: `a` then restores the shared snapshot — for a fork this is a
/// dirty-page restore against the `Arc`-shared base image, the rig's
/// per-run reset — and reruns, compared at termination against a second
/// fresh boot under [`StateMask::full`].
pub fn pair_fork(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let donor = install(prog, base);
    let snap = donor.snapshot();

    // Fork with the donor's effective config (`install` overrides
    // `phys_mem`), exactly as the rig forks with the boot machine's.
    let mut a = Machine::fork(&snap, *donor.config());
    let mut b = install(prog, base);
    let first = run_lockstep(&mut a, &mut b, prog, &StateMask::full());
    if !first.clean() {
        return first;
    }
    rerun_against_fresh(&mut a, &snap, first.steps, prog, base, "restored-fork")
}

/// The bare single-step interpreter.
fn bare(base: MachineConfig) -> MachineConfig {
    MachineConfig { tier: ExecTier::Interp, ..base }
}

/// The full execution pipeline campaigns run with: the chained tier,
/// with the sanitizer off so [`Machine::run`] actually engages blocks.
fn full(base: MachineConfig) -> MachineConfig {
    MachineConfig { tier: ExecTier::Chained, sanitizer: false, ..base }
}

/// Pair: the full execution pipeline (the chained tier) vs the bare
/// single-step interpreter, on a
/// *ring-transition* program from
/// [`generate_ring`](crate::gen::generate_ring): `int $0x80` through a
/// user-callable IDT gate, the TSS.esp0 kernel-stack switch, `iret`
/// back to ring 3, and asynchronous timer interrupts of user code — the
/// transitions every campaign run crosses thousands of times, under the
/// exact machinery stack campaigns run with.
///
/// The bare side single-steps as the [`reference_pass`]; the full side
/// is driven by [`Machine::run`] against the TSCs it recorded
/// (instruction-boundary TSCs are bit-identical across execution modes
/// — and trap delivery costs are charged at instruction boundaries
/// too). Decode-cache statistics are masked (the bare side has no
/// cache); TLB statistics must still match, gate crossings and
/// CR3-rooted walks included.
///
/// Both sides force the sanitizer off, as in [`pair_block_engine`].
pub fn pair_ring(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let r = reference_pass(prog, bare(MachineConfig { sanitizer: false, ..base }));
    let mut a = run_to_reference(prog, full(base), &r);
    let mask = StateMask { decode_stats: false, smp_digest: true };
    let what = "full-pipeline state != single-step state across ring transitions";
    final_outcome(&mut a, &r.machine, &mask, r.steps, what)
}

/// Pair: the full execution pipeline driven by [`Machine::run`] vs the
/// bare single-step interpreter on a *two-CPU* machine running a
/// [`generate_smp`](crate::gen::generate_smp) program — startup IPI,
/// interleaved execution under the round-robin scheduler, cross-CPU
/// stores to a shared word, and a reschedule doorbell. The run loop
/// executes blocks while the active CPU runs alone and settles the
/// scheduler's slice and jitter state afterwards; an IPI send must end
/// the block so the next step goes through the scheduler. The bare side
/// is the [`reference_pass`] (it keeps the base's sanitizer); the full
/// side runs to the campaign-clock readings it recorded, as in
/// [`pair_ring`]. The decode cache is shared plumbing over
/// [`PhysMem`](kfi_machine::PhysMem) while the TLB is swapped per CPU,
/// so this pair would also catch a context swap leaking cached
/// translations across CPUs. Decode-cache statistics are masked (the
/// bare side has none); TLB statistics and [`StateMask::smp_digest`] —
/// both CPUs' full state, the scheduler position and in-flight IPIs —
/// must match.
pub fn pair_smp(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let r = reference_pass(prog, bare(base));
    let mut a = run_to_reference(prog, full(base), &r);
    let mask = StateMask { decode_stats: false, smp_digest: true };
    let what = "full-pipeline state != single-step state on two CPUs";
    final_outcome(&mut a, &r.machine, &mask, r.steps, what)
}

/// Pair: a two-CPU machine whose secondary is never woken vs the plain
/// uniprocessor, in lockstep on an ordinary
/// [`generate`](crate::gen::generate) program (no IPI traffic). A
/// parked CPU must be *free*: the
/// scheduler may rotate over it at every quantum boundary, but nothing
/// the program can observe — timing, TLB and decode statistics, memory
/// — may differ from the machine that never allocated a second CPU.
/// This is the checker-level face of the `cpus = 1` golden-corpus
/// guarantee: SMP support that leaks into uniprocessor behavior would
/// show up here before it invalidated a corpus. [`StateMask::
/// smp_digest`] is masked out — it is structurally 0 on the
/// uniprocessor side and nonzero on the other, the one legitimate
/// difference.
pub fn pair_smp_parked(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, MachineConfig { cpus: 2, ..base });
    let mut b = install(prog, MachineConfig { cpus: 1, ..base });
    run_lockstep(&mut a, &mut b, prog, &StateMask { decode_stats: true, smp_digest: false })
}

fn run_to_end(m: &mut Machine, prog: &GenProgram) -> u64 {
    let mut step = 0u64;
    loop {
        if let Some(f) = prog.mid_flip.filter(|f| f.step == step) {
            apply_mid_flip(m, &f);
        }
        let ev = m.step();
        step += 1;
        if terminal(ev) || step >= MAX_STEPS {
            return step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Variant};

    fn base() -> MachineConfig {
        MachineConfig { sanitizer: true, ..MachineConfig::default() }
    }

    #[test]
    fn identical_configs_never_diverge() {
        let prog = generate(3, Variant::Clean);
        let mut a = install(&prog, base());
        let mut b = install(&prog, base());
        let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
        assert!(out.clean(), "identical machines diverged: {out:?}");
        assert!(out.steps > 0);
    }

    #[test]
    fn lockstep_detects_a_seeded_state_difference() {
        let prog = generate(3, Variant::Clean);
        let mut a = install(&prog, base());
        let mut b = install(&prog, base());
        b.cpu.regs[3] ^= 0x40; // perturb EBX on one side only
        let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
        let d = out.divergence.expect("perturbed machine must diverge");
        assert!(
            d.detail.contains("regs") || d.detail.contains("events"),
            "unexpected divergence detail: {}",
            d.detail
        );
        assert!(!d.context.is_empty(), "divergence must carry disassembly context");
    }

    #[test]
    fn all_six_machine_pairs_agree_on_a_sample() {
        for seed in [0, 1, 2, 5] {
            for variant in [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip] {
                let prog = generate(seed, variant);
                let ring = crate::gen::generate_ring(seed, variant);
                for (name, out) in [
                    ("decode-cache", pair_decode_cache(&prog, base())),
                    ("block-engine", pair_block_engine(&prog, base())),
                    ("trace-sink", pair_trace_sink(&prog, base())),
                    ("restore", pair_restore(&prog, base())),
                    ("fork", pair_fork(&prog, base())),
                    ("ring", pair_ring(&ring, base())),
                ] {
                    assert!(out.clean(), "seed {seed} {variant:?} pair {name} failed:\n{:#?}", out);
                }
            }
        }
    }

    #[test]
    fn lockstep_detects_a_seeded_ring_switch_bug() {
        // A machine that skips the TSS.esp0 switch writes interrupt
        // frames to the *user* stack; lockstep against a correct
        // machine must catch the difference (the memory digest sees
        // the frame bytes land on the wrong page even when registers
        // happen to reconverge).
        let cfg = MachineConfig::default();
        for seed in [0u64, 1, 2] {
            let prog = crate::gen::generate_ring(seed, Variant::Clean);
            let mut a = install(&prog, cfg);
            let mut b = install(&prog, MachineConfig { ring_switch_bug: true, ..cfg });
            let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
            assert!(
                out.divergence.is_some(),
                "seed {seed}: ring pair MISSED the seeded stack-switch bug"
            );
        }
    }

    #[test]
    fn smp_pairs_agree_on_a_sample() {
        for seed in [0u64, 1, 2, 5] {
            for variant in [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip] {
                let smp = crate::gen::generate_smp(seed, variant);
                let out = pair_smp(&smp, base());
                assert!(out.clean(), "seed {seed} {variant:?} pair smp failed:\n{out:#?}");
                let prog = generate(seed, variant);
                let out = pair_smp_parked(&prog, base());
                assert!(out.clean(), "seed {seed} {variant:?} pair smp-parked failed:\n{out:#?}");
            }
        }
    }

    #[test]
    fn smp_pair_runs_blocks_between_single_steps() {
        // The smp pair is only worth its runtime if the run-driven side
        // really executes blocks while a CPU runs alone *and* steps
        // while both are live. Only a step can switch CPUs, so CPU 1
        // having run proves the second half.
        for seed in 0..8u64 {
            let prog = crate::gen::generate_smp(seed, Variant::Clean);
            let r = reference_pass(&prog, bare(MachineConfig::default()));
            let m = run_to_reference(&prog, full(MachineConfig::default()), &r);
            let (hits, misses, _) = m.block_stats();
            assert!(hits + misses > 0, "seed {seed}: no block ran");
            assert!(m.cpu_state(1).tsc > 0, "seed {seed}: CPU 1 never ran");
        }
    }

    #[test]
    fn smp_programs_actually_interleave_and_doorbell() {
        // The equivalence pairs above are only worth their runtime if
        // the generated programs really wake CPU 1 and stop it with a
        // reschedule IPI — pin that here so a generator regression
        // can't silently turn the SMP sweep vacuous.
        let mut delivered = 0u64;
        for seed in 0..8u64 {
            let prog = crate::gen::generate_smp(seed, Variant::Clean);
            let mut m = install(&prog, MachineConfig::default());
            let steps = run_to_end(&mut m, &prog);
            assert!(steps < MAX_STEPS, "smp seed {seed} did not terminate");
            assert!(m.cpu_state(0).halted && m.cpu_state(1).halted, "seed {seed} left a CPU live");
            assert!(m.cpu_state(1).tsc > 0, "smp seed {seed} never ran CPU 1");
            delivered += m.counters().ipis;
        }
        assert!(delivered > 0, "no seed delivered a reschedule doorbell");
    }

    #[test]
    fn lockstep_detects_a_seeded_dropped_ipi() {
        // A machine that loses reschedule IPIs leaves CPU 1 grinding
        // through its bounded loop long after the correct machine's
        // CPU 1 took the doorbell and halted; the smp digest (and
        // eventually the shared word) must diverge.
        let cfg = MachineConfig::default();
        for seed in [0u64, 1, 2] {
            let prog = crate::gen::generate_smp(seed, Variant::Clean);
            let mut a = install(&prog, cfg);
            let mut b = install(&prog, MachineConfig { ipi_drop_bug: true, ..cfg });
            let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
            assert!(
                out.divergence.is_some(),
                "seed {seed}: smp pair MISSED the seeded dropped-IPI bug"
            );
        }
    }
}
