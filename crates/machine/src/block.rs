//! The chained block engine: trace recording, replay and block
//! chaining, the execution tier [`ExecTier::Chained`].
//!
//! The per-instruction decode cache removed the variable-length decoder
//! from the hot loop but still dispatches one instruction at a time:
//! every step pays the full run-loop ritual — deadline compare, abort
//! poll, halted/triple-fault/breakpoint/timer checks — before a single
//! cached instruction executes. This module extends the cache one level
//! up. Recording runs through branches of any kind — direct, computed,
//! across page boundaries — forming a trace of the path actually
//! executed, bounded by [`MAX_BLOCK_INSNS`] and [`MAX_TRACE_PAGES`].
//! Exited traces link to their successors ([`BlockCache::chain_next`])
//! so hot paths dispatch block-to-block without returning to the run
//! loop, and replay validates its fetch translations *once per entry*
//! instead of once per instruction (see below). A quantum
//! ([`CHAIN_QUANTUM`]) bounds every chained segment so the abort flag
//! is polled as promptly as the single-step loop promises.
//!
//! # Correctness model
//!
//! A block is *pure acceleration metadata*: replaying one must be
//! bit-identical to single-stepping the same instructions, including
//! every counter the golden CSV pins (decode-cache and TLB statistics).
//! Three mechanisms enforce that:
//!
//! * **Same invalidation as the decode cache.** Block entries are keyed
//!   by the physical address of the first instruction and validated
//!   against the page's write generation
//!   ([`PhysMem::page_gen`](crate::PhysMem::page_gen)) — any physical
//!   write to the page (self-modifying code, DMA, the injector's bit
//!   flip) kills the block exactly as it kills the decoded instructions
//!   inside it. The cache is epoch-flushed on every snapshot restore so
//!   per-run hit/miss counts stay a pure function of the run
//!   (thread-invariant campaign metrics).
//! * **Per-instruction revalidation on replay.** Each replayed step
//!   re-establishes, one way or another, everything the single-step
//!   path would have checked: the cycle limit (deadline and next timer
//!   tick), armed debug registers, the fetch translation (when paging
//!   is on — keeping TLB statistics and #PF behavior identical), and a
//!   decode-cache probe proving the page generation is unchanged since
//!   the bytes were decoded. A block holds no instructions of its own:
//!   it is a path through the decode cache, and each step executes the
//!   instruction in the slot its probe validated. The *hot* replay
//!   path discharges most of these wholesale rather than per
//!   instruction — the limit check by
//!   bounded-TSC chunking, the translation by a once-per-entry
//!   page-set proof extended by TLB-generation compares
//!   ([`Machine::replay_block_fast`] documents the argument) — but
//!   every hoisted check is provably equivalent to the per-instruction
//!   original, and any surprise (EIP divergence, generation bump,
//!   conflict eviction, translation change) falls back to the careful
//!   per-instruction path or exits to the full fetch machinery.
//! * **Fallback conditions.** [`Machine::run`] only uses blocks on the
//!   chained tier with the sanitizer off (the sanitizer's contract is
//!   *per-step* validation). Even then a pending timer tick, a halted
//!   CPU, a latched triple fault, or a breakpoint match at the block
//!   head routes through the ordinary [`Machine::step`]
//!   machinery. On a `cpus > 1` machine so does every step the active
//!   CPU does not run *alone*: while another CPU is live or an IPI is
//!   pending, quantum boundaries, rotations and IPI delivery need
//!   per-step precision. Alone, the scheduler can do nothing but renew
//!   the active CPU's own slice, so blocks ignore the quantum and `run`
//!   settles the slice (and its jitter draws) by the steps each block
//!   retired. Only an IPI send can end that state, so on SMP machines
//!   an `out` that may write the IPI port ends traces like a
//!   terminator. [`Machine::step`] itself never uses blocks, so
//!   lockstep tools (the checker, golden-trace capture) see unchanged
//!   per-step semantics.
//!
//! # Observed runs
//!
//! Every path through the engine — recording, hot replay, careful
//! replay and the uncached fallback — reports its step boundaries and
//! executed steps to a compile-time [`StepObserver`]: the boundary just
//! before an instruction executes, once the engine is committed to
//! executing it there, and the CPU state after it (a fault delivered
//! included, a triple fault not). The entry boundary of a segment and
//! of each block belongs to the caller (the run loop, or the chain
//! step). No boundary inside a block is a tick cut, because a block's
//! limit is the next tick. [`Machine::run`] passes the observer `()`,
//! whose hooks compile away.
//!
//! [`ExecTier::Chained`]: crate::ExecTier::Chained
//! [`StepObserver`]: crate::StepObserver
//! [`Machine::run`]: crate::Machine::run
//! [`Machine::step`]: crate::Machine::step

use crate::machine::{Fault, Machine, StepObserver};
use crate::mem::{PhysMem, PAGE_SIZE};
use crate::mmu::Access;
use crate::trap::Vector;
use kfi_isa::{Insn, Op, PortArg};
use std::sync::Arc;

const PAGE_MASK: u32 = PAGE_SIZE - 1;

/// Longest recorded block, in instructions. Blocks are bounded so one
/// replay cannot run arbitrarily far from a boundary check: the bound
/// caps both how much the batched quantum can over-subtract and how
/// long a divergence-free stretch may defer the dispatcher. Traces
/// routinely hit the cap (kernel code re-enters the same loops).
const MAX_BLOCK_INSNS: usize = 128;

/// Slot count (power of two). Blocks are sparser than instructions —
/// roughly one per branch target — so a quarter of the decode cache's
/// 16 Ki slots covers the guest kernel's text without conflict churn.
const SLOTS: usize = 4 * 1024;

/// Instruction budget for one chained segment: how many instructions
/// may retire block-to-block before control returns to
/// [`Machine::run`]'s dispatch loop (where the wall-clock abort flag is
/// polled). Half of [`ABORT_CHECK_STEPS`](crate::ABORT_CHECK_STEPS), so
/// chained execution polls the flag at least as often as the
/// single-step loop's contract promises and watchdog reap latency is
/// unchanged.
const CHAIN_QUANTUM: u32 = crate::machine::ABORT_CHECK_STEPS / 2;

/// Most distinct pages one trace may fetch from. Replay re-proves the
/// whole set whenever the TLB mutates mid-trace, so the set is kept
/// small enough that the proof stays a handful of compares; recording
/// ends a trace rather than let it roam further (kernel traces touch
/// two or three pages — deep call chains hit [`MAX_BLOCK_INSNS`]
/// first).
const MAX_TRACE_PAGES: usize = 8;

/// Largest TSC advance one non-terminator instruction can cause: the
/// base cycle plus `in`/`out`'s +150 device latency (memory operands
/// add +2 each, `div` +20 — all smaller). Blocks only carry a
/// terminator as their *last* instruction, so every instruction feeding
/// a mid-block limit check is bounded by this. When even a run of
/// worst-case instructions cannot reach `limit`, none of that run's
/// per-instruction limit checks could fire, and the hot replay path
/// hoists them all into one comparison per chunk
/// ([`Machine::replay_block_fast`]).
const MAX_TSC_PER_INSN: u64 = 151;

/// True when `op` must end a trace: it can change the privilege level or paging regime (`int`, `iret`, `lret`,
/// `mov %cr`), halt, or trap to a handler. Everything else — including
/// computed branches and `rep` string steps — may be recorded through:
/// the replay's per-instruction physical-address compare verifies live
/// control flow still follows the recorded path, wherever that path
/// came from.
fn chain_stops(op: &Op) -> bool {
    matches!(
        op,
        Op::Lret
            | Op::Int(_)
            | Op::Int3
            | Op::Into
            | Op::Iret
            | Op::Ud2
            | Op::Hlt
            | Op::MovToCr { .. }
    )
}

/// True when `op` may write [`ports::MON_IPI`](crate::ports::MON_IPI):
/// an `out` to that immediate port or to a port in DX. On an SMP
/// machine such a write can wake another CPU or queue an IPI for the
/// active one, after which the scheduler needs per-step precision, so
/// there it ends traces.
fn may_send_ipi(op: &Op) -> bool {
    match op {
        Op::Out { port: PortArg::Dx, .. } => true,
        Op::Out { port: PortArg::Imm(p), .. } => u16::from(*p) == crate::ports::MON_IPI,
        _ => false,
    }
}

/// A recorded trace: the path of physical fetch addresses one execution
/// took through the decode cache.
///
/// Recording continues through branches of any kind — direct,
/// computed (`ret`, indirect `jmp`/`call`), across page boundaries,
/// even pinned-EIP `rep` string iterations — forming a *trace* of the
/// control-flow path actually taken. Each [`Step`] records the
/// instruction's virtual and physical fetch addresses so a replay can
/// verify that live control flow is still following the recorded path;
/// the first divergence (a branch going the other way, a `ret` to a
/// different caller) exits to the dispatcher exactly like any other
/// discontinuity. Because a link is only ever an edge record and every
/// step is re-verified, the *provenance* of the recorded path is
/// irrelevant to soundness.
///
/// Steps hold no instruction: replay executes the decode-cache slot's
/// copy, which its per-step probe already validates. Both lists are
/// allocated at their recorded length.
#[derive(Debug)]
pub(crate) struct Block {
    steps: Box<[Step]>,
    /// The distinct `(vpn, pfn)` pairs the trace fetches from, in
    /// first-use order (head page first), bounded by
    /// [`MAX_TRACE_PAGES`]. Replay proves *once per entry* that every
    /// one of these mappings is TLB-resident with fetch permission
    /// under the current privilege level; because every TLB mutation
    /// bumps [`Tlb::generation`](crate::mmu::Tlb), a single generation
    /// compare per instruction then extends the proof across the whole
    /// trace — the recorded physical addresses are exactly what
    /// per-instruction `mmu::translate` calls would return, without
    /// making them. Empty when the trace was recorded with paging off.
    pages: Box<[(u32, u32)]>,
    /// Paging mode the trace was recorded under. A trace is only
    /// replayed hot in the same mode: the page-set proof above means
    /// nothing across a regime change (the dispatcher hands mismatches
    /// to the careful path, which re-translates every step).
    paged: bool,
}

/// One recorded instruction of a [`Block`]: where it was fetched from
/// and the page generation it was decoded under (16 bytes).
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Virtual fetch address. Replay compares live EIP against this:
    /// together with the entry-validated page set it proves the
    /// reference translation would hit and yield `pa`.
    eip: u32,
    /// Physical fetch address (traces may branch backwards or across
    /// pages, so addresses are not monotonic).
    pa: u32,
    /// Page generation observed when the instruction was recorded.
    /// The head page's generation is re-anchored by the cache slot at
    /// lookup time, but a trace may span further pages with no slot of
    /// their own; comparing against the *record-time* generation (not
    /// merely the decode cache's own) catches a page that was rewritten
    /// and then re-decoded between record and replay, which the decode
    /// probe alone could not see.
    gen: u64,
}

#[derive(Debug, Clone, Default)]
struct Slot {
    pa: u32,
    gen: u64,
    /// Epoch the entry was inserted in; 0 = never filled.
    epoch: u64,
    /// `Arc` so a replay can hold the block while `exec_insn` borrows
    /// the machine mutably (and so hot-path clones stay O(1)).
    block: Option<Arc<Block>>,
    /// Chain links: the virtual successor address this block's exit was
    /// last observed to reach, per exit direction (0 = branch taken /
    /// unconditional / computed, 1 = fall-through). For computed exits
    /// (`ret`, indirect branches) the link behaves like a one-entry
    /// BTB, re-pointed whenever the observed target changes. A link is
    /// an *edge record*, never a validity promise — every follow still
    /// translates the successor address and revalidates the target
    /// block's generation, so a stale link can at worst be torn down
    /// (a chain break), not replay stale code.
    links: [Option<u32>; 2],
}

/// One live block-cache entry, as a checkpoint holds it: the block is
/// shared, not copied.
#[derive(Debug, Clone)]
pub(crate) struct LiveBlock {
    pa: u32,
    gen: u64,
    block: Arc<Block>,
    links: [Option<u32>; 2],
}

/// A direct-mapped basic-block cache with hit/miss/invalidation and
/// chain counters, which count since the last [`BlockCache::reset`].
///
/// The table is allocated on the first insert or install, and freed
/// with every block by [`BlockCache::release`].
#[derive(Debug)]
pub(crate) struct BlockCache {
    /// Empty until the first insert or install, then `SLOTS` long.
    slots: Vec<Slot>,
    /// The steps and pages of the block being recorded, kept between
    /// recordings so that each block is copied out at its recorded
    /// length.
    recording: (Vec<Step>, Vec<(u32, u32)>),
    epoch: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    links: u64,
    follows: u64,
    breaks: u64,
}

impl BlockCache {
    pub(crate) fn new() -> BlockCache {
        BlockCache {
            slots: Vec::new(),
            recording: Default::default(),
            epoch: 1,
            hits: 0,
            misses: 0,
            invalidations: 0,
            links: 0,
            follows: 0,
            breaks: 0,
        }
    }

    /// `(hits, misses, invalidations)`. A hit replayed a cached block; a
    /// miss recorded one; an invalidation is a miss that found a
    /// matching entry killed by a write to its page.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.invalidations)
    }

    /// `(links, follows, breaks)`: chain edges recorded, edges traversed
    /// block-to-block, and edges torn down because the successor
    /// vanished (page write, eviction, or flush).
    pub(crate) fn chain_stats(&self) -> (u64, u64, u64) {
        (self.links, self.follows, self.breaks)
    }

    /// Drops every entry in O(1) by advancing the epoch.
    fn flush(&mut self) {
        self.epoch += 1;
    }

    /// [`BlockCache::flush`], and zeroes the counters: the cache a
    /// restore leaves.
    pub(crate) fn reset(&mut self) {
        self.flush();
        [self.hits, self.misses, self.invalidations] = [0; 3];
        [self.links, self.follows, self.breaks] = [0; 3];
    }

    /// [`BlockCache::flush`], and frees the table with every block in it
    /// (a flush leaves them allocated until their slots are reused). The
    /// counters keep counting.
    pub(crate) fn release(&mut self) {
        self.flush();
        self.slots = Vec::new();
        self.recording = Default::default();
    }

    /// Whether the table is allocated.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The slot of `pa`, allocating the table on first use.
    fn slot_mut(&mut self, pa: u32) -> &mut Slot {
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); SLOTS];
        }
        &mut self.slots[pa as usize & (SLOTS - 1)]
    }

    /// The live entries, in slot order. Between dispatches every taken
    /// block is back in its slot.
    pub(crate) fn live(&self) -> Vec<LiveBlock> {
        let epoch = self.epoch;
        self.slots
            .iter()
            .filter(|s| s.epoch == epoch)
            .map(|s| LiveBlock {
                pa: s.pa,
                gen: s.gen,
                block: s.block.clone().expect("block back in its slot between dispatches"),
                links: s.links,
            })
            .collect()
    }

    /// Makes `live` (as [`BlockCache::live`] lists them) the cache's
    /// entries. The counters stay as they are: a run resumed from a
    /// checkpoint counts only the blocks it replays itself. The cache
    /// must have been flushed since its last insert.
    pub(crate) fn install(&mut self, live: &[LiveBlock]) {
        let epoch = self.epoch;
        for b in live {
            *self.slot_mut(b.pa) =
                Slot { pa: b.pa, gen: b.gen, epoch, block: Some(b.block.clone()), links: b.links };
        }
    }

    fn insert(&mut self, pa: u32, gen: u64, block: Block) {
        let epoch = self.epoch;
        *self.slot_mut(pa) =
            Slot { pa, gen, epoch, block: Some(Arc::new(block)), links: [None; 2] };
    }

    /// Takes the block starting at physical address `pa` out of its
    /// slot, validating the entry against the page's current write
    /// generation (a block's instructions were decoded from the page as
    /// it was at generation `gen`; replaying them is only sound while
    /// that generation holds — mid-block writes are caught by the
    /// per-instruction decode-cache probe). A hit counts as one, a miss
    /// as one, and a miss that found a matching entry killed by a write
    /// also as an invalidation.
    ///
    /// Moving the block out instead of cloning the `Arc` trades two
    /// reference-count updates per block entry for two plain moves: the
    /// dispatch loop runs a take / [`BlockCache::put_back`] bracket
    /// around every replay, and nothing can touch the slot while the
    /// block is out (replay never inserts, and flushes only happen
    /// between runs).
    fn take(&mut self, pa: u32, mem: &PhysMem) -> Option<Arc<Block>> {
        if let Some(slot) = self.slots.get_mut(pa as usize & (SLOTS - 1)) {
            if slot.epoch == self.epoch && slot.pa == pa {
                if slot.gen == mem.page_gen(pa) {
                    if let Some(b) = slot.block.take() {
                        self.hits += 1;
                        return Some(b);
                    }
                } else {
                    self.invalidations += 1;
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Returns a block taken with [`BlockCache::take`] to its slot.
    fn put_back(&mut self, pa: u32, block: Arc<Block>) {
        let slot = &mut self.slots[pa as usize & (SLOTS - 1)];
        debug_assert!(slot.epoch == self.epoch && slot.pa == pa && slot.block.is_none());
        slot.block = Some(block);
    }

    /// Chain step: the block at `from_pa` just exited via `dir` toward
    /// virtual address `to_eip` (already translated to `to_pa`, with
    /// the translation's statistics counted). Takes the successor
    /// block out of its generation-validated slot ([`BlockCache::take`];
    /// the dispatch loop puts it back after the replay) and maintains
    /// the edge record on the source slot: a hit through an existing
    /// matching link is a *follow*, a hit without one records a
    /// *link*, and a miss with a link standing tears it down as a
    /// *break* (the successor was invalidated or evicted since the
    /// edge was recorded).
    fn chain_next(
        &mut self,
        from_pa: u32,
        dir: usize,
        to_eip: u32,
        to_pa: u32,
        mem: &PhysMem,
    ) -> Option<Arc<Block>> {
        let hit = self.take(to_pa, mem);
        let epoch = self.epoch;
        // The source block came out of its slot, so the table exists.
        let from = &mut self.slots[from_pa as usize & (SLOTS - 1)];
        if from.epoch == epoch && from.pa == from_pa {
            match (hit.is_some(), from.links[dir]) {
                (true, Some(linked)) if linked == to_eip => self.follows += 1,
                (true, _) => {
                    // New edge, or one re-pointed because the same
                    // physical block is being walked through a
                    // different virtual mapping.
                    from.links[dir] = Some(to_eip);
                    self.links += 1;
                }
                (false, Some(_)) => {
                    from.links[dir] = None;
                    self.breaks += 1;
                }
                (false, None) => {}
            }
        }
        hit
    }
}

/// How a chained replay left a block.
enum ChainExit {
    /// The block ended somewhere the dispatch loop must see: a fault, a
    /// mid-block boundary stop (limit, breakpoint, discontinuity), or a
    /// terminator that can change the privilege level or paging regime
    /// (`int`, `iret`, `lret`, `mov %cr`), halt, or trap.
    Stop,
    /// The block ran to completion and its successor address is already
    /// in EIP, reached without changing CPL or the paging regime: `dir`
    /// 0 is the taken/unconditional/computed edge (`jmp`, `call`, taken
    /// `jcc`, and the near computed exits `ret` / `jmp*` / `call*` /
    /// string-op continuation — the link merely remembers the *last
    /// observed* target; every follow re-validates it), `dir` 1 the
    /// fall-through edge (untaken `jcc`, or a block cut by the length
    /// cap / page boundary rather than a terminator).
    Chain { dir: usize },
}

/// Classifies the exit edge of a block whose last instruction (`insn`,
/// at address `eip`) just executed without fault. Only exits that
/// cannot change the privilege level or paging regime chain — the
/// successor address is whatever the instruction left in EIP, and the
/// chain's per-entry protocol re-validates it from scratch, so a
/// *computed* successor (`ret`, indirect branch, a repeating string
/// op's own address) is as chainable as a static one. Everything
/// privilege- or regime-changing (`int`, `iret`, `lret`, `mov %cr`),
/// plus halt and the trap instructions, goes back to the dispatcher, as
/// does a possible IPI send on an SMP machine.
fn chain_exit(m: &Machine, insn: &Insn, eip: u32) -> ChainExit {
    match insn.op {
        Op::Jmp { .. }
        | Op::Call { .. }
        | Op::JmpInd(_)
        | Op::CallInd(_)
        | Op::Ret
        | Op::RetImm(_)
        | Op::Str { .. } => ChainExit::Chain { dir: 0 },
        Op::Jcc { .. } => {
            let fallthrough = eip.wrapping_add(u32::from(insn.len));
            ChainExit::Chain { dir: usize::from(m.cpu.eip == fallthrough) }
        }
        ref op if m.smp.is_some() && may_send_ipi(op) => ChainExit::Stop,
        ref op if !chain_stops(op) => ChainExit::Chain { dir: 1 },
        _ => ChainExit::Stop,
    }
}

/// The once-per-entry translation record a chained replay validates
/// against: the code page's `vpn -> pfn` mapping and the TLB generation
/// it was observed under. While the generation is unchanged, the TLB
/// entry that produced the mapping is provably still resident (lookups
/// never mutate the entry array), so a full `mmu::translate` would hit
/// with this exact result — the replay counts the hit and skips the
/// walk-ready translation machinery. Any TLB mutation (an insert from a
/// data access's miss, a flush) bumps the generation and the next fetch
/// falls back to a real, identically-counted translation.
/// Traces roam across pages (calls and returns ping-pong between the
/// caller's and the callee's page), so the context keeps a few
/// direct-mapped entries rather than one: each crossing back to a
/// recently-proven page costs a compare instead of a page walk. All
/// entries are guarded by the same generation; a bump invalidates the
/// lot.
struct FetchCtx {
    vpn: [u32; Self::ENTRIES],
    pfn: [u32; Self::ENTRIES],
    tlb_gen: u64,
}

impl FetchCtx {
    const ENTRIES: usize = 4;

    /// A context proving nothing yet: no 32-bit EIP has a VPN of
    /// `u32::MAX`, so every slot misses until a real translation primes
    /// it.
    fn new(tlb_gen: u64) -> Self {
        FetchCtx { vpn: [u32::MAX; Self::ENTRIES], pfn: [0; Self::ENTRIES], tlb_gen }
    }
}

impl Machine {
    /// Executes a segment of cached blocks linked by their exits, or
    /// records one block while executing it.
    ///
    /// The caller — [`Machine::run`] — guarantees on entry: no latched
    /// triple fault, CPU not halted, no pending timer tick, no
    /// breakpoint match at the current EIP, `tsc < deadline`, and on an
    /// SMP machine that the active CPU runs alone. It has shown `obs` the
    /// boundary at the current EIP.
    pub(crate) fn exec_block<O: StepObserver>(&mut self, deadline: u64, obs: &mut O) {
        // Mid-block boundaries must stop wherever the single-step loop
        // would have intervened: the run deadline or the next timer
        // tick, whichever comes first. `next_tick` cannot move during a
        // block (timer delivery happens only between blocks and
        // `mov %cr` is a terminator), so the bound is hoisted.
        let limit =
            if self.config().timer_enabled { deadline.min(self.next_tick) } else { deadline };
        let eip0 = self.cpu.eip;
        // First instruction: counted and translated exactly like a
        // single step (per-fetch translation keeps TLB statistics and
        // paging faults bit-identical; with paging off, translation is
        // the identity and touches no statistics on either path).
        self.counters.instructions += 1;
        let paging = self.cpu.paging();
        let pa0 = if paging {
            match self.xlate(eip0, Access::Exec) {
                Ok(pa) => pa,
                Err(f) => return self.exec_fault(f, obs),
            }
        } else {
            eip0
        };
        // Chained dispatch. Each iteration replays one cached block and,
        // when it exits over a statically-known edge, performs the exact
        // per-entry protocol the dispatch loop would have (instruction
        // count, counted translation, generation-validated lookup) and
        // continues to the successor without returning to `Machine::run`.
        // The segment is bounded by `CHAIN_QUANTUM` retired instructions
        // so the abort flag and dispatch-loop conditions are still
        // polled promptly.
        let mut ctx = FetchCtx::new(self.tlb.generation());
        // The entry translation above proved `eip0`'s page (its entry
        // is TLB-resident at the current generation): prime its slot.
        let slot = ((eip0 >> 12) as usize) & (FetchCtx::ENTRIES - 1);
        ctx.vpn[slot] = eip0 >> 12;
        ctx.pfn[slot] = pa0 >> 12;
        let mut quantum = CHAIN_QUANTUM;
        let mut pa = pa0;
        let mut block = match self.block_cache.take(pa, &self.mem) {
            Some(b) => b,
            None => return self.record_block(eip0, pa0, limit, obs),
        };
        loop {
            let exit = self.replay_block_fast(&block, pa, limit, &mut quantum, &mut ctx, obs);
            self.block_cache.put_back(pa, block);
            let dir = match exit {
                ChainExit::Stop => return,
                ChainExit::Chain { dir } => dir,
            };
            // Between blocks the dispatch loop would check the deadline
            // and timer (both folded into `limit`), the abort flag and
            // halt/triple-fault state (only reachable through exits that
            // already `Stop`), and breakpoints at the new EIP.
            if quantum == 0 || self.cpu.tsc >= limit {
                return;
            }
            let neip = self.cpu.eip;
            if self.cpu.dr7 != 0 && self.cpu.breakpoint_match(neip).is_some() {
                return;
            }
            // Per-entry protocol for the successor, identical to the
            // top of this function, whose boundary is shown here.
            obs.boundary(&self.cpu, false);
            self.counters.instructions += 1;
            let npa = if paging {
                match self.fetch_pa(neip, &mut ctx) {
                    Ok(p) => p,
                    Err(f) => return self.exec_fault(f, obs),
                }
            } else {
                neip
            };
            match self.block_cache.chain_next(pa, dir, neip, npa, &self.mem) {
                Some(b) => {
                    pa = npa;
                    block = b;
                }
                None => return self.record_block(neip, npa, limit, obs),
            }
        }
    }

    /// Translates a fetch address inside a chained segment: the
    /// fast path proven by [`FetchCtx`], or a real counted translation
    /// (which re-primes the context) on any discontinuity.
    #[inline]
    fn fetch_pa(&mut self, eip: u32, ctx: &mut FetchCtx) -> Result<u32, Fault> {
        let vpn = eip >> 12;
        let slot = (vpn as usize) & (FetchCtx::ENTRIES - 1);
        if ctx.vpn[slot] == vpn && self.tlb.generation() == ctx.tlb_gen {
            self.tlb.count_hit();
            return Ok((ctx.pfn[slot] << 12) | (eip & PAGE_MASK));
        }
        let pa = self.xlate(eip, Access::Exec)?;
        // The translation itself may have inserted a TLB entry (bumping
        // the generation): re-read it, and drop every previously-proven
        // page if it moved — their proofs were against the old
        // generation.
        let gen = self.tlb.generation();
        if gen != ctx.tlb_gen {
            ctx.vpn = [u32::MAX; FetchCtx::ENTRIES];
            ctx.tlb_gen = gen;
        }
        ctx.vpn[slot] = vpn;
        ctx.pfn[slot] = pa >> 12;
        Ok(pa)
    }

    /// Replays one cached block with the boundary checks and counting
    /// of single-stepping, and classifies its exit for chaining.
    ///
    /// The common case takes a *hot path* that hoists every
    /// per-instruction check it can prove vacuous up front:
    ///
    /// * **Cycle limit.** Mid-block instructions are all
    ///   non-terminators, each advancing TSC by at most
    ///   [`MAX_TSC_PER_INSN`]; if even the worst case cannot reach
    ///   `limit`, the per-instruction `tsc >= limit` checks are
    ///   provably all-false and skipping them changes nothing.
    /// * **Breakpoints.** No instruction writes the debug registers, so
    ///   `dr7 == 0` at entry means no mid-block check could match.
    /// * **Instruction counter / quantum.** Nothing observes the
    ///   counters mid-block (trap records carry TSC, the sanitizer is
    ///   never active in block mode), so both are batched: each chunk
    ///   is counted and debited up front, and both are walked back when
    ///   the careful path takes over mid-chunk. The quantum must come
    ///   out exact: where a segment ends decides which block entries are
    ///   chain follows, so the chain counters of a hot replay equal
    ///   those of a careful one only if both end their segments alike.
    /// * **Fetch translation.** Proven *once per entry*: every `(vpn,
    ///   pfn)` pair the trace fetches from is checked TLB-resident with
    ///   fetch permission ([`Machine::trace_pages_mapped`]). Because
    ///   every TLB mutation bumps the generation, one generation
    ///   compare per instruction then extends the proof: while it
    ///   holds and live EIP equals the recorded EIP, the reference
    ///   translation would hit and yield exactly the recorded physical
    ///   address — so the per-instruction `mmu::translate` is replaced
    ///   by one compare against a recorded constant. A mid-trace bump
    ///   (a data access that missed the TLB) re-proves the page set
    ///   and continues; if the proof fails, or EIP leaves the recorded
    ///   path, the careful path below takes over with real, counted
    ///   translations.
    ///
    /// The per-instruction decode-cache probe is *not* hoisted: its
    /// hit/miss/invalidation counts are pinned by the golden CSV, a
    /// conflict eviction between replays is invisible to every
    /// generation check, and the slot it validates holds the instruction
    /// the step executes. (It is, however, *fused* with the recorded
    /// page-generation compare — see [`DecodeCache::insn_at`] — so
    /// validation reads one page generation and one slot per
    /// instruction, every compare against recorded constants.)
    ///
    /// Blocks entered with breakpoints armed replay entirely on the
    /// careful path, which performs the reference per-instruction
    /// protocol verbatim. Blocks entered close to `limit` run the
    /// longest provably-safe prefix hot, then hand the remainder to the
    /// careful path mid-block.
    ///
    /// [`DecodeCache::insn_at`]: crate::decode_cache::DecodeCache::insn_at
    fn replay_block_fast<O: StepObserver>(
        &mut self,
        block: &Block,
        pa0: u32,
        limit: u64,
        quantum: &mut u32,
        ctx: &mut FetchCtx,
        obs: &mut O,
    ) -> ChainExit {
        let n = block.steps.len();
        if self.cpu.dr7 != 0 {
            return self.replay_block_careful(block, 0, pa0, limit, quantum, ctx, obs);
        }
        let paging = self.cpu.paging();
        // Entry validation: same paging regime, the head translation
        // matches the recording, and the whole page set is mapped as
        // recorded. Anything else runs on the reference protocol.
        if block.paged != paging
            || block.steps[0].pa != pa0
            || (paging && !self.trace_pages_mapped(block))
        {
            return self.replay_block_careful(block, 0, pa0, limit, quantum, ctx, obs);
        }
        let mut tlb_gen = self.tlb.generation();
        // TLB and decode hit counters are *derived*, not accumulated:
        // at any exit below, the decode-probe hits so far are a pure
        // function of the exit index (every earlier step passed its
        // probe), and likewise the TLB hits the reference's per-fetch
        // translations would have recorded (one per step past the
        // head, when paging). Each exit flushes both in one addition —
        // bit-identical to the reference's per-instruction increments
        // (TLB flushes clear entries, never statistics; nothing
        // observes either count mid-block) with zero per-instruction
        // bookkeeping.
        macro_rules! flush_hits {
            ($dec:expr, $tlb:expr) => {
                if paging {
                    self.tlb.count_hits($tlb);
                }
                self.decode_cache.count_hits($dec);
            };
        }
        // The head step runs peeled: its instruction is counted and its
        // translation performed (and TLB-counted) by the caller, so it
        // needs no EIP compare, no generation check, and no walk-back —
        // and peeling it lets the loops below drop the `i == 0` test
        // from every iteration.
        {
            let st = &block.steps[0];
            let eip = self.cpu.eip;
            *quantum = quantum.saturating_sub(1);
            let Some(insn) = self.cached_insn(st) else {
                self.exec_uncached_at(eip, st.pa, obs);
                return ChainExit::Stop;
            };
            if let Err(f) = self.exec_insn(insn) {
                flush_hits!(1, 0);
                self.exec_fault(f, obs);
                return ChainExit::Stop;
            }
            self.observe_executed(obs);
            if n == 1 {
                flush_hits!(1, 0);
                return chain_exit(self, &insn, eip);
            }
        }
        // The hot loop runs in *chunks*, each the longest prefix of the
        // remaining steps whose per-instruction limit checks are
        // provably vacuous: the check before instruction `i` compares
        // `tsc >= limit` after at most `i - start` bounded advances
        // ([`MAX_TSC_PER_INSN`] each), so every check up to `i = k - 1`
        // is dead while `(k - 1 - start) * MAX_TSC_PER_INSN < limit -
        // tsc`. Because real instructions advance TSC far less than the
        // worst-case bound, the chunk boundary re-derives the proof
        // from the *actual* elapsed cycles and almost always extends
        // the hot run to the end of the block; only when the limit is
        // genuinely exhausted (`slack == 0`, where the reference
        // protocol stops before the next instruction) does the careful
        // path take over. Chunk boundaries are invisible to the
        // accounting: instructions are pre-counted per chunk, so at any
        // step `i` everything in `[0, k)` is counted and the walk-back
        // arithmetic below is chunk-agnostic.
        // The terminator step (`n - 1`) is peeled out of the loop too —
        // it is the only step that classifies a chain exit, so peeling
        // it drops the `i == n - 1` test from every mid-trace
        // iteration. The per-step protocol in both copies is: EIP
        // compare (divergence → careful path), TLB generation compare
        // (extend or re-prove the entry proof), the boundary shown to the
        // observer, fused page-generation / decode probe (failure → one
        // uncached instruction, Stop), then execute the probed slot's
        // instruction.
        let mut start = 1usize;
        loop {
            let slack = limit.saturating_sub(self.cpu.tsc);
            if slack == 0 {
                flush_hits!(start as u64, start as u64 - 1);
                return self.replay_block_careful(block, start, pa0, limit, quantum, ctx, obs);
            }
            let k = n.min(start + ((slack - 1) / MAX_TSC_PER_INSN) as usize + 1);
            self.counters.instructions += (k - start) as u64;
            // A hand-over to the careful path at step `i` walks the
            // quantum back to `i - start` debits, as it does the
            // instruction count, so the segment ends where careful
            // replay alone would end it.
            let chunk_quantum = *quantum;
            *quantum = quantum.saturating_sub((k - start) as u32);
            for (i, st) in block.steps[..k.min(n - 1)].iter().enumerate().skip(start) {
                let eip = self.cpu.eip;
                if eip != st.eip {
                    // Live control flow left the recorded path (a
                    // branch going the other way, a `ret` to a
                    // different caller): the page-set proof says
                    // nothing about this address, so instruction `i`
                    // restarts on the careful path with a real
                    // translation (which counts itself — walk back its
                    // pre-count too).
                    self.counters.instructions -= (k - i) as u64;
                    *quantum = chunk_quantum.saturating_sub((i - start) as u32);
                    flush_hits!(i as u64, i as u64 - 1);
                    return self.replay_block_careful(block, i, pa0, limit, quantum, ctx, obs);
                }
                if paging {
                    let g = self.tlb.generation();
                    if g != tlb_gen {
                        // A data access missed the TLB and mutated it
                        // mid-trace: the entry proof is stale. Re-prove
                        // the page set against the new TLB state and
                        // carry on; hand over to the careful path if
                        // any mapping moved.
                        if !self.trace_pages_mapped(block) {
                            self.counters.instructions -= (k - i) as u64;
                            *quantum = chunk_quantum.saturating_sub((i - start) as u32);
                            flush_hits!(i as u64, i as u64 - 1);
                            return self
                                .replay_block_careful(block, i, pa0, limit, quantum, ctx, obs);
                        }
                        tlb_gen = g;
                    }
                    // EIP matches the record and its page's mapping is
                    // proven resident: the reference translation would
                    // hit, yielding `st.pa` — and be counted at flush.
                }
                obs.boundary(&self.cpu, false);
                let Some(insn) = self.cached_insn(st) else {
                    // A page written since the trace was recorded, or a
                    // decode-cache conflict eviction: complete this one
                    // instruction on the full single-step fetch path (which
                    // counts the hit, miss, or invalidation exactly as the
                    // reference would), then leave the block — and the
                    // chain.
                    self.counters.instructions -= (k - 1 - i) as u64;
                    flush_hits!(i as u64, i as u64);
                    self.exec_uncached_at(eip, st.pa, obs);
                    return ChainExit::Stop;
                };
                // The probe proved the page generation is unchanged since
                // this physical address was decoded, so the slot's copy of
                // the instruction equals a fresh decode of the live bytes;
                // its hit is part of every later flush.
                if let Err(f) = self.exec_insn(insn) {
                    self.counters.instructions -= (k - 1 - i) as u64;
                    flush_hits!(i as u64 + 1, i as u64);
                    self.exec_fault(f, obs);
                    return ChainExit::Stop;
                }
                self.observe_executed(obs);
            }
            if k < n {
                // This chunk's provably-safe prefix ran out before the
                // block's last instruction: re-derive the proof from
                // the cycles actually spent and keep going hot.
                start = k;
                continue;
            }
            // Terminator step, same protocol, exit classified.
            let i = n - 1;
            let st = &block.steps[i];
            let eip = self.cpu.eip;
            if eip != st.eip {
                self.counters.instructions -= 1;
                *quantum = chunk_quantum.saturating_sub((i - start) as u32);
                flush_hits!(i as u64, i as u64 - 1);
                return self.replay_block_careful(block, i, pa0, limit, quantum, ctx, obs);
            }
            if paging && self.tlb.generation() != tlb_gen && !self.trace_pages_mapped(block) {
                self.counters.instructions -= 1;
                *quantum = chunk_quantum.saturating_sub((i - start) as u32);
                flush_hits!(i as u64, i as u64 - 1);
                return self.replay_block_careful(block, i, pa0, limit, quantum, ctx, obs);
            }
            obs.boundary(&self.cpu, false);
            let Some(insn) = self.cached_insn(st) else {
                flush_hits!(i as u64, i as u64);
                self.exec_uncached_at(eip, st.pa, obs);
                return ChainExit::Stop;
            };
            if let Err(f) = self.exec_insn(insn) {
                flush_hits!(i as u64 + 1, i as u64);
                self.exec_fault(f, obs);
                return ChainExit::Stop;
            }
            self.observe_executed(obs);
            flush_hits!(n as u64, n as u64 - 1);
            return chain_exit(self, &insn, eip);
        }
    }

    /// True when every `(vpn, pfn)` pair in the trace's recorded page
    /// set is TLB-resident with fetch permission under the current
    /// privilege level — the once-per-entry proof behind the hot
    /// replay path's constant-compare fetch validation.
    fn trace_pages_mapped(&self, block: &Block) -> bool {
        let user = self.cpu.is_user();
        block.pages.iter().all(|&(vpn, pfn)| self.tlb.fetch_maps_to(vpn, pfn, user))
    }

    /// The instruction step `st` executes: the decode-cache slot's copy,
    /// when the page generation and the slot both still match the
    /// recording (the fused probe), else `None`.
    #[inline(always)]
    fn cached_insn(&self, st: &Step) -> Option<Insn> {
        if self.mem.page_gen(st.pa) != st.gen {
            return None;
        }
        self.decode_cache.insn_at(st.pa, st.gen)
    }

    /// Shows `obs` the step that just executed, unless it latched a
    /// triple fault (which ends the run instead, as
    /// [`Machine::step`](crate::Machine::step) reports it).
    #[inline(always)]
    pub(crate) fn observe_executed<O: StepObserver>(&self, obs: &mut O) {
        if !self.triple_faulted {
            obs.executed(&self.cpu);
        }
    }

    /// Reference-protocol replay, used when the hot path's
    /// preconditions fail (breakpoints armed) or its provably-safe
    /// prefix ends before the block does (the block could cross `limit`
    /// mid-way): every boundary check the single-step loop makes runs
    /// per instruction from index `start`. Every path that executes an
    /// instruction decrements `quantum`.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn replay_block_careful<O: StepObserver>(
        &mut self,
        block: &Block,
        start: usize,
        pa0: u32,
        limit: u64,
        quantum: &mut u32,
        ctx: &mut FetchCtx,
        obs: &mut O,
    ) -> ChainExit {
        let paging = self.cpu.paging();
        // No guest instruction writes the debug registers (there is no
        // mov-to-DR op), so whether a breakpoint is armed is constant
        // for the whole block.
        let bp_armed = self.cpu.dr7 != 0;
        let last = block.steps.len() - 1;
        for (i, st) in block.steps.iter().enumerate().skip(start) {
            let eip = self.cpu.eip;
            let pa = if i == 0 {
                pa0 // already translated and counted by exec_block
            } else {
                if self.cpu.tsc >= limit {
                    return ChainExit::Stop;
                }
                if bp_armed && self.cpu.breakpoint_match(eip).is_some() {
                    return ChainExit::Stop;
                }
                obs.boundary(&self.cpu, false);
                self.counters.instructions += 1;
                if paging {
                    match self.fetch_pa(eip, ctx) {
                        Ok(pa) => pa,
                        Err(f) => {
                            self.exec_fault(f, obs);
                            return ChainExit::Stop;
                        }
                    }
                } else {
                    eip
                }
            };
            let Some(insn) = (pa == st.pa).then(|| self.cached_insn(st)).flatten() else {
                // Live control flow left the recorded path, a
                // translation discontinuity, a page written since the
                // trace was recorded, or a decode-cache conflict
                // eviction: complete this one instruction on the full
                // single-step fetch path (which counts the hit, miss,
                // or invalidation exactly as the reference would), then
                // leave the block — and the chain.
                self.exec_uncached_at(eip, pa, obs);
                return ChainExit::Stop;
            };
            // The probe proved the page generation is unchanged since
            // this physical address was decoded, so the slot's copy of
            // the instruction equals a fresh decode of the live bytes.
            self.decode_cache.count_hit();
            *quantum = quantum.saturating_sub(1);
            if let Err(f) = self.exec_insn(insn) {
                self.exec_fault(f, obs);
                return ChainExit::Stop;
            }
            self.observe_executed(obs);
            if i == last {
                return chain_exit(self, &insn, eip);
            }
        }
        ChainExit::Stop // unreachable: blocks are never empty
    }

    /// Executes instructions on the single-step fetch path while
    /// recording them, until a terminator ([`chain_stops`]), fault,
    /// cycle limit, breakpoint, full page set or the length cap ends the
    /// trace. Branches of any kind — direct, computed
    /// (`ret`/`jmp*`/`call*`), cross-page, even pinned-EIP `rep` string
    /// iterations — do *not* end recording: the trace follows the path
    /// actually taken, and replays verify each step against the
    /// recorded physical addresses and page generations before trusting
    /// it. Every recorded step's instruction is in the decode cache (a
    /// fetch inserts what it decodes from one page), where replay reads
    /// it.
    fn record_block<O: StepObserver>(&mut self, eip0: u32, pa0: u32, limit: u64, obs: &mut O) {
        let smp = self.smp.is_some();
        let paging = self.cpu.paging();
        let start_gen = self.mem.page_gen(pa0);
        let (mut steps, mut pages) = std::mem::take(&mut self.block_cache.recording);
        steps.clear();
        pages.clear();
        let mut eip = eip0;
        let mut pa = pa0;
        loop {
            let insn = match self.fetch_at(eip, pa) {
                Ok(i) => i,
                Err(f) => {
                    self.exec_fault(f, obs);
                    break;
                }
            };
            // A page-straddling instruction is never cached by the
            // decode cache, so a replay probe could not validate it:
            // execute it, but end the block without recording it.
            let in_page = (pa & PAGE_MASK) + u32::from(insn.len) <= PAGE_SIZE;
            // A trace's page set carries the once-per-entry translation
            // proof, so an instruction whose page cannot join the set
            // (the set is full) is executed but not recorded, ending
            // the trace like a page-straddler.
            let recordable = in_page
                && (!paging || {
                    let pair = (eip >> 12, pa >> 12);
                    pages.contains(&pair)
                        || pages.len() < MAX_TRACE_PAGES && {
                            pages.push(pair);
                            true
                        }
                });
            // Sample the generation *before* executing: a store into
            // the instruction's own page must leave the pre-store
            // generation on record, so a replay of the now-stale copy
            // fails the generation compare instead of running it.
            let gen = self.mem.page_gen(pa);
            let faulted = match self.exec_insn(insn) {
                Ok(()) => false,
                Err(f) => {
                    self.exec_fault(f, obs);
                    true
                }
            };
            if !faulted {
                self.observe_executed(obs);
            }
            if recordable {
                // Faulting instructions are recorded too: a replay
                // revalidates and re-executes them independently, and a
                // block may legally end anywhere.
                steps.push(Step { eip, pa, gen });
            }
            // Traces record through branches — direct *and* computed —
            // and through pinned-EIP `rep` string iterations (each
            // iteration is one recorded step, exactly as single-step
            // counts them): the replay's per-step physical-address
            // compare verifies live control flow still follows the
            // recorded path. Only privilege/regime changes, halts,
            // traps and, on SMP machines, possible IPI sends end a
            // trace.
            let stop = chain_stops(&insn.op) || (smp && may_send_ipi(&insn.op));
            if faulted || !recordable || stop || steps.len() >= MAX_BLOCK_INSNS {
                break;
            }
            // Next boundary: the same checks a cached replay performs.
            // Traces may roam across pages — the replay re-translates
            // each step and compares against the recorded address, so
            // the page is not a soundness boundary.
            let neip = self.cpu.eip;
            if self.cpu.tsc >= limit {
                break;
            }
            if self.cpu.dr7 != 0 && self.cpu.breakpoint_match(neip).is_some() {
                break;
            }
            obs.boundary(&self.cpu, false);
            self.counters.instructions += 1;
            let npa = if paging {
                match self.xlate(neip, Access::Exec) {
                    Ok(p) => p,
                    Err(f) => {
                        self.exec_fault(f, obs);
                        break;
                    }
                }
            } else {
                neip
            };
            eip = neip;
            pa = npa;
        }
        if !steps.is_empty() && self.mem.page_gen(pa0) == start_gen {
            // Only insert if the head code page survived the recording
            // pass unwritten — otherwise the recorded instructions may
            // not match the live bytes (e.g. a store into the block
            // itself, or a fault pushing its frame onto a stack in this
            // page). Further pages a trace spans are anchored by their
            // per-instruction recorded generations instead.
            let block = Block { steps: steps[..].into(), pages: pages[..].into(), paged: paging };
            self.block_cache.insert(pa0, start_gen, block);
        }
        self.block_cache.recording = (steps, pages);
    }

    /// Executes the single instruction at `eip`/`pa` through the full
    /// fetch path (decode-cache lookup/insert with normal counting).
    fn exec_uncached_at<O: StepObserver>(&mut self, eip: u32, pa: u32, obs: &mut O) {
        match self.fetch_at(eip, pa) {
            Ok(insn) => {
                if let Err(f) = self.exec_insn(insn) {
                    return self.exec_fault(f, obs);
                }
                self.observe_executed(obs);
            }
            Err(f) => self.exec_fault(f, obs),
        }
    }

    /// Replicates the fault arm of the single-step path: latch CR2 for
    /// page faults and deliver through the IDT, which completes the step.
    /// (Block mode never runs with the sanitizer, so no `cr2_write_ok`
    /// bookkeeping is needed.)
    fn exec_fault<O: StepObserver>(&mut self, fault: Fault, obs: &mut O) {
        let eip = self.cpu.eip;
        let (vector, err) = match fault {
            Fault::Page(pf) => {
                self.cpu.cr2 = pf.addr;
                (Vector::PageFault, Some(pf.error_code()))
            }
            Fault::Vec(v, e) => (v, e),
        };
        self.deliver(vector, err, eip);
        self.observe_executed(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfi_isa::decode;

    /// A minimal one-step unpaged block for cache-level tests.
    fn test_block() -> Block {
        Block {
            steps: Box::new([Step { eip: 0, pa: 0, gen: 0 }]),
            pages: Box::new([]),
            paged: false,
        }
    }

    #[test]
    fn terminator_classification() {
        let stops: &[&[u8]] = &[
            &[0xcb],             // lret
            &[0xcf],             // iret
            &[0xf4],             // hlt
            &[0x0f, 0x0b],       // ud2
            &[0xcd, 0x80],       // int $0x80
            &[0xcc],             // int3
            &[0x0f, 0x22, 0xd8], // mov %ebx,%cr3
        ];
        for bytes in stops {
            let i = decode(bytes).unwrap();
            assert!(chain_stops(&i.op), "{:?} must end a trace", i.op);
        }
        let through: &[&[u8]] = &[
            &[0xeb, 0x00],       // jmp
            &[0x74, 0x00],       // je
            &[0xc3],             // ret
            &[0xe8, 0, 0, 0, 0], // call
            &[0xf3, 0xa4],       // rep movsb
            &[0x90],             // nop
            &[0x40],             // inc %eax
            &[0xfa],             // cli
            &[0xfb],             // sti
            &[0x89, 0xd8],       // mov %ebx,%eax
            &[0x50],             // push %eax
        ];
        for bytes in through {
            let i = decode(bytes).unwrap();
            assert!(!chain_stops(&i.op), "{:?} must not end a trace", i.op);
        }
    }

    #[test]
    fn cache_validates_generation_and_epoch() {
        let mem = &mut PhysMem::new(8192);
        let mut c = BlockCache::new();
        c.insert(0x1000, mem.page_gen(0x1000), test_block());
        let b = c.take(0x1000, mem).expect("a live entry");
        c.put_back(0x1000, b);
        // Any write in the page kills the block...
        mem.write_u8(0x1fff, 0);
        assert!(c.take(0x1000, mem).is_none());
        // ...counted as an invalidation, not a plain miss.
        assert_eq!(c.stats(), (1, 1, 1));
        c.insert(0x1000, mem.page_gen(0x1000), test_block());
        c.flush();
        assert!(c.take(0x1000, mem).is_none());
        assert_eq!(c.stats(), (1, 2, 1));
        // A reset drops the entries too, and starts the counters over.
        c.insert(0x1000, mem.page_gen(0x1000), test_block());
        c.reset();
        assert_eq!((c.stats(), c.chain_stats()), ((0, 0, 0), (0, 0, 0)));
        assert!(c.take(0x1000, mem).is_none());
        assert_eq!(c.stats(), (0, 1, 0));
    }

    /// A machine at a two-instruction loop (`inc %eax; jmp .-3`).
    fn looping_machine(tier: crate::ExecTier) -> Machine {
        let config = crate::MachineConfig { tier, timer_enabled: false, ..Default::default() };
        let mut m = Machine::new(config);
        m.mem.load(0x1000, &[0x40, 0xeb, 0xfd]);
        m.cpu.eip = 0x1000;
        m
    }

    #[test]
    fn each_tier_allocates_only_its_tables() {
        use crate::ExecTier;
        for (tier, decode_table, block_table) in [
            (ExecTier::Interp, false, false),
            (ExecTier::Cached, true, false),
            (ExecTier::Chained, true, true),
        ] {
            let mut m = looping_machine(tier);
            m.run(1_000);
            assert_eq!(m.decode_cache.allocated(), decode_table, "{tier:?}");
            assert_eq!(m.block_cache.allocated(), block_table, "{tier:?}");
        }
    }

    #[test]
    fn a_fork_that_has_not_executed_owns_neither_table() {
        let mut m = looping_machine(crate::ExecTier::Chained);
        m.run(1_000);
        let f = Machine::fork(&m.snapshot(), *m.config());
        assert!(!f.decode_cache.allocated() && !f.block_cache.allocated());
    }

    #[test]
    fn release_frees_every_block_and_counts_as_a_flush() {
        let mem = &PhysMem::new(8192);
        let mut c = BlockCache::new();
        c.insert(0x1000, mem.page_gen(0x1000), test_block());
        c.release();
        assert!(!c.allocated());
        assert!(c.take(0x1000, mem).is_none());
        assert_eq!(c.stats(), (0, 1, 0), "a plain miss, as after a flush");
    }

    #[test]
    fn chain_next_links_follows_and_breaks() {
        let mem = &mut PhysMem::new(8192);
        let mut c = BlockCache::new();
        c.insert(0x1000, mem.page_gen(0x1000), test_block());
        c.insert(0x1100, mem.page_gen(0x1100), test_block());
        // A hit moves the block out of its slot (the dispatch loop's
        // take / put_back bracket), so every successful step here puts
        // it back before the next, exactly as the loop does.
        let step = |c: &mut BlockCache, mem: &PhysMem, to_eip: u32| {
            let hit = c.chain_next(0x1000, 0, to_eip, 0x1100, mem);
            if let Some(b) = hit {
                c.put_back(0x1100, b);
                true
            } else {
                false
            }
        };
        // First traversal of the edge records a link...
        assert!(step(&mut c, mem, 0x1100));
        assert_eq!(c.chain_stats(), (1, 0, 0));
        // ...subsequent traversals follow it...
        assert!(step(&mut c, mem, 0x1100));
        assert!(step(&mut c, mem, 0x1100));
        assert_eq!(c.chain_stats(), (1, 2, 0));
        // ...and a write into the successor's page breaks it.
        mem.write_u8(0x1100, 0xcc);
        assert!(!step(&mut c, mem, 0x1100));
        assert_eq!(c.chain_stats(), (1, 2, 1));
        // The link is gone: re-establishing the edge is a fresh link.
        c.insert(0x1100, mem.page_gen(0x1100), test_block());
        assert!(step(&mut c, mem, 0x1100));
        assert_eq!(c.chain_stats(), (2, 2, 1));
        // A different virtual alias of the same edge re-points the link.
        assert!(step(&mut c, mem, 0xc000_1100));
        assert_eq!(c.chain_stats(), (3, 2, 1));
    }
}
