//! Checkpoints: the full machine state at a tick cut, held as a delta
//! against the snapshot the machine was restored from.
//!
//! A *tick cut* is the top of a [`Machine::run`] loop iteration where
//! the active CPU's timer tick is due ([`Machine::tick_due`]). The
//! unstopped loop passes through every such state too (its block limit
//! is `min(deadline, next_tick)`), so stopping there with
//! [`Machine::run_to_tick`], capturing with [`Machine::checkpoint`] and
//! later resuming with [`Machine::install`] is invisible: the resumed
//! machine runs on exactly as the uncut one would, caches and the TLB
//! and decode statistics included. The block and chain statistics count
//! only what the resumed machine replays itself.

use super::{Counters, Machine, MachineConfig, MonitorEvent};
use crate::cpu::Cpu;
use crate::mem::{PhysMem, SharedPage, Slot};
use crate::mmu::TlbEntry;
use crate::smp::{CpuCtx, Ipi, SmpState};
use crate::trap::TrapRecord;
use kfi_isa::Insn;
use std::collections::VecDeque;

/// The cache statistics that reach the dataset: the TLB `(hits,
/// misses)` summed over every CPU, and the decode triple.
#[derive(Debug, Clone, Copy)]
struct CacheStats {
    tlb: (u64, u64),
    decode: (u64, u64, u64),
}

/// A parked CPU's context: architectural state, resident TLB entries
/// and timer deadline.
#[derive(Debug, Clone)]
struct ParkedCpu {
    cpu: Cpu,
    tlb: Vec<TlbEntry>,
    next_tick: u64,
}

/// The SMP half of a checkpoint. `ctxs[active]` is `None`: that slot is
/// stale while its CPU runs inline, and nothing reads it.
#[derive(Debug, Clone)]
struct SmpCheckpoint {
    ctxs: Vec<Option<ParkedCpu>>,
    active: usize,
    slice_left: u32,
    rng: u64,
    ipi_arg: u32,
    pending: Vec<VecDeque<Ipi>>,
}

/// The pages of a [`PhysMem`] — guest memory or a disk's — written
/// since its last restore.
#[derive(Debug, Clone)]
struct PageDelta {
    /// The id of the image the capturing pages were restored from.
    base: Option<u64>,
    /// `(page, contents)` of each page written since the restore,
    /// ascending.
    pages: Vec<(u32, SharedPage)>,
    /// Their write generations, in the same order. Memory generations
    /// count writes since the restore ([`Machine::restore`] zeroes
    /// them), so they mean the same on every machine restored from the
    /// same snapshot.
    gens: Vec<u64>,
}

impl PageDelta {
    /// The pages `mem` wrote since its restore. A page it still shares
    /// goes in by reference; one it owns is shared with `prev`'s version
    /// when the contents are unchanged, else copied once (counted in
    /// `fresh`).
    fn capture(mem: &PhysMem, prev: Option<&PageDelta>, fresh: &mut usize) -> PageDelta {
        let prev = prev.map_or(&[][..], |p| &p.pages);
        let mut cursor = 0;
        let (mut pages, mut gens) = (Vec::new(), Vec::new());
        for (p, gen, slot) in mem.dirty_pages() {
            let page = match slot {
                Slot::Shared(page) => page.clone(),
                Slot::Private(bytes) => share(p, &bytes[..], prev, &mut cursor, fresh),
            };
            pages.push((p, page));
            gens.push(gen);
        }
        PageDelta { base: mem.synced_to(), pages, gens }
    }

    /// Shares the pages with `mem`, which must have just been restored
    /// from the same image and not written since.
    fn install(&self, mem: &mut PhysMem, what: &str) {
        assert_eq!(mem.synced_to(), self.base, "checkpoint {what} of another image");
        assert_eq!(mem.dirty_page_count(), 0, "checkpoint {what} written since its restore");
        for ((p, page), gen) in self.pages.iter().zip(&self.gens) {
            mem.install_page(*p, *gen, page);
        }
    }
}

/// The full state of a machine at a tick cut, as a delta against the
/// [`Snapshot`](super::Snapshot) it was restored from: every CPU's
/// context, the memory and disk pages written since the restore with
/// their page generations, the decode cache, the block cache with its
/// chain links, the TLBs, the counters, the TLB and decode statistics
/// at the cut, and the console, monitor and trap logs. Host-side
/// state (trace sink, abort flag) is not part of it.
///
/// Captured by [`Machine::checkpoint`] and installed by
/// [`Machine::install`]; both destructure the machine exhaustively, so
/// a new machine field fails to compile there until it is classified.
///
/// Its memory and disk pages are shared pages, as a snapshot's are: a
/// page the capturing machine still shares goes in by reference, and one
/// it wrote is shared with the checkpoint the capture was resumed from
/// when the contents are unchanged, else copied once. Cached blocks are
/// shared with the capturing machine's block cache, so consecutive
/// checkpoints of one run cost little more than what changed between
/// them. Installing one shares its pages with the machine and its disk,
/// which copy a page only on their first write to it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    config: MachineConfig,
    cpu: Cpu,
    tlb: Vec<TlbEntry>,
    next_tick: u64,
    smp: Option<SmpCheckpoint>,
    mem: PageDelta,
    dropped_writes: u64,
    /// The disk's pages and `(reads, writes)` statistics.
    disk: Option<(PageDelta, (u64, u64))>,
    decode: Vec<(u32, u64, Insn)>,
    blocks: Vec<crate::block::LiveBlock>,
    /// TLB and decode statistics at the cut.
    stats: CacheStats,
    console: Vec<u8>,
    monitor: Vec<(u64, MonitorEvent)>,
    trap_log: Vec<TrapRecord>,
    counters: Counters,
    blk: [u32; 3],
    triple_faulted: bool,
    tsc: u64,
    fresh_bytes: usize,
}

impl Checkpoint {
    /// The machine-wide clock ([`Machine::max_tsc`]) at the cut.
    pub fn max_tsc(&self) -> u64 {
        self.tsc
    }

    /// Heap bytes this checkpoint holds that it does not share with the
    /// checkpoint it was captured against: fresh memory and disk page
    /// versions, cache entry lists and logs (cached block bodies, which
    /// the capturing machine's block cache shares, are not counted).
    pub fn fresh_bytes(&self) -> usize {
        self.fresh_bytes
    }
}

/// Page `key` holding `new`, sharing `prev`'s version when the contents
/// are equal, else a fresh copy. `prev` is ascending by key and `cursor`
/// walks it alongside ascending keys.
fn share(
    key: u32,
    new: &[u8],
    prev: &[(u32, SharedPage)],
    cursor: &mut usize,
    fresh: &mut usize,
) -> SharedPage {
    while prev.get(*cursor).is_some_and(|(k, _)| *k < key) {
        *cursor += 1;
    }
    match prev.get(*cursor) {
        Some((k, old)) if *k == key && old.bytes()[..] == *new => old.clone(),
        _ => {
            *fresh += new.len();
            SharedPage::copy_of(new)
        }
    }
}

impl Machine {
    /// Whether the active CPU's timer tick is due: [`Machine::run`]
    /// then takes its next iteration as one step, and
    /// [`Machine::run_to_tick`] stops there.
    pub fn tick_due(&self) -> bool {
        self.config.timer_enabled && self.cpu.tsc >= self.next_tick
    }

    /// Captures the machine's state as a [`Checkpoint`] against the
    /// snapshot it was last restored from. Meant for a tick cut (see
    /// [`Machine::run_to_tick`]), where no block is mid-replay. Memory
    /// and disk page versions equal to `prev`'s are shared with it.
    ///
    /// # Panics
    ///
    /// Panics if the machine was never restored from a snapshot, or if
    /// the sanitizer or the residue observer is on (their per-step
    /// state is not captured).
    pub fn checkpoint(&self, prev: Option<&Checkpoint>) -> Checkpoint {
        // Exhaustive on purpose: a new field fails to compile here until
        // it is classified as checkpointed or host-side.
        let Machine {
            cpu,
            mem,
            disk,
            tlb,
            decode_cache,
            block_cache,
            config,
            console,
            monitor,
            trap_log,
            counters,
            next_tick,
            blk_lba,
            blk_dma,
            blk_status,
            smp,
            delivering,
            triple_faulted,
            san,
            observer,
            // Host-side: what the host watches, not what the guest ran.
            trace: _,
            abort: _,
        } = self;
        assert!(san.is_none(), "checkpoint of a sanitized machine");
        assert!(observer.is_none() && !tlb.logging(), "checkpoint under the residue observer");
        assert_eq!(*delivering, 0, "checkpoint inside a trap delivery");
        assert!(mem.synced_to().is_some(), "checkpoint of a machine never restored");
        let mut fresh = 0;
        let mem = PageDelta::capture(mem, prev.map(|p| &p.mem), &mut fresh);
        let disk = disk.as_ref().map(|d| {
            let prev = prev.and_then(|p| p.disk.as_ref()).map(|(pages, _)| pages);
            (PageDelta::capture(&d.pages, prev, &mut fresh), d.io_stats())
        });
        let smp = smp.as_deref().map(|smp| {
            let SmpState { ctxs, active, slice_left, rng, ipi_arg, pending } = smp;
            SmpCheckpoint {
                ctxs: ctxs
                    .iter()
                    .enumerate()
                    .map(|(i, CpuCtx { cpu, tlb, next_tick })| {
                        (i != *active).then(|| ParkedCpu {
                            cpu: cpu.clone(),
                            tlb: tlb.resident(),
                            next_tick: *next_tick,
                        })
                    })
                    .collect(),
                active: *active,
                slice_left: *slice_left,
                rng: *rng,
                ipi_arg: *ipi_arg,
                pending: pending.clone(),
            }
        });
        let decode = decode_cache.live();
        let blocks = block_cache.live();
        fresh += decode.len() * std::mem::size_of::<(u32, u64, Insn)>()
            + blocks.len() * std::mem::size_of::<crate::block::LiveBlock>()
            + console.len()
            + monitor.len() * std::mem::size_of::<(u64, MonitorEvent)>()
            + trap_log.len() * std::mem::size_of::<TrapRecord>();
        Checkpoint {
            config: *config,
            cpu: cpu.clone(),
            tlb: tlb.resident(),
            next_tick: *next_tick,
            smp,
            dropped_writes: self.mem.dropped_writes(),
            mem,
            disk,
            decode,
            blocks,
            stats: CacheStats { tlb: self.tlb_stats(), decode: self.decode_stats() },
            console: console.clone(),
            monitor: monitor.clone(),
            trap_log: trap_log.clone(),
            counters: *counters,
            blk: [*blk_lba, *blk_dma, *blk_status],
            triple_faulted: *triple_faulted,
            tsc: self.max_tsc(),
            fresh_bytes: fresh,
        }
    }

    /// Installs `c`, leaving the machine in the state it was captured
    /// in: the inverse of [`Machine::checkpoint`]. The TLB and decode
    /// statistics and the counters become the checkpoint's, so they read
    /// as on a machine that ran from the restore through the cut; the
    /// block and chain statistics stay at zero and count only what this
    /// machine replays itself.
    ///
    /// The machine must have just been [restored](Machine::restore) from
    /// the checkpoint's snapshot, with its disk (if the checkpoint has
    /// one) reset to the image the capturing machine's disk was.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not freshly restored from that
    /// snapshot, its configuration differs, or the disks do not match.
    pub fn install(&mut self, c: &Checkpoint) {
        assert_eq!(self.counters, Counters::default(), "checkpoint install on a machine that ran");
        assert_eq!(self.config, c.config, "checkpoint of another machine configuration");
        // Move the active CPU's TLB into place the way the scheduler
        // does, so that the stale parked slot stays the uncounted one.
        if let Some(sc) = &c.smp {
            self.smp_switch(sc.active);
        }
        // Exhaustive on purpose, mirroring `checkpoint`.
        let Machine {
            cpu,
            mem,
            disk,
            tlb,
            decode_cache,
            block_cache,
            config: _,
            console,
            monitor,
            trap_log,
            counters,
            next_tick,
            blk_lba,
            blk_dma,
            blk_status,
            smp,
            delivering,
            triple_faulted,
            san: _,
            observer: _,
            trace: _,
            abort: _,
        } = self;
        cpu.clone_from(&c.cpu);
        tlb.install(&c.tlb);
        tlb.set_stats(c.stats.tlb);
        *next_tick = c.next_tick;
        if let (Some(smp), Some(sc)) = (smp.as_deref_mut(), &c.smp) {
            let SmpState { ctxs, active, slice_left, rng, ipi_arg, pending } = smp;
            for (ctx, parked) in ctxs.iter_mut().zip(&sc.ctxs) {
                if let Some(p) = parked {
                    ctx.cpu.clone_from(&p.cpu);
                    ctx.tlb.install(&p.tlb);
                    ctx.next_tick = p.next_tick;
                }
            }
            debug_assert_eq!(*active, sc.active);
            (*slice_left, *rng, *ipi_arg) = (sc.slice_left, sc.rng, sc.ipi_arg);
            pending.clone_from(&sc.pending);
        }
        c.mem.install(mem, "memory");
        mem.set_dropped_writes(c.dropped_writes);
        if let Some((pages, io)) = &c.disk {
            let d = disk.as_mut().expect("checkpoint with a disk installed on a diskless machine");
            pages.install(&mut d.pages, "disk");
            d.set_io_stats(*io);
        }
        decode_cache.install(&c.decode, c.stats.decode);
        block_cache.install(&c.blocks);
        console.clone_from(&c.console);
        monitor.clone_from(&c.monitor);
        trap_log.clone_from(&c.trap_log);
        *counters = c.counters;
        [*blk_lba, *blk_dma, *blk_status] = c.blk;
        *delivering = 0;
        *triple_faulted = c.triple_faulted;
    }
}
