//! Per-physical-address decoded-instruction cache.
//!
//! [`Machine::fetch`](crate::Machine) consults this cache before running
//! the variable-length decoder. Entries are keyed by the exact physical
//! address of the instruction's first byte and validated against the
//! containing page's write generation ([`PhysMem::page_gen`]), so any
//! physical write — self-modifying guest code, block-device DMA, or the
//! injector's bit flip — invalidates exactly the written page. An entry
//! is only ever created for an instruction decoded entirely from one
//! page (page-straddling fetches always take the slow path), which makes
//! page-generation validation exact.
//!
//! Every snapshot restore flushes the cache (epoch bump, O(1)) and zeroes
//! its counters. Entries for untouched pages would still be *correct*
//! across a restore, but keeping them would make per-run hit/miss counts
//! depend on which runs a worker executed earlier — and campaign metrics
//! must be bit-identical for any thread count.
//!
//! The table is allocated on the first insert (or checkpoint install):
//! a machine that has not executed, such as a fresh fork, owns none, and
//! a lookup in the missing table misses exactly as one in an empty table
//! would.

use crate::mem::PhysMem;
use kfi_isa::{Insn, Op};

/// Slot count (power of two). 16 Ki entries ≈ 1 MiB and comfortably
/// cover the guest kernel's text plus handlers without conflict misses.
const SLOTS: usize = 16 * 1024;

#[derive(Debug, Clone, Copy)]
struct Slot {
    pa: u32,
    gen: u64,
    /// Epoch the entry was inserted in; 0 = never filled.
    epoch: u64,
    insn: Insn,
}

const EMPTY: Slot = Slot { pa: 0, gen: 0, epoch: 0, insn: Insn { op: Op::Nop, len: 1 } };

/// A direct-mapped decoded-instruction cache with hit/miss/invalidation
/// counters, which count since the last [`DecodeCache::reset`] or
/// [`DecodeCache::install`].
#[derive(Debug)]
pub(crate) struct DecodeCache {
    /// Empty until the first insert or install, then `SLOTS` long.
    slots: Vec<Slot>,
    epoch: u64,
    enabled: bool,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl DecodeCache {
    pub(crate) fn new(enabled: bool) -> DecodeCache {
        DecodeCache { slots: Vec::new(), epoch: 1, enabled, hits: 0, misses: 0, invalidations: 0 }
    }

    /// Whether the table is allocated (a disabled cache never has one).
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> bool {
        !self.slots.is_empty()
    }

    /// `(hits, misses, invalidations)`. A hit returned a cached decode; a
    /// miss ran the decoder; an invalidation is a miss that found a
    /// matching entry killed by a write to its page.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.invalidations)
    }

    /// Drops every entry in O(1) by advancing the epoch, and zeroes the
    /// counters: the cache a restore leaves.
    pub(crate) fn reset(&mut self) {
        self.epoch += 1;
        (self.hits, self.misses, self.invalidations) = (0, 0, 0);
    }

    /// The live entries as `(pa, generation, insn)`, in slot order.
    pub(crate) fn live(&self) -> Vec<(u32, u64, Insn)> {
        let epoch = self.epoch;
        self.slots.iter().filter(|s| s.epoch == epoch).map(|s| (s.pa, s.gen, s.insn)).collect()
    }

    /// Makes `live` (as [`DecodeCache::live`] lists them) the cache's
    /// entries and `stats` its counters. The cache must have been reset
    /// since its last insert.
    pub(crate) fn install(&mut self, live: &[(u32, u64, Insn)], stats: (u64, u64, u64)) {
        let epoch = self.epoch;
        for &(pa, gen, insn) in live {
            *self.slot_mut(pa) = Slot { pa, gen, epoch, insn };
        }
        (self.hits, self.misses, self.invalidations) = stats;
    }

    /// Looks up the instruction at physical address `pa`, validating the
    /// entry against the page's current write generation.
    #[inline]
    pub(crate) fn lookup(&mut self, pa: u32, mem: &PhysMem) -> Option<Insn> {
        if !self.enabled {
            return None;
        }
        if let Some(slot) = self.slots.get(pa as usize & (SLOTS - 1)) {
            if slot.epoch == self.epoch && slot.pa == pa {
                if slot.gen == mem.page_gen(pa) {
                    self.hits += 1;
                    return Some(slot.insn);
                }
                self.invalidations += 1;
            }
        }
        self.misses += 1;
        None
    }

    /// The instruction at `pa` when the next
    /// [`lookup`](DecodeCache::lookup) would hit it while the page's
    /// generation is `gen`, without touching any counter: the block
    /// engine's per-step probe. Callers that have already compared
    /// `mem.page_gen(pa)` to `gen` get three compares against constants
    /// and no second page-generation load. A successful probe proves
    /// the page is unchanged since the entry (and the block) was
    /// decoded, so the engine executes this copy — the same address,
    /// the same generation and the current epoch mean the same decode —
    /// and counts it via [`count_hit`](DecodeCache::count_hit), so
    /// hit/miss statistics evolve exactly as on the single-step path.
    /// Callers guarantee the cache is enabled (the chained tier has it).
    #[inline]
    pub(crate) fn insn_at(&self, pa: u32, gen: u64) -> Option<Insn> {
        let slot = self.slots.get(pa as usize & (SLOTS - 1))?;
        (slot.epoch == self.epoch && slot.pa == pa && slot.gen == gen).then_some(slot.insn)
    }

    /// Counts the hit a successful [`insn_at`](DecodeCache::insn_at)
    /// probe corresponds to.
    #[inline]
    pub(crate) fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Counts `n` probe hits in one addition — the hot replay path
    /// batches its per-instruction [`count_hit`](DecodeCache::count_hit)
    /// calls in a local and flushes on exit; hit counting is a pure sum
    /// and nothing observes it mid-block.
    #[inline]
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Caches a successfully decoded instruction. The caller guarantees
    /// every consumed byte lives in the page containing `pa`.
    #[inline]
    pub(crate) fn insert(&mut self, pa: u32, mem: &PhysMem, insn: Insn) {
        if !self.enabled {
            return;
        }
        *self.slot_mut(pa) = Slot { pa, gen: mem.page_gen(pa), epoch: self.epoch, insn };
    }

    /// The slot of `pa`, allocating the table on first use.
    fn slot_mut(&mut self, pa: u32) -> &mut Slot {
        if self.slots.is_empty() {
            self.slots = vec![EMPTY; SLOTS];
        }
        &mut self.slots[pa as usize & (SLOTS - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfi_isa::decode;

    #[test]
    fn hit_after_insert_until_page_write() {
        let mem = &mut PhysMem::new(8192);
        let mut c = DecodeCache::new(true);
        let insn = decode(&[0x90]).unwrap();
        c.insert(0x1000, mem, insn);
        assert_eq!(c.lookup(0x1000, mem), Some(insn));
        // A write anywhere in the page kills the entry...
        mem.write_u8(0x1fff, 0);
        assert_eq!(c.lookup(0x1000, mem), None);
        // ...and it was counted as an invalidation, not a plain miss.
        assert_eq!(c.stats(), (1, 1, 1));
        // A write to a *different* page would not have (fresh entry):
        c.insert(0x1000, mem, insn);
        mem.write_u8(0x2003, 0);
        assert_eq!(c.lookup(0x1000, mem), Some(insn));
    }

    #[test]
    fn reset_drops_everything_and_zeroes_the_counters() {
        let mem = &PhysMem::new(4096);
        let mut c = DecodeCache::new(true);
        let insn = decode(&[0x90]).unwrap();
        c.insert(0x10, mem, insn);
        assert_eq!(c.lookup(0x10, mem), Some(insn));
        c.reset();
        assert_eq!(c.stats(), (0, 0, 0));
        assert_eq!(c.lookup(0x10, mem), None);
        assert_eq!(c.stats(), (0, 1, 0));
    }

    #[test]
    fn probe_agrees_with_lookup_and_counts_nothing() {
        let mem = &mut PhysMem::new(8192);
        let mut c = DecodeCache::new(true);
        let insn = decode(&[0x90]).unwrap();
        let probe = |c: &DecodeCache, mem: &PhysMem| c.insn_at(0x1000, mem.page_gen(0x1000));
        assert_eq!(probe(&c, mem), None);
        c.insert(0x1000, mem, insn);
        assert_eq!(probe(&c, mem), Some(insn));
        assert_eq!(c.stats(), (0, 0, 0), "probe must not count");
        c.count_hit();
        assert_eq!(c.stats(), (1, 0, 0));
        // Probe sees the same page-generation invalidation lookup does.
        mem.write_u8(0x1001, 0);
        assert_eq!(probe(&c, mem), None);
        // A reset kills probes too.
        c.insert(0x1000, mem, insn);
        c.reset();
        assert_eq!(probe(&c, mem), None);
    }

    #[test]
    fn the_table_is_allocated_on_first_insert() {
        let mem = &PhysMem::new(4096);
        let mut c = DecodeCache::new(true);
        assert!(!c.allocated());
        // A lookup in the missing table counts the miss an empty one would.
        assert_eq!(c.lookup(0x10, mem), None);
        assert_eq!(c.stats(), (0, 1, 0));
        assert!(!c.allocated(), "a lookup allocates nothing");
        let insn = decode(&[0x90]).unwrap();
        c.insert(0x10, mem, insn);
        assert!(c.allocated());
        assert_eq!(c.lookup(0x10, mem), Some(insn));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mem = &PhysMem::new(4096);
        let mut c = DecodeCache::new(false);
        c.insert(0, mem, decode(&[0x90]).unwrap());
        assert_eq!(c.lookup(0, mem), None);
        assert_eq!(c.stats(), (0, 0, 0));
    }
}
