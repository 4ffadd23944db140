//! Two-level paging MMU with a small software TLB.

use crate::mem::{PhysMem, PAGE_SIZE};

/// Page-table entry flag bits (same layout as IA-32 PDE/PTE).
pub mod pte {
    /// Present.
    pub const P: u32 = 1 << 0;
    /// Writable.
    pub const RW: u32 = 1 << 1;
    /// User-accessible.
    pub const US: u32 = 1 << 2;
}

/// The kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// A failed translation, carrying the information needed to build the
/// #PF error code and CR2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFault {
    /// The faulting linear address (becomes CR2).
    pub addr: u32,
    /// True when the page was present but the access violated protection.
    pub present: bool,
    /// True for writes.
    pub write: bool,
    /// True for user-mode accesses.
    pub user: bool,
}

impl PageFault {
    /// Builds the IA-32 #PF error code.
    pub fn error_code(&self) -> u32 {
        use crate::trap::pf_err;
        let mut e = 0;
        if self.present {
            e |= pf_err::PRESENT;
        }
        if self.write {
            e |= pf_err::WRITE;
        }
        if self.user {
            e |= pf_err::USER;
        }
        e
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct TlbEntry {
    vpn: u32,
    pfn: u32,
    writable: bool,
    user: bool,
}

const TLB_SLOTS: usize = 512;

impl TlbEntry {
    /// The direct-mapped slot this entry occupies.
    fn slot(&self) -> usize {
        self.vpn as usize % TLB_SLOTS
    }
}

/// The TLB channel of the residue observer
/// ([`crate::Machine::observe_residue`]): until the first flush, the
/// first walk of each page number looked up on a slot that no walk has
/// filled since the log was armed. Armed over an empty TLB, so every
/// such lookup is a miss that walks.
#[derive(Debug, Clone, Default)]
pub(crate) struct TlbLog {
    /// Bitset over slots: filled by a walk since the log was armed.
    filled: [u64; TLB_SLOTS / 64],
    /// Set by the first flush, which ends the log: from then on no
    /// entry resident before it can answer a lookup.
    flushed: bool,
    /// Page number → its first logged walk: the entry it inserted, or
    /// `None` when it faulted.
    first: std::collections::BTreeMap<u32, Option<TlbEntry>>,
}

impl TlbLog {
    fn slot_filled(&self, slot: usize) -> bool {
        self.filled[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Whether an entry resident in the slot at arming could not have
    /// changed a lookup: the first logged lookup of its page walked to
    /// exactly it, or its page was never looked up before a walk of
    /// another page filled the slot. A hit on such an entry returns what
    /// the walk returns and leaves the slot as the walk leaves it.
    pub(crate) fn admits(&self, e: &TlbEntry) -> bool {
        self.first.get(&e.vpn).is_none_or(|walk| *walk == Some(*e))
    }
}

/// A direct-mapped software TLB keyed by virtual page number.
///
/// The guest kernel must reload CR3 after modifying page tables (our
/// kernel does; there is no `invlpg` in the ISA subset), which flushes
/// this cache — exactly the discipline Linux 2.4 followed on CPUs
/// without per-page invalidation.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    hits: u64,
    misses: u64,
    /// Bumped by every mutation of the entry array ([`Tlb::insert`] and
    /// [`Tlb::flush`]); lookups never change entries, so an unchanged
    /// generation proves every translation that was resident is still
    /// resident in the same slot. The block engine's chained replay
    /// leans on this: one generation compare per instruction stands in
    /// for a full (and identically-counted) re-translation.
    generation: u64,
    /// The residue observer's log; `None` (the default) costs one
    /// branch per walk, insert and flush.
    log: Option<Box<TlbLog>>,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Tlb {
        Tlb { entries: vec![None; TLB_SLOTS], hits: 0, misses: 0, generation: 1, log: None }
    }

    /// Drops all cached translations (CR3 reload / paging toggle).
    pub fn flush(&mut self) {
        self.entries.fill(None);
        self.generation += 1;
        if let Some(log) = self.log.as_mut() {
            log.flushed = true;
        }
    }

    /// Replaces the entry array with `entries` (one per slot, as
    /// [`Tlb::resident`] lists them): the TLB half of
    /// [`crate::Machine::install_residue`]. Statistics are untouched.
    pub(crate) fn install(&mut self, entries: &[TlbEntry]) {
        self.entries.fill(None);
        for e in entries {
            self.entries[e.slot()] = Some(*e);
        }
        self.generation += 1;
    }

    /// Arms (`Some`) or disarms the residue observer's log, returning
    /// the previous one.
    pub(crate) fn set_log(&mut self, log: Option<Box<TlbLog>>) -> Option<Box<TlbLog>> {
        std::mem::replace(&mut self.log, log)
    }

    /// (hits, misses) since a restore zeroed them or a checkpoint
    /// install set them. A flush keeps counting.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Sets the `(hits, misses)` statistics: zero on a restore, a
    /// checkpoint's on its install.
    pub(crate) fn set_stats(&mut self, (hits, misses): (u64, u64)) {
        (self.hits, self.misses) = (hits, misses);
    }

    /// Whether the residue observer's log is armed.
    pub(crate) fn logging(&self) -> bool {
        self.log.is_some()
    }

    /// The resident translations in slot order — everything a lookup
    /// can answer. A slot is a function of its entry's page number, so
    /// the list pins the entry array exactly.
    pub(crate) fn resident(&self) -> Vec<TlbEntry> {
        // Exhaustive so a new field must be classified here too. The
        // statistics never steer execution, and the generation is only
        // compared within one block-engine dispatch.
        let Tlb { entries, hits: _, misses: _, generation: _, log: _ } = self;
        entries.iter().flatten().copied().collect()
    }

    /// The entry-array mutation generation (see the field docs).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Records a hit without touching the entries — for callers that
    /// have *proved* (via an unchanged [`Tlb::generation`]) that a
    /// lookup would hit, and must keep the statistics identical to
    /// having performed it.
    pub(crate) fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Records `n` proven hits in one addition — the block engine's hot
    /// replay path accumulates its per-instruction [`Tlb::count_hit`]s
    /// in a local and flushes on exit. Hit counting is a pure sum and
    /// nothing reads it mid-block, so the batched total is
    /// bit-identical to incrementing per instruction.
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// True when a fetch translation of `vpn` would hit this TLB right
    /// now and yield `pfn`, without touching any counter or entry. The
    /// block engine proves a trace's whole page set with this once per
    /// entry (and again after any generation bump); the per-instruction
    /// hits the reference would have counted are then batched via
    /// [`Tlb::count_hits`]. Fetches check only the user bit — there is
    /// no execute permission — so a present mapping that fails here
    /// would *fault* on the reference path, which the careful fallback
    /// reproduces with a real translation.
    #[inline]
    pub(crate) fn fetch_maps_to(&self, vpn: u32, pfn: u32, user: bool) -> bool {
        let slot = (vpn as usize) % TLB_SLOTS;
        match self.entries[slot] {
            Some(e) => e.vpn == vpn && e.pfn == pfn && (!user || e.user),
            None => false,
        }
    }

    #[inline]
    fn lookup(&mut self, vpn: u32) -> Option<TlbEntry> {
        let slot = (vpn as usize) % TLB_SLOTS;
        match self.entries[slot] {
            Some(e) if e.vpn == vpn => {
                self.hits += 1;
                Some(e)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    #[inline]
    fn insert(&mut self, e: TlbEntry) {
        let slot = e.slot();
        self.entries[slot] = Some(e);
        self.generation += 1;
        if let Some(log) = self.log.as_mut() {
            log.filled[slot / 64] |= 1 << (slot % 64);
        }
    }

    /// Logs a miss walk of `vpn` for the residue observer: the first one
    /// per page on a slot no walk has filled since arming, until the
    /// first flush.
    #[inline]
    fn log_walk(&mut self, vpn: u32, walk: Option<TlbEntry>) {
        if let Some(log) = self.log.as_mut() {
            if !log.flushed && !log.slot_filled(vpn as usize % TLB_SLOTS) {
                log.first.entry(vpn).or_insert(walk);
            }
        }
    }
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb::new()
    }
}

/// Translates a linear address to a physical address.
///
/// With paging disabled (`paging == false`) this is the identity map.
/// Otherwise a two-level walk through guest physical memory is performed
/// (PDE at `cr3 + 4*dir`, PTE at `pde_frame + 4*table`), honouring
/// present/write/user bits at both levels. Walk reads go through
/// [`PhysMem`], so corrupted CR3 or PDE values walk through garbage and
/// produce garbage translations — open-bus semantics, as on hardware.
///
/// # Errors
///
/// Returns [`PageFault`] when a level is not present or protection is
/// violated (user access to supervisor page, write to read-only page —
/// write protection is enforced in *both* modes, modeling a CR0.WP=1
/// kernel, which Linux 2.4 relies on for COW).
#[inline(always)]
pub fn translate(
    mem: &PhysMem,
    tlb: &mut Tlb,
    cr3: u32,
    paging: bool,
    addr: u32,
    access: Access,
    user: bool,
) -> Result<u32, PageFault> {
    if !paging {
        return Ok(addr);
    }
    let vpn = addr >> 12;
    let offset = addr & (PAGE_SIZE - 1);

    // The TLB-hit path is forced inline into every caller (it is a few
    // compares on each data access and fetch — a call frame here is
    // measurable interpreter overhead); the two-level walk is outlined
    // so its body doesn't bloat those callers.
    if let Some(e) = tlb.lookup(vpn) {
        if user && !e.user {
            return Err(PageFault { addr, present: true, write: access == Access::Write, user });
        }
        if access == Access::Write && !e.writable {
            return Err(PageFault { addr, present: true, write: access == Access::Write, user });
        }
        return Ok((e.pfn << 12) | offset);
    }
    translate_walk(mem, tlb, cr3, addr, access, user)
}

/// The two-level walk behind [`translate`]'s TLB miss (the miss is
/// already counted by the failed lookup). Outlined: misses are rare and
/// the walk's body would otherwise inflate every inlined hit path.
#[inline(never)]
fn translate_walk(
    mem: &PhysMem,
    tlb: &mut Tlb,
    cr3: u32,
    addr: u32,
    access: Access,
    user: bool,
) -> Result<u32, PageFault> {
    let offset = addr & (PAGE_SIZE - 1);
    let vpn = addr >> 12;
    let fault = |tlb: &mut Tlb, present: bool| {
        tlb.log_walk(vpn, None);
        Err(PageFault { addr, present, write: access == Access::Write, user })
    };
    let dir = addr >> 22;
    let table = (addr >> 12) & 0x3ff;
    let pde = mem.read_u32((cr3 & !0xfff).wrapping_add(dir * 4));
    if pde & pte::P == 0 {
        return fault(tlb, false);
    }
    let pte_addr = (pde & !0xfff).wrapping_add(table * 4);
    let entry = mem.read_u32(pte_addr);
    if entry & pte::P == 0 {
        return fault(tlb, false);
    }
    let writable = pde & pte::RW != 0 && entry & pte::RW != 0;
    let user_ok = pde & pte::US != 0 && entry & pte::US != 0;
    if user && !user_ok {
        return fault(tlb, true);
    }
    if access == Access::Write && !writable {
        return fault(tlb, true);
    }
    let e = TlbEntry { vpn, pfn: entry >> 12, writable, user: user_ok };
    tlb.log_walk(vpn, Some(e));
    tlb.insert(e);
    Ok((entry & !0xfff) | offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a one-entry page table: maps `vaddr`'s page to `paddr`'s
    /// page with `flags`, placing the directory at 0x1000 and the table
    /// at 0x2000.
    fn setup(mem: &mut PhysMem, vaddr: u32, paddr: u32, flags: u32) -> u32 {
        let cr3 = 0x1000;
        let dir = vaddr >> 22;
        let table = (vaddr >> 12) & 0x3ff;
        mem.write_u32(cr3 + dir * 4, 0x2000 | pte::P | pte::RW | pte::US);
        mem.write_u32(0x2000 + table * 4, (paddr & !0xfff) | flags);
        cr3
    }

    #[test]
    fn identity_when_paging_off() {
        let mem = PhysMem::new(PAGE_SIZE * 4);
        let mut tlb = Tlb::new();
        assert_eq!(translate(&mem, &mut tlb, 0, false, 0x1234, Access::Read, false), Ok(0x1234));
    }

    #[test]
    fn basic_walk() {
        let mut mem = PhysMem::new(PAGE_SIZE * 16);
        let mut tlb = Tlb::new();
        let cr3 = setup(&mut mem, 0xc010_0000, 0x5000, pte::P | pte::RW);
        let pa = translate(&mem, &mut tlb, cr3, true, 0xc010_0123, Access::Read, false).unwrap();
        assert_eq!(pa, 0x5123);
        // Second access hits the TLB.
        let _ = translate(&mem, &mut tlb, cr3, true, 0xc010_0456, Access::Read, false).unwrap();
        assert_eq!(tlb.stats().0, 1);
    }

    #[test]
    fn not_present_faults() {
        let mut mem = PhysMem::new(PAGE_SIZE * 16);
        let mut tlb = Tlb::new();
        let cr3 = setup(&mut mem, 0x40_0000, 0x5000, pte::P);
        // Different directory entry entirely absent.
        let e = translate(&mem, &mut tlb, cr3, true, 0x0000_0000, Access::Read, false).unwrap_err();
        assert!(!e.present);
        assert_eq!(e.addr, 0);
        assert_eq!(e.error_code(), 0);
        // Same directory, PTE absent.
        let e = translate(&mem, &mut tlb, cr3, true, 0x40_1000, Access::Read, false).unwrap_err();
        assert!(!e.present);
    }

    #[test]
    fn write_protection_enforced_for_kernel() {
        let mut mem = PhysMem::new(PAGE_SIZE * 16);
        let mut tlb = Tlb::new();
        let cr3 = setup(&mut mem, 0x40_0000, 0x5000, pte::P | pte::US);
        // Kernel read OK, kernel write faults (CR0.WP model, needed for COW).
        assert!(translate(&mem, &mut tlb, cr3, true, 0x40_0000, Access::Read, false).is_ok());
        let e = translate(&mem, &mut tlb, cr3, true, 0x40_0000, Access::Write, false).unwrap_err();
        assert!(e.present);
        assert!(e.write);
        assert_eq!(e.error_code(), crate::trap::pf_err::PRESENT | crate::trap::pf_err::WRITE);
    }

    #[test]
    fn user_cannot_touch_supervisor_pages() {
        let mut mem = PhysMem::new(PAGE_SIZE * 16);
        let mut tlb = Tlb::new();
        let cr3 = setup(&mut mem, 0xc010_0000, 0x5000, pte::P | pte::RW);
        let e = translate(&mem, &mut tlb, cr3, true, 0xc010_0000, Access::Read, true).unwrap_err();
        assert!(e.present);
        assert!(e.user);
        assert!(e.error_code() & crate::trap::pf_err::USER != 0);
    }

    #[test]
    fn tlb_flush_forces_rewalk() {
        let mut mem = PhysMem::new(PAGE_SIZE * 16);
        let mut tlb = Tlb::new();
        let cr3 = setup(&mut mem, 0x40_0000, 0x5000, pte::P | pte::RW | pte::US);
        let _ = translate(&mem, &mut tlb, cr3, true, 0x40_0000, Access::Read, false).unwrap();
        // Swap the mapping; the stale TLB still wins until flushed.
        mem.write_u32(0x2000 + 0, 0x6000 | pte::P | pte::RW | pte::US);
        let pa = translate(&mem, &mut tlb, cr3, true, 0x40_0000, Access::Read, false).unwrap();
        assert_eq!(pa, 0x5000);
        tlb.flush();
        let pa = translate(&mem, &mut tlb, cr3, true, 0x40_0000, Access::Read, false).unwrap();
        assert_eq!(pa, 0x6000);
    }

    #[test]
    fn garbage_cr3_walks_open_bus() {
        let mem = PhysMem::new(PAGE_SIZE * 4);
        let mut tlb = Tlb::new();
        // CR3 pointing far out of range: PDE reads 0xFFFFFFFF (present),
        // PTE likewise, so translation "succeeds" to a garbage frame.
        let pa = translate(&mem, &mut tlb, 0xfff0_0000, true, 0x1000, Access::Read, false).unwrap();
        assert_eq!(pa & 0xfff, 0);
        assert_eq!(pa, 0xffff_f000);
    }
}
