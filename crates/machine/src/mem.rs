//! Guest physical memory.

/// Page size (4 KiB, as on IA-32).
pub const PAGE_SIZE: u32 = 4096;

const PAGE_SHIFT: u32 = 12;

/// Guest physical memory: a flat byte array with open-bus semantics for
/// out-of-range accesses.
///
/// Reads beyond the installed memory return `0xFF` (open bus) and writes
/// are dropped — the behaviour a real machine exhibits when a corrupted
/// pointer or page-table entry targets nonexistent physical memory. This
/// matters for fault injection: a flipped bit can produce a page-table
/// walk through garbage physical addresses, and the machine must keep
/// running (and crash *the guest*, not the simulator).
///
/// Every mutation funnels through a per-page write hook that maintains
/// two structures consumed by the machine's hot paths:
///
/// * a **write generation** per page ([`PhysMem::page_gen`]), bumped on
///   every write that lands in the page — the decoded-instruction cache
///   validates entries against it, so self-modifying code and the
///   injector's bit flip invalidate exactly the flipped page;
/// * a **dirty bitset** of pages touched since the last snapshot restore
///   ([`PhysMem::restore_from`]) — restoring copies back only those
///   pages, turning the per-run reset from O(memory) into O(pages
///   touched).
#[derive(Debug, Clone)]
pub struct PhysMem {
    bytes: Vec<u8>,
    dropped_writes: u64,
    /// Per-page write generation (never reset; monotonically increasing).
    page_gens: Vec<u64>,
    /// Bitset over pages: dirtied since the last restore.
    dirty: Vec<u64>,
    /// Snapshot id the memory contents were last restored from, when the
    /// dirty bitset tracks divergence from exactly that baseline.
    synced_to: Option<u64>,
}

impl PhysMem {
    /// Allocates zeroed physical memory of `size` bytes (rounded up to a
    /// page multiple).
    pub fn new(size: u32) -> PhysMem {
        let size = size.next_multiple_of(PAGE_SIZE);
        let pages = (size / PAGE_SIZE) as usize;
        PhysMem {
            bytes: vec![0; size as usize],
            dropped_writes: 0,
            page_gens: vec![0; pages],
            dirty: vec![0; pages.div_ceil(64)],
            synced_to: None,
        }
    }

    /// Installed memory size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Number of writes dropped on the floor (out-of-range).
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes
    }

    /// The write generation of the page containing `addr`. Out-of-range
    /// pages are constant `0`: open-bus writes are dropped, so their
    /// contents never change.
    #[inline]
    pub fn page_gen(&self, addr: u32) -> u64 {
        self.page_gens.get((addr >> PAGE_SHIFT) as usize).copied().unwrap_or(0)
    }

    /// Number of pages dirtied since the last restore.
    pub fn dirty_page_count(&self) -> u32 {
        self.dirty.iter().map(|w| w.count_ones()).sum()
    }

    #[inline]
    fn touch(&mut self, page: usize) {
        self.page_gens[page] += 1;
        self.dirty[page / 64] |= 1 << (page % 64);
    }

    fn touch_all(&mut self) {
        for g in &mut self.page_gens {
            *g += 1;
        }
        self.dirty.fill(!0);
        let pages = self.page_gens.len();
        if pages % 64 != 0 {
            // Keep the tail bits of the bitset clean so popcounts and
            // the restore scan never see phantom pages.
            *self.dirty.last_mut().expect("non-empty") = (1u64 << (pages % 64)) - 1;
        }
    }

    /// Reads a byte; out-of-range returns `0xFF`.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.bytes.get(addr as usize).copied().unwrap_or(0xff)
    }

    /// Writes a byte; out-of-range writes are counted and dropped.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        match self.bytes.get_mut(addr as usize) {
            Some(b) => {
                *b = val;
                self.touch((addr >> PAGE_SHIFT) as usize);
            }
            None => self.dropped_writes += 1,
        }
    }

    /// Reads a little-endian dword; may straddle the end of memory (the
    /// missing bytes read as `0xFF`).
    pub fn read_u32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        if let Some(slice) = self.bytes.get(a..a + 4) {
            u32::from_le_bytes(slice.try_into().expect("4 bytes"))
        } else {
            let mut v = [0xffu8; 4];
            for (i, b) in v.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
            u32::from_le_bytes(v)
        }
    }

    /// Writes a little-endian dword.
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        let a = addr as usize;
        if let Some(slice) = self.bytes.get_mut(a..a + 4) {
            slice.copy_from_slice(&val.to_le_bytes());
            let p1 = (addr >> PAGE_SHIFT) as usize;
            let p2 = ((addr + 3) >> PAGE_SHIFT) as usize;
            self.touch(p1);
            if p2 != p1 {
                self.touch(p2);
            }
        } else {
            for (i, b) in val.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Copies up to `buf.len()` bytes starting at `addr` into `buf` in
    /// one slice operation; bytes beyond installed memory read as `0xFF`.
    #[inline]
    pub fn read_into(&self, addr: u32, buf: &mut [u8]) {
        let a = addr as usize;
        if let Some(src) = self.bytes.get(a..a + buf.len()) {
            buf.copy_from_slice(src);
        } else {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
        }
    }

    /// Copies `src` into physical memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit in installed memory — this is a
    /// host-side loader operation, not a guest access.
    pub fn load(&mut self, addr: u32, src: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + src.len()].copy_from_slice(src);
        if !src.is_empty() {
            let first = a >> PAGE_SHIFT as usize;
            let last = (a + src.len() - 1) >> PAGE_SHIFT as usize;
            for page in first..=last {
                self.touch(page);
            }
        }
    }

    /// Borrows a physical range for host-side inspection.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, addr: u32, len: u32) -> &[u8] {
        &self.bytes[addr as usize..(addr + len) as usize]
    }

    /// Zeroes all memory (used on reboot).
    pub fn clear(&mut self) {
        self.bytes.fill(0);
        self.dropped_writes = 0;
        self.touch_all();
    }

    /// Replaces the entire contents from a snapshot of unknown identity.
    /// Always a full copy; the dirty baseline becomes unknown.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` has a different length than installed memory.
    pub fn restore(&mut self, snapshot: &[u8]) {
        assert_eq!(snapshot.len(), self.bytes.len(), "snapshot size mismatch");
        self.bytes.copy_from_slice(snapshot);
        self.dropped_writes = 0;
        self.touch_all();
        self.dirty.fill(0);
        self.synced_to = None;
    }

    /// Restores from a snapshot identified by `id`, copying only the
    /// pages dirtied since the last restore when the baseline matches
    /// (otherwise a full copy establishes the new baseline). Returns the
    /// number of pages copied. Write generations of the copied pages are
    /// bumped so stale decoded-instruction cache entries die.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` has a different length than installed memory.
    pub fn restore_from(&mut self, snapshot: &[u8], id: u64) -> u32 {
        assert_eq!(snapshot.len(), self.bytes.len(), "snapshot size mismatch");
        let page = PAGE_SIZE as usize;
        let copied = if self.synced_to == Some(id) {
            let mut n = 0u32;
            for (w, word) in self.dirty.iter().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let p = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let off = p * page;
                    self.bytes[off..off + page].copy_from_slice(&snapshot[off..off + page]);
                    self.page_gens[p] += 1;
                    n += 1;
                }
            }
            n
        } else {
            self.bytes.copy_from_slice(snapshot);
            self.touch_all();
            self.synced_to = Some(id);
            self.page_gens.len() as u32
        };
        self.dirty.fill(0);
        self.dropped_writes = 0;
        copied
    }

    /// Sets every page's write generation to zero. Sound only when no
    /// cache holds a generation of this memory (the machine calls it on
    /// restore, right after flushing its caches); from then on a
    /// generation counts the writes since that restore.
    pub(crate) fn zero_gens(&mut self) {
        self.page_gens.fill(0);
    }

    /// The snapshot id the dirty set tracks divergence from.
    pub(crate) fn synced_to(&self) -> Option<u64> {
        self.synced_to
    }

    /// The pages dirtied since the last restore, ascending, as `(page,
    /// generation, contents)`.
    pub(crate) fn dirty_pages(&self) -> impl Iterator<Item = (u32, u64, &[u8])> + '_ {
        let page = PAGE_SIZE as usize;
        self.dirty.iter().enumerate().flat_map(move |(w, &word)| {
            (0..64).filter(move |b| word & (1 << b) != 0).map(move |b| {
                let p = w * 64 + b;
                (p as u32, self.page_gens[p], &self.bytes[p * page..(p + 1) * page])
            })
        })
    }

    /// Overwrites page `p` with `bytes` at generation `gen` and marks it
    /// dirty: one page of a checkpoint install.
    pub(crate) fn install_page(&mut self, p: u32, gen: u64, bytes: &[u8]) {
        let (p, page) = (p as usize, PAGE_SIZE as usize);
        self.bytes[p * page..(p + 1) * page].copy_from_slice(bytes);
        self.page_gens[p] = gen;
        self.dirty[p / 64] |= 1 << (p % 64);
    }

    /// Sets the count of dropped out-of-range writes (checkpoint install).
    pub(crate) fn set_dropped_writes(&mut self, n: u64) {
        self.dropped_writes = n;
    }

    /// Clones the raw contents for a snapshot.
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Builds a new memory whose contents equal `base` and whose dirty
    /// baseline is already synced to the snapshot identified by `id`: a
    /// copy-on-write fork of a shared snapshot.
    ///
    /// The bytes are copied once, here; every later
    /// [`PhysMem::restore_from`] against the same `(base, id)` pair is
    /// O(pages dirtied) from the start, without the initial full-copy
    /// round that `restore_from` pays to establish a baseline. Write
    /// generations start at zero — a fork is a *new* memory, and any
    /// caches layered on top of it must start empty (the machine-level
    /// fork constructor guarantees this).
    pub fn fork_from(base: &[u8], id: u64) -> PhysMem {
        assert_eq!(base.len() % PAGE_SIZE as usize, 0, "snapshot not page-aligned");
        let pages = base.len() / PAGE_SIZE as usize;
        PhysMem {
            bytes: base.to_vec(),
            dropped_writes: 0,
            page_gens: vec![0; pages],
            dirty: vec![0; pages.div_ceil(64)],
            synced_to: Some(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_page_multiple() {
        let m = PhysMem::new(5000);
        assert_eq!(m.size(), 8192);
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = PhysMem::new(PAGE_SIZE);
        m.write_u32(100, 0xdead_beef);
        assert_eq!(m.read_u32(100), 0xdead_beef);
        assert_eq!(m.read_u8(100), 0xef);
        assert_eq!(m.read_u8(103), 0xde);
    }

    #[test]
    fn open_bus_reads_ff() {
        let m = PhysMem::new(PAGE_SIZE);
        assert_eq!(m.read_u8(PAGE_SIZE), 0xff);
        assert_eq!(
            m.read_u32(PAGE_SIZE - 2),
            0xffff_0000
                | m.read_u8(PAGE_SIZE - 2) as u32
                | ((m.read_u8(PAGE_SIZE - 1) as u32) << 8)
        );
        assert_eq!(m.read_u32(0xffff_fff0), 0xffff_ffff);
    }

    #[test]
    fn out_of_range_writes_are_dropped() {
        let mut m = PhysMem::new(PAGE_SIZE);
        m.write_u8(PAGE_SIZE + 10, 42);
        m.write_u32(0xffff_fff0, 42);
        assert_eq!(m.dropped_writes(), 5);
        assert_eq!(m.read_u8(PAGE_SIZE + 10), 0xff);
        // Dropped writes never dirty anything or move a generation.
        assert_eq!(m.dirty_page_count(), 0);
        assert_eq!(m.page_gen(PAGE_SIZE + 10), 0);
    }

    #[test]
    fn straddling_dword_write() {
        let mut m = PhysMem::new(PAGE_SIZE);
        m.write_u32(PAGE_SIZE - 2, 0x11223344);
        assert_eq!(m.read_u8(PAGE_SIZE - 2), 0x44);
        assert_eq!(m.read_u8(PAGE_SIZE - 1), 0x33);
        assert_eq!(m.dropped_writes(), 2);
    }

    #[test]
    fn snapshot_restore() {
        let mut m = PhysMem::new(PAGE_SIZE);
        m.write_u32(0, 1234);
        let snap = m.snapshot();
        m.write_u32(0, 9999);
        m.restore(&snap);
        assert_eq!(m.read_u32(0), 1234);
    }

    #[test]
    fn writes_bump_generation_and_dirty_exactly_one_page() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        let g0 = m.page_gen(PAGE_SIZE);
        m.write_u8(PAGE_SIZE + 7, 1);
        assert_eq!(m.page_gen(PAGE_SIZE), g0 + 1);
        assert_eq!(m.page_gen(0), 0, "neighbour pages untouched");
        assert_eq!(m.page_gen(2 * PAGE_SIZE), 0);
        assert_eq!(m.dirty_page_count(), 1);
        // A dword write straddling a page boundary touches both pages.
        m.write_u32(2 * PAGE_SIZE - 2, 0xaabbccdd);
        assert_eq!(m.dirty_page_count(), 2);
        assert_eq!(m.page_gen(2 * PAGE_SIZE - 1), g0 + 2);
        assert_eq!(m.page_gen(2 * PAGE_SIZE), 1);
    }

    #[test]
    fn tracked_restore_copies_only_dirty_pages() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        m.write_u32(0, 0x1111_1111);
        let snap = m.snapshot();
        // First restore against a new id is always a full copy.
        assert_eq!(m.restore_from(&snap, 1), 4);
        assert_eq!(m.dirty_page_count(), 0);
        // Touch one page; only it is copied back.
        m.write_u32(2 * PAGE_SIZE + 8, 0x2222_2222);
        assert_eq!(m.restore_from(&snap, 1), 1);
        assert_eq!(m.read_u32(2 * PAGE_SIZE + 8), 0);
        assert_eq!(m.read_u32(0), 0x1111_1111);
        // Untouched machine: nothing to copy at all.
        assert_eq!(m.restore_from(&snap, 1), 0);
        // A different snapshot id forces a full copy again.
        assert_eq!(m.restore_from(&snap, 2), 4);
    }

    #[test]
    fn restore_bumps_generations_of_copied_pages() {
        let mut m = PhysMem::new(2 * PAGE_SIZE);
        let snap = m.snapshot();
        m.restore_from(&snap, 7);
        let g = m.page_gen(0);
        m.write_u8(4, 9);
        assert_eq!(m.page_gen(0), g + 1);
        m.restore_from(&snap, 7);
        // The restored page's generation moved again: any cached decode
        // of the in-run contents is now stale.
        assert_eq!(m.page_gen(0), g + 2);
        assert_eq!(m.page_gen(PAGE_SIZE), g, "clean page generation unchanged");
    }

    #[test]
    fn fork_is_synced_to_its_base_from_the_start() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        m.write_u32(PAGE_SIZE, 0xcafe_f00d);
        let snap = m.snapshot();
        let mut f = PhysMem::fork_from(&snap, 42);
        assert_eq!(f.read_u32(PAGE_SIZE), 0xcafe_f00d);
        assert_eq!(f.dirty_page_count(), 0);
        assert_eq!(f.page_gen(0), 0, "forks start with virgin generations");
        // The very first restore is already a dirty-page restore, not a
        // baseline-establishing full copy.
        f.write_u32(3 * PAGE_SIZE, 7);
        assert_eq!(f.restore_from(&snap, 42), 1);
        assert_eq!(f.read_u32(3 * PAGE_SIZE), 0);
        // Writes in the fork never leak into the base bytes.
        assert_eq!(m.read_u32(3 * PAGE_SIZE), 0);
    }

    #[test]
    fn fork_with_foreign_id_falls_back_to_full_copy() {
        let m = PhysMem::new(2 * PAGE_SIZE);
        let snap = m.snapshot();
        let mut f = PhysMem::fork_from(&snap, 1);
        assert_eq!(f.restore_from(&snap, 2), 2, "unknown baseline: full copy");
    }

    #[test]
    fn clear_dirties_everything() {
        let mut m = PhysMem::new(3 * PAGE_SIZE);
        m.clear();
        assert_eq!(m.dirty_page_count(), 3);
        assert!(m.page_gen(0) > 0);
    }
}
