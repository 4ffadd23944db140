//! Guest physical memory.

use std::sync::Arc;

/// Page size (4 KiB, as on IA-32).
pub const PAGE_SIZE: u32 = 4096;

const PAGE_SHIFT: u32 = 12;
const PAGE: usize = PAGE_SIZE as usize;
const OFFSET_MASK: u32 = PAGE_SIZE - 1;

/// The bytes of one page.
type PageBytes = [u8; PAGE];

/// What every page nobody has written holds.
static ZERO_PAGE: PageBytes = [0; PAGE];

/// A page that any number of memories, snapshots and checkpoints hold
/// at once, and so never change: a [`PhysMem`] copies one before its
/// first write to it. Cloning moves a reference, not bytes; the zero
/// page is a reference to nothing.
#[derive(Clone, Default)]
pub(crate) struct SharedPage(Option<Arc<PageBytes>>);

impl SharedPage {
    /// A new shared copy of `bytes`.
    pub(crate) fn copy_of(bytes: &[u8]) -> SharedPage {
        let page: Arc<[u8]> = Arc::from(bytes);
        SharedPage(Some(page.try_into().expect("a whole page")))
    }

    /// The page's contents.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8; PAGE] {
        self.0.as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Whether both are references to the same page.
    fn same(&self, other: &SharedPage) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

/// Equal contents.
impl PartialEq for SharedPage {
    fn eq(&self, other: &SharedPage) -> bool {
        self.same(other) || self.bytes() == other.bytes()
    }
}

impl Eq for SharedPage {}

impl std::fmt::Debug for SharedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("ZeroPage"),
            Some(page) => write!(f, "SharedPage({:p})", Arc::as_ptr(page)),
        }
    }
}

/// A frozen image of guest physical memory, one shared page per page
/// ([`PhysMem::snapshot`]). Cloning it shares the whole table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage(Arc<[SharedPage]>);

impl MemImage {
    /// Memory size in bytes.
    pub fn size(&self) -> u32 {
        (self.0.len() * PAGE) as u32
    }
}

/// One page of a [`PhysMem`].
#[derive(Clone)]
pub(crate) enum Slot {
    /// Held by others too: copied into a private page before a write.
    Shared(SharedPage),
    /// This memory's own: written in place.
    Private(Box<PageBytes>),
}

impl Slot {
    #[inline]
    fn bytes(&self) -> &PageBytes {
        match self {
            Slot::Shared(page) => page.bytes(),
            Slot::Private(bytes) => bytes,
        }
    }

    /// The page's bytes for writing: a shared page becomes a private
    /// copy first.
    #[inline]
    fn bytes_mut(&mut self) -> &mut PageBytes {
        if let Slot::Shared(_) = self {
            self.make_private();
        }
        match self {
            Slot::Private(bytes) => bytes,
            Slot::Shared(_) => unreachable!("made private above"),
        }
    }

    #[cold]
    fn make_private(&mut self) {
        let copy = private_copy(self.bytes());
        *self = Slot::Private(copy);
    }

    /// The page as one others may hold: a private page is copied.
    fn share(&self) -> SharedPage {
        match self {
            Slot::Shared(page) => page.clone(),
            Slot::Private(bytes) => SharedPage::copy_of(&bytes[..]),
        }
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Shared(page) => page.fmt(f),
            Slot::Private(_) => f.write_str("Private"),
        }
    }
}

fn private_copy(bytes: &[u8]) -> Box<PageBytes> {
    Box::<[u8]>::from(bytes).try_into().expect("a whole page")
}

/// Guest physical memory: a table of 4 KiB pages, shared copy-on-write,
/// with open-bus semantics for out-of-range accesses.
///
/// Reads beyond the installed memory return `0xFF` (open bus) and writes
/// are dropped — the behaviour a real machine exhibits when a corrupted
/// pointer or page-table entry targets nonexistent physical memory. This
/// matters for fault injection: a flipped bit can produce a page-table
/// walk through garbage physical addresses, and the machine must keep
/// running (and crash *the guest*, not the simulator).
///
/// Each page is either shared — the zero page, or a page of a
/// [`MemImage`] or checkpoint — or one this memory owns. Allocating,
/// [clearing](PhysMem::clear), [snapshotting](PhysMem::snapshot) and
/// [restoring](PhysMem::restore_from) move page references, not bytes;
/// the first write to a shared page copies it into a private one
/// ([`PhysMem::private_pages`] counts them), and a write to a private
/// page takes no atomic operation.
///
/// Every mutation funnels through a per-page write hook that maintains
/// two structures consumed by the machine's hot paths:
///
/// * a **write generation** per page ([`PhysMem::page_gen`]), bumped on
///   every write that lands in the page — the decoded-instruction cache
///   validates entries against it, so self-modifying code and the
///   injector's bit flip invalidate exactly the flipped page;
/// * a **dirty bitset** of pages touched since the last snapshot restore
///   ([`PhysMem::restore_from`]) — restoring resets only those pages,
///   turning the per-run reset from O(memory) into O(pages touched).
#[derive(Debug, Clone)]
pub struct PhysMem {
    pages: Vec<Slot>,
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
    /// Zeroed physical memory of `size` bytes (rounded up to a page
    /// multiple), every page the shared zero page.
    pub fn new(size: u32) -> PhysMem {
        let n = size.div_ceil(PAGE_SIZE) as usize;
        PhysMem {
            pages: vec![Slot::Shared(SharedPage::default()); n],
            dropped_writes: 0,
            page_gens: vec![0; n],
            dirty: vec![0; n.div_ceil(64)],
            synced_to: None,
        }
    }

    /// Installed memory size in bytes.
    pub fn size(&self) -> u32 {
        (self.pages.len() * PAGE) as u32
    }

    /// Number of writes dropped on the floor (out-of-range).
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes
    }

    /// Number of pages this memory holds a private copy of: pages
    /// written since they were last shared. At most
    /// [`PhysMem::dirty_page_count`] after a restore.
    pub fn private_pages(&self) -> u32 {
        self.pages.iter().filter(|s| matches!(s, Slot::Private(_))).count() as u32
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
        match self.pages.get((addr >> PAGE_SHIFT) as usize) {
            Some(slot) => slot.bytes()[(addr & OFFSET_MASK) as usize],
            None => 0xff,
        }
    }

    /// Writes a byte; out-of-range writes are counted and dropped.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        let page = (addr >> PAGE_SHIFT) as usize;
        match self.pages.get_mut(page) {
            Some(slot) => {
                slot.bytes_mut()[(addr & OFFSET_MASK) as usize] = val;
                self.touch(page);
            }
            None => self.dropped_writes += 1,
        }
    }

    /// Reads a little-endian dword; may straddle pages and the end of
    /// memory (the missing bytes read as `0xFF`).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr & OFFSET_MASK) as usize;
        if let Some(slot) = self.pages.get((addr >> PAGE_SHIFT) as usize) {
            if let Some(bytes) = slot.bytes().get(off..off + 4) {
                return u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
            }
        }
        self.read_u32_bytewise(addr)
    }

    /// [`PhysMem::read_u32`] across a page boundary or off the end.
    #[cold]
    fn read_u32_bytewise(&self, addr: u32) -> u32 {
        let mut v = [0xffu8; 4];
        for (i, b) in v.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32));
        }
        u32::from_le_bytes(v)
    }

    /// Writes a little-endian dword. A dword inside installed memory
    /// bumps each page it lands in once; one that runs off the end is
    /// written a byte at a time.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        let (page, off) = ((addr >> PAGE_SHIFT) as usize, (addr & OFFSET_MASK) as usize);
        match self.pages.get_mut(page) {
            Some(slot) if off <= PAGE - 4 => {
                slot.bytes_mut()[off..off + 4].copy_from_slice(&val.to_le_bytes());
                self.touch(page);
            }
            _ => self.write_u32_split(addr, val),
        }
    }

    /// [`PhysMem::write_u32`] across a page boundary or off the end.
    #[cold]
    fn write_u32_split(&mut self, addr: u32, val: u32) {
        let (page, off) = ((addr >> PAGE_SHIFT) as usize, (addr & OFFSET_MASK) as usize);
        let (bytes, split) = (val.to_le_bytes(), PAGE - off);
        if split < 4 && page + 1 < self.pages.len() {
            self.pages[page].bytes_mut()[off..].copy_from_slice(&bytes[..split]);
            self.pages[page + 1].bytes_mut()[..4 - split].copy_from_slice(&bytes[split..]);
            self.touch(page);
            self.touch(page + 1);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`, in one
    /// slice operation when they lie in one installed page; bytes beyond
    /// installed memory read as `0xFF`.
    #[inline]
    pub fn read_into(&self, addr: u32, buf: &mut [u8]) {
        let off = (addr & OFFSET_MASK) as usize;
        let page = self.pages.get((addr >> PAGE_SHIFT) as usize);
        match page.and_then(|slot| slot.bytes().get(off..off + buf.len())) {
            Some(src) => buf.copy_from_slice(src),
            None => {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = self.read_u8(addr.wrapping_add(i as u32));
                }
            }
        }
    }

    /// Copies `src` into physical memory at `addr`, bumping each page it
    /// lands in once. A whole page of zeroes becomes the shared zero page.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit in installed memory — this is a
    /// host-side loader operation, not a guest access.
    pub fn load(&mut self, addr: u32, src: &[u8]) {
        let (mut at, mut rest) = (addr as usize, src);
        assert!(at + src.len() <= self.size() as usize, "load beyond installed memory");
        while !rest.is_empty() {
            let (page, off) = (at / PAGE, at % PAGE);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE - off));
            if chunk.len() == PAGE {
                self.pages[page] = match chunk.iter().all(|&b| b == 0) {
                    true => Slot::Shared(SharedPage::default()),
                    false => Slot::Private(private_copy(chunk)),
                };
            } else {
                self.pages[page].bytes_mut()[off..off + chunk.len()].copy_from_slice(chunk);
            }
            self.touch(page);
            (at, rest) = (at + chunk.len(), tail);
        }
    }

    /// The contents page by page, in address order.
    pub fn pages(&self) -> impl Iterator<Item = &[u8; PAGE]> + '_ {
        self.pages.iter().map(Slot::bytes)
    }

    /// Page `p`'s contents, or `None` past installed memory.
    pub(crate) fn page(&self, p: usize) -> Option<&[u8; PAGE]> {
        self.pages.get(p).map(Slot::bytes)
    }

    /// Every page that does not share `image`'s page, as `(page,
    /// contents, image contents)`: the only pages that can differ.
    pub(crate) fn unshared_with<'a>(
        &'a self,
        image: &'a MemImage,
    ) -> impl Iterator<Item = (u32, &'a PageBytes, &'a PageBytes)> + 'a {
        let shares = |slot: &Slot, page| matches!(slot, Slot::Shared(s) if s.same(page));
        let pages = self.pages.iter().zip(image.0.iter()).enumerate();
        pages
            .filter(move |(_, (slot, page))| !shares(slot, page))
            .map(|(p, (slot, page))| (p as u32, slot.bytes(), page.bytes()))
    }

    /// 64-bit FNV-1a of the whole memory, in address order: the digest
    /// that tests and the differential checker compare machines by.
    pub fn digest(&self) -> u64 {
        self.pages().flatten().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Zeroes all memory (used on reboot): every page becomes the shared
    /// zero page again, and every page counts as written.
    pub fn clear(&mut self) {
        self.pages.fill(Slot::Shared(SharedPage::default()));
        self.dropped_writes = 0;
        self.touch_all();
    }

    /// Restores from the image of the snapshot identified by `id`,
    /// resetting only the pages dirtied since the last restore when the
    /// baseline matches (otherwise every page, which establishes the new
    /// baseline). A reset page shares the image's page again. Returns
    /// the number of pages reset. Their write generations are bumped so
    /// stale decoded-instruction cache entries die.
    ///
    /// # Panics
    ///
    /// Panics if `image` has a different size than installed memory.
    pub fn restore_from(&mut self, image: &MemImage, id: u64) -> u32 {
        assert_eq!(image.0.len(), self.pages.len(), "snapshot size mismatch");
        let reset = if self.synced_to == Some(id) {
            let mut n = 0u32;
            for (w, word) in self.dirty.iter().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let p = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.pages[p] = Slot::Shared(image.0[p].clone());
                    self.page_gens[p] += 1;
                    n += 1;
                }
            }
            n
        } else {
            for (slot, page) in self.pages.iter_mut().zip(image.0.iter()) {
                *slot = Slot::Shared(page.clone());
            }
            self.touch_all();
            self.synced_to = Some(id);
            self.page_gens.len() as u32
        };
        self.dirty.fill(0);
        self.dropped_writes = 0;
        reset
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
    /// generation, slot)`.
    pub(crate) fn dirty_pages(&self) -> impl Iterator<Item = (u32, u64, &Slot)> + '_ {
        self.dirty.iter().enumerate().flat_map(move |(w, &word)| {
            (0..64).filter(move |b| word & (1 << b) != 0).map(move |b| {
                let p = w * 64 + b;
                (p as u32, self.page_gens[p], &self.pages[p])
            })
        })
    }

    /// Shares `page` as page `p` at generation `gen` and marks it dirty:
    /// one page of a checkpoint install.
    pub(crate) fn install_page(&mut self, p: u32, gen: u64, page: &SharedPage) {
        let p = p as usize;
        self.pages[p] = Slot::Shared(page.clone());
        self.page_gens[p] = gen;
        self.dirty[p / 64] |= 1 << (p % 64);
    }

    /// Sets the count of dropped out-of-range writes (checkpoint install).
    pub(crate) fn set_dropped_writes(&mut self, n: u64) {
        self.dropped_writes = n;
    }

    /// The current contents as an image others can hold. Pages this
    /// memory already shares are shared with the image too; private
    /// ones are copied once, here.
    pub fn snapshot(&self) -> MemImage {
        MemImage(self.pages.iter().map(Slot::share).collect())
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
        assert_eq!(m.read_u32(2 * PAGE_SIZE - 2), 0xaabbccdd);
    }

    #[test]
    fn tracked_restore_resets_only_dirty_pages() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        m.write_u32(0, 0x1111_1111);
        let snap = m.snapshot();
        // First restore against a new id always resets every page.
        assert_eq!(m.restore_from(&snap, 1), 4);
        assert_eq!(m.dirty_page_count(), 0);
        // Touch one page; only it is reset.
        m.write_u32(2 * PAGE_SIZE + 8, 0x2222_2222);
        assert_eq!(m.restore_from(&snap, 1), 1);
        assert_eq!(m.read_u32(2 * PAGE_SIZE + 8), 0);
        assert_eq!(m.read_u32(0), 0x1111_1111);
        // Untouched machine: nothing to reset at all.
        assert_eq!(m.restore_from(&snap, 1), 0);
        // A different snapshot id resets every page again.
        assert_eq!(m.restore_from(&snap, 2), 4);
    }

    #[test]
    fn restore_bumps_generations_of_reset_pages() {
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

    /// A new memory restored from `image`: the memory half of
    /// `Machine::fork`.
    fn fork(image: &MemImage, id: u64) -> PhysMem {
        let mut m = PhysMem::new(image.size());
        m.restore_from(image, id);
        m
    }

    #[test]
    fn fork_is_synced_to_its_base_from_the_start() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        m.write_u32(PAGE_SIZE, 0xcafe_f00d);
        let snap = m.snapshot();
        let mut f = fork(&snap, 42);
        assert_eq!(f.read_u32(PAGE_SIZE), 0xcafe_f00d);
        assert_eq!(f.dirty_page_count(), 0);
        // The next restore is already a dirty-page restore, not a
        // baseline-establishing reset of every page.
        f.write_u32(3 * PAGE_SIZE, 7);
        assert_eq!(f.restore_from(&snap, 42), 1);
        assert_eq!(f.read_u32(3 * PAGE_SIZE), 0);
        // Writes in the fork never leak into the base.
        f.write_u32(PAGE_SIZE, 1);
        assert_eq!(m.read_u32(PAGE_SIZE), 0xcafe_f00d);
        assert_eq!(snap.0[1].bytes()[..4], 0xcafe_f00du32.to_le_bytes());
    }

    #[test]
    fn fork_with_foreign_id_resets_every_page() {
        let m = PhysMem::new(2 * PAGE_SIZE);
        let snap = m.snapshot();
        let mut f = fork(&snap, 1);
        assert_eq!(f.restore_from(&snap, 2), 2, "unknown baseline: every page");
    }

    #[test]
    fn clear_dirties_everything() {
        let mut m = PhysMem::new(3 * PAGE_SIZE);
        m.clear();
        assert_eq!(m.dirty_page_count(), 3);
        assert!(m.page_gen(0) > 0);
    }

    #[test]
    fn a_fresh_fork_owns_no_page() {
        let mut m = PhysMem::new(8 * PAGE_SIZE);
        m.load(0x1ffe, &[1, 2, 3, 4, 5]);
        assert_eq!(m.private_pages(), 2);
        let f = fork(&m.snapshot(), 1);
        assert_eq!(f.private_pages(), 0);
        assert_eq!(PhysMem::new(8 * PAGE_SIZE).private_pages(), 0, "zero pages are shared");
    }

    #[test]
    fn one_write_makes_exactly_one_page_private() {
        let mut m = PhysMem::new(8 * PAGE_SIZE);
        m.load(0, &[7; 3 * PAGE]);
        let snap = m.snapshot();
        let mut f = fork(&snap, 1);
        f.write_u8(PAGE_SIZE + 5, 9);
        assert_eq!(f.private_pages(), 1);
        f.write_u32(PAGE_SIZE + 8, 9);
        assert_eq!(f.private_pages(), 1, "a private page is written in place");
        f.write_u8(8 * PAGE_SIZE, 1);
        assert_eq!(f.private_pages(), 1, "an open-bus write owns nothing");
        assert_eq!(snap.0[1].bytes()[5], 7, "the shared page is untouched");
    }

    #[test]
    fn restore_and_clear_give_private_pages_back() {
        let mut m = PhysMem::new(8 * PAGE_SIZE);
        let snap = m.snapshot();
        m.restore_from(&snap, 1);
        for p in 0..4 {
            m.write_u8(p * PAGE_SIZE, 1);
        }
        assert_eq!(m.private_pages(), 4);
        m.restore_from(&snap, 1);
        assert_eq!(m.private_pages(), 0);
        m.write_u32(0, 1);
        m.write_u32(5 * PAGE_SIZE, 1);
        assert_eq!(m.private_pages(), 2);
        m.clear();
        assert_eq!(m.private_pages(), 0);
    }

    #[test]
    fn a_snapshot_shares_the_pages_of_the_memory_that_took_it() {
        let mut base = PhysMem::new(8 * PAGE_SIZE);
        base.load(0, &[3; 4 * PAGE]);
        let first = base.snapshot();
        let mut m = fork(&first, 1);
        m.write_u8(2 * PAGE_SIZE, 4);
        let second = m.snapshot();
        for (p, (a, b)) in first.0.iter().zip(second.0.iter()).enumerate() {
            assert_eq!(a.same(b), p != 2, "page {p}");
        }
        // The written page's copy is the snapshot's own: later writes
        // to the memory do not reach it.
        m.write_u8(2 * PAGE_SIZE, 5);
        assert_eq!(second.0[2].bytes()[0], 4);
    }

    #[test]
    fn whole_page_loads_and_digests() {
        let mut m = PhysMem::new(4 * PAGE_SIZE);
        m.load(PAGE_SIZE - 1, &[9; PAGE + 2]);
        assert_eq!((m.read_u8(PAGE_SIZE - 2), m.read_u8(PAGE_SIZE - 1)), (0, 9));
        assert_eq!((m.read_u8(2 * PAGE_SIZE), m.read_u8(2 * PAGE_SIZE + 1)), (9, 0));
        assert_eq!(m.dirty_page_count(), 3);
        let flat: Vec<u8> = m.pages().flatten().copied().collect();
        let fnv = flat.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(m.digest(), fnv);
        m.write_u8(3 * PAGE_SIZE, 1);
        assert_ne!(m.digest(), fnv, "the digest distinguishes memories");
        assert_eq!(PhysMem::new(0).digest(), 0xcbf2_9ce4_8422_2325);
    }
}
