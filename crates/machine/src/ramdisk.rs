//! The simulated block device backing store.

use crate::mem::{MemImage, PhysMem, PAGE_SIZE};
use std::sync::atomic::Ordering;

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;

const PAGE: usize = PAGE_SIZE as usize;

/// A frozen disk: a [`Ramdisk`]'s pages at one moment
/// ([`Ramdisk::snapshot`]), shared by every disk forked or restored from
/// it. Cloning it shares the whole table.
#[derive(Debug, Clone)]
pub struct DiskImage {
    id: u64,
    pages: MemImage,
    sectors: u32,
}

/// A RAM-backed disk image.
///
/// This is the persistence boundary of the simulation: the machine's
/// memory is wiped on reboot but the `Ramdisk` survives, so filesystem
/// corruption caused by an injected error persists across reboots —
/// which is what makes the paper's *severe* (fsck) and *most severe*
/// (reformat) crash categories observable.
///
/// Its storage is a [`PhysMem`]: 4 KiB pages of 8 sectors each, shared
/// copy-on-write with the [`DiskImage`]s and checkpoints it came from,
/// and the shared zero page where nothing was written. Forking and
/// restoring move page references, not bytes; a sector write copies its
/// page only on the first write after sharing
/// ([`Ramdisk::private_pages`] counts those). The sharing is invisible
/// to equality: two disks compare equal iff their bytes and I/O
/// statistics agree.
#[derive(Debug, Clone)]
pub struct Ramdisk {
    pub(crate) pages: PhysMem,
    sectors: u32,
    reads: u64,
    writes: u64,
}

impl PartialEq for Ramdisk {
    fn eq(&self, other: &Ramdisk) -> bool {
        self.sectors == other.sectors
            && self.io_stats() == other.io_stats()
            && self.pages.pages().eq(other.pages.pages())
    }
}

impl Eq for Ramdisk {}

impl Ramdisk {
    /// Creates a zeroed disk with `sectors` sectors.
    ///
    /// # Panics
    ///
    /// Panics if the disk would hold more than 4 GiB.
    pub fn new(sectors: u32) -> Ramdisk {
        let size = sectors.checked_mul(SECTOR_SIZE as u32).expect("a disk of at most 4 GiB");
        Ramdisk { pages: PhysMem::new(size), sectors, reads: 0, writes: 0 }
    }

    /// Wraps existing image bytes (must be a sector multiple).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of [`SECTOR_SIZE`].
    pub fn from_bytes(bytes: Vec<u8>) -> Ramdisk {
        Ramdisk::fork_from(&bytes, 0)
    }

    /// A disk holding a copy of the flat image `base`, as
    /// [`Ramdisk::from_bytes`] builds one. `_id` is not used: a disk
    /// learns its baseline from the [`DiskImage`] it is forked or
    /// restored from ([`Ramdisk::fork`]).
    ///
    /// # Panics
    ///
    /// Panics if `base.len()` is not a multiple of [`SECTOR_SIZE`].
    pub fn fork_from(base: &[u8], _id: u64) -> Ramdisk {
        assert_eq!(base.len() % SECTOR_SIZE, 0, "image not sector-aligned");
        let mut disk = Ramdisk::new((base.len() / SECTOR_SIZE) as u32);
        disk.load(0, base);
        disk
    }

    /// A disk holding `image` and sharing all of its pages: the disk
    /// half of a machine fork. It owns no page until it writes one, and
    /// its first [`Ramdisk::restore_from`] of `image` resets only the
    /// pages written since.
    pub fn fork(image: &DiskImage) -> Ramdisk {
        let mut disk = Ramdisk::new(image.sectors);
        disk.restore_from(image);
        disk
    }

    /// The current contents as an image others can hold. Pages this disk
    /// already shares are shared with the image too; pages it owns are
    /// copied once, here.
    pub fn snapshot(&self) -> DiskImage {
        let id = crate::machine::NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed);
        DiskImage { id, pages: self.pages.snapshot(), sectors: self.sectors }
    }

    /// Resets the disk to `image`, sharing its pages again: only the
    /// pages written since the last restore when that restore was from
    /// `image` too, otherwise every page. I/O statistics reset to zero
    /// either way, exactly as on a [`Ramdisk::fork`] of the image.
    /// Returns the number of pages reset.
    ///
    /// # Panics
    ///
    /// Panics if `image` has a different size than the disk.
    pub fn restore_from(&mut self, image: &DiskImage) -> u32 {
        assert_eq!(image.sectors, self.sectors, "image size mismatch");
        (self.reads, self.writes) = (0, 0);
        self.pages.restore_from(&image.pages, image.id)
    }

    /// The sectors whose bytes differ from `image`, as `(lba, bytes)` in
    /// LBA order: the disk as a difference from that image. Only the
    /// pages this disk does not share with the image are compared,
    /// sector by sector.
    ///
    /// # Panics
    ///
    /// Panics if `image` has a different size than the disk.
    pub fn delta_from(&self, image: &DiskImage) -> Vec<(u32, Vec<u8>)> {
        assert_eq!(image.sectors, self.sectors, "image size mismatch");
        let mut delta = Vec::new();
        for (p, ours, theirs) in self.pages.unshared_with(&image.pages) {
            let sectors = ours.chunks(SECTOR_SIZE).zip(theirs.chunks(SECTOR_SIZE));
            for (lba, (a, b)) in (p * (PAGE / SECTOR_SIZE) as u32..).zip(sectors) {
                if a != b {
                    delta.push((lba, a.to_vec()));
                }
            }
        }
        delta
    }

    /// Sets the `(reads, writes)` statistics (checkpoint install).
    pub(crate) fn set_io_stats(&mut self, (reads, writes): (u64, u64)) {
        (self.reads, self.writes) = (reads, writes);
    }

    /// Number of pages this disk holds a private copy of: pages written
    /// since they were last shared. At most
    /// [`Ramdisk::dirty_page_count`].
    pub fn private_pages(&self) -> u32 {
        self.pages.private_pages()
    }

    /// Number of pages written since the last restore (or creation),
    /// checkpoint pages installed since included.
    pub fn dirty_page_count(&self) -> u32 {
        self.pages.dirty_page_count()
    }

    /// Number of sectors.
    pub fn sectors(&self) -> u32 {
        self.sectors
    }

    /// Total (read, write) sector operations performed since the disk
    /// was built or last restored.
    pub fn io_stats(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Reads sector `lba` into `buf`. Returns `false` (and fills `0xFF`)
    /// when `lba` is out of range.
    pub fn read_sector(&mut self, lba: u32, buf: &mut [u8; SECTOR_SIZE]) -> bool {
        self.reads += 1;
        let ok = lba < self.sectors;
        match ok {
            true => self.pages.read_into(lba * SECTOR_SIZE as u32, buf),
            false => buf.fill(0xff),
        }
        ok
    }

    /// Writes `buf` to sector `lba`. Returns `false` (dropping the write)
    /// when `lba` is out of range.
    pub fn write_sector(&mut self, lba: u32, buf: &[u8; SECTOR_SIZE]) -> bool {
        self.writes += 1;
        let ok = lba < self.sectors;
        if ok {
            self.pages.load(lba * SECTOR_SIZE as u32, buf);
        }
        ok
    }

    /// Copies `bytes` into the disk at byte `offset` without counting
    /// I/O: the host-side loader `mkfs` builds its image with.
    ///
    /// # Panics
    ///
    /// Panics if the bytes run past the end of the disk.
    pub fn load(&mut self, offset: usize, bytes: &[u8]) {
        assert!(
            offset + bytes.len() <= self.sectors as usize * SECTOR_SIZE,
            "load beyond the disk"
        );
        self.pages.load(offset as u32, bytes);
    }

    /// Page `p` (sectors `8p` to `8p + 7`) read in place, cut at the end
    /// of the disk, or `None` past it: how host-side tools such as fsck
    /// read the disk without copying it.
    pub fn page(&self, p: usize) -> Option<&[u8]> {
        let left =
            (self.sectors as usize * SECTOR_SIZE).checked_sub(p * PAGE).filter(|&n| n > 0)?;
        Some(&self.pages.page(p)?[..left.min(PAGE)])
    }

    /// The whole image as one flat copy.
    pub fn bytes(&self) -> Vec<u8> {
        self.pages.pages().flatten().take(self.sectors as usize * SECTOR_SIZE).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sector(byte: u8) -> [u8; SECTOR_SIZE] {
        [byte; SECTOR_SIZE]
    }

    #[test]
    fn sector_roundtrip() {
        let mut d = Ramdisk::new(4);
        let mut w = [0u8; SECTOR_SIZE];
        w[0] = 0xab;
        w[511] = 0xcd;
        assert!(d.write_sector(2, &w));
        let mut r = [0u8; SECTOR_SIZE];
        assert!(d.read_sector(2, &mut r));
        assert_eq!(r, w);
        assert_eq!(d.io_stats(), (1, 1));
    }

    #[test]
    fn out_of_range() {
        let mut d = Ramdisk::new(2);
        let mut buf = [0u8; SECTOR_SIZE];
        assert!(!d.read_sector(2, &mut buf));
        assert_eq!(buf[0], 0xff);
        assert!(!d.write_sector(99, &buf));
        assert_eq!(d.private_pages(), 0, "a dropped write owns nothing");
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn misaligned_image_rejected() {
        let _ = Ramdisk::from_bytes(vec![0; 100]);
    }

    #[test]
    fn zero_pages_of_a_flat_image_stay_shared() {
        let mut bytes = vec![0u8; 64 * SECTOR_SIZE];
        bytes[20 * SECTOR_SIZE] = 1;
        let d = Ramdisk::from_bytes(bytes.clone());
        assert_eq!(d.private_pages(), 1);
        assert_eq!(d.bytes(), bytes);
    }

    #[test]
    fn a_fork_owns_no_page_until_it_writes_one() {
        let mut base = Ramdisk::new(32);
        base.write_sector(9, &sector(0x77));
        let image = base.snapshot();
        let mut f = Ramdisk::fork(&image);
        assert_eq!((f.private_pages(), f.io_stats()), (0, (0, 0)));
        assert_eq!(f, Ramdisk::from_bytes(base.bytes()));
        f.write_sector(10, &sector(1));
        f.write_sector(11, &sector(2));
        assert_eq!(f.private_pages(), 1, "two sectors of one page");
        // Writes in the fork never reach the image.
        assert_eq!(Ramdisk::fork(&image).bytes(), base.bytes());
    }

    #[test]
    fn restore_resets_only_the_pages_written_since() {
        let image = Ramdisk::from_bytes(vec![3; 32 * SECTOR_SIZE]).snapshot();
        let mut d = Ramdisk::from_bytes(vec![0; 32 * SECTOR_SIZE]);
        // The first restore from an image resets every page.
        assert_eq!(d.restore_from(&image), 4);
        d.write_sector(0, &sector(1));
        d.write_sector(5, &sector(1));
        d.write_sector(30, &sector(1));
        assert_eq!(d.restore_from(&image), 2);
        assert_eq!(d, Ramdisk::fork(&image), "contents and io stats reset");
        assert_eq!(d.private_pages(), 0);
        assert_eq!(d.restore_from(&image), 0, "nothing written: nothing to reset");
        // Another image resets every page again.
        assert_eq!(d.restore_from(&d.snapshot()), 4);
    }

    #[test]
    fn delta_lists_exactly_the_differing_sectors() {
        let mut base = Ramdisk::new(130);
        base.write_sector(70, &sector(0x11));
        let image = base.snapshot();
        let mut d = Ramdisk::fork(&image);
        d.write_sector(129, &sector(0x22));
        d.write_sector(3, &sector(0x33));
        // Rewritten with its own bytes: owned, but not a difference.
        d.write_sector(70, &sector(0x11));
        let want = vec![(3, sector(0x33).to_vec()), (129, sector(0x22).to_vec())];
        assert_eq!(d.delta_from(&image), want);
        // A disk sharing nothing with the image compares every page.
        assert_eq!(Ramdisk::from_bytes(d.bytes()).delta_from(&image), want);
        assert!(Ramdisk::fork(&image).delta_from(&image).is_empty());
    }

    #[test]
    fn pages_are_cut_at_the_end_of_the_disk() {
        let mut d = Ramdisk::new(12);
        d.write_sector(11, &sector(5));
        assert_eq!(d.page(0).map(<[u8]>::len), Some(PAGE));
        assert_eq!(d.page(1), Some(&[&[0; 3 * SECTOR_SIZE][..], &sector(5)].concat()[..]));
        assert_eq!(d.page(2), None);
        assert_eq!(Ramdisk::new(16).page(2), None);
    }
}
