//! The simulated block device backing store.

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;

/// A RAM-backed disk image.
///
/// This is the persistence boundary of the simulation: the machine's
/// memory is wiped on reboot but the `Ramdisk` survives, so filesystem
/// corruption caused by an injected error persists across reboots —
/// which is what makes the paper's *severe* (fsck) and *most severe*
/// (reformat) crash categories observable.
///
/// Like [`crate::PhysMem`], the disk tracks which sectors have been
/// written since the last [`Ramdisk::restore_from`], so the per-run
/// reset against a shared post-boot image copies O(sectors written)
/// instead of the whole image. The bookkeeping (dirty bitset, baseline
/// id) is invisible to equality: two disks compare equal iff their
/// bytes and I/O statistics agree.
#[derive(Debug, Clone)]
pub struct Ramdisk {
    bytes: Vec<u8>,
    reads: u64,
    writes: u64,
    /// Bitset over sectors: written since the last restore.
    dirty: Vec<u64>,
    /// Baseline id the contents were last restored from (see
    /// [`Ramdisk::restore_from`]); `None` after raw `bytes_mut` access.
    synced_to: Option<u64>,
}

impl PartialEq for Ramdisk {
    fn eq(&self, other: &Ramdisk) -> bool {
        self.bytes == other.bytes && self.reads == other.reads && self.writes == other.writes
    }
}

impl Eq for Ramdisk {}

fn dirty_words(bytes_len: usize) -> usize {
    (bytes_len / SECTOR_SIZE).div_ceil(64)
}

/// The sector numbers set in a dirty bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        (0..64).filter(move |b| word & (1 << b) != 0).map(move |b| w * 64 + b)
    })
}

impl Ramdisk {
    /// Creates a zeroed disk with `sectors` sectors.
    pub fn new(sectors: u32) -> Ramdisk {
        Ramdisk {
            bytes: vec![0; sectors as usize * SECTOR_SIZE],
            reads: 0,
            writes: 0,
            dirty: vec![0; (sectors as usize).div_ceil(64)],
            synced_to: None,
        }
    }

    /// Wraps existing image bytes (must be a sector multiple).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of [`SECTOR_SIZE`].
    pub fn from_bytes(bytes: Vec<u8>) -> Ramdisk {
        assert_eq!(bytes.len() % SECTOR_SIZE, 0, "image not sector-aligned");
        let words = dirty_words(bytes.len());
        Ramdisk { bytes, reads: 0, writes: 0, dirty: vec![0; words], synced_to: None }
    }

    /// Builds a disk whose contents equal `base` and whose dirty
    /// baseline is already synced to the image identified by `id`: the
    /// disk half of a copy-on-write machine fork. Every later
    /// [`Ramdisk::restore_from`] against the same `(base, id)` pair is
    /// O(sectors written) from the start.
    ///
    /// # Panics
    ///
    /// Panics if `base.len()` is not a multiple of [`SECTOR_SIZE`].
    pub fn fork_from(base: &[u8], id: u64) -> Ramdisk {
        assert_eq!(base.len() % SECTOR_SIZE, 0, "image not sector-aligned");
        Ramdisk {
            bytes: base.to_vec(),
            reads: 0,
            writes: 0,
            dirty: vec![0; dirty_words(base.len())],
            synced_to: Some(id),
        }
    }

    /// Resets the disk to the image identified by `id`, copying only the
    /// sectors written since the last restore when the baseline matches
    /// (otherwise a full copy establishes the new baseline). I/O
    /// statistics reset to zero either way, exactly as if a fresh disk
    /// had been built with [`Ramdisk::from_bytes`]. Returns the number
    /// of sectors copied.
    ///
    /// # Panics
    ///
    /// Panics if `base` has a different length than the disk.
    pub fn restore_from(&mut self, base: &[u8], id: u64) -> u32 {
        assert_eq!(base.len(), self.bytes.len(), "image size mismatch");
        let copied = if self.synced_to == Some(id) {
            let mut n = 0u32;
            for s in set_bits(&self.dirty) {
                let off = s * SECTOR_SIZE;
                self.bytes[off..off + SECTOR_SIZE].copy_from_slice(&base[off..off + SECTOR_SIZE]);
                n += 1;
            }
            n
        } else {
            self.bytes.copy_from_slice(base);
            self.synced_to = Some(id);
            self.dirty = vec![0; dirty_words(self.bytes.len())];
            self.sectors()
        };
        self.dirty.fill(0);
        self.reads = 0;
        self.writes = 0;
        copied
    }

    /// The sectors whose bytes differ from `base`, as `(lba, bytes)` in
    /// LBA order: the disk as a difference from that image. When the
    /// disk is synced to the baseline `id` (see
    /// [`Ramdisk::restore_from`]) only sectors written since the last
    /// restore can differ, so only they are compared; otherwise every
    /// sector is.
    ///
    /// # Panics
    ///
    /// Panics if `base` has a different length than the disk.
    pub fn delta_from(&self, base: &[u8], id: u64) -> Vec<(u32, Vec<u8>)> {
        assert_eq!(base.len(), self.bytes.len(), "image size mismatch");
        let differs = |s: usize| {
            let (a, b) = (s * SECTOR_SIZE, (s + 1) * SECTOR_SIZE);
            let sector = &self.bytes[a..b];
            (sector != &base[a..b]).then(|| (s as u32, sector.to_vec()))
        };
        if self.synced_to == Some(id) {
            set_bits(&self.dirty).filter_map(differs).collect()
        } else {
            (0..self.sectors() as usize).filter_map(differs).collect()
        }
    }

    /// The baseline id the dirty set tracks divergence from.
    pub(crate) fn synced_to(&self) -> Option<u64> {
        self.synced_to
    }

    /// The sectors written since the last restore, ascending, as `(lba,
    /// contents)`.
    pub(crate) fn written_sectors(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        set_bits(&self.dirty).map(|s| (s as u32, &self.bytes[s * SECTOR_SIZE..][..SECTOR_SIZE]))
    }

    /// Overwrites sector `lba` with `bytes` and marks it written: one
    /// sector of a checkpoint install. I/O statistics are untouched.
    pub(crate) fn install_sector(&mut self, lba: u32, bytes: &[u8]) {
        let s = lba as usize;
        self.bytes[s * SECTOR_SIZE..][..SECTOR_SIZE].copy_from_slice(bytes);
        self.dirty[s / 64] |= 1 << (s % 64);
    }

    /// Sets the `(reads, writes)` statistics (checkpoint install).
    pub(crate) fn set_io_stats(&mut self, (reads, writes): (u64, u64)) {
        (self.reads, self.writes) = (reads, writes);
    }

    /// Unwraps the image bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of sectors written since the last restore (or creation).
    pub fn dirty_sector_count(&self) -> u32 {
        self.dirty.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of sectors.
    pub fn sectors(&self) -> u32 {
        (self.bytes.len() / SECTOR_SIZE) as u32
    }

    /// Total (read, write) sector operations performed.
    pub fn io_stats(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Reads sector `lba` into `buf`. Returns `false` (and fills `0xFF`)
    /// when `lba` is out of range.
    pub fn read_sector(&mut self, lba: u32, buf: &mut [u8; SECTOR_SIZE]) -> bool {
        self.reads += 1;
        let start = lba as usize * SECTOR_SIZE;
        match self.bytes.get(start..start + SECTOR_SIZE) {
            Some(s) => {
                buf.copy_from_slice(s);
                true
            }
            None => {
                buf.fill(0xff);
                false
            }
        }
    }

    /// Writes `buf` to sector `lba`. Returns `false` (dropping the write)
    /// when `lba` is out of range.
    pub fn write_sector(&mut self, lba: u32, buf: &[u8; SECTOR_SIZE]) -> bool {
        self.writes += 1;
        let start = lba as usize * SECTOR_SIZE;
        match self.bytes.get_mut(start..start + SECTOR_SIZE) {
            Some(s) => {
                s.copy_from_slice(buf);
                // `bytes_mut` may have grown the image past the bitset
                // (it also drops the baseline, so nothing is lost).
                if let Some(w) = self.dirty.get_mut(lba as usize / 64) {
                    *w |= 1 << (lba as usize % 64);
                }
                true
            }
            None => false,
        }
    }

    /// The whole image, for host-side `mkfs`/`fsck`.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable image access, for host-side `mkfs`. Raw access bypasses
    /// the sector dirty tracking, so the restore baseline is forgotten:
    /// the next [`Ramdisk::restore_from`] pays a full copy.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        self.synced_to = None;
        &mut self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn misaligned_image_rejected() {
        let _ = Ramdisk::from_bytes(vec![0; 100]);
    }

    #[test]
    fn tracked_restore_copies_only_written_sectors() {
        let base = {
            let mut d = Ramdisk::new(8);
            let mut w = [0u8; SECTOR_SIZE];
            w[0] = 0x5a;
            d.write_sector(1, &w);
            d.bytes().to_vec()
        };
        let mut d = Ramdisk::from_bytes(base.clone());
        // First restore against a new id is always a full copy.
        assert_eq!(d.restore_from(&base, 9), 8);
        // Write two sectors; only they are copied back.
        let w = [0xabu8; SECTOR_SIZE];
        d.write_sector(0, &w);
        d.write_sector(5, &w);
        assert_eq!(d.dirty_sector_count(), 2);
        assert_eq!(d.restore_from(&base, 9), 2);
        assert_eq!(d, Ramdisk::from_bytes(base.clone()), "contents and io stats reset");
        // Untouched disk: nothing to copy.
        assert_eq!(d.restore_from(&base, 9), 0);
        // A different baseline id forces a full copy again.
        assert_eq!(d.restore_from(&base, 10), 8);
    }

    #[test]
    fn fork_is_synced_to_its_base_from_the_start() {
        let mut base_disk = Ramdisk::new(4);
        let w = [0x77u8; SECTOR_SIZE];
        base_disk.write_sector(2, &w);
        let base = base_disk.bytes().to_vec();
        let mut f = Ramdisk::fork_from(&base, 3);
        assert_eq!(f.bytes(), &base[..]);
        assert_eq!(f.io_stats(), (0, 0));
        // The very first restore is already a dirty-sector restore.
        f.write_sector(0, &w);
        assert_eq!(f.restore_from(&base, 3), 1);
        assert_eq!(f.bytes(), &base[..]);
        // Writes in the fork never leak into the base bytes.
        assert_eq!(base_disk.bytes(), &base[..]);
    }

    #[test]
    fn raw_access_drops_the_baseline() {
        let base = vec![0u8; 4 * SECTOR_SIZE];
        let mut d = Ramdisk::fork_from(&base, 1);
        d.bytes_mut()[100] = 0xee;
        // The raw write bypassed sector tracking, so the next restore
        // must not trust the (empty) dirty set.
        assert_eq!(d.restore_from(&base, 1), 4, "full copy after bytes_mut");
        assert_eq!(d.bytes(), &base[..]);
    }

    #[test]
    fn delta_lists_exactly_the_differing_sectors_on_either_path() {
        let base = {
            let mut d = Ramdisk::new(130);
            d.write_sector(70, &[0x11u8; SECTOR_SIZE]);
            d.bytes().to_vec()
        };
        let mut synced = Ramdisk::fork_from(&base, 4);
        synced.write_sector(129, &[0x22u8; SECTOR_SIZE]);
        synced.write_sector(3, &[0x33u8; SECTOR_SIZE]);
        // Rewritten with its own bytes: dirty, but not a difference.
        synced.write_sector(70, &[0x11u8; SECTOR_SIZE]);
        let want = vec![(3, vec![0x33u8; SECTOR_SIZE]), (129, vec![0x22u8; SECTOR_SIZE])];
        assert_eq!(synced.delta_from(&base, 4), want, "dirty-set path");
        let unsynced = Ramdisk::from_bytes(synced.bytes().to_vec());
        assert_eq!(unsynced.delta_from(&base, 4), want, "full-compare path");
        // A different baseline id falls back to the full compare.
        assert_eq!(synced.delta_from(&base, 5), want);
        assert!(Ramdisk::fork_from(&base, 4).delta_from(&base, 4).is_empty());
    }

    #[test]
    fn bookkeeping_is_invisible_to_equality() {
        let base = vec![0u8; 2 * SECTOR_SIZE];
        let a = Ramdisk::fork_from(&base, 1);
        let b = Ramdisk::from_bytes(base);
        assert_eq!(a, b, "baseline id and dirty set must not affect equality");
    }
}
