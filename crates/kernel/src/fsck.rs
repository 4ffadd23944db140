//! Host-side `fsck` for the ext2-lite filesystem: the arbiter of the
//! paper's crash-severity levels.
//!
//! * [`FsckReport::Clean`] — the automatic-reboot (normal) case.
//! * [`FsckReport::Fixed`] — inconsistencies a user-driven fsck repairs:
//!   the *severe* case (> 5 minutes with operator intervention).
//! * [`FsckReport::Unrecoverable`] — superblock/root destroyed or system
//!   binaries corrupted: reformat + reinstall, the *most severe* case.

use crate::mkfs::{
    checksum, sb, BITMAP_BLOCK, BLOCK_SIZE, DATA_START, EXT2_MAGIC, IBITMAP_BLOCK, IMODE_DIR,
    IMODE_REG, ITABLE_BLOCK, NR_DIRECT, NR_INODES, ROOT_INO, SB_BLOCK,
};
use kfi_machine::{Ramdisk, PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};

/// Where [`fsck`] reads the filesystem's blocks from: a flat image, or a
/// [`Ramdisk`] read in place through its page table.
pub trait Blocks {
    /// Image size in bytes.
    fn size(&self) -> usize;
    /// Block `n`'s bytes, or `None` when it lies past the end.
    fn block(&self, n: u32) -> Option<&[u8]>;
}

impl Blocks for [u8] {
    fn size(&self) -> usize {
        self.len()
    }

    fn block(&self, n: u32) -> Option<&[u8]> {
        let start = n as usize * BLOCK_SIZE;
        self.get(start..start + BLOCK_SIZE)
    }
}

impl Blocks for Vec<u8> {
    fn size(&self) -> usize {
        self.len()
    }

    fn block(&self, n: u32) -> Option<&[u8]> {
        self[..].block(n)
    }
}

impl Blocks for Ramdisk {
    fn size(&self) -> usize {
        self.sectors() as usize * kfi_machine::SECTOR_SIZE
    }

    fn block(&self, n: u32) -> Option<&[u8]> {
        let at = n as usize * BLOCK_SIZE;
        let off = at % PAGE_SIZE as usize;
        self.page(at / PAGE_SIZE as usize)?.get(off..off + BLOCK_SIZE)
    }
}

/// The verdict of a filesystem check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckReport {
    /// No inconsistencies.
    Clean,
    /// Repairable damage was found (and would be repaired by e2fsck).
    Fixed {
        /// Count of individual problems found.
        problems: u32,
        /// Descriptions (first few).
        notes: Vec<String>,
    },
    /// The filesystem (or the system software on it) cannot be repaired:
    /// reformat + reinstall territory.
    Unrecoverable {
        /// Why.
        reason: String,
    },
}

impl FsckReport {
    /// True when no problems at all were found.
    pub fn is_clean(&self) -> bool {
        matches!(self, FsckReport::Clean)
    }
}

struct Fs<'a, D: ?Sized> {
    disk: &'a D,
    nblocks: u32,
}

impl<'a, D: Blocks + ?Sized> Fs<'a, D> {
    fn block(&self, n: u32) -> Option<&'a [u8]> {
        self.disk.block(n)
    }

    fn u32_at(&self, block: u32, off: usize) -> u32 {
        self.block(block)
            .and_then(|b| b.get(off..off + 4))
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
            .unwrap_or(0)
    }

    fn inode(&self, ino: u32) -> Option<Inode> {
        if ino == 0 || ino > NR_INODES {
            return None;
        }
        let blk = ITABLE_BLOCK + (ino - 1) / 16;
        let off = ((ino - 1) % 16) as usize * 64;
        let b = self.block(blk)?;
        let raw = &b[off..off + 64];
        let mut direct = [0u32; NR_DIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u32::from_le_bytes(raw[8 + i * 4..12 + i * 4].try_into().expect("4"));
        }
        Some(Inode {
            mode: u16::from_le_bytes(raw[0..2].try_into().expect("2")),
            links: u16::from_le_bytes(raw[2..4].try_into().expect("2")),
            size: u32::from_le_bytes(raw[4..8].try_into().expect("4")),
            direct,
            indirect: u32::from_le_bytes(raw[56..60].try_into().expect("4")),
        })
    }

    /// File block list (direct + indirect), unvalidated.
    fn block_list(&self, inode: &Inode) -> Vec<u32> {
        let mut v: Vec<u32> = inode.direct.iter().copied().filter(|b| *b != 0).collect();
        if inode.indirect != 0 {
            v.push(inode.indirect);
            if let Some(ind) = self.block(inode.indirect) {
                for i in 0..256 {
                    let b = u32::from_le_bytes(ind[i * 4..i * 4 + 4].try_into().expect("4"));
                    if b != 0 {
                        v.push(b);
                    }
                }
            }
        }
        v
    }

    /// Reads a file's contents (best effort).
    fn read_file(&self, inode: &Inode) -> Vec<u8> {
        let mut out = Vec::with_capacity(inode.size as usize);
        let nblocks = (inode.size as usize).div_ceil(BLOCK_SIZE);
        for i in 0..nblocks {
            let blk = if i < NR_DIRECT {
                inode.direct[i]
            } else if inode.indirect != 0 {
                self.block(inode.indirect)
                    .map(|ind| {
                        u32::from_le_bytes(
                            ind[(i - NR_DIRECT) * 4..(i - NR_DIRECT) * 4 + 4]
                                .try_into()
                                .expect("4"),
                        )
                    })
                    .unwrap_or(0)
            } else {
                0
            };
            match self.block(blk).filter(|_| blk != 0) {
                Some(b) => out.extend_from_slice(b),
                None => out.extend_from_slice(&[0; BLOCK_SIZE]),
            }
        }
        out.truncate(inode.size as usize);
        out
    }

    fn dir_entries(&self, inode: &Inode) -> Vec<(String, u32)> {
        let data = self.read_file(inode);
        data.chunks(32)
            .filter(|e| e.len() == 32)
            .filter_map(|e| {
                let ino = u32::from_le_bytes(e[0..4].try_into().expect("4"));
                if ino == 0 {
                    return None;
                }
                let name = String::from_utf8_lossy(&e[4..]).trim_end_matches('\0').to_string();
                Some((name, ino))
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
struct Inode {
    mode: u16,
    links: u16,
    size: u32,
    direct: [u32; NR_DIRECT],
    indirect: u32,
}

/// Runs a full consistency check of the filesystem on `disk`: raw image
/// bytes or a [`Ramdisk`].
///
/// `manifest` maps critical file paths to their expected FNV checksums
/// (from [`crate::mkfs::FsImage::manifest`]); content mismatches on these
/// are unrecoverable (the "reinstall the OS" scenario — the paper's
/// Table 5 cases 1 and 9 are exactly corrupted `/lib/.../libc.so.6` and
/// corrupted executables).
pub fn fsck<D: Blocks + ?Sized>(disk: &D, manifest: &BTreeMap<String, (u32, u32)>) -> FsckReport {
    let mut problems: Vec<String> = Vec::new();

    // 1. Superblock.
    if disk.size() < 2 * BLOCK_SIZE {
        return FsckReport::Unrecoverable { reason: "image truncated".into() };
    }
    let fs = Fs { disk, nblocks: (disk.size() / BLOCK_SIZE) as u32 };
    let magic = fs.u32_at(SB_BLOCK, sb::MAGIC);
    if magic != EXT2_MAGIC {
        return FsckReport::Unrecoverable { reason: format!("bad superblock magic {magic:#x}") };
    }
    let sb_blocks = fs.u32_at(SB_BLOCK, sb::BLOCKS);
    if sb_blocks != fs.nblocks {
        problems.push(format!("superblock block count {sb_blocks} != device {}", fs.nblocks));
    }
    let dirty = fs.u32_at(SB_BLOCK, sb::STATE) == 0;

    // 2. Root directory must exist and be a directory.
    let root = match fs.inode(ROOT_INO) {
        Some(i) if i.mode & IMODE_DIR != 0 => i,
        _ => {
            return FsckReport::Unrecoverable { reason: "root inode destroyed".into() };
        }
    };

    // 3. Walk the tree; collect reachable inodes and blocks.
    let mut reachable_inodes: BTreeSet<u32> = BTreeSet::new();
    let mut used_blocks: BTreeSet<u32> = BTreeSet::new();
    let mut path_of: BTreeMap<String, u32> = BTreeMap::new();
    reachable_inodes.insert(ROOT_INO);
    used_blocks.extend(fs.block_list(&root));
    let mut stack: Vec<(String, Inode)> = vec![(String::new(), root)];
    let mut depth_guard = 0;
    while let Some((prefix, dir)) = stack.pop() {
        depth_guard += 1;
        if depth_guard > 1000 {
            problems.push("directory structure loops".into());
            break;
        }
        for (name, ino) in fs.dir_entries(&dir) {
            if name == "." || name == ".." {
                continue;
            }
            if ino > NR_INODES {
                problems.push(format!("entry {prefix}/{name} -> bad inode {ino}"));
                continue;
            }
            let Some(inode) = fs.inode(ino) else {
                problems.push(format!("entry {prefix}/{name} unreadable"));
                continue;
            };
            if inode.mode & (IMODE_DIR | IMODE_REG) == 0 || inode.links == 0 {
                problems.push(format!("entry {prefix}/{name} -> unallocated inode {ino}"));
                continue;
            }
            if !reachable_inodes.insert(ino) {
                // hard link; fine
                continue;
            }
            // Validate block pointers.
            for b in fs.block_list(&inode) {
                if b < DATA_START || b >= fs.nblocks {
                    problems.push(format!("{prefix}/{name}: block {b} out of range"));
                } else if !used_blocks.insert(b) {
                    problems.push(format!("{prefix}/{name}: block {b} multiply claimed"));
                }
            }
            // Size vs capacity.
            let cap = (NR_DIRECT + 256) * BLOCK_SIZE;
            if inode.size as usize > cap {
                problems.push(format!("{prefix}/{name}: size {} impossible", inode.size));
            }
            let full_path = format!("{prefix}/{name}");
            path_of.insert(full_path.clone(), ino);
            if inode.mode & IMODE_DIR != 0 {
                stack.push((full_path, inode));
            }
        }
    }

    // 4. Bitmap consistency.
    if let Some(bitmap) = fs.block(BITMAP_BLOCK) {
        for blk in DATA_START..fs.nblocks {
            let marked = bitmap[(blk / 8) as usize] & (1 << (blk % 8)) != 0;
            let used = used_blocks.contains(&blk);
            if used && !marked {
                problems.push(format!("block {blk} used but free in bitmap"));
            }
            // marked-but-unused is only leakage; count it as fixable too
            if !used && marked {
                problems.push(format!("block {blk} leaked (marked, unreachable)"));
            }
        }
    }
    if let Some(ibitmap) = fs.block(IBITMAP_BLOCK) {
        for ino in 2..=NR_INODES {
            let marked = ibitmap[(ino / 8) as usize] & (1 << (ino % 8)) != 0;
            let reach = reachable_inodes.contains(&ino);
            if reach && !marked {
                problems.push(format!("inode {ino} used but free in bitmap"));
            }
            if !reach && marked {
                problems.push(format!("inode {ino} leaked"));
            }
        }
    }

    // 5. Critical-content checks: corrupted or missing system binaries
    //    mean a reinstall even if the metadata is self-consistent.
    for (path, (_ino, want)) in manifest {
        match path_of.get(path).and_then(|i| fs.inode(*i)) {
            Some(inode) => {
                let got = checksum(&fs.read_file(&inode));
                if got != *want {
                    return FsckReport::Unrecoverable {
                        reason: format!(
                            "{path}: contents corrupted (checksum {got:#x} != {want:#x})"
                        ),
                    };
                }
            }
            None => {
                return FsckReport::Unrecoverable {
                    reason: format!("{path}: system file missing"),
                };
            }
        }
    }

    if problems.is_empty() {
        // A dirty flag alone (unclean shutdown) is what triggers the
        // *interactive* fsck run in the paper's severe category, but if
        // nothing is actually wrong we call it clean.
        let _ = dirty;
        FsckReport::Clean
    } else {
        problems.truncate(16);
        FsckReport::Fixed { problems: problems.len() as u32, notes: problems }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mkfs::{mkfs, standard_fixtures, FileSpec};

    fn image() -> (Vec<u8>, BTreeMap<String, (u32, u32)>) {
        let mut files = standard_fixtures();
        files.push(FileSpec { path: "/init".into(), data: vec![5; 100] });
        files.push(FileSpec { path: "/bin/dhry".into(), data: vec![7; 2500] });
        let img = mkfs(2048, &files);
        (img.disk.bytes().to_vec(), img.manifest)
    }

    #[test]
    fn fresh_image_is_clean() {
        let (bytes, manifest) = image();
        assert_eq!(fsck(&bytes, &manifest), FsckReport::Clean);
    }

    #[test]
    fn bad_magic_is_unrecoverable() {
        let (mut bytes, manifest) = image();
        bytes[BLOCK_SIZE] ^= 0xff;
        assert!(matches!(fsck(&bytes, &manifest), FsckReport::Unrecoverable { .. }));
    }

    #[test]
    fn corrupted_binary_is_unrecoverable() {
        let (mut bytes, manifest) = image();
        // find the file's data (a long run of 7s) and flip one byte
        let pos = bytes.windows(64).position(|w| w.iter().all(|b| *b == 7)).unwrap();
        bytes[pos] ^= 1;
        let r = fsck(&bytes, &manifest);
        match r {
            FsckReport::Unrecoverable { reason } => assert!(reason.contains("dhry")),
            other => panic!("expected unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn bitmap_leak_is_fixable() {
        let (mut bytes, manifest) = image();
        // mark a high free block as used in the bitmap
        let blk = 2000u32;
        bytes[BITMAP_BLOCK as usize * BLOCK_SIZE + (blk / 8) as usize] |= 1 << (blk % 8);
        match fsck(&bytes, &manifest) {
            FsckReport::Fixed { problems, .. } => assert_eq!(problems, 1),
            other => panic!("expected fixed, got {other:?}"),
        }
    }

    #[test]
    fn dangling_dir_entry_is_fixable() {
        let (mut bytes, _manifest) = image();
        // append a root dir entry pointing at an unallocated inode:
        // easier: corrupt an existing root entry's inode to 100 (free).
        // Find root dir block: inode 2 at table block 4 offset 64.
        let ioff = ITABLE_BLOCK as usize * BLOCK_SIZE + 64;
        let blk0 = u32::from_le_bytes(bytes[ioff + 8..ioff + 12].try_into().unwrap()) as usize;
        // entry 2 (after . and ..) — overwrite its ino with a free one
        let e = blk0 * BLOCK_SIZE + 2 * 32;
        bytes[e..e + 4].copy_from_slice(&100u32.to_le_bytes());
        // (this also breaks a manifest path, but the dangling entry is
        //  detected against an empty manifest)
        match fsck(&bytes, &BTreeMap::new()) {
            FsckReport::Fixed { .. } => {}
            other => panic!("expected fixed, got {other:?}"),
        }
    }

    #[test]
    fn missing_system_file_is_unrecoverable() {
        let (bytes, _) = image();
        let mut manifest = BTreeMap::new();
        manifest.insert("/bin/nonexistent".to_string(), (1u32, 0u32));
        assert!(matches!(fsck(&bytes, &manifest), FsckReport::Unrecoverable { .. }));
    }
}
