//! Host-side `mkfs` for the ext2-lite filesystem.
//!
//! On-disk layout (1 KiB blocks):
//! block 0 boot, 1 superblock, 2 block bitmap, 3 inode bitmap,
//! 4..11 inode table (128 × 64-byte inodes), 12.. data.
//! Directory entries are fixed 32 bytes: `{ino: u32, name: [u8; 28]}`.

use kfi_machine::{Ramdisk, SECTOR_SIZE};
use std::collections::BTreeMap;

/// Filesystem block size.
pub const BLOCK_SIZE: usize = 1024;
/// ext2 magic (same value as the real thing).
pub const EXT2_MAGIC: u32 = 0xEF53;
/// Superblock block number.
pub const SB_BLOCK: u32 = 1;
/// Block-bitmap block number.
pub const BITMAP_BLOCK: u32 = 2;
/// Inode-bitmap block number.
pub const IBITMAP_BLOCK: u32 = 3;
/// First inode-table block.
pub const ITABLE_BLOCK: u32 = 4;
/// Inode-table length in blocks.
pub const ITABLE_NBLOCKS: u32 = 8;
/// First data block.
pub const DATA_START: u32 = 12;
/// Number of inodes.
pub const NR_INODES: u32 = 128;
/// Root directory inode.
pub const ROOT_INO: u32 = 2;
/// Regular-file mode bit.
pub const IMODE_REG: u16 = 0x8000;
/// Directory mode bit.
pub const IMODE_DIR: u16 = 0x4000;
/// Direct block pointers per inode.
pub const NR_DIRECT: usize = 12;

/// Superblock field offsets.
pub mod sb {
    /// Magic.
    pub const MAGIC: usize = 0;
    /// Total blocks.
    pub const BLOCKS: usize = 4;
    /// Total inodes.
    pub const INODES: usize = 8;
    /// Free blocks.
    pub const FREE_BLOCKS: usize = 12;
    /// Free inodes.
    pub const FREE_INODES: usize = 16;
    /// State: 1 clean, 0 dirty.
    pub const STATE: usize = 20;
    /// Mount count.
    pub const MOUNTS: usize = 24;
}

/// A file to place into the image.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Absolute path, e.g. `/bin/dhry` (directories are auto-created,
    /// one level deep).
    pub path: String,
    /// Contents.
    pub data: Vec<u8>,
}

/// What mkfs built: the disk plus a manifest for fsck's content checks.
#[derive(Debug, Clone)]
pub struct FsImage {
    /// The disk image.
    pub disk: Ramdisk,
    /// path → (inode, checksum) for every installed file.
    pub manifest: BTreeMap<String, (u32, u32)>,
    /// Total blocks.
    pub nblocks: u32,
}

/// FNV-1a checksum used by the manifest content checks.
pub fn checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in data {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

struct Builder {
    /// The blocks written so far; every other block is zero.
    blocks: BTreeMap<u32, [u8; BLOCK_SIZE]>,
    nblocks: u32,
    next_block: u32,
    next_ino: u32,
    block_bitmap: Vec<bool>,
    inode_bitmap: Vec<bool>,
}

impl Builder {
    fn new(nblocks: u32) -> Builder {
        let mut b = Builder {
            blocks: BTreeMap::new(),
            nblocks,
            next_block: DATA_START,
            next_ino: 3, // 0 invalid, 1 reserved, 2 root
            block_bitmap: vec![false; BLOCK_SIZE * 8],
            inode_bitmap: vec![false; BLOCK_SIZE * 8],
        };
        // metadata blocks are in use; everything past the end too
        for blk in 0..DATA_START {
            b.block_bitmap[blk as usize] = true;
        }
        for blk in nblocks..(BLOCK_SIZE as u32 * 8) {
            b.block_bitmap[blk as usize] = true;
        }
        b.inode_bitmap[0] = true;
        b.inode_bitmap[1] = true;
        b.inode_bitmap[2] = true; // root
                                  // inodes beyond NR_INODES don't exist
        for i in (NR_INODES + 1)..(BLOCK_SIZE as u32 * 8) {
            b.inode_bitmap[i as usize] = true;
        }
        b
    }

    /// Block `n`, for writing.
    fn block(&mut self, n: u32) -> &mut [u8; BLOCK_SIZE] {
        self.blocks.entry(n).or_insert([0; BLOCK_SIZE])
    }

    fn alloc_block(&mut self) -> u32 {
        let blk = self.next_block;
        assert!(blk < self.nblocks, "mkfs: disk full");
        self.block_bitmap[blk as usize] = true;
        self.next_block += 1;
        blk
    }

    fn alloc_ino(&mut self) -> u32 {
        let ino = self.next_ino;
        assert!(ino <= NR_INODES, "mkfs: out of inodes");
        self.inode_bitmap[ino as usize] = true;
        self.next_ino += 1;
        ino
    }

    fn write_inode(&mut self, ino: u32, mode: u16, links: u16, size: u32, blocks: &[u32]) {
        assert!(blocks.len() <= NR_DIRECT + 256);
        let blk = ITABLE_BLOCK + (ino - 1) / 16;
        let off = ((ino - 1) % 16) as usize * 64;
        let mut inode = [0u8; 64];
        inode[0..2].copy_from_slice(&mode.to_le_bytes());
        inode[2..4].copy_from_slice(&links.to_le_bytes());
        inode[4..8].copy_from_slice(&size.to_le_bytes());
        for (i, b) in blocks.iter().take(NR_DIRECT).enumerate() {
            inode[8 + i * 4..12 + i * 4].copy_from_slice(&b.to_le_bytes());
        }
        if blocks.len() > NR_DIRECT {
            // single indirect
            let ind = self.alloc_block();
            inode[56..60].copy_from_slice(&ind.to_le_bytes());
            for (i, b) in blocks[NR_DIRECT..].iter().enumerate() {
                self.block(ind)[i * 4..i * 4 + 4].copy_from_slice(&b.to_le_bytes());
            }
        }
        self.block(blk)[off..off + 64].copy_from_slice(&inode);
    }

    fn store_data(&mut self, data: &[u8]) -> Vec<u32> {
        let mut blocks = Vec::new();
        for chunk in data.chunks(BLOCK_SIZE) {
            let blk = self.alloc_block();
            self.block(blk)[..chunk.len()].copy_from_slice(chunk);
            blocks.push(blk);
        }
        blocks
    }
}

/// Builds a filesystem image containing `files` (plus `/etc/motd` as a
/// standing fixture).
///
/// # Panics
///
/// Panics when the content does not fit the `nblocks`-sized disk or a
/// path is not of the form `/name` or `/dir/name`.
pub fn mkfs(nblocks: u32, files: &[FileSpec]) -> FsImage {
    assert!(nblocks > DATA_START + 8, "disk too small");
    let mut b = Builder::new(nblocks);
    let mut manifest = BTreeMap::new();

    // Group files by directory ("": root-level).
    let mut dirs: BTreeMap<String, Vec<(String, &FileSpec)>> = BTreeMap::new();
    for f in files {
        let trimmed = f.path.strip_prefix('/').expect("absolute path");
        match trimmed.split_once('/') {
            None => dirs.entry(String::new()).or_default().push((trimmed.to_string(), f)),
            Some((dir, leaf)) => {
                assert!(!leaf.contains('/'), "at most one directory level: {}", f.path);
                dirs.entry(dir.to_string()).or_default().push((leaf.to_string(), f))
            }
        }
    }

    // Root entries: ".", "..", subdirectories, root-level files.
    let mut root_entries: Vec<(String, u32)> =
        vec![(".".into(), ROOT_INO), ("..".into(), ROOT_INO)];

    // Install regular files and collect directory contents.
    let mut subdir_inos: BTreeMap<String, (u32, Vec<(String, u32)>)> = BTreeMap::new();
    for (dir, entries) in &dirs {
        let mut installed = Vec::new();
        for (leaf, f) in entries {
            let ino = b.alloc_ino();
            let blocks = b.store_data(&f.data);
            b.write_inode(ino, IMODE_REG, 1, f.data.len() as u32, &blocks);
            manifest.insert(f.path.clone(), (ino, checksum(&f.data)));
            installed.push((leaf.clone(), ino));
        }
        if dir.is_empty() {
            root_entries.extend(installed);
        } else {
            let dino = b.alloc_ino();
            let mut dentries = vec![(".".to_string(), dino), ("..".to_string(), ROOT_INO)];
            dentries.extend(installed);
            subdir_inos.insert(dir.clone(), (dino, dentries));
            root_entries.push((dir.clone(), dino));
        }
    }

    // Write subdirectory inodes + data.
    for (_, (dino, dentries)) in &subdir_inos {
        let data = encode_dir(dentries);
        let blocks = b.store_data(&data);
        b.write_inode(*dino, IMODE_DIR, 2, data.len() as u32, &blocks);
    }

    // Root directory.
    let root_data = encode_dir(&root_entries);
    let root_blocks = b.store_data(&root_data);
    b.write_inode(ROOT_INO, IMODE_DIR, 2, root_data.len() as u32, &root_blocks);

    // Bitmaps.
    for (i, used) in b.block_bitmap.clone().iter().enumerate() {
        if *used {
            b.block(BITMAP_BLOCK)[i / 8] |= 1 << (i % 8);
        }
    }
    for (i, used) in b.inode_bitmap.clone().iter().enumerate() {
        if *used {
            b.block(IBITMAP_BLOCK)[i / 8] |= 1 << (i % 8);
        }
    }

    // Superblock.
    let free_blocks = (DATA_START..nblocks).filter(|x| !b.block_bitmap[*x as usize]).count() as u32;
    let free_inodes = (1..=NR_INODES).filter(|x| !b.inode_bitmap[*x as usize]).count() as u32;
    let sb_data = b.block(SB_BLOCK);
    sb_data[sb::MAGIC..sb::MAGIC + 4].copy_from_slice(&EXT2_MAGIC.to_le_bytes());
    sb_data[sb::BLOCKS..sb::BLOCKS + 4].copy_from_slice(&nblocks.to_le_bytes());
    sb_data[sb::INODES..sb::INODES + 4].copy_from_slice(&NR_INODES.to_le_bytes());
    sb_data[sb::FREE_BLOCKS..sb::FREE_BLOCKS + 4].copy_from_slice(&free_blocks.to_le_bytes());
    sb_data[sb::FREE_INODES..sb::FREE_INODES + 4].copy_from_slice(&free_inodes.to_le_bytes());
    sb_data[sb::STATE..sb::STATE + 4].copy_from_slice(&1u32.to_le_bytes()); // clean
    sb_data[sb::MOUNTS..sb::MOUNTS + 4].copy_from_slice(&0u32.to_le_bytes());

    // Lay the non-zero blocks onto a disk; the rest stays zero pages
    // (loading an all-zero block would give its page a private copy).
    let mut disk = Ramdisk::new(nblocks * (BLOCK_SIZE / SECTOR_SIZE) as u32);
    for (n, block) in b.blocks.iter().filter(|(_, block)| block.iter().any(|&x| x != 0)) {
        disk.load(*n as usize * BLOCK_SIZE, block);
    }
    FsImage { disk, manifest, nblocks }
}

fn encode_dir(entries: &[(String, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 32);
    for (name, ino) in entries {
        assert!(name.len() < 28, "name too long: {name}");
        let mut e = [0u8; 32];
        e[0..4].copy_from_slice(&ino.to_le_bytes());
        e[4..4 + name.len()].copy_from_slice(name.as_bytes());
        out.extend_from_slice(&e);
    }
    out
}

/// Standard test-fixture files every image gets in addition to the
/// caller's programs.
pub fn standard_fixtures() -> Vec<FileSpec> {
    vec![FileSpec { path: "/etc/motd".into(), data: b"welcome to kfi linux 2.4.19\n".to_vec() }]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FsImage {
        let mut files = standard_fixtures();
        files.push(FileSpec { path: "/init".into(), data: vec![1, 2, 3, 4] });
        files.push(FileSpec { path: "/bin/dhry".into(), data: vec![9; 3000] });
        mkfs(2048, &files)
    }

    #[test]
    fn superblock_is_valid() {
        let img = sample();
        let bytes = img.disk.bytes();
        let magic = u32::from_le_bytes(bytes[BLOCK_SIZE..BLOCK_SIZE + 4].try_into().unwrap());
        assert_eq!(magic, EXT2_MAGIC);
        let state = u32::from_le_bytes(
            bytes[BLOCK_SIZE + sb::STATE..BLOCK_SIZE + sb::STATE + 4].try_into().unwrap(),
        );
        assert_eq!(state, 1);
    }

    #[test]
    fn manifest_has_files() {
        let img = sample();
        assert!(img.manifest.contains_key("/init"));
        assert!(img.manifest.contains_key("/bin/dhry"));
        let (ino, sum) = img.manifest["/init"];
        assert!(ino >= 3);
        assert_eq!(sum, checksum(&[1, 2, 3, 4]));
    }

    #[test]
    fn root_dir_lists_entries() {
        let img = sample();
        let bytes = img.disk.bytes();
        // read root inode (ino 2): table block 4, slot 1
        let ioff = ITABLE_BLOCK as usize * BLOCK_SIZE + 64;
        let mode = u16::from_le_bytes(bytes[ioff..ioff + 2].try_into().unwrap());
        assert_eq!(mode, IMODE_DIR);
        let size = u32::from_le_bytes(bytes[ioff + 4..ioff + 8].try_into().unwrap());
        assert!(size >= 32 * 5, "., .., init, bin, etc");
        let blk0 = u32::from_le_bytes(bytes[ioff + 8..ioff + 12].try_into().unwrap());
        let dir = &bytes[blk0 as usize * BLOCK_SIZE..][..size as usize];
        let names: Vec<String> = dir
            .chunks(32)
            .map(|e| String::from_utf8_lossy(&e[4..]).trim_end_matches('\0').to_string())
            .collect();
        assert!(names.contains(&"init".to_string()));
        assert!(names.contains(&"bin".to_string()));
        assert!(names.contains(&"etc".to_string()));
    }

    #[test]
    fn multiblock_file_uses_multiple_blocks() {
        let img = sample();
        let (ino, _) = img.manifest["/bin/dhry"];
        let bytes = img.disk.bytes();
        let ioff = ITABLE_BLOCK as usize * BLOCK_SIZE
            + ((ino - 1) / 16) as usize * BLOCK_SIZE
            + ((ino - 1) % 16) as usize * 64;
        let size = u32::from_le_bytes(bytes[ioff + 4..ioff + 8].try_into().unwrap());
        assert_eq!(size, 3000);
        let b0 = u32::from_le_bytes(bytes[ioff + 8..ioff + 12].try_into().unwrap());
        let b1 = u32::from_le_bytes(bytes[ioff + 12..ioff + 16].try_into().unwrap());
        let b2 = u32::from_le_bytes(bytes[ioff + 16..ioff + 20].try_into().unwrap());
        assert!(b0 >= DATA_START && b1 > b0 && b2 > b1);
        assert_eq!(bytes[b0 as usize * BLOCK_SIZE], 9);
    }

    #[test]
    #[should_panic(expected = "absolute path")]
    fn relative_paths_rejected() {
        let _ = mkfs(64, &[FileSpec { path: "init".into(), data: vec![] }]);
    }
}
