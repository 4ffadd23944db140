//! Guest memory against a reference model: a flat byte array with the
//! same write generations, dirty set and dropped-write count. Random
//! sequences of guest reads and writes (page-straddling, open-bus and
//! wrapping past the top of the address space included), host loads,
//! clears, snapshots, forks, restores and checkpoint capture and
//! install must leave the shared-page memory exactly where the flat
//! one is, after every operation.

use kfi_machine::{Checkpoint, Machine, MachineConfig, MemImage, PhysMem, Snapshot, PAGE_SIZE};
use proptest::prelude::*;

const PAGE: usize = PAGE_SIZE as usize;
const PAGES: u32 = 6;
const SIZE: u32 = PAGES * PAGE_SIZE;
/// Ids of images taken and restored at the memory level, far from the
/// machine's own snapshot ids.
const IMAGE_IDS: u64 = 1 << 40;

fn config() -> MachineConfig {
    MachineConfig { phys_mem: SIZE, timer_enabled: false, ..MachineConfig::default() }
}

/// The flat reference: every byte in one array.
#[derive(Debug, Clone)]
struct Model {
    bytes: Vec<u8>,
    gens: Vec<u64>,
    dirty: Vec<bool>,
    dropped: u64,
    synced: Option<u64>,
}

impl Model {
    fn new() -> Model {
        Model::of(vec![0; SIZE as usize], None)
    }

    fn of(bytes: Vec<u8>, synced: Option<u64>) -> Model {
        let pages = bytes.len() / PAGE;
        Model { bytes, gens: vec![0; pages], dirty: vec![false; pages], dropped: 0, synced }
    }

    fn touch(&mut self, page: usize) {
        self.gens[page] += 1;
        self.dirty[page] = true;
    }

    fn touch_all(&mut self) {
        for page in 0..self.gens.len() {
            self.touch(page);
        }
    }

    fn read_u8(&self, addr: u32) -> u8 {
        self.bytes.get(addr as usize).copied().unwrap_or(0xff)
    }

    fn write_u8(&mut self, addr: u32, val: u8) {
        match self.bytes.get_mut(addr as usize) {
            Some(b) => {
                *b = val;
                self.touch(addr as usize / PAGE);
            }
            None => self.dropped += 1,
        }
    }

    fn read_u32(&self, addr: u32) -> u32 {
        let v: Vec<u8> = (0..4).map(|i| self.read_u8(addr.wrapping_add(i))).collect();
        u32::from_le_bytes(v.try_into().expect("4 bytes"))
    }

    fn write_u32(&mut self, addr: u32, val: u32) {
        let a = addr as usize;
        if a + 4 <= self.bytes.len() {
            self.bytes[a..a + 4].copy_from_slice(&val.to_le_bytes());
            self.touch(a / PAGE);
            if (a + 3) / PAGE != a / PAGE {
                self.touch((a + 3) / PAGE);
            }
        } else {
            for (i, b) in val.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    fn load(&mut self, addr: u32, src: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + src.len()].copy_from_slice(src);
        if !src.is_empty() {
            for page in a / PAGE..=(a + src.len() - 1) / PAGE {
                self.touch(page);
            }
        }
    }

    fn clear(&mut self) {
        self.bytes.fill(0);
        self.dropped = 0;
        self.touch_all();
    }

    /// `PhysMem::restore_from`: the pages it resets.
    fn restore_from(&mut self, image: &[u8], id: u64) -> u32 {
        let reset = if self.synced == Some(id) {
            let dirty: Vec<usize> = (0..self.dirty.len()).filter(|&p| self.dirty[p]).collect();
            for &p in &dirty {
                self.bytes[p * PAGE..(p + 1) * PAGE]
                    .copy_from_slice(&image[p * PAGE..(p + 1) * PAGE]);
                self.gens[p] += 1;
            }
            dirty.len() as u32
        } else {
            self.bytes.copy_from_slice(image);
            self.touch_all();
            self.synced = Some(id);
            self.gens.len() as u32
        };
        self.dirty.fill(false);
        self.dropped = 0;
        reset
    }

    /// `Machine::restore`: a memory restore, then generations from zero.
    fn restore(&mut self, image: &[u8], id: u64) {
        self.restore_from(image, id);
        self.gens.fill(0);
    }
}

/// A checkpoint with what its memory half holds in the model: the base
/// snapshot's index, each dirty page with its generation and bytes,
/// and the dropped-write count.
struct Captured {
    checkpoint: Checkpoint,
    snapshot: usize,
    pages: Vec<(usize, u64, Vec<u8>)>,
    dropped: u64,
}

fn check(mem: &PhysMem, model: &Model, op: &str) -> Result<(), String> {
    let flat: Vec<u8> = mem.pages().flatten().copied().collect();
    if flat != model.bytes {
        return Err(format!("after {op}: contents differ"));
    }
    for page in 0..PAGES {
        let gen = mem.page_gen(page * PAGE_SIZE);
        prop_assert_eq!(gen, model.gens[page as usize], "after {}: page {} generation", op, page);
    }
    let dirty = model.dirty.iter().filter(|&&d| d).count() as u32;
    prop_assert_eq!(mem.dirty_page_count(), dirty, "after {}: dirty pages", op);
    prop_assert_eq!(mem.dropped_writes(), model.dropped, "after {}: dropped writes", op);
    prop_assert!(mem.private_pages() <= dirty, "after {}: a page private but clean", op);
    Ok(())
}

/// A guest address: mostly in or just past installed memory, often up
/// to three bytes below a page boundary (straddling it), sometimes just
/// below the top of the address space (wrapping to address 0).
fn addr(a: u32) -> u32 {
    let low = a & 0x1fff_ffff;
    match a >> 29 {
        0 => 0xffff_fff0 | (low & 0xf),
        1 | 2 => ((low >> 2) % (PAGES + 2) * PAGE_SIZE).wrapping_sub((low & 3) + 1),
        _ => low % (SIZE + 2 * PAGE_SIZE),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_pages_behave_like_flat_memory(
        ops in proptest::collection::vec((0u8..14, any::<u32>(), any::<u32>()), 1..80)
    ) {
        let mut m = Machine::new(config());
        let mut model = Model::new();
        let mut snapshots: Vec<(Snapshot, Vec<u8>)> = Vec::new();
        let mut images: Vec<(MemImage, u64, Vec<u8>)> = Vec::new();
        let mut captured: Vec<Captured> = Vec::new();
        check(&m.mem, &model, "new")?;
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let op = format!("op {step} ({kind}, {a:#x}, {b:#x})");
            match kind {
                0 => {
                    m.mem.write_u8(addr(a), b as u8);
                    model.write_u8(addr(a), b as u8);
                }
                1 | 2 => {
                    m.mem.write_u32(addr(a), b);
                    model.write_u32(addr(a), b);
                }
                3 => {
                    let at = addr(a);
                    prop_assert_eq!(m.mem.read_u8(at), model.read_u8(at), "{}: read_u8", op);
                    prop_assert_eq!(m.mem.read_u32(at), model.read_u32(at), "{}: read_u32", op);
                    let mut buf = vec![0; b as usize % 16];
                    m.mem.read_into(at, &mut buf);
                    let want: Vec<u8> =
                        (0..buf.len() as u32).map(|i| model.read_u8(at.wrapping_add(i))).collect();
                    prop_assert_eq!(buf, want, "{}: read_into", op);
                }
                4 => {
                    // Whole pages, page-aligned, or any span that fits.
                    let (at, len) = if b % 2 == 0 {
                        ((a % PAGES) as usize * PAGE, PAGE * (1 + (b as usize / 2) % 2))
                    } else {
                        ((a % SIZE) as usize, b as usize % (2 * PAGE + 8))
                    };
                    let len = len.min(SIZE as usize - at);
                    let src: Vec<u8> = (0..len).map(|i| (b as usize + 7 * i) as u8).collect();
                    m.mem.load(at as u32, &src);
                    model.load(at as u32, &src);
                }
                5 => {
                    m.mem.clear();
                    model.clear();
                }
                6 => snapshots.push((m.snapshot(), model.bytes.clone())),
                7 => {
                    let id = IMAGE_IDS + images.len() as u64;
                    images.push((m.mem.snapshot(), id, model.bytes.clone()));
                }
                8 if !snapshots.is_empty() => {
                    let (snap, bytes) = &snapshots[a as usize % snapshots.len()];
                    m.restore(snap);
                    model.restore(bytes, snap.id());
                }
                9 if !images.is_empty() => {
                    let (image, id, bytes) = &images[a as usize % images.len()];
                    let reset = m.mem.restore_from(image, *id);
                    prop_assert_eq!(reset, model.restore_from(bytes, *id), "{}: pages reset", op);
                }
                10 if !snapshots.is_empty() => {
                    let (snap, bytes) = &snapshots[a as usize % snapshots.len()];
                    m = Machine::fork(snap, config());
                    prop_assert_eq!(m.mem.private_pages(), 0, "{}: a fresh fork owns a page", op);
                    model = Model::of(bytes.clone(), Some(snap.id()));
                }
                11 if !images.is_empty() => {
                    let (image, id, bytes) = &images[a as usize % images.len()];
                    m.mem = PhysMem::new(SIZE);
                    m.mem.restore_from(image, *id);
                    prop_assert_eq!(m.mem.private_pages(), 0, "{}: a fresh fork owns a page", op);
                    model = Model::new();
                    model.restore_from(bytes, *id);
                }
                12 => {
                    // Capture against the snapshot the machine was last
                    // restored from, resuming from an earlier checkpoint
                    // of it when there is one.
                    let Some(snapshot) =
                        snapshots.iter().position(|(s, _)| Some(s.id()) == model.synced)
                    else {
                        continue;
                    };
                    let prev = captured.iter().rev().find(|c| c.snapshot == snapshot);
                    let checkpoint = m.checkpoint(prev.map(|c| &c.checkpoint));
                    let pages = (0..PAGES as usize)
                        .filter(|&p| model.dirty[p])
                        .map(|p| (p, model.gens[p], model.bytes[p * PAGE..(p + 1) * PAGE].to_vec()))
                        .collect();
                    captured.push(Captured { checkpoint, snapshot, pages, dropped: model.dropped });
                }
                13 if !captured.is_empty() => {
                    let c = &captured[a as usize % captured.len()];
                    let (snap, bytes) = &snapshots[c.snapshot];
                    m.restore(snap);
                    model.restore(bytes, snap.id());
                    m.install(&c.checkpoint);
                    for (p, gen, bytes) in &c.pages {
                        model.bytes[p * PAGE..(p + 1) * PAGE].copy_from_slice(bytes);
                        model.gens[*p] = *gen;
                        model.dirty[*p] = true;
                    }
                    model.dropped = c.dropped;
                }
                _ => continue,
            }
            check(&m.mem, &model, &op)?;
        }
    }
}
