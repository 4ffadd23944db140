//! The disk against a reference model: a flat byte array with the same
//! I/O statistics and the same set of pages written since the last
//! restore. Random sequences of sector reads and writes (out-of-range
//! LBAs included), images, restores, forks, deltas, checkpoint capture
//! and install, and the disk swaps a severity reboot makes must leave
//! the shared-page disk exactly where the flat one is, after every
//! operation — and owning no page that was not written since it was
//! last shared.

use kfi_machine::{
    Checkpoint, DiskImage, Machine, MachineConfig, Ramdisk, Snapshot, PAGE_SIZE, SECTOR_SIZE,
};
use proptest::prelude::*;

const PAGE: usize = PAGE_SIZE as usize;
/// Five whole pages and a partial one, so the last page has sectors
/// past the end of the disk.
const SECTORS: u32 = 43;
const PAGES: usize = (SECTORS as usize * SECTOR_SIZE).div_ceil(PAGE);

/// The flat reference.
#[derive(Debug, Clone)]
struct Model {
    bytes: Vec<u8>,
    io: (u64, u64),
    /// Pages written since the last restore (or since creation).
    written: Vec<bool>,
    /// The image the disk was last restored from, when it still tracks
    /// its writes against it.
    synced: Option<usize>,
}

impl Model {
    fn of(bytes: Vec<u8>, synced: Option<usize>, written: bool) -> Model {
        Model { bytes, io: (0, 0), written: vec![written; PAGES], synced }
    }

    fn read(&mut self, lba: u32) -> (bool, Vec<u8>) {
        self.io.0 += 1;
        let at = lba as usize * SECTOR_SIZE;
        match self.bytes.get(at..at + SECTOR_SIZE) {
            Some(s) => (true, s.to_vec()),
            None => (false, vec![0xff; SECTOR_SIZE]),
        }
    }

    fn write(&mut self, lba: u32, sector: &[u8]) -> bool {
        self.io.1 += 1;
        let at = lba as usize * SECTOR_SIZE;
        let Some(s) = self.bytes.get_mut(at..at + SECTOR_SIZE) else { return false };
        s.copy_from_slice(sector);
        self.written[at / PAGE] = true;
        true
    }

    /// `Ramdisk::restore_from`: the pages it resets.
    fn restore(&mut self, image: usize, bytes: &[u8]) -> u32 {
        let reset = match self.synced == Some(image) {
            true => self.written.iter().filter(|&&w| w).count(),
            false => PAGES,
        };
        *self = Model::of(bytes.to_vec(), Some(image), false);
        reset as u32
    }

    /// The sectors that differ from `base`.
    fn delta(&self, base: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let sectors = self.bytes.chunks(SECTOR_SIZE).zip(base.chunks(SECTOR_SIZE));
        (0..)
            .zip(sectors)
            .filter(|(_, (a, b))| a != b)
            .map(|(lba, (a, _))| (lba, a.to_vec()))
            .collect()
    }
}

/// A checkpoint with what its disk half holds in the model.
struct Captured {
    checkpoint: Checkpoint,
    model: Model,
}

fn disk(m: &mut Machine) -> &mut Ramdisk {
    m.disk.as_mut().expect("disk attached")
}

fn check(
    m: &mut Machine,
    model: &Model,
    images: &[(DiskImage, Vec<u8>)],
    op: &str,
) -> Result<(), String> {
    let d = disk(m);
    if d.bytes() != model.bytes {
        return Err(format!("after {op}: contents differ"));
    }
    prop_assert_eq!(d.io_stats(), model.io, "after {}: io stats", op);
    let (image, bytes) = &images[model.synced.unwrap_or(0)];
    prop_assert_eq!(d.delta_from(image), model.delta(bytes), "after {}: delta", op);
    let written = model.written.iter().filter(|&&w| w).count() as u32;
    prop_assert!(d.private_pages() <= written, "after {}: owns a page it did not write", op);
    Ok(())
}

/// An LBA: mostly on the disk, sometimes in the partial last page past
/// its end, or far out of range.
fn lba(a: u32) -> u32 {
    match a % 8 {
        0 => SECTORS + a / 8 % 5,
        1 => u32::MAX - a / 8 % 2,
        _ => a / 8 % SECTORS,
    }
}

/// Restores the machine and its disk to image `i`, as an injection
/// run's reset does; returns the pages reset on the disk and in the
/// model.
fn restore(
    m: &mut Machine,
    snap: &Snapshot,
    model: &mut Model,
    images: &[(DiskImage, Vec<u8>)],
    i: usize,
) -> (u32, u32) {
    m.restore(snap);
    (disk(m).restore_from(&images[i].0), model.restore(i, &images[i].1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_pages_behave_like_a_flat_disk(
        ops in proptest::collection::vec((0u8..14, any::<u32>(), any::<u8>()), 1..80)
    ) {
        let config = MachineConfig { phys_mem: PAGE_SIZE, timer_enabled: false, ..Default::default() };
        let mut m = Machine::new(config);
        let snap = m.snapshot();
        m.disk = Some(Ramdisk::new(SECTORS));
        let mut images = vec![(disk(&mut m).snapshot(), vec![0; SECTORS as usize * SECTOR_SIZE])];
        let mut model = Model::of(images[0].1.clone(), None, false);
        restore(&mut m, &snap, &mut model, &images, 0);
        let mut captured: Vec<Captured> = Vec::new();
        let mut kept: Option<(Ramdisk, Model)> = None;
        check(&mut m, &model, &images, "start")?;
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let op = format!("op {step} ({kind}, {a:#x}, {b:#x})");
            match kind {
                0..=2 => {
                    let sector: Vec<u8> = (0..SECTOR_SIZE).map(|i| b ^ (i as u8)).collect();
                    let buf: &[u8; SECTOR_SIZE] = sector[..].try_into().expect("a sector");
                    let ok = disk(&mut m).write_sector(lba(a), buf);
                    prop_assert_eq!(ok, model.write(lba(a), &sector), "{}: write", op);
                }
                3 => {
                    let mut buf = [0; SECTOR_SIZE];
                    let ok = disk(&mut m).read_sector(lba(a), &mut buf);
                    prop_assert_eq!((ok, buf.to_vec()), model.read(lba(a)), "{}: read", op);
                }
                4 => images.push((disk(&mut m).snapshot(), model.bytes.clone())),
                5 | 6 => {
                    let (reset, want) =
                        restore(&mut m, &snap, &mut model, &images, a as usize % images.len());
                    prop_assert_eq!(reset, want, "{}: pages reset", op);
                }
                7 => {
                    // The disk half of a rig fork.
                    let i = a as usize % images.len();
                    m = Machine::fork(&snap, config);
                    m.disk = Some(Ramdisk::fork(&images[i].0));
                    prop_assert_eq!(disk(&mut m).private_pages(), 0, "{}: a fresh fork owns a page", op);
                    model = Model::of(images[i].1.clone(), Some(i), false);
                }
                8 => {
                    let (image, bytes) = &images[a as usize % images.len()];
                    prop_assert_eq!(disk(&mut m).delta_from(image), model.delta(bytes), "{}: delta", op);
                }
                9 if model.synced.is_some() => {
                    // Capture against the image the disk was last restored
                    // from, sharing with an earlier checkpoint of it.
                    let prev = captured.iter().rev().find(|c| c.model.synced == model.synced);
                    let checkpoint = m.checkpoint(prev.map(|c| &c.checkpoint));
                    captured.push(Captured { checkpoint, model: model.clone() });
                }
                10 if !captured.is_empty() => {
                    let c = &captured[a as usize % captured.len()];
                    let i = c.model.synced.expect("captured on a restored disk");
                    restore(&mut m, &snap, &mut model, &images, i);
                    m.install(&c.checkpoint);
                    model = c.model.clone();
                }
                // A severity reboot keeps the crash disk aside while a
                // power-on reboot writes to a copy, then swaps it back in.
                11 => kept = Some((disk(&mut m).clone(), model.clone())),
                12 if kept.is_some() => {
                    let (d, k) = kept.take().expect("kept");
                    m.disk = Some(d);
                    model = k;
                }
                13 => {
                    // A disk built from flat bytes shares nothing.
                    let bytes = images[a as usize % images.len()].1.clone();
                    m.disk = Some(Ramdisk::from_bytes(bytes.clone()));
                    model = Model::of(bytes, None, true);
                }
                _ => continue,
            }
            check(&mut m, &model, &images, &op)?;
        }
    }
}
