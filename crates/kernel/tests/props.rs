//! Property-based mkfs/fsck tests: images round-trip, corruption never
//! panics the checker.

use kfi_kernel::mkfs::FileSpec;
use kfi_kernel::{fsck, mkfs, FsckReport};
use proptest::prelude::*;

fn arb_files() -> impl Strategy<Value = Vec<FileSpec>> {
    proptest::collection::vec(
        ("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..5000), any::<bool>()),
        1..10,
    )
    .prop_map(|specs| {
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for (name, data, in_bin) in specs {
            let path = if in_bin { format!("/bin/{name}") } else { format!("/{name}") };
            if seen.insert(path.clone()) {
                out.push(FileSpec { path, data });
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fresh image checks clean and its manifest verifies.
    #[test]
    fn fresh_images_are_clean(files in arb_files()) {
        let img = mkfs(2048, &files);
        prop_assert_eq!(fsck(&img.disk, &img.manifest), FsckReport::Clean);
    }

    /// fsck is total: arbitrary single-byte corruption anywhere in the
    /// image never panics, and metadata corruption is detected as
    /// non-clean when it hits the superblock magic.
    #[test]
    fn fsck_is_total(files in arb_files(), pos in 0usize..(2048 * 1024), val in any::<u8>()) {
        let img = mkfs(2048, &files);
        let mut bytes = img.disk.bytes().to_vec();
        let old = bytes[pos];
        bytes[pos] = val;
        let report = fsck(&bytes, &img.manifest);
        if old != val && (1024..1028).contains(&pos) {
            prop_assert!(
                !report.is_clean(),
                "superblock magic corruption must be caught"
            );
        }
    }
}
