//! Design-choice ablations with measurable cost: assembling the two
//! kernel variants, mkfs/fsck, and the golden-oracle comparison.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("build");
    g.sample_size(10);
    g.bench_function("assemble_kernel_with_assertions", |b| {
        b.iter(|| {
            criterion::black_box(
                kfi_kernel::build_kernel(kfi_kernel::KernelBuildOptions {
                    assertions: true,
                    ..Default::default()
                })
                .unwrap()
                .program
                .text
                .bytes
                .len(),
            )
        })
    });
    g.bench_function("assemble_kernel_no_assertions", |b| {
        b.iter(|| {
            criterion::black_box(
                kfi_kernel::build_kernel(kfi_kernel::KernelBuildOptions {
                    assertions: false,
                    ..Default::default()
                })
                .unwrap()
                .program
                .text
                .bytes
                .len(),
            )
        })
    });
    g.finish();

    let files = kfi_workloads::suite_files().unwrap();
    c.bench_function("mkfs_2MiB", |b| {
        b.iter(|| criterion::black_box(kfi_kernel::mkfs(2048, &files).disk.sectors()))
    });

    let img = kfi_kernel::mkfs(2048, &files);
    c.bench_function("fsck_clean_image", |b| {
        b.iter(|| {
            assert!(matches!(
                kfi_kernel::fsck(&img.disk, &img.manifest),
                kfi_kernel::FsckReport::Clean
            ))
        })
    });
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
