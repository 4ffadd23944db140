//! Machine core throughput: raw interpretation, boot, snapshot/restore.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kfi_machine::{ExecTier, Machine, MachineConfig};

fn tight_loop_machine_with(tier: ExecTier) -> Machine {
    // 1M-iteration dec/jnz loop + cli/hlt.
    let mut m = Machine::new(MachineConfig { timer_enabled: false, tier, ..Default::default() });
    m.mem.load(
        0x1000,
        &[
            0xb9, 0x40, 0x42, 0x0f, 0x00, // mov $1_000_000, %ecx
            0x49, // dec %ecx
            0x75, 0xfd, // jnz -3
            0xfa, 0xf4, // cli; hlt
        ],
    );
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(4, 0x8000);
    m
}

fn tight_loop_machine() -> Machine {
    tight_loop_machine_with(ExecTier::Chained)
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(2_000_000));
    g.bench_function("interpret_2M_insns", |b| {
        b.iter(|| {
            let mut m = tight_loop_machine();
            assert_eq!(m.run(u64::MAX / 2), kfi_machine::RunExit::Halted);
            criterion::black_box(m.counters().instructions)
        })
    });
    // The interpreter tier: every fetch pays the full decoder.
    g.bench_function("interpret_2M_insns_interp_tier", |b| {
        b.iter(|| {
            let mut m = tight_loop_machine_with(ExecTier::Interp);
            assert_eq!(m.run(u64::MAX / 2), kfi_machine::RunExit::Halted);
            criterion::black_box(m.counters().instructions)
        })
    });
    // Same workload with a ring sink installed: the loop raises no
    // traps, so this measures the pure cost of carrying the sink
    // through the exec loop (the ≤2% TraceSink::Null budget, plus the
    // enabled-but-idle case).
    g.bench_function("interpret_2M_insns_ring_sink", |b| {
        b.iter(|| {
            let mut m = tight_loop_machine();
            m.set_trace_sink(kfi_trace::TraceSink::ring(256));
            assert_eq!(m.run(u64::MAX / 2), kfi_machine::RunExit::Halted);
            criterion::black_box(m.counters().instructions)
        })
    });
    g.finish();

    let image = kfi_kernel::build_kernel(Default::default()).unwrap();
    let files = kfi_workloads::suite_files().unwrap();
    let fsimg = kfi_kernel::mkfs(2048, &files);
    let mut g = c.benchmark_group("boot");
    g.sample_size(10);
    g.bench_function("cold_boot_to_init", |b| {
        b.iter(|| {
            let mut m = kfi_kernel::boot(&image, fsimg.disk.clone(), &Default::default());
            // run until the BOOT_OK event arrives
            loop {
                match m.step() {
                    kfi_machine::StepEvent::Executed => {}
                    e => panic!("boot ended early: {e:?}"),
                }
                if let Some((_, kfi_machine::MonitorEvent::Event(v))) = m.monitor_events().last() {
                    if *v == kfi_kernel::layout::events::BOOT_OK {
                        break;
                    }
                }
            }
            criterion::black_box(m.cpu.tsc)
        })
    });
    g.finish();

    let m = kfi_kernel::boot(&image, fsimg.disk.clone(), &Default::default());
    let snap = m.snapshot();
    let mut m2 = kfi_kernel::boot(&image, fsimg.disk.clone(), &Default::default());
    // After the first restore syncs the dirty tracking, back-to-back
    // restores against the same snapshot reset only dirtied pages.
    c.bench_function("snapshot_restore_8MiB", |b| {
        b.iter(|| {
            m2.restore(&snap);
            criterion::black_box(m2.cpu.eip)
        })
    });
    // Alternating two snapshots defeats the dirty tracking, so every
    // restore resets all 2048 page references (no bytes are copied).
    let snap_b = m.snapshot();
    c.bench_function("snapshot_restore_8MiB_full", |b| {
        b.iter(|| {
            m2.restore(&snap);
            m2.restore(&snap_b);
            criterion::black_box(m2.cpu.eip)
        })
    });
}

criterion_group!(benches, bench_machine);
criterion_main!(benches);
