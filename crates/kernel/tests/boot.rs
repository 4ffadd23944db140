//! Full-system integration tests: boot the guest kernel with real user
//! programs on a real ext2-lite disk and drive it end to end.

use kfi_kernel::layout::events;
use kfi_kernel::{
    boot, build_kernel, build_with_runtime, fsck, mkfs, standard_fixtures, BootConfig, FileSpec,
    FsckReport, KernelBuildOptions,
};
use kfi_machine::{MonitorEvent, RunExit};

const BUDGET: u64 = 30_000_000;

fn minimal_init(body: &str) -> Vec<u8> {
    build_with_runtime("init.s", body).expect("init assembles").bytes
}

/// An init that prints, reports 42 and cleanly shuts down.
const INIT_HELLO: &str = r#"
.text
main:
    movl $hello, %eax
    call print
    movl $42, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
    # unreachable
    movl $1, %eax
    ret
.data
hello: .asciz "init: hello from user space\n"
"#;

fn boot_with_init(init: &str) -> kfi_machine::Machine {
    let image = build_kernel(KernelBuildOptions::default()).expect("kernel builds");
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(init) });
    let fsimg = mkfs(2048, &files);
    boot(&image, fsimg.disk, &BootConfig::default())
}

fn events_of(m: &kfi_machine::Machine) -> Vec<u32> {
    m.monitor_events()
        .iter()
        .filter_map(|(_, e)| match e {
            MonitorEvent::Event(v) => Some(*v),
            _ => None,
        })
        .collect()
}

#[test]
fn boots_to_clean_shutdown() {
    let mut m = boot_with_init(INIT_HELLO);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(console.contains("Linux version 2.4.19-kfi"), "{console}");
    assert!(console.contains("VFS: Mounted root"), "{console}");
    assert!(console.contains("init: hello from user space"), "{console}");
    assert!(console.contains("System halted"), "{console}");
    let evts = events_of(&m);
    assert!(evts.contains(&events::BOOT_OK), "{evts:x?}");
    assert!(evts.contains(&events::SHUTDOWN), "{evts:x?}");
    assert!(!evts.contains(&events::PANIC), "{evts:x?}");
    // the reported result came through
    assert!(m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(42))));
}

#[test]
fn smp_kernel_brings_secondary_cpu_online() {
    // An SMP kernel build on a two-CPU machine: smp_init starts the AP
    // with a startup IPI, the AP checks in, and shutdown parks it so
    // the whole machine halts (not just CPU0).
    let image = build_kernel(KernelBuildOptions { smp: true, ..Default::default() })
        .expect("smp kernel builds");
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(INIT_HELLO) });
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig { cpus: 2, ..Default::default() });
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(console.contains("kfi: SMP: 2 CPUs online"), "{console}");
    assert!(console.contains("init: hello from user space"), "{console}");
    let evts = events_of(&m);
    assert!(evts.contains(&events::BOOT_OK), "{evts:x?}");
    assert!(evts.contains(&events::SHUTDOWN), "{evts:x?}");
    assert!(!evts.contains(&events::PANIC), "{evts:x?}");
    // The BSP stayed busy the whole run, so the AP never needed to
    // ring the doorbell (see ap_doorbell_reaches_an_idle_bsp for the
    // delivery path).
}

#[test]
fn ap_doorbell_reaches_an_idle_bsp() {
    // init blocks forever reading an empty pipe: every task is asleep,
    // so the BSP parks in its idle hlt. The AP keeps ticking on its own
    // timer and its reschedule doorbells keep landing on CPU0 — the
    // idle BSP stays responsive (wakes, re-runs schedule) even though
    // the workload itself can never progress.
    let body = r#"
.text
main:
    movl $fds, %eax
    call sys_pipe
    movl fds, %eax            # read end
    movl $buf, %edx
    movl $1, %ecx
    call sys_read             # blocks: no writer exists
    movl $1, %eax
    ret
.data
fds: .long 0, 0
buf: .long 0
"#;
    let image = build_kernel(KernelBuildOptions { smp: true, ..Default::default() })
        .expect("smp kernel builds");
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(body) });
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig { cpus: 2, ..Default::default() });
    let exit = m.run(3_000_000);
    assert_eq!(exit, RunExit::CycleLimit, "console:\n{}", m.console_string());
    assert!(m.counters().ipis > 0, "no resched IPIs reached the idle BSP");
}

#[test]
fn smp_kernel_on_one_cpu_is_quiet() {
    // The same SMP image on a uniprocessor machine: smp_init reads
    // PORT_MON_NCPUS, finds nothing to start, and boots normally.
    let image = build_kernel(KernelBuildOptions { smp: true, ..Default::default() })
        .expect("smp kernel builds");
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(INIT_HELLO) });
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig::default());
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(!console.contains("CPUs online"), "{console}");
    assert!(console.contains("init: hello from user space"), "{console}");
    assert_eq!(m.counters().ipis, 0);
}

#[test]
fn filesystem_is_clean_after_shutdown() {
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(INIT_HELLO) });
    let fsimg = mkfs(2048, &files);
    let manifest = fsimg.manifest.clone();
    let mut m = boot(&image, fsimg.disk, &BootConfig::default());
    assert_eq!(m.run(BUDGET), RunExit::Halted, "console:\n{}", m.console_string());
    let disk = m.disk.take().unwrap();
    assert_eq!(fsck(&disk, &manifest), FsckReport::Clean);
    // clean shutdown resets the dirty flag
    let state = u32::from_le_bytes(disk.bytes()[1024 + 20..1024 + 24].try_into().unwrap());
    assert_eq!(state, 1, "superblock should be clean");
}

#[test]
fn file_io_roundtrip_through_the_kernel() {
    // init writes a file, reads it back, checks contents, then reads
    // /etc/motd through the page cache and reports a checksum.
    let body = r#"
.text
main:
    # create and write
    movl $path, %eax
    movl $0x242, %edx         # O_RDWR|O_CREAT|O_TRUNC
    call sys_open
    testl %eax, %eax
    js fail
    movl %eax, %esi           # fd
    movl %eax, %eax
    movl $payload, %edx
    movl $11, %ecx
    call sys_write
    cmpl $11, %eax
    jne fail
    movl %esi, %eax
    call sys_close
    # reopen and read back
    movl $path, %eax
    xorl %edx, %edx
    call sys_open
    testl %eax, %eax
    js fail
    movl %eax, %esi
    movl %eax, %eax
    movl $buf, %edx
    movl $32, %ecx
    call sys_read
    cmpl $11, %eax
    jne fail
    # compare
    xorl %ecx, %ecx
1:  cmpl $11, %ecx
    jae ok
    movzbl payload(%ecx), %eax
    movzbl buf(%ecx), %edx
    cmpl %edx, %eax
    jne fail
    incl %ecx
    jmp 1b
ok:
    movl %esi, %eax
    call sys_close
    # delete it again
    movl $path, %eax
    call sys_unlink
    testl %eax, %eax
    jnz fail
    movl $777, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
fail:
    movl $failmsg, %eax
    call print
    movl $1, %eax
    ret
.data
path:    .asciz "/scratch"
payload: .asciz "hello disk"
failmsg: .asciz "FAIL\n"
buf:     .space 64
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(!console.contains("FAIL"), "{console}");
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(777))),
        "console:\n{console}"
    );
}

#[test]
fn fork_exec_wait_pipeline() {
    // init forks; the child reports and exits 7; the parent waits and
    // reports 1000 + status.
    let body = r#"
.text
main:
    call sys_fork
    testl %eax, %eax
    jnz parent
    # child
    movl $5, %eax
    call sys_report
    movl $7, %eax
    call sys_exit
parent:
    movl %eax, %esi           # child pid
    movl %eax, %eax
    movl $status, %edx
    call sys_waitpid
    cmpl %esi, %eax
    jne bad
    movl status, %eax
    addl $1000, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
bad:
    movl $1, %eax
    ret
.data
status: .long 0
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    let results: Vec<u32> = m
        .monitor_events()
        .iter()
        .filter_map(|(_, e)| match e {
            MonitorEvent::Result(v) => Some(*v),
            _ => None,
        })
        .collect();
    assert_eq!(results, vec![5, 1007], "console:\n{console}");
}

#[test]
fn pipes_block_and_wake() {
    // Parent and child ping-pong over two pipes, context1-style.
    let body = r#"
.text
main:
    movl $fds1, %eax
    call sys_pipe
    testl %eax, %eax
    jnz bad
    movl $fds2, %eax
    call sys_pipe
    testl %eax, %eax
    jnz bad
    call sys_fork
    testl %eax, %eax
    jnz parent
# child: read from pipe1, double it, write to pipe2, 10 rounds
    xorl %edi, %edi
c_loop:
    cmpl $10, %edi
    jae c_done
    movl fds1, %eax
    movl $val, %edx
    movl $4, %ecx
    call sys_read
    cmpl $4, %eax
    jne bad
    movl val, %eax
    addl %eax, %eax
    movl %eax, val
    movl fds2+4, %eax
    movl $val, %edx
    movl $4, %ecx
    call sys_write
    incl %edi
    jmp c_loop
c_done:
    xorl %eax, %eax
    call sys_exit
parent:
    movl %eax, %ebp           # child pid
    movl $1, %ecx
    movl %ecx, val2
    xorl %edi, %edi
p_loop:
    cmpl $10, %edi
    jae p_done
    movl fds1+4, %eax
    movl $val2, %edx
    movl $4, %ecx
    call sys_write
    movl fds2, %eax
    movl $val2, %edx
    movl $4, %ecx
    call sys_read
    cmpl $4, %eax
    jne bad
    incl %edi
    jmp p_loop
p_done:
    # after 10 doublings of 1: 1 -> 1024
    movl val2, %eax
    call sys_report
    movl %ebp, %eax
    xorl %edx, %edx
    call sys_waitpid
    movl $0xFEE1DEAD, %eax
    call sys_reboot
bad:
    movl $2, %eax
    ret
.data
fds1: .long 0, 0
fds2: .long 0, 0
val:  .long 0
val2: .long 0
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(1024))),
        "console:\n{console}\nevents: {:?}",
        m.monitor_events()
    );
}

#[test]
fn exec_loads_programs_from_disk() {
    // init forks + execs /bin/child, which reports 31337.
    let child = r#"
.text
main:
    movl $31337, %eax
    call sys_report
    xorl %eax, %eax
    ret
"#;
    let body = r#"
.text
main:
    call sys_fork
    testl %eax, %eax
    jnz parent
    movl $childpath, %eax
    call sys_execve
    # exec failed
    movl $9, %eax
    call sys_exit
parent:
    xorl %edx, %edx
    call sys_waitpid
    movl $0xFEE1DEAD, %eax
    call sys_reboot
.data
childpath: .asciz "/bin/child"
"#;
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(body) });
    files.push(FileSpec {
        path: "/bin/child".into(),
        data: build_with_runtime("child.s", child).unwrap().bytes,
    });
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig::default());
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(31337))),
        "console:\n{console}"
    );
}

#[test]
fn user_segfault_kills_process_not_kernel() {
    let body = r#"
.text
main:
    call sys_fork
    testl %eax, %eax
    jnz parent
    # child dereferences NULL
    movl 0, %eax
    movl (%eax), %edx
    movl $1, %eax
    ret
parent:
    xorl %edx, %edx
    call sys_waitpid
    movl $555, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(console.contains("segfault"), "{console}");
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(555))),
        "the system survived: {console}"
    );
    let evts = events_of(&m);
    assert!(evts.contains(&events::SHUTDOWN));
    assert!(!evts.contains(&events::PANIC));
}

#[test]
fn brk_and_demand_paging() {
    let body = r#"
.text
main:
    # query break, extend by 64 KiB, touch every page
    xorl %eax, %eax
    call sys_brk
    movl %eax, %esi           # old brk
    addl $0x10000, %eax
    call sys_brk
    movl %eax, %edi           # new brk
    movl %esi, %ecx
1:  cmpl %edi, %ecx
    jae 2f
    movl %ecx, (%ecx)         # touch (demand-zero then write)
    addl $4096, %ecx
    jmp 1b
2:  # verify a value stuck
    movl (%esi), %eax
    cmpl %esi, %eax
    jne bad
    movl $888, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
bad:
    movl $1, %eax
    ret
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(888))),
        "console:\n{console}"
    );
}

#[test]
fn cow_isolates_parent_and_child() {
    let body = r#"
.text
main:
    movl $12345, shared
    call sys_fork
    testl %eax, %eax
    jnz parent
    # child scribbles on the shared page
    movl $99999, shared
    movl shared, %eax
    call sys_report           # child sees 99999
    xorl %eax, %eax
    call sys_exit
parent:
    xorl %edx, %edx
    call sys_waitpid
    movl shared, %eax
    call sys_report           # parent must still see 12345
    movl $0xFEE1DEAD, %eax
    call sys_reboot
.data
shared: .long 0
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    let results: Vec<u32> = m
        .monitor_events()
        .iter()
        .filter_map(|(_, e)| match e {
            MonitorEvent::Result(v) => Some(*v),
            _ => None,
        })
        .collect();
    assert_eq!(results, vec![99999, 12345], "console:\n{console}");
}

#[test]
fn reboot_cycle_with_persistent_disk() {
    // Boot, run init (writes a file), shutdown; reboot on the same disk
    // with a different init behaviour via run mode.
    let body = r#"
.text
main:
    call sys_getmode
    cmpl $1, %eax
    je second_boot
    # first boot: create a file
    movl $path, %eax
    movl $0x242, %edx
    call sys_open
    testl %eax, %eax
    js bad
    movl %eax, %esi
    movl %eax, %eax
    movl $data, %edx
    movl $4, %ecx
    call sys_write
    movl %esi, %eax
    call sys_close
    movl $1, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
second_boot:
    # the file must still exist
    movl $path, %eax
    xorl %edx, %edx
    call sys_open
    testl %eax, %eax
    js bad
    movl $2, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
bad:
    movl $1, %eax
    ret
.data
path: .asciz "/persist"
data: .long 0x55aa55aa
"#;
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(body) });
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig { run_mode: 0, ..Default::default() });
    assert_eq!(m.run(BUDGET), RunExit::Halted, "{}", m.console_string());

    // Reboot: wipe memory, keep the disk.
    kfi_kernel::load_into(&mut m, &image, &BootConfig { run_mode: 1, ..Default::default() });
    assert_eq!(m.run(BUDGET), RunExit::Halted, "{}", m.console_string());
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(2))),
        "second boot didn't find the file: {}",
        m.console_string()
    );
}

#[test]
fn boot_without_init_panics() {
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let fsimg = mkfs(2048, &standard_fixtures()); // no /init
    let mut m = boot(&image, fsimg.disk, &BootConfig::default());
    let exit = m.run(BUDGET);
    assert_eq!(exit, RunExit::Halted);
    assert!(m.console_string().contains("No init found"), "{}", m.console_string());
    assert!(events_of(&m).contains(&events::PANIC));
}

#[test]
fn corrupt_superblock_panics_at_mount() {
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(INIT_HELLO) });
    let fsimg = mkfs(2048, &files);
    let mut disk = fsimg.disk;
    let magic = disk.bytes()[1024];
    disk.load(1024, &[magic ^ 0xff]); // break the magic
    let mut m = boot(&image, disk, &BootConfig::default());
    let exit = m.run(BUDGET);
    assert_eq!(exit, RunExit::Halted);
    assert!(m.console_string().contains("Unable to mount root fs"), "{}", m.console_string());
    assert!(events_of(&m).contains(&events::PANIC));
}

#[test]
fn timer_preempts_user_spinners() {
    // Two children spin; timeslicing must let both report eventually.
    let body = r#"
.text
main:
    call sys_fork
    testl %eax, %eax
    jz spin1
    call sys_fork
    testl %eax, %eax
    jz spin2
    xorl %eax, %eax
    xorl %edx, %edx
    call sys_waitpid
    xorl %eax, %eax
    xorl %edx, %edx
    call sys_waitpid
    movl $3, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
spin1:
    movl $400000, %ecx
1:  decl %ecx
    jnz 1b
    movl $1, %eax
    call sys_report
    xorl %eax, %eax
    call sys_exit
spin2:
    movl $400000, %ecx
2:  decl %ecx
    jnz 2b
    movl $2, %eax
    call sys_report
    xorl %eax, %eax
    call sys_exit
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    let results: Vec<u32> = m
        .monitor_events()
        .iter()
        .filter_map(|(_, e)| match e {
            MonitorEvent::Result(v) => Some(*v),
            _ => None,
        })
        .collect();
    assert!(results.contains(&1) && results.contains(&2) && results.contains(&3));
    assert!(m.counters().timer_irqs > 0, "the timer never fired");
}

#[test]
fn fork_exit_cycles_do_not_leak_pages() {
    // init marks, runs 10 fork/exit/wait cycles, marks, runs 10 more,
    // marks again. The host samples the kernel's nr_free_pages at the
    // marks: the second batch must consume zero net pages (no leaks in
    // fork/COW/exit/waitpid accounting).
    let body = r#"
.text
main:
    movl $0xAA01, %eax
    call sys_mark
    movl $10, %esi
1:  call do_cycle
    decl %esi
    jnz 1b
    movl $0xAA02, %eax
    call sys_mark
    movl $10, %esi
2:  call do_cycle
    decl %esi
    jnz 2b
    movl $0xAA03, %eax
    call sys_mark
    movl $0xFEE1DEAD, %eax
    call sys_reboot
    movl $1, %eax
    ret
do_cycle:
    call sys_fork
    testl %eax, %eax
    jnz 3f
    # child: touch a fresh heap page (COW + demand paging), then exit
    xorl %eax, %eax
    call sys_brk
    addl $4096, %eax
    call sys_brk
    movl $55, %eax
    call sys_exit
3:  xorl %eax, %eax
    xorl %edx, %edx
    call sys_waitpid
    ret
"#;
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let nr_free_addr = image.program.symbols.addr_of("nr_free_pages").unwrap();
    let mut files = standard_fixtures();
    files.push(FileSpec { path: "/init".into(), data: minimal_init(body) });
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig::default());

    let mut samples = Vec::new();
    let mut seen_events = 0usize;
    loop {
        match m.step() {
            kfi_machine::StepEvent::Executed => {}
            kfi_machine::StepEvent::Halted => break,
            other => panic!("{other:?}: {}", m.console_string()),
        }
        let new_marks: Vec<u32> = m.monitor_events()[seen_events..]
            .iter()
            .filter_map(|(_, e)| match e {
                MonitorEvent::Event(v) if (0xAA01..=0xAA03).contains(v) => Some(*v),
                _ => None,
            })
            .collect();
        seen_events = m.monitor_events().len();
        for _ in new_marks {
            let mut buf = [0u8; 4];
            assert_eq!(m.probe_read(nr_free_addr, &mut buf), 4);
            samples.push(u32::from_le_bytes(buf));
        }
        if m.cpu.tsc > 100_000_000 {
            panic!("leak test hung: {}", m.console_string());
        }
    }
    assert_eq!(samples.len(), 3, "console: {}", m.console_string());
    // Steady state: batch 2 consumes no net pages vs batch 1.
    assert_eq!(
        samples[1],
        samples[2],
        "fork/exit cycles leak pages: {samples:?}\nconsole: {}",
        m.console_string()
    );
}

#[test]
fn pipe_close_frees_buffer_pages() {
    // Create and fully close 6 pipes (the table holds 8): if close
    // leaked pipe slots or buffer pages, the later pipes would fail.
    let body = r#"
.text
main:
    movl $6, %esi
1:  movl $fds, %eax
    call sys_pipe
    testl %eax, %eax
    jnz bad
    movl fds, %eax
    call sys_close
    testl %eax, %eax
    jnz bad
    movl fds+4, %eax
    call sys_close
    testl %eax, %eax
    jnz bad
    decl %esi
    jnz 1b
    movl $424242, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
bad:
    movl $1, %eax
    ret
.data
fds: .long 0, 0
"#;
    let mut m = boot_with_init(body);
    assert_eq!(m.run(BUDGET), RunExit::Halted, "{}", m.console_string());
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(424242))),
        "{}",
        m.console_string()
    );
}

#[test]
fn sys_kill_terminates_a_spinning_child() {
    // Parent forks a child that spins forever; the parent kills it with
    // SIGKILL (9) and reaps it; the status must be 128+9.
    let body = r#"
.text
main:
    call sys_fork
    testl %eax, %eax
    jnz parent
spin:
    jmp spin
parent:
    movl %eax, %esi           # child pid
    # let the child get going
    call sys_yield
    call sys_yield
    movl %esi, %eax
    movl $9, %edx
    call sys_kill
    testl %eax, %eax
    jnz bad
    movl %esi, %eax
    movl $status, %edx
    call sys_waitpid
    cmpl %esi, %eax
    jne bad
    movl status, %eax
    call sys_report           # expect 137
    movl $0xFEE1DEAD, %eax
    call sys_reboot
bad:
    movl $1, %eax
    ret
.data
status: .long 0
"#;
    let mut m = boot_with_init(body);
    let exit = m.run(BUDGET);
    let console = m.console_string();
    assert_eq!(exit, RunExit::Halted, "console:\n{console}");
    assert!(console.contains("killed by signal 9"), "{console}");
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(137))),
        "console:\n{console}"
    );
}

#[test]
fn kill_missing_pid_is_esrch() {
    let body = r#"
.text
main:
    movl $42, %eax            # no such pid
    movl $9, %edx
    call sys_kill
    cmpl $-3, %eax            # -ESRCH
    jne bad
    movl $314, %eax
    call sys_report
    movl $0xFEE1DEAD, %eax
    call sys_reboot
bad:
    movl $1, %eax
    ret
"#;
    let mut m = boot_with_init(body);
    assert_eq!(m.run(BUDGET), RunExit::Halted, "{}", m.console_string());
    assert!(
        m.monitor_events().iter().any(|(_, e)| matches!(e, MonitorEvent::Result(314))),
        "{}",
        m.console_string()
    );
}
