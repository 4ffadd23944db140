//! The residue observer ([`Machine::observe_residue`]) must be exact
//! enough to share one reboot between crashes: whenever the footprint
//! of a reboot from the power-on residue admits another residue,
//! rebooting from that residue ends in the same full state. Each of the
//! four channels gets crafted guest programs with residues the footprint
//! admits (the reboots agree) and residues it rejects (they visibly
//! diverge, so the rejection was needed).

use kfi_asm::{assemble, AsmOptions, SymbolTable};
use kfi_machine::{
    Cpu, Machine, MachineConfig, MonitorEvent, Ramdisk, ResetResidue, ResidueFootprint, RunExit,
    TrapRecord, CR0_PG,
};

const CODE: u32 = 0x1000;
const STACK: u32 = 0x8000;
const TIMER_PERIOD: u64 = 1000;

/// Everything a reboot can leave behind that the severity verdict, or a
/// later run on the machine, could observe.
#[derive(Debug, PartialEq)]
struct FullState {
    mem: u64,
    cpus: Vec<Cpu>,
    console: Vec<u8>,
    monitor: Vec<(u64, MonitorEvent)>,
    trap_log: Vec<TrapRecord>,
    disk: Option<Vec<u8>>,
    smp_digest: u64,
}

fn full_state(m: &Machine) -> FullState {
    FullState {
        mem: m.mem.digest(),
        cpus: (0..m.cpus() as usize).map(|i| m.cpu_state(i).clone()).collect(),
        console: m.console().to_vec(),
        monitor: m.monitor_events().to_vec(),
        trap_log: m.trap_log().to_vec(),
        disk: m.disk.as_ref().map(|d| d.bytes().to_vec()),
        smp_digest: m.smp_digest(),
    }
}

/// A guest: its machine configuration and the boot loader that puts
/// program, tables and disk in place (the residue is installed after).
struct Guest {
    config: MachineConfig,
    load: Box<dyn Fn(&mut Machine)>,
}

impl Guest {
    fn new(
        config: MachineConfig,
        src: &str,
        load: impl Fn(&mut Machine, &SymbolTable) + 'static,
    ) -> Guest {
        let prog = assemble(src, &AsmOptions { text_base: CODE, data_base: None })
            .unwrap_or_else(|e| panic!("{e:?}"));
        let load = move |m: &mut Machine| {
            m.mem.load(CODE, &prog.text.bytes);
            m.cpu.eip = CODE;
            m.cpu.set_reg(4, STACK);
            load(m, &prog.symbols);
        };
        Guest { config: MachineConfig { phys_mem: 4 << 20, ..config }, load: Box::new(load) }
    }

    /// Boots the guest from `residue`, observed or not, to its halt.
    fn reboot(&self, residue: &ResetResidue, observe: bool) -> (Machine, Option<ResidueFootprint>) {
        let mut m = Machine::new(self.config);
        (self.load)(&mut m);
        m.install_residue(residue);
        if observe {
            m.observe_residue();
        }
        assert_eq!(m.run(10_000_000), RunExit::Halted, "{}", m.console_string());
        let footprint = m.take_residue_footprint();
        (m, footprint)
    }

    fn power_on(&self) -> ResetResidue {
        ResetResidue::power_on(&self.config)
    }

    /// The power-on reboot's footprint admits each of `admitted` and
    /// rebooting from it ends in the power-on reboot's full state; it
    /// rejects each of `rejected`, and rebooting from it ends elsewhere.
    fn check(&self, admitted: &[ResetResidue], rejected: &[ResetResidue]) {
        let power_on = self.power_on();
        let (m, footprint) = self.reboot(&power_on, true);
        let footprint = footprint.expect("the observer was armed");
        let reference = full_state(&m);
        assert!(footprint.admits(&power_on));
        for (i, r) in admitted.iter().enumerate() {
            assert!(footprint.admits(r), "admitted residue {i}: {r:?}\n{footprint:?}");
            let (m, none) = self.reboot(r, false);
            assert!(none.is_none(), "an unobserved reboot records nothing");
            assert_eq!(full_state(&m), reference, "admitted residue {i} diverged");
        }
        for (i, r) in rejected.iter().enumerate() {
            assert!(!footprint.admits(r), "rejected residue {i}: {r:?}\n{footprint:?}");
            let (m, _) = self.reboot(r, false);
            assert_ne!(full_state(&m), reference, "rejected residue {i} reboots identically");
        }
    }
}

fn config(timer_enabled: bool) -> MachineConfig {
    MachineConfig { timer_period: TIMER_PERIOD, timer_enabled, ..Default::default() }
}

// ---- TLB ----

const PGD: u32 = 0x10000;
const PT: u32 = 0x11000;
/// Frames holding one marker byte each.
const FRAME_A: u32 = 0x20000;
const FRAME_W: u32 = 0x21000;
const FRAME_X: u32 = 0x22000;
const FRAME_STALE: u32 = 0x23000;
/// Test pages; `V_OTHER` shares `V`'s direct-mapped TLB slot (of 512).
const V: u32 = 0x10_0000;
const V_OTHER: u32 = 0x30_0000;
const W: u32 = 0x10_1000;
const X: u32 = 0x10_2000;

/// Page tables for the low 4 MiB: identity except the four test pages,
/// with `stale` remapping some of them.
fn page_tables(m: &mut Machine, stale: &[(u32, u32)]) {
    m.mem.write_u32(PGD, PT | 3);
    for i in 0..1024u32 {
        m.mem.write_u32(PT + i * 4, (i << 12) | 3);
    }
    for (page, frame) in [(V, FRAME_A), (V_OTHER, FRAME_A), (W, FRAME_W), (X, FRAME_X)]
        .into_iter()
        .chain(stale.iter().copied())
    {
        m.mem.write_u32(PT + (page >> 12) * 4, frame | 3);
    }
    m.cpu.cr3 = PGD;
    m.cpu.cr0 |= CR0_PG;
}

/// A residue whose TLB holds `pages` translated through page tables
/// remapped by `stale`, everything else at power-on.
fn tlb_residue(config: MachineConfig, pages: &[u32], stale: &[(u32, u32)]) -> ResetResidue {
    let mut m = Machine::new(MachineConfig { phys_mem: 4 << 20, ..config });
    page_tables(&mut m, stale);
    for &p in pages {
        assert!(m.probe_translate(p).is_some());
    }
    m.reset_residue()
}

#[test]
fn tlb_channel() {
    let guest = Guest::new(
        config(false),
        "
        movb 0x300000, %al      # V_OTHER fills the slot V shares
        movb 0x100000, %al      # V then misses on a filled slot
        out %al, $0xe9
        movb 0x101000, %al      # W: its first lookup walks
        out %al, $0xe9
        movl %cr3, %ebx
        movl %ebx, %cr3         # the first flush ends the residue
        movb 0x102000, %al      # X is only looked up after it
        out %al, $0xe9
        cli
        hlt
        ",
        |m, _| {
            page_tables(m, &[]);
            for (frame, byte) in [(FRAME_A, b'a'), (FRAME_W, b'w'), (FRAME_X, b'x')] {
                m.mem.write_u8(frame, byte);
            }
            m.mem.write_u8(FRAME_STALE, b's');
        },
    );
    let c = guest.config;
    let admitted = [
        // W exactly as its first walk finds it.
        tlb_residue(c, &[W], &[]),
        // Stale entries that never answer a lookup: V's slot is refilled
        // by V_OTHER first, and X's entry is flushed before X is read.
        tlb_residue(c, &[V, X], &[(V, FRAME_STALE), (X, FRAME_STALE)]),
        tlb_residue(c, &[V, W, X], &[(V, FRAME_STALE), (X, FRAME_STALE)]),
    ];
    let rejected = [
        // A stale W answers W's first lookup with the wrong frame.
        tlb_residue(c, &[W], &[(W, FRAME_STALE)]),
        tlb_residue(c, &[V, W, X], &[(W, FRAME_STALE)]),
    ];
    guest.check(&admitted, &rejected);
    let (m, _) = guest.reboot(&guest.power_on(), false);
    assert_eq!(m.console_string(), "awx");
    let (m, _) = guest.reboot(&rejected[0], false);
    assert_eq!(m.console_string(), "asx", "the stale W was read");
}

// ---- timer deadline ----

/// IDT gate `vector` at `base` pointing at `handler`.
fn gate(m: &mut Machine, base: u32, vector: u32, handler: u32) {
    m.mem.write_u32(base + vector * 8, handler);
    m.mem.write_u32(base + vector * 8 + 4, 1);
}

fn residue_with(
    config: &MachineConfig,
    next_tick: u64,
    idt_base: u32,
    blk: [u32; 3],
) -> ResetResidue {
    ResetResidue::power_on(config).with_scalars(Some(next_tick), Some(idt_base), blk.map(Some))
}

#[test]
fn timer_channel() {
    // Interrupts stay off for well over six timer periods, so ticks are
    // lost (the deadline only advances), and then on: the first tick
    // delivered bumps a counter in memory.
    let guest = Guest::new(
        config(true),
        "
        movl $10000, %ecx
    off:
        decl %ecx
        jnz off
        sti
        movl $3000, %ecx
    on:
        decl %ecx
        jnz on
        cli
        hlt
    handler:
        incl 0x5000
        iret
        ",
        |m, symbols| gate(m, 0, 0x20, symbols.addr_of("handler").unwrap()),
    );
    let c = &guest.config;
    let (m, _) = guest.reboot(&guest.power_on(), false);
    assert!(m.mem.read_u32(0x5000) > 0, "ticks were delivered");
    let admitted = [
        residue_with(c, 2 * TIMER_PERIOD, 0, [0; 3]),
        residue_with(c, 6 * TIMER_PERIOD, 0, [0; 3]),
    ];
    let rejected = [
        // A deadline past the first delivered tick delays it.
        residue_with(c, 1_000 * TIMER_PERIOD, 0, [0; 3]),
        // Not a multiple of the period: every later tick shifts.
        residue_with(c, 2 * TIMER_PERIOD + 500, 0, [0; 3]),
    ];
    guest.check(&admitted, &rejected);
    let (_, footprint) = guest.reboot(&guest.power_on(), true);
    assert!(!footprint.unwrap().admits(&residue_with(c, 0, 0, [0; 3])), "deadlines are positive");
}

// ---- IDT base ----

const IDT: u32 = 0x2000;
const STRAY_IDT: u32 = 0x2800;

/// Gates for `int $0x80`: at base 0 (power-on) and at [`IDT`] to `h`,
/// at [`STRAY_IDT`] to `X`; the descriptor `lidt` reads at 0x4000 names
/// [`IDT`].
fn idt_tables(m: &mut Machine, h: u32, x: u32) {
    gate(m, 0, 0x80, h);
    gate(m, IDT, 0x80, h);
    gate(m, STRAY_IDT, 0x80, x);
    m.mem.write_u32(0x4000, IDT);
}

/// A guest whose handlers print `h` (the real table) or `X` (the stray
/// one); `body` runs first and ends by halting.
fn idt_guest(cpus: u32, body: &str) -> Guest {
    let src = format!(
        "{body}
    h:
        movb $0x68, %al
        out %al, $0xe9
        iret
    x:
        movb $0x58, %al
        out %al, $0xe9
        iret
        "
    );
    Guest::new(MachineConfig { cpus, ..config(false) }, &src, |m, symbols| {
        idt_tables(m, symbols.addr_of("h").unwrap(), symbols.addr_of("x").unwrap())
    })
}

#[test]
fn idt_channel() {
    let c = config(false);
    let stray = residue_with(&c, TIMER_PERIOD, STRAY_IDT, [0; 3]);
    // `lidt` before any trap: the inherited base is never read.
    let loads_first = idt_guest(1, "lidt 0x4000\n int $0x80\n cli\n hlt");
    loads_first.check(std::slice::from_ref(&stray), &[]);
    // A trap before `lidt` goes through the inherited base.
    let traps_first = idt_guest(1, "int $0x80\n lidt 0x4000\n int $0x80\n cli\n hlt");
    traps_first.check(&[], std::slice::from_ref(&stray));
    let (m, _) = traps_first.reboot(&stray, false);
    assert_eq!(m.console_string(), "Xh");
}

#[test]
fn idt_channel_startup_ipi_copies_the_base() {
    // CPU 0 starts CPU 1 before its own `lidt`; CPU 1 inherits the base
    // at send time and traps through it.
    let guest = idt_guest(
        2,
        "
        movl $ap, %eax
        out %eax, $0xf9
        movl $0x10100, %eax
        out %eax, $0xf7
        lidt 0x4000
        cli
        hlt
    ap:
        movl $0x7000, %esp
        int $0x80
        cli
        hlt
        ",
    );
    let c = guest.config;
    let stray = residue_with(&c, TIMER_PERIOD, STRAY_IDT, [0; 3]);
    guest.check(&[], std::slice::from_ref(&stray));
    let (m, _) = guest.reboot(&stray, false);
    assert_eq!(m.console_string(), "X", "CPU 1 used the copied base");
}

// ---- block latches ----

fn latch_guest(body: &str) -> Guest {
    Guest::new(config(false), &format!("{body}\n cli\n hlt"), |m, _| {
        let mut disk = Ramdisk::new(8);
        for (lba, byte) in [(0usize, b'0'), (1, b'1'), (5, b'5')] {
            disk.load(lba * 512, &[byte]);
        }
        m.disk = Some(disk);
    })
}

#[test]
fn block_latch_channel() {
    let c = config(false);
    // Every latch written before it is read: any residue latches do.
    let writes_first = latch_guest(
        "
        movl $0x1f0, %edx
        movl $1, %eax
        out %eax, %dx           # lba
        movl $0x1f1, %edx
        movl $0x6000, %eax
        out %eax, %dx           # dma
        movl $0x1f2, %edx
        movl $1, %eax
        out %eax, %dx           # read: sets status
        movl $0x1f7, %edx
        in %dx, %eax
        addb $0x30, %al
        out %al, $0xe9
        movb 0x6000, %al
        out %al, $0xe9
        ",
    );
    writes_first.check(&[residue_with(&c, TIMER_PERIOD, 0, [5, 0x9000, 1])], &[]);
    // Status read first, then a read command with lba and dma unset.
    let reads_first = latch_guest(
        "
        movl $0x1f7, %edx
        in %dx, %eax
        addb $0x30, %al
        out %al, $0xe9
        movl $0x1f2, %edx
        movl $1, %eax
        out %eax, %dx
        movb 0x0, %al
        out %al, $0xe9
        ",
    );
    let rejected = [
        residue_with(&c, TIMER_PERIOD, 0, [0, 0, 1]),
        residue_with(&c, TIMER_PERIOD, 0, [5, 0, 0]),
        residue_with(&c, TIMER_PERIOD, 0, [0, 0x9000, 0]),
    ];
    reads_first.check(&[], &rejected);
    let (m, _) = reads_first.reboot(&rejected[1], false);
    assert_eq!(m.console_string(), "05", "sector 5 was read");
}

// ---- power-on and install ----

#[test]
fn power_on_residue_is_a_new_machines() {
    for cpus in [1, 2] {
        let config = MachineConfig { cpus, ..MachineConfig::default() };
        assert_eq!(ResetResidue::power_on(&config), Machine::new(config).reset_residue());
    }
}

#[test]
fn install_is_the_inverse_of_reset_residue() {
    for cpus in [1, 2] {
        let c = MachineConfig { cpus, ..config(true) };
        let r = tlb_residue(c, &[V, W], &[(W, FRAME_STALE)]).with_scalars(
            Some(7 * TIMER_PERIOD),
            Some(STRAY_IDT),
            [Some(1), Some(2), Some(3)],
        );
        let mut m = Machine::new(MachineConfig { phys_mem: 4 << 20, ..c });
        m.install_residue(&r);
        assert_eq!(m.reset_residue(), r, "cpus = {cpus}");
    }
}
