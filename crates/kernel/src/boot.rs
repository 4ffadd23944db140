//! Booting a machine into the guest kernel: the loader + "setup stub"
//! role (builds the boot page tables, loads the image, enables paging,
//! and jumps to `start_kernel` in virtual space).

use crate::image::KernelImage;
use crate::layout::{self, boot_info};
use kfi_machine::{ExecTier, Machine, MachineConfig, Ramdisk, CR0_PG, KERNEL_CS};

/// Boot configuration.
#[derive(Debug, Clone, Copy)]
pub struct BootConfig {
    /// Value placed in the boot-info `RUN_MODE` field (which workload
    /// `/init` executes; `0xFF` = run the whole suite).
    pub run_mode: u32,
    /// The machine's execution tier (see [`ExecTier`]).
    pub tier: ExecTier,
    /// Whether the machine's per-step architectural-state sanitizer is
    /// enabled (see [`kfi_machine::MachineConfig::sanitizer`]).
    pub sanitizer: bool,
    /// Number of guest CPUs (see [`kfi_machine::MachineConfig::cpus`]).
    /// With the default 1 the machine is structurally identical to the
    /// pre-SMP uniprocessor. Values above 1 only bring application
    /// processors online when the kernel was built with
    /// [`crate::KernelBuildOptions::smp`].
    pub cpus: u32,
}

impl Default for BootConfig {
    fn default() -> BootConfig {
        BootConfig { run_mode: 0xff, tier: ExecTier::Chained, sanitizer: false, cpus: 1 }
    }
}

/// Creates a machine and boots the kernel on it with the given disk.
///
/// On return the CPU sits at `start_kernel` in virtual address space
/// with paging enabled; run it with [`Machine::run`]. The timer ticks at
/// [`MachineConfig`]'s default period.
pub fn boot(image: &KernelImage, disk: Ramdisk, config: &BootConfig) -> Machine {
    let mut m = Machine::new(MachineConfig {
        phys_mem: layout::PHYS_MEM_SIZE,
        timer_enabled: true,
        tier: config.tier,
        sanitizer: config.sanitizer,
        cpus: config.cpus,
        ..MachineConfig::default()
    });
    m.disk = Some(disk);
    load_into(&mut m, image, config);
    m
}

/// (Re)loads the kernel into an existing machine: the reboot path. The
/// machine's memory is wiped; the disk is left untouched.
pub fn load_into(m: &mut Machine, image: &KernelImage, config: &BootConfig) {
    m.mem.clear();
    m.clear_logs();

    // Kernel image at its physical home.
    let text_phys = image.program.text.base - layout::KERNEL_BASE;
    m.mem.load(text_phys, &image.program.text.bytes);
    let data_phys = image.program.data.base - layout::KERNEL_BASE;
    m.mem.load(data_phys, &image.program.data.bytes);

    // Boot page tables: the kernel linear map (dirs 768, 769 -> phys
    // 0..8 MiB, supervisor read/write).
    for (i, pt_phys) in [layout::BOOT_PT0_PHYS, layout::BOOT_PT1_PHYS].into_iter().enumerate() {
        m.mem.write_u32(layout::BOOT_PGD_PHYS + (768 + i as u32) * 4, pt_phys | 0x3);
        for e in 0..1024u32 {
            let phys = (i as u32 * 1024 + e) << 12;
            m.mem.write_u32(pt_phys + e * 4, phys | 0x3);
        }
    }

    // Boot info.
    let bi = layout::BOOT_INFO_PHYS;
    m.mem.write_u32(bi + boot_info::PHYS_FREE_START, image.phys_free_start());
    m.mem.write_u32(bi + boot_info::PHYS_MEM_SIZE, layout::PHYS_MEM_SIZE);
    m.mem.write_u32(bi + boot_info::RUN_MODE, config.run_mode);
    m.mem.write_u32(bi + boot_info::FLAGS, 0);

    // The SMP half of the reset first: make CPU0 the active context,
    // park the application processors and drain the IPI queues, so the
    // boot state below lands on CPU0 exactly like `Machine::new` would
    // have it. A no-op on uniprocessor machines.
    m.reset_secondary_cpus();

    // CPU state: paging on, kernel mode, boot stack, entry point.
    m.cpu.regs = [0; 8];
    m.cpu.cs = KERNEL_CS;
    m.cpu.cr3 = layout::BOOT_PGD_PHYS;
    m.cpu.cr0 = CR0_PG;
    m.cpu.cr2 = 0;
    m.cpu.eip = image.entry;
    m.cpu.esp0 = layout::BOOT_STACK_TOP;
    m.cpu.set(kfi_isa::Reg::Esp, layout::BOOT_STACK_TOP);
    m.cpu.eflags = kfi_isa::Eflags::new();
    m.cpu.halted = false;
    m.cpu.dr7 = 0;
    m.cpu.tsc = 0;
}

/// Sets the run mode in guest memory (used after restoring a post-boot
/// snapshot, before resuming).
pub fn set_run_mode(m: &mut Machine, mode: u32) {
    m.mem.write_u32(layout::BOOT_INFO_PHYS + boot_info::RUN_MODE, mode);
}
