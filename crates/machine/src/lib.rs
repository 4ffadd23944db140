//! # kfi-machine — the simulated IA-32 machine
//!
//! A cycle-counting processor + memory + device model executing the
//! [`kfi-isa`](kfi_isa) instruction subset, providing everything the
//! paper's experimental setup got from real hardware:
//!
//! * **Debug registers** (DR0–DR3): one-shot instruction breakpoints that
//!   trigger the injector exactly when the target instruction is reached.
//! * **TSC**: the performance counter used to measure crash latency in
//!   cycles.
//! * **Two-level paging MMU** with supervisor write protection, so NULL
//!   dereferences and wild kernel pointers raise page faults with CR2 and
//!   an error code, exactly what the guest `do_page_fault` inspects.
//! * **The full exception model** — #DE #BR #UD #NP #SS #GP #PF #DF and
//!   triple fault — matching the crash categories of the paper's Table 3.
//! * **Devices**: a console port, a DMA block device backed by a
//!   [`Ramdisk`] that *persists across reboots* (the medium on which
//!   filesystem corruption survives), and a monitor port through which
//!   the guest kernel's crash handlers report causes to the host.
//!
//! # Examples
//!
//! Build a machine, load code, run to completion:
//!
//! ```
//! use kfi_machine::{Machine, MachineConfig, RunExit};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! // mov $0x2a,%al ; out %al,$0xe9 ; cli ; hlt
//! m.mem.load(0x1000, &[0xb0, 0x2a, 0xe6, 0xe9, 0xfa, 0xf4]);
//! m.cpu.eip = 0x1000;
//! assert_eq!(m.run(1_000), RunExit::Halted);
//! assert_eq!(m.console(), &[0x2a]);
//! ```
//!
//! Single-step with [`Machine::step`] and watch a one-shot debug
//! breakpoint fire ([`Machine::run`] may execute block-at-a-time, but
//! `step` is always one instruction):
//!
//! ```
//! use kfi_machine::{Machine, MachineConfig, StepEvent};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! m.mem.load(0x1000, &[0x40, 0x40, 0xfa, 0xf4]); // inc %eax x2 ; cli ; hlt
//! m.cpu.eip = 0x1000;
//! m.cpu.arm_breakpoint(0, 0x1001); // DR0 at the second inc
//!
//! assert_eq!(m.step(), StepEvent::Executed); // first inc
//! assert_eq!(m.step(), StepEvent::DebugBreak { index: 0 });
//! assert_eq!(m.cpu.eip, 0x1001); // stopped *before* executing it
//! assert_eq!(m.cpu.reg(0), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod cpu;
mod decode_cache;
mod exec;
mod machine;
mod mem;
mod mmu;
mod ramdisk;
pub mod sanitizer;
mod smp;
mod trap;

pub use cpu::{Cpu, CR0_PG, KERNEL_CS, USER_CS};
pub use machine::{
    ports, Checkpoint, Counters, ExecTier, Machine, MachineConfig, MonitorEvent, ResetResidue,
    ResidueFootprint, RunExit, Snapshot, StepEvent, StepObserver, ABORT_CHECK_STEPS,
};
pub use mem::{MemImage, PhysMem, PAGE_SIZE};
pub use mmu::{pte, Access, PageFault, Tlb};
pub use ramdisk::{DiskImage, Ramdisk, SECTOR_SIZE};
pub use trap::{pf_err, TrapRecord, Vector};
