//! # kfi-kernel — the guest operating system and its host-side tools
//!
//! A miniature Unix-like kernel written in the simulated IA-32 assembly
//! ([`image::KERNEL_SOURCES`]), organized into the same subsystems the
//! paper injects faults into (`arch`, `fs`, `kernel`, `mm`) plus the
//! supporting modules Table 1 profiles (`lib`, `drivers`, `ipc`, `net`),
//! with the paper's named functions (`do_page_fault`, `schedule`,
//! `zap_page_range`, `do_generic_file_read`, `link_path_walk`, ...).
//!
//! Host-side pieces: the image builder, the boot loader, `mkfs`/`fsck`
//! for the ext2-lite filesystem, and the KBIN user-program builder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod fsck;
pub mod image;
pub mod kbin;
pub mod layout;
pub mod mkfs;

pub use boot::{boot, load_into, set_run_mode, BootConfig};
pub use fsck::{fsck, Blocks, FsckReport};
pub use image::{build_kernel, KernelBuildOptions, KernelImage};
pub use kbin::{build_with_runtime, UserProgram};
pub use mkfs::{mkfs, standard_fixtures, FileSpec, FsImage};
