//! Instruction execution.

use crate::cpu::{KERNEL_CS, USER_CS};
use crate::machine::{Fault, Machine, XResult};
use crate::mmu::Access;
use crate::trap::Vector;
use kfi_isa::{
    alu_add, alu_logic, alu_sub, decode, mask_width, sign_bit, AluKind, BtKind, DecodeError,
    Eflags, Grp3Kind, Insn, MemRef, Op, PortArg, Rep, Rm, ShiftCount, ShiftKind, Src, StrKind,
    Width,
};

const PAGE_MASK: u32 = 0xfff;

impl Machine {
    #[inline(always)]
    fn fetch(&mut self) -> XResult<Insn> {
        let eip = self.cpu.eip;
        // Translation runs on every fetch, hit or miss, so paging faults
        // and TLB statistics are identical with the cache on or off.
        let pa = self.xlate(eip, Access::Exec)?;
        self.fetch_at(eip, pa)
    }

    /// Decodes the instruction at `eip`, whose first byte the caller has
    /// already translated to physical address `pa`. This is the complete
    /// decode path — cache lookup/insert, sanitizer hooks, page-straddle
    /// handling — shared by [`fetch`](Machine::fetch) and the block
    /// engine's slow-path exits, so decode-cache counters evolve
    /// identically in both execution modes.
    #[inline(always)]
    pub(crate) fn fetch_at(&mut self, eip: u32, pa: u32) -> XResult<Insn> {
        if self.san.is_some() {
            self.sanitize_fetch_translation(eip, pa);
        }
        if let Some(insn) = self.decode_cache.lookup(pa, &self.mem) {
            if self.san.is_some() {
                self.sanitize_cached_decode(eip, pa, insn);
            }
            return Ok(insn);
        }
        let mut buf = [0u8; 15];
        let in_page = (4096 - (eip & PAGE_MASK)) as usize;
        let take = in_page.min(15);
        self.mem.read_into(pa, &mut buf[..take]);
        match decode(&buf[..take]) {
            Ok(i) => {
                // Every consumed byte came from the page containing
                // `pa`, so page-generation validation is exact.
                self.decode_cache.insert(pa, &self.mem, i);
                Ok(i)
            }
            Err(DecodeError::Truncated { .. }) if take < 15 => {
                // Page-straddling instruction: never cached (its bytes
                // span two independently-invalidated pages).
                let next_page = (eip & !PAGE_MASK).wrapping_add(4096);
                let pa2 = self.xlate(next_page, Access::Exec)?;
                for i in take..15 {
                    buf[i] = self.mem.read_u8(pa2.wrapping_add((i - take) as u32));
                }
                decode(&buf).map_err(|_| Fault::Vec(Vector::InvalidOpcode, None))
            }
            Err(_) => Err(Fault::Vec(Vector::InvalidOpcode, None)),
        }
    }

    /// Sanitizer: the fetch translation must be reproducible by a fresh
    /// page walk through an empty TLB (walk idempotence — see the
    /// [`crate::sanitizer`] docs for the live-page-table caveat).
    fn sanitize_fetch_translation(&mut self, eip: u32, pa: u32) {
        let (cr3, paging, user) = (self.cpu.cr3, self.cpu.paging(), self.cpu.is_user());
        let Some(san) = self.san.as_mut() else { return };
        san.scratch_tlb.flush();
        let first = crate::mmu::translate(
            &self.mem,
            &mut san.scratch_tlb,
            cr3,
            paging,
            eip,
            Access::Exec,
            user,
        );
        let second = crate::mmu::translate(
            &self.mem,
            &mut san.scratch_tlb,
            cr3,
            paging,
            eip,
            Access::Exec,
            user,
        );
        if first != second {
            san.report(format!(
                "MMU walk not idempotent for eip {eip:#010x}: {first:?} then {second:?}"
            ));
        } else if first != Ok(pa) {
            san.report(format!(
                "fetch translation {pa:#010x} for eip {eip:#010x} not reproduced by a fresh walk \
                 ({first:?})"
            ));
        }
    }

    /// Sanitizer: a decode-cache hit must return exactly what decoding
    /// the current memory bytes returns. Cached entries never straddle
    /// pages, so the in-page byte window is sufficient.
    fn sanitize_cached_decode(&mut self, eip: u32, pa: u32, cached: Insn) {
        let mut buf = [0u8; 15];
        let take = ((4096 - (pa & PAGE_MASK)) as usize).min(15);
        self.mem.read_into(pa, &mut buf[..take]);
        let fresh = decode(&buf[..take]);
        if fresh != Ok(cached) {
            let Some(san) = self.san.as_mut() else { return };
            san.report(format!(
                "decode cache served {cached:?} at eip {eip:#010x} (pa {pa:#010x}) but fresh \
                 decode of {:02x?} gives {fresh:?}",
                &buf[..cached.len.min(take as u8) as usize]
            ));
        }
    }

    #[inline]
    fn ea(&self, m: &MemRef) -> u32 {
        let mut a = m.disp as u32;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.cpu.get(b));
        }
        if let Some((idx, scale)) = m.index {
            a = a.wrapping_add(self.cpu.get(idx).wrapping_mul(scale as u32));
        }
        a
    }

    #[inline]
    fn read_mem(&mut self, addr: u32, w: Width) -> XResult<u32> {
        self.cpu.tsc += 2;
        match w {
            Width::B => self.read_virt_u8(addr).map(u32::from),
            Width::D => self.read_virt_u32(addr),
        }
    }

    #[inline]
    fn write_mem(&mut self, addr: u32, val: u32, w: Width) -> XResult<()> {
        self.cpu.tsc += 2;
        match w {
            Width::B => self.write_virt_u8(addr, val as u8),
            Width::D => self.write_virt_u32(addr, val),
        }
    }

    #[inline]
    fn read_reg_w(&self, r: u8, w: Width) -> u32 {
        match w {
            Width::B => self.cpu.reg8(r) as u32,
            Width::D => self.cpu.reg(r),
        }
    }

    #[inline]
    fn write_reg_w(&mut self, r: u8, val: u32, w: Width) {
        match w {
            Width::B => self.cpu.set_reg8(r, val as u8),
            Width::D => self.cpu.set_reg(r, val),
        }
    }

    #[inline]
    fn read_rm(&mut self, rm: &Rm, w: Width) -> XResult<u32> {
        match rm {
            Rm::Reg(r) => Ok(self.read_reg_w(*r, w)),
            Rm::Mem(m) => {
                let a = self.ea(m);
                self.read_mem(a, w)
            }
        }
    }

    #[inline]
    fn write_rm(&mut self, rm: &Rm, val: u32, w: Width) -> XResult<()> {
        match rm {
            Rm::Reg(r) => {
                self.write_reg_w(*r, val, w);
                Ok(())
            }
            Rm::Mem(m) => {
                let a = self.ea(m);
                self.write_mem(a, val, w)
            }
        }
    }

    #[inline]
    fn read_src(&mut self, src: &Src, w: Width) -> XResult<u32> {
        match src {
            Src::Reg(r) => Ok(self.read_reg_w(*r, w)),
            Src::Imm(i) => Ok(mask_width(*i, w.bits())),
            Src::Mem(m) => {
                let a = self.ea(m);
                self.read_mem(a, w)
            }
        }
    }

    fn require_kernel(&self) -> XResult<()> {
        if self.cpu.is_user() {
            Err(Fault::Vec(Vector::GeneralProtection, Some(0)))
        } else {
            Ok(())
        }
    }

    fn idt_user_callable(&mut self, vector: u8) -> XResult<bool> {
        let base = self.cpu.idt_base.wrapping_add(vector as u32 * 8);
        // DPL checks read the IDT with kernel rights.
        let pa = match crate::mmu::translate(
            &self.mem,
            &mut self.tlb,
            self.cpu.cr3,
            self.cpu.paging(),
            base.wrapping_add(4),
            Access::Read,
            false,
        ) {
            Ok(pa) => pa,
            Err(_) => return Ok(false),
        };
        Ok(self.mem.read_u32(pa) & 2 != 0)
    }

    /// Fetch, decode and execute one instruction.
    #[inline(always)]
    pub(crate) fn exec_one(&mut self) -> XResult<()> {
        let insn = self.fetch()?;
        self.exec_insn(insn)
    }

    /// Executes an already-fetched instruction. The caller guarantees
    /// `insn` is what decoding the bytes at the current EIP yields (the
    /// block engine's per-instruction decode-cache probe enforces this
    /// on cached replays).
    #[inline(always)]
    pub(crate) fn exec_insn(&mut self, insn: Insn) -> XResult<()> {
        let eip = self.cpu.eip;
        let next = eip.wrapping_add(insn.len as u32);
        self.cpu.tsc += 1;

        match insn.op {
            Op::Alu { kind, width, dst, src } => {
                let a = self.read_rm(&dst, width)?;
                let b = self.read_src(&src, width)?;
                let bits = width.bits();
                let f = self.cpu.eflags;
                let r = match kind {
                    AluKind::Add => alu_add(a, b, false, bits, f),
                    AluKind::Adc => alu_add(a, b, f.cf(), bits, f),
                    AluKind::Sub | AluKind::Cmp => alu_sub(a, b, false, bits, f),
                    AluKind::Sbb => alu_sub(a, b, f.cf(), bits, f),
                    AluKind::And | AluKind::Test => alu_logic(a & b, bits, f),
                    AluKind::Or => alu_logic(a | b, bits, f),
                    AluKind::Xor => alu_logic(a ^ b, bits, f),
                };
                if !kind.discards_result() {
                    self.write_rm(&dst, r.value, width)?;
                }
                self.cpu.eflags = r.flags;
                if self.config().flag_update_bug {
                    // Test-only hook: model a flag writer that forgets
                    // the canonicalization mask (clears the reserved
                    // always-one bit, leaks an unmodeled IOPL bit). The
                    // sanitizer self-test asserts this is caught.
                    self.cpu.eflags = Eflags::from_bits_raw((r.flags.bits() & !0b10) | (1 << 12));
                }
            }
            Op::Mov { width, dst, src } => {
                let v = self.read_src(&src, width)?;
                self.write_rm(&dst, v, width)?;
            }
            Op::Movzx { dst, src } => {
                let v = self.read_rm(&src, Width::B)?;
                self.cpu.set(dst, v & 0xff);
            }
            Op::Movsx { dst, src } => {
                let v = self.read_rm(&src, Width::B)?;
                self.cpu.set(dst, v as u8 as i8 as i32 as u32);
            }
            Op::Lea { dst, mem } => {
                let a = self.ea(&mem);
                self.cpu.set(dst, a);
            }
            Op::Xchg { reg, rm } => {
                let old = self.read_rm(&rm, Width::D)?;
                let rv = self.cpu.get(reg);
                self.write_rm(&rm, rv, Width::D)?;
                self.cpu.set(reg, old);
            }
            Op::Shift { kind, width, dst, count } => {
                let c = match count {
                    ShiftCount::One => 1,
                    ShiftCount::Imm(n) => n as u32,
                    ShiftCount::Cl => self.cpu.reg8(1) as u32,
                } & 31;
                let v = self.read_rm(&dst, width)?;
                let (res, flags) = shift_op(kind, v, c, width, self.cpu.eflags);
                self.write_rm(&dst, res, width)?;
                self.cpu.eflags = flags;
            }
            Op::Shld { dst, src, count } | Op::Shrd { dst, src, count } => {
                let left = matches!(insn.op, Op::Shld { .. });
                let c = match count {
                    ShiftCount::One => 1,
                    ShiftCount::Imm(n) => n as u32,
                    ShiftCount::Cl => self.cpu.reg8(1) as u32,
                } & 31;
                let v = self.read_rm(&dst, Width::D)?;
                let filler = self.cpu.get(src);
                if c != 0 {
                    let (res, carry) = if left {
                        let res = (v << c) | (filler >> (32 - c));
                        (res, (v >> (32 - c)) & 1)
                    } else {
                        let res = (v >> c) | (filler << (32 - c));
                        (res, (v >> (c - 1)) & 1)
                    };
                    self.write_rm(&dst, res, Width::D)?;
                    let mut f = self.cpu.eflags;
                    f.set_cf(carry != 0);
                    f.set_szp(res, 32);
                    self.cpu.eflags = f;
                }
            }
            Op::Bt { kind, dst, src } => {
                let idx = self.read_src(&src, Width::D)?;
                match dst {
                    Rm::Reg(r) => {
                        let bit = idx & 31;
                        let v = self.cpu.reg(r);
                        let mut f = self.cpu.eflags;
                        f.set_cf(v & (1 << bit) != 0);
                        self.cpu.eflags = f;
                        let nv = apply_bt(kind, v, bit);
                        if kind != BtKind::Bt {
                            self.cpu.set_reg(r, nv);
                        }
                    }
                    Rm::Mem(m) => {
                        let bit = idx & 31;
                        // Register bit offsets extend the address; the
                        // immediate form does not (IA-32 semantics).
                        let word_off = match src {
                            Src::Imm(_) => 0i32,
                            _ => (idx as i32) >> 5,
                        };
                        let addr = self.ea(&m).wrapping_add((word_off as u32).wrapping_mul(4));
                        let v = self.read_mem(addr, Width::D)?;
                        let mut f = self.cpu.eflags;
                        f.set_cf(v & (1 << bit) != 0);
                        self.cpu.eflags = f;
                        if kind != BtKind::Bt {
                            self.write_mem(addr, apply_bt(kind, v, bit), Width::D)?;
                        }
                    }
                }
            }
            Op::Xadd { width, dst, src } => {
                let a = self.read_rm(&dst, width)?;
                let b = self.read_reg_w(src.index(), width);
                let r = alu_add(a, b, false, width.bits(), self.cpu.eflags);
                self.write_rm(&dst, r.value, width)?;
                self.write_reg_w(src.index(), a, width);
                self.cpu.eflags = r.flags;
            }
            Op::Cmpxchg { width, dst, src } => {
                let acc = self.read_reg_w(0, width);
                let cur = self.read_rm(&dst, width)?;
                let r = alu_sub(acc, cur, false, width.bits(), self.cpu.eflags);
                self.cpu.eflags = r.flags;
                if r.flags.zf() {
                    let sv = self.read_reg_w(src.index(), width);
                    self.write_rm(&dst, sv, width)?;
                } else {
                    self.write_reg_w(0, cur, width);
                }
            }
            Op::Grp3 { kind, width, rm } => {
                self.exec_grp3(kind, width, &rm)?;
            }
            Op::Imul2 { dst, src } => {
                let a = self.cpu.get(dst) as i32 as i64;
                let b = self.read_rm(&src, Width::D)? as i32 as i64;
                let p = a * b;
                self.cpu.set(dst, p as u32);
                let mut f = self.cpu.eflags;
                let over = p != (p as i32) as i64;
                f.set_cf(over);
                f.set_of(over);
                self.cpu.eflags = f;
                self.cpu.tsc += 3;
            }
            Op::Imul3 { dst, src, imm } => {
                let b = self.read_rm(&src, Width::D)? as i32 as i64;
                let p = b * imm as i64;
                self.cpu.set(dst, p as u32);
                let mut f = self.cpu.eflags;
                let over = p != (p as i32) as i64;
                f.set_cf(over);
                f.set_of(over);
                self.cpu.eflags = f;
                self.cpu.tsc += 3;
            }
            Op::IncDec { inc, width, rm } => {
                let v = self.read_rm(&rm, width)?;
                let cf = self.cpu.eflags.cf();
                let r = if inc {
                    alu_add(v, 1, false, width.bits(), self.cpu.eflags)
                } else {
                    alu_sub(v, 1, false, width.bits(), self.cpu.eflags)
                };
                self.write_rm(&rm, r.value, width)?;
                let mut f = r.flags;
                f.set_cf(cf); // inc/dec preserve CF
                self.cpu.eflags = f;
            }
            Op::Push(src) => {
                let v = self.read_src(&src, Width::D)?;
                self.push(v)?;
            }
            Op::Pop(rm) => {
                let esp = self.cpu.reg(4);
                let v = self.read_virt_u32(esp)?;
                // Write the destination before committing ESP so a
                // faulting memory destination restarts cleanly.
                match rm {
                    Rm::Reg(r) => {
                        self.cpu.set_reg(4, esp.wrapping_add(4));
                        self.cpu.set_reg(r, v);
                    }
                    Rm::Mem(_) => {
                        self.write_rm(&rm, v, Width::D)?;
                        self.cpu.set_reg(4, esp.wrapping_add(4));
                    }
                }
            }
            Op::Pusha => {
                let orig_esp = self.cpu.reg(4);
                let order = [0u8, 1, 2, 3, 4, 5, 6, 7];
                let mut sp = orig_esp;
                for r in order {
                    let v = if r == 4 { orig_esp } else { self.cpu.reg(r) };
                    sp = sp.wrapping_sub(4);
                    self.write_virt_u32(sp, v)?;
                }
                self.cpu.set_reg(4, sp);
            }
            Op::Popa => {
                let mut sp = self.cpu.reg(4);
                let mut vals = [0u32; 8];
                for i in (0..8).rev() {
                    vals[i] = self.read_virt_u32(sp)?;
                    sp = sp.wrapping_add(4);
                }
                for r in 0..8u8 {
                    if r != 4 {
                        self.cpu.set_reg(r, vals[r as usize]);
                    }
                }
                self.cpu.set_reg(4, sp);
            }
            Op::Pushf => self.push(self.cpu.eflags.bits())?,
            Op::Popf => {
                let v = self.pop()?;
                let was_if = self.cpu.eflags.if_();
                let mut f = Eflags::from_bits(v);
                if self.cpu.is_user() {
                    f.set_if(was_if); // CPL3 cannot change IF (IOPL 0)
                }
                self.cpu.eflags = f;
            }
            Op::Jcc { cond, rel } => {
                if cond.eval(self.cpu.eflags) {
                    self.cpu.tsc += 1;
                    self.cpu.eip = next.wrapping_add(rel as u32);
                    return Ok(());
                }
            }
            Op::Jmp { rel } => {
                self.cpu.eip = next.wrapping_add(rel as u32);
                return Ok(());
            }
            Op::JmpInd(rm) => {
                let t = self.read_rm(&rm, Width::D)?;
                self.cpu.eip = t;
                return Ok(());
            }
            Op::Call { rel } => {
                self.push(next)?;
                self.cpu.eip = next.wrapping_add(rel as u32);
                return Ok(());
            }
            Op::CallInd(rm) => {
                let t = self.read_rm(&rm, Width::D)?;
                self.push(next)?;
                self.cpu.eip = t;
                return Ok(());
            }
            Op::Ret => {
                self.cpu.eip = self.pop()?;
                return Ok(());
            }
            Op::RetImm(n) => {
                let t = self.pop()?;
                let esp = self.cpu.reg(4).wrapping_add(n as u32);
                self.cpu.set_reg(4, esp);
                self.cpu.eip = t;
                return Ok(());
            }
            Op::Lret => {
                let esp = self.cpu.reg(4);
                let t = self.read_virt_u32(esp)?;
                let cs = self.read_virt_u32(esp.wrapping_add(4))?;
                match cs {
                    KERNEL_CS if !self.cpu.is_user() => {
                        self.cpu.set_reg(4, esp.wrapping_add(8));
                        self.cpu.cs = KERNEL_CS;
                    }
                    USER_CS => {
                        // Far return to the outer ring pops the new ESP.
                        let new_esp = self.read_virt_u32(esp.wrapping_add(8))?;
                        self.cpu.set_reg(4, new_esp);
                        self.cpu.cs = USER_CS;
                    }
                    _ => return Err(Fault::Vec(Vector::GeneralProtection, Some(cs & 0xffff))),
                }
                self.cpu.eip = t;
                return Ok(());
            }
            Op::Leave => {
                let ebp = self.cpu.reg(5);
                let v = self.read_virt_u32(ebp)?;
                self.cpu.set_reg(4, ebp.wrapping_add(4));
                self.cpu.set_reg(5, v);
            }
            Op::Int(n) => {
                if self.cpu.is_user() && !self.idt_user_callable(n)? {
                    return Err(Fault::Vec(Vector::GeneralProtection, Some((n as u32) << 3 | 2)));
                }
                match Vector::from_number(n) {
                    Some(v) => {
                        self.deliver(v, None, next);
                        return Ok(());
                    }
                    // Vectors we model no gate for behave like a
                    // not-present IDT entry (#NP with the IDT-sourced
                    // error code), one of the paper's crash categories.
                    None => {
                        return Err(Fault::Vec(
                            Vector::SegmentNotPresent,
                            Some((n as u32) << 3 | 2),
                        ))
                    }
                }
            }
            Op::Int3 => {
                if self.cpu.is_user() && !self.idt_user_callable(3)? {
                    return Err(Fault::Vec(Vector::GeneralProtection, Some(3 << 3 | 2)));
                }
                self.deliver(Vector::Breakpoint, None, next);
                return Ok(());
            }
            Op::Into => {
                if self.cpu.eflags.of() {
                    if self.cpu.is_user() && !self.idt_user_callable(4)? {
                        return Err(Fault::Vec(Vector::GeneralProtection, Some(4 << 3 | 2)));
                    }
                    self.deliver(Vector::Overflow, None, next);
                    return Ok(());
                }
            }
            Op::Iret => {
                if self.cpu.is_user() {
                    // User iret pops whatever garbage is on its stack; a
                    // kernel CS there is a privilege escalation -> #GP.
                    let esp = self.cpu.reg(4);
                    let cs = self.read_virt_u32(esp.wrapping_add(4))?;
                    if cs != USER_CS {
                        return Err(Fault::Vec(Vector::GeneralProtection, Some(cs & 0xffff)));
                    }
                }
                self.do_iret()?;
                self.cpu.tsc += 30;
                return Ok(());
            }
            Op::Bound { reg, mem } => {
                let a = self.ea(&mem);
                let lower = self.read_mem(a, Width::D)? as i32;
                let upper = self.read_mem(a.wrapping_add(4), Width::D)? as i32;
                let v = self.cpu.get(reg) as i32;
                if v < lower || v > upper {
                    return Err(Fault::Vec(Vector::Bounds, None));
                }
            }
            Op::Setcc { cond, rm } => {
                let v = u32::from(cond.eval(self.cpu.eflags));
                self.write_rm(&rm, v, Width::B)?;
            }
            Op::Cmov { cond, dst, src } => {
                let v = self.read_rm(&src, Width::D)?;
                if cond.eval(self.cpu.eflags) {
                    self.cpu.set(dst, v);
                }
            }
            Op::Ud2 => return Err(Fault::Vec(Vector::InvalidOpcode, None)),
            Op::Hlt => {
                self.require_kernel()?;
                self.cpu.halted = true;
            }
            Op::Nop => {}
            Op::Cwde => {
                let v = self.cpu.reg(0) as u16 as i16 as i32 as u32;
                self.cpu.set_reg(0, v);
            }
            Op::Cdq => {
                let v = ((self.cpu.reg(0) as i32) >> 31) as u32;
                self.cpu.set_reg(2, v);
            }
            Op::Bswap(r) => {
                let v = self.cpu.get(r);
                self.cpu.set(r, v.swap_bytes());
            }
            Op::Rdtsc => {
                self.cpu.set_reg(0, self.cpu.tsc as u32);
                self.cpu.set_reg(2, (self.cpu.tsc >> 32) as u32);
            }
            Op::Cpuid => {
                self.cpu.set_reg(0, 1);
                self.cpu.set_reg(3, u32::from_le_bytes(*b"kfi!"));
                self.cpu.set_reg(1, 0);
                self.cpu.set_reg(2, 0);
            }
            Op::In { width, port } => {
                self.require_kernel()?;
                let p = self.resolve_port(port);
                let v = self.port_in(p);
                self.write_reg_w(0, mask_width(v, width.bits()), width);
                self.cpu.tsc += 150;
            }
            Op::Out { width, port } => {
                self.require_kernel()?;
                let p = self.resolve_port(port);
                let v = self.read_reg_w(0, width);
                self.port_out(p, v);
                self.cpu.tsc += 150;
            }
            Op::Str { kind, width, rep } => {
                return self.exec_string(kind, width, rep, next);
            }
            Op::MovToCr { cr, src } => {
                self.require_kernel()?;
                let v = self.cpu.get(src);
                match cr {
                    0 => {
                        self.cpu.cr0 = v;
                        self.tlb.flush();
                    }
                    2 => {
                        self.cpu.cr2 = v;
                        if let Some(san) = self.san.as_mut() {
                            san.cr2_write_ok = true;
                        }
                    }
                    3 => {
                        let old = self.cpu.cr3;
                        self.cpu.cr3 = v;
                        self.tlb.flush();
                        self.cpu.tsc += 8;
                        self.trace
                            .emit(self.cpu.tsc, kfi_trace::EventKind::Cr3Switch { old, new: v });
                    }
                    4 => {}
                    _ => return Err(Fault::Vec(Vector::InvalidOpcode, None)),
                }
            }
            Op::MovFromCr { cr, dst } => {
                self.require_kernel()?;
                let v = match cr {
                    0 => self.cpu.cr0,
                    2 => self.cpu.cr2,
                    3 => self.cpu.cr3,
                    4 => 0,
                    _ => return Err(Fault::Vec(Vector::InvalidOpcode, None)),
                };
                self.cpu.set(dst, v);
            }
            Op::Lidt(mem) => {
                self.require_kernel()?;
                let a = self.ea(&mem);
                let base = self.read_mem(a, Width::D)?;
                self.observe_lidt();
                self.cpu.idt_base = base;
            }
            Op::Cli => {
                self.require_kernel()?;
                self.cpu.eflags.set_if(false);
            }
            Op::Sti => {
                self.require_kernel()?;
                self.cpu.eflags.set_if(true);
            }
            Op::Aam(n) => {
                if n == 0 {
                    return Err(Fault::Vec(Vector::DivideError, None));
                }
                let al = self.cpu.reg8(0);
                self.cpu.set_reg8(4, al / n);
                self.cpu.set_reg8(0, al % n);
                let mut f = self.cpu.eflags;
                f.set_szp((al % n) as u32, 8);
                self.cpu.eflags = f;
            }
            Op::Aad(n) => {
                let al = self.cpu.reg8(0);
                let ah = self.cpu.reg8(4);
                let v = al.wrapping_add(ah.wrapping_mul(n));
                self.cpu.set_reg8(0, v);
                self.cpu.set_reg8(4, 0);
                let mut f = self.cpu.eflags;
                f.set_szp(v as u32, 8);
                self.cpu.eflags = f;
            }
            Op::Xlat => {
                let a = self.cpu.reg(3).wrapping_add(self.cpu.reg8(0) as u32);
                let v = self.read_mem(a, Width::B)?;
                self.cpu.set_reg8(0, v as u8);
            }
            Op::Cmc => {
                let c = self.cpu.eflags.cf();
                self.cpu.eflags.set_cf(!c);
            }
            Op::Clc => self.cpu.eflags.set_cf(false),
            Op::Stc => self.cpu.eflags.set_cf(true),
            Op::Cld => self.cpu.eflags.set_df(false),
            Op::Std => self.cpu.eflags.set_df(true),
            Op::Sahf => {
                let ah = self.cpu.reg8(4) as u32;
                let mut f = self.cpu.eflags;
                f.set_sf(ah & 0x80 != 0);
                f.set_zf(ah & 0x40 != 0);
                f.set_af(ah & 0x10 != 0);
                f.set_pf(ah & 0x04 != 0);
                f.set_cf(ah & 0x01 != 0);
                self.cpu.eflags = f;
            }
            Op::Lahf => {
                let f = self.cpu.eflags;
                let mut ah = 0x02u8;
                if f.sf() {
                    ah |= 0x80;
                }
                if f.zf() {
                    ah |= 0x40;
                }
                if f.af() {
                    ah |= 0x10;
                }
                if f.pf() {
                    ah |= 0x04;
                }
                if f.cf() {
                    ah |= 0x01;
                }
                self.cpu.set_reg8(4, ah);
            }
        }

        self.cpu.eip = next;
        Ok(())
    }

    fn resolve_port(&self, p: PortArg) -> u16 {
        match p {
            PortArg::Imm(n) => n as u16,
            PortArg::Dx => self.cpu.reg(2) as u16,
        }
    }

    fn exec_grp3(&mut self, kind: Grp3Kind, width: Width, rm: &Rm) -> XResult<()> {
        let bits = width.bits();
        match kind {
            Grp3Kind::Not => {
                let v = self.read_rm(rm, width)?;
                self.write_rm(rm, mask_width(!v, bits), width)?;
            }
            Grp3Kind::Neg => {
                let v = self.read_rm(rm, width)?;
                let r = alu_sub(0, v, false, bits, self.cpu.eflags);
                self.write_rm(rm, r.value, width)?;
                self.cpu.eflags = r.flags;
            }
            Grp3Kind::Mul => {
                let v = self.read_rm(rm, width)? as u64;
                self.cpu.tsc += 3;
                match width {
                    Width::D => {
                        let p = self.cpu.reg(0) as u64 * v;
                        self.cpu.set_reg(0, p as u32);
                        self.cpu.set_reg(2, (p >> 32) as u32);
                        let hi = (p >> 32) != 0;
                        let mut f = self.cpu.eflags;
                        f.set_cf(hi);
                        f.set_of(hi);
                        self.cpu.eflags = f;
                    }
                    Width::B => {
                        let p = (self.cpu.reg8(0) as u64 * v) as u32;
                        self.cpu.set_reg(0, (self.cpu.reg(0) & !0xffff) | (p & 0xffff));
                        let hi = p > 0xff;
                        let mut f = self.cpu.eflags;
                        f.set_cf(hi);
                        f.set_of(hi);
                        self.cpu.eflags = f;
                    }
                }
            }
            Grp3Kind::Imul => {
                let v = self.read_rm(rm, width)?;
                self.cpu.tsc += 3;
                match width {
                    Width::D => {
                        let p = (self.cpu.reg(0) as i32 as i64) * (v as i32 as i64);
                        self.cpu.set_reg(0, p as u32);
                        self.cpu.set_reg(2, (p >> 32) as u32);
                        let over = p != (p as i32) as i64;
                        let mut f = self.cpu.eflags;
                        f.set_cf(over);
                        f.set_of(over);
                        self.cpu.eflags = f;
                    }
                    Width::B => {
                        let p = (self.cpu.reg8(0) as i8 as i16) * (v as u8 as i8 as i16);
                        self.cpu.set_reg(0, (self.cpu.reg(0) & !0xffff) | (p as u16 as u32));
                        let over = p != (p as i8) as i16;
                        let mut f = self.cpu.eflags;
                        f.set_cf(over);
                        f.set_of(over);
                        self.cpu.eflags = f;
                    }
                }
            }
            Grp3Kind::Div => {
                let v = self.read_rm(rm, width)?;
                self.cpu.tsc += 20;
                if v == 0 {
                    return Err(Fault::Vec(Vector::DivideError, None));
                }
                match width {
                    Width::D => {
                        let dividend = ((self.cpu.reg(2) as u64) << 32) | self.cpu.reg(0) as u64;
                        let q = dividend / v as u64;
                        if q > u32::MAX as u64 {
                            return Err(Fault::Vec(Vector::DivideError, None));
                        }
                        self.cpu.set_reg(0, q as u32);
                        self.cpu.set_reg(2, (dividend % v as u64) as u32);
                    }
                    Width::B => {
                        let dividend = self.cpu.reg(0) & 0xffff;
                        let q = dividend / v;
                        if q > 0xff {
                            return Err(Fault::Vec(Vector::DivideError, None));
                        }
                        let r = dividend % v;
                        self.cpu.set_reg8(0, q as u8);
                        self.cpu.set_reg8(4, r as u8);
                    }
                }
            }
            Grp3Kind::Idiv => {
                let v = self.read_rm(rm, width)?;
                self.cpu.tsc += 20;
                match width {
                    Width::D => {
                        let divisor = v as i32 as i64;
                        if divisor == 0 {
                            return Err(Fault::Vec(Vector::DivideError, None));
                        }
                        let dividend =
                            (((self.cpu.reg(2) as u64) << 32) | self.cpu.reg(0) as u64) as i64;
                        let q = dividend.wrapping_div(divisor);
                        if q > i32::MAX as i64 || q < i32::MIN as i64 {
                            return Err(Fault::Vec(Vector::DivideError, None));
                        }
                        self.cpu.set_reg(0, q as u32);
                        self.cpu.set_reg(2, dividend.wrapping_rem(divisor) as u32);
                    }
                    Width::B => {
                        let divisor = v as u8 as i8 as i16;
                        if divisor == 0 {
                            return Err(Fault::Vec(Vector::DivideError, None));
                        }
                        let dividend = (self.cpu.reg(0) & 0xffff) as u16 as i16;
                        let q = dividend.wrapping_div(divisor);
                        if q > i8::MAX as i16 || q < i8::MIN as i16 {
                            return Err(Fault::Vec(Vector::DivideError, None));
                        }
                        self.cpu.set_reg8(0, q as u8);
                        self.cpu.set_reg8(4, dividend.wrapping_rem(divisor) as u8);
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_string(&mut self, kind: StrKind, width: Width, rep: Rep, next: u32) -> XResult<()> {
        let w = width.bytes();
        let step = if self.cpu.eflags.df() { (w as i32).wrapping_neg() } else { w as i32 } as u32;

        if rep != Rep::None && self.cpu.reg(1) == 0 {
            self.cpu.eip = next;
            return Ok(());
        }

        let esi = self.cpu.reg(6);
        let edi = self.cpu.reg(7);
        self.cpu.tsc += 2;

        match kind {
            StrKind::Movs => {
                let v = self.read_mem(esi, width)?;
                self.write_mem(edi, v, width)?;
                self.cpu.set_reg(6, esi.wrapping_add(step));
                self.cpu.set_reg(7, edi.wrapping_add(step));
            }
            StrKind::Stos => {
                let v = self.read_reg_w(0, width);
                self.write_mem(edi, v, width)?;
                self.cpu.set_reg(7, edi.wrapping_add(step));
            }
            StrKind::Lods => {
                let v = self.read_mem(esi, width)?;
                self.write_reg_w(0, v, width);
                self.cpu.set_reg(6, esi.wrapping_add(step));
            }
            StrKind::Scas => {
                let v = self.read_mem(edi, width)?;
                let acc = self.read_reg_w(0, width);
                let r = alu_sub(acc, v, false, width.bits(), self.cpu.eflags);
                self.cpu.eflags = r.flags;
                self.cpu.set_reg(7, edi.wrapping_add(step));
            }
            StrKind::Cmps => {
                let a = self.read_mem(esi, width)?;
                let b = self.read_mem(edi, width)?;
                let r = alu_sub(a, b, false, width.bits(), self.cpu.eflags);
                self.cpu.eflags = r.flags;
                self.cpu.set_reg(6, esi.wrapping_add(step));
                self.cpu.set_reg(7, edi.wrapping_add(step));
            }
        }

        if rep != Rep::None {
            let ecx = self.cpu.reg(1).wrapping_sub(1);
            self.cpu.set_reg(1, ecx);
            let continue_rep = ecx != 0
                && match (kind, rep) {
                    (StrKind::Cmps | StrKind::Scas, Rep::Rep) => self.cpu.eflags.zf(),
                    (StrKind::Cmps | StrKind::Scas, Rep::Repne) => !self.cpu.eflags.zf(),
                    _ => true,
                };
            if continue_rep {
                // Leave EIP on the string instruction: it re-executes,
                // and interrupts can be taken between iterations.
                return Ok(());
            }
        }
        self.cpu.eip = next;
        Ok(())
    }
}

fn apply_bt(kind: BtKind, v: u32, bit: u32) -> u32 {
    match kind {
        BtKind::Bt => v,
        BtKind::Bts => v | (1 << bit),
        BtKind::Btr => v & !(1 << bit),
        BtKind::Btc => v ^ (1 << bit),
    }
}

fn shift_op(kind: ShiftKind, v: u32, count: u32, width: Width, flags: Eflags) -> (u32, Eflags) {
    let bits = width.bits();
    let v = mask_width(v, bits);
    if count == 0 {
        return (v, flags);
    }
    let mut f = flags;
    let result = match kind {
        ShiftKind::Shl => {
            let r = if count >= bits { 0 } else { v << count };
            let carry = if count <= bits { (v >> (bits - count)) & 1 } else { 0 };
            f.set_cf(carry != 0);
            let r = mask_width(r, bits);
            if count == 1 {
                f.set_of(((r & sign_bit(bits)) != 0) != f.cf());
            }
            f.set_szp(r, bits);
            r
        }
        ShiftKind::Shr => {
            let carry = if count <= bits { (v >> (count - 1)) & 1 } else { 0 };
            let r = if count >= bits { 0 } else { v >> count };
            f.set_cf(carry != 0);
            if count == 1 {
                f.set_of(v & sign_bit(bits) != 0);
            }
            f.set_szp(r, bits);
            r
        }
        ShiftKind::Sar => {
            let sv = ((v << (32 - bits)) as i32) >> (32 - bits); // sign-extend to i32
            let r = if count >= 31 { (sv >> 31) as u32 } else { (sv >> count) as u32 };
            let carry =
                if count <= 31 { ((sv >> (count - 1)) & 1) as u32 } else { (sv < 0) as u32 };
            let r = mask_width(r, bits);
            f.set_cf(carry != 0);
            if count == 1 {
                f.set_of(false);
            }
            f.set_szp(r, bits);
            r
        }
        ShiftKind::Rol => {
            let c = count % bits;
            let r = if c == 0 { v } else { mask_width((v << c) | (v >> (bits - c)), bits) };
            f.set_cf(r & 1 != 0);
            if count == 1 {
                f.set_of(((r & sign_bit(bits)) != 0) != f.cf());
            }
            r
        }
        ShiftKind::Ror => {
            let c = count % bits;
            let r = if c == 0 { v } else { mask_width((v >> c) | (v << (bits - c)), bits) };
            f.set_cf(r & sign_bit(bits) != 0);
            if count == 1 {
                let top2 = (r >> (bits - 2)) & 3;
                f.set_of(top2 == 1 || top2 == 2);
            }
            r
        }
        ShiftKind::Rcl => {
            let mut val = v;
            let mut carry = f.cf() as u32;
            for _ in 0..(count % (bits + 1)) {
                let new_carry = (val >> (bits - 1)) & 1;
                val = mask_width((val << 1) | carry, bits);
                carry = new_carry;
            }
            f.set_cf(carry != 0);
            val
        }
        ShiftKind::Rcr => {
            let mut val = v;
            let mut carry = f.cf() as u32;
            for _ in 0..(count % (bits + 1)) {
                let new_carry = val & 1;
                val = mask_width((val >> 1) | (carry << (bits - 1)), bits);
                carry = new_carry;
            }
            f.set_cf(carry != 0);
            val
        }
    };
    (result, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, RunExit};
    use kfi_isa::Reg;

    fn run_code(code: &[u8], setup: impl FnOnce(&mut Machine)) -> Machine {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        let mut full = code.to_vec();
        full.extend_from_slice(&[0xfa, 0xf4]); // cli; hlt
        m.mem.load(0x1000, &full);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        setup(&mut m);
        assert_eq!(m.run(1_000_000), RunExit::Halted, "console: {}", m.console_string());
        m
    }

    #[test]
    fn arithmetic_chain() {
        // mov $10,%eax; add $5,%eax; sub $3,%eax; imul $4,%eax,%ebx
        let m = run_code(&[0xb8, 10, 0, 0, 0, 0x83, 0xc0, 5, 0x83, 0xe8, 3, 0x6b, 0xd8, 4], |_| {});
        assert_eq!(m.cpu.get(Reg::Eax), 12);
        assert_eq!(m.cpu.get(Reg::Ebx), 48);
    }

    #[test]
    fn paper_fig5_shrd_case() {
        // The Figure 5 case study: mov $0xb728,%eax gets corrupted so
        // EAX stays 0x80; shrd $12,%edx,%eax then yields 0.
        // Healthy: mov $0xb728,%eax ; xor %edx,%edx ; shrd $12,%edx,%eax
        let m = run_code(&[0xb8, 0x28, 0xb7, 0, 0, 0x31, 0xd2, 0x0f, 0xac, 0xd0, 0x0c], |_| {});
        assert_eq!(m.cpu.get(Reg::Eax), 0xb); // 0xb728 >> 12
                                              // Corrupted: eax = 0x80
        let m = run_code(&[0xb8, 0x80, 0, 0, 0, 0x31, 0xd2, 0x0f, 0xac, 0xd0, 0x0c], |_| {});
        assert_eq!(m.cpu.get(Reg::Eax), 0); // 0x80 >> 12 == 0
    }

    #[test]
    fn stack_discipline() {
        // push $1; push $2; pop %eax; pop %ebx
        let m = run_code(&[0x6a, 1, 0x6a, 2, 0x58, 0x5b], |_| {});
        assert_eq!(m.cpu.get(Reg::Eax), 2);
        assert_eq!(m.cpu.get(Reg::Ebx), 1);
        assert_eq!(m.cpu.get(Reg::Esp), 0x8000);
    }

    #[test]
    fn call_ret() {
        // call f; cli; hlt;  f: mov $7,%eax; ret
        // call rel = target(0x100a) - next(0x1005) = 5
        let m = run_code(
            &[
                0xe8, 0x03, 0, 0, 0, // call +3 -> 0x1008
                0xfa, 0xf4, 0x90, // cli; hlt; (pad)
                0xb8, 7, 0, 0, 0,    // 0x1008: mov $7,%eax
                0xc3, // ret
            ],
            |_| {},
        );
        assert_eq!(m.cpu.get(Reg::Eax), 7);
    }

    #[test]
    fn cond_branch_taken_and_not() {
        // xor %eax,%eax; je +2 (taken); mov $1,%bl (skipped); mov $2,%cl
        let m = run_code(&[0x31, 0xc0, 0x74, 0x02, 0xb3, 1, 0xb1, 2], |_| {});
        assert_eq!(m.cpu.reg8(3), 0);
        assert_eq!(m.cpu.reg8(1), 2);
        // test nonzero: jne not taken
        let m = run_code(&[0xb8, 1, 0, 0, 0, 0x85, 0xc0, 0x74, 0x02, 0xb3, 1, 0xb1, 2], |_| {});
        assert_eq!(m.cpu.reg8(3), 1);
    }

    #[test]
    fn divide_by_zero_faults() {
        // xor %edx,%edx; xor %ebx,%ebx; mov $10,%eax; div %ebx
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        m.mem.load(0x1000, &[0x31, 0xd2, 0x31, 0xdb, 0xb8, 10, 0, 0, 0, 0xf7, 0xf3]);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        let _ = m.run(1000);
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::DivideError && t.eip == 0x1009));
    }

    #[test]
    fn string_copy() {
        // Copy 8 dwords from 0x2000 to 0x3000.
        // mov $0x2000,%esi; mov $0x3000,%edi; mov $8,%ecx; cld; rep movsl
        let m = run_code(
            &[0xbe, 0x00, 0x20, 0, 0, 0xbf, 0x00, 0x30, 0, 0, 0xb9, 8, 0, 0, 0, 0xfc, 0xf3, 0xa5],
            |m| {
                for i in 0..8u32 {
                    m.mem.write_u32(0x2000 + i * 4, 0x100 + i);
                }
            },
        );
        for i in 0..8u32 {
            assert_eq!(m.mem.read_u32(0x3000 + i * 4), 0x100 + i);
        }
        assert_eq!(m.cpu.get(Reg::Ecx), 0);
        assert_eq!(m.cpu.get(Reg::Esi), 0x2020);
    }

    #[test]
    fn rep_stos_fill() {
        // mov $0xabababab,%eax; mov $0x3000,%edi; mov $16,%ecx; rep stosl
        let m = run_code(
            &[0xb8, 0xab, 0xab, 0xab, 0xab, 0xbf, 0, 0x30, 0, 0, 0xb9, 16, 0, 0, 0, 0xf3, 0xab],
            |_| {},
        );
        for i in 0..16u32 {
            assert_eq!(m.mem.read_u32(0x3000 + i * 4), 0xabab_abab);
        }
    }

    #[test]
    fn rep_with_zero_count_is_noop() {
        let m = run_code(&[0x31, 0xc9, 0xf3, 0xab], |m| {
            m.mem.write_u32(0x3000, 0x1234);
        });
        assert_eq!(m.mem.read_u32(0x3000), 0x1234);
    }

    #[test]
    fn bit_ops_on_memory_with_offset_extension() {
        // bts %ebx,(%esi) with ebx=37 sets bit 5 of dword 1.
        let m = run_code(&[0xbe, 0x00, 0x20, 0, 0, 0xbb, 37, 0, 0, 0, 0x0f, 0xab, 0x1e], |_| {});
        assert_eq!(m.mem.read_u32(0x2004), 1 << 5);
        assert!(!m.cpu.eflags.cf());
    }

    #[test]
    fn movzx_movsx() {
        let m = run_code(
            &[
                0xc6, 0x05, 0x00, 0x20, 0, 0, 0x80, // movb $0x80, 0x2000
                0x0f, 0xb6, 0x05, 0x00, 0x20, 0, 0, // movzbl 0x2000,%eax
                0x0f, 0xbe, 0x1d, 0x00, 0x20, 0, 0, // movsbl 0x2000,%ebx
            ],
            |_| {},
        );
        assert_eq!(m.cpu.get(Reg::Eax), 0x80);
        assert_eq!(m.cpu.get(Reg::Ebx), 0xffff_ff80);
    }

    #[test]
    fn xchg_and_xadd() {
        let m = run_code(
            &[
                0xb8, 1, 0, 0, 0, // mov $1,%eax
                0xbb, 2, 0, 0, 0, // mov $2,%ebx
                0x87, 0xd8, // xchg %ebx,%eax
                0x0f, 0xc1, 0xd8, // xadd %ebx,%eax
            ],
            |_| {},
        );
        // After xchg: eax=2, ebx=1. After xadd: eax=3, ebx=2.
        assert_eq!(m.cpu.get(Reg::Eax), 3);
        assert_eq!(m.cpu.get(Reg::Ebx), 2);
    }

    #[test]
    fn cmpxchg_success_and_failure() {
        let m = run_code(
            &[
                0xb8, 5, 0, 0, 0, // mov $5,%eax
                0xc7, 0x05, 0, 0x20, 0, 0, 5, 0, 0, 0, // movl $5,0x2000
                0xbb, 9, 0, 0, 0, // mov $9,%ebx
                0x0f, 0xb1, 0x1d, 0, 0x20, 0, 0, // cmpxchg %ebx,0x2000 -> success
                0x0f, 0xb1, 0x1d, 0, 0x20, 0, 0, // again: now fails, eax<-9
            ],
            |_| {},
        );
        assert_eq!(m.mem.read_u32(0x2000), 9);
        assert_eq!(m.cpu.get(Reg::Eax), 9);
    }

    #[test]
    fn setcc_cmov() {
        let m = run_code(
            &[
                0x31, 0xc0, // xor %eax,%eax (ZF=1)
                0x0f, 0x94, 0xc3, // sete %bl
                0xb9, 7, 0, 0, 0, // mov $7,%ecx
                0x0f, 0x44, 0xd1, // cmove %ecx,%edx
            ],
            |_| {},
        );
        assert_eq!(m.cpu.reg8(3), 1);
        assert_eq!(m.cpu.get(Reg::Edx), 7);
    }

    #[test]
    fn pusha_popa_roundtrip() {
        let m = run_code(
            &[
                0xb8, 1, 0, 0, 0, 0xbb, 2, 0, 0, 0,    // eax=1, ebx=2
                0x60, // pusha
                0x31, 0xc0, 0x31, 0xdb, // clear
                0x61, // popa
            ],
            |_| {},
        );
        assert_eq!(m.cpu.get(Reg::Eax), 1);
        assert_eq!(m.cpu.get(Reg::Ebx), 2);
        assert_eq!(m.cpu.get(Reg::Esp), 0x8000);
    }

    #[test]
    fn leave_unwinds_frame() {
        // Emulate prologue/epilogue: push %ebp; mov %esp,%ebp;
        // sub $16,%esp; leave
        let m = run_code(&[0x55, 0x89, 0xe5, 0x83, 0xec, 0x10, 0xc9], |m| {
            m.cpu.set_reg(5, 0xdead_0000);
        });
        assert_eq!(m.cpu.get(Reg::Ebp), 0xdead_0000);
        assert_eq!(m.cpu.get(Reg::Esp), 0x8000);
    }

    #[test]
    fn user_mode_cannot_do_privileged_ops() {
        for code in [
            vec![0xf4u8],           // hlt
            vec![0xfa],             // cli
            vec![0xe6, 0xe9],       // out
            vec![0xec],             // in
            vec![0x0f, 0x22, 0xd8], // mov %eax,%cr3
            vec![0x0f, 0x20, 0xd0], // mov %cr2,%eax
        ] {
            let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
            m.mem.load(0x1000, &code);
            m.cpu.eip = 0x1000;
            m.cpu.cs = USER_CS;
            m.cpu.set_reg(4, 0x8000);
            let _ = m.run(100);
            assert!(
                m.trap_log().iter().any(|t| t.vector == Vector::GeneralProtection),
                "{code:x?} should GP"
            );
        }
    }

    #[test]
    fn lret_with_garbage_stack_gp_faults() {
        // The paper's Table 7 ex. 3: a corrupted mov became lret and
        // raised a general protection fault.
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        m.mem.load(0x1000, &[0xcb]);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        m.mem.write_u32(0x8000 - 8, 0); // ensure garbage cs = whatever is at 0x8004
        m.mem.write_u32(0x8004, 0x4242);
        let _ = m.run(100);
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::GeneralProtection));
    }

    #[test]
    fn shift_flag_semantics() {
        let f = Eflags::new();
        // shl 1 of 0x80000000: CF=1, result 0.
        let (r, nf) = shift_op(ShiftKind::Shl, 0x8000_0000, 1, Width::D, f);
        assert_eq!(r, 0);
        assert!(nf.cf());
        assert!(nf.zf());
        // shr 4 of 0xf0: CF = bit3 of original = 0 after 4 shifts? bit(count-1)=bit3=0 -> wait 0xf0 >> 3 & 1 = 0x1e&1=0.
        let (r, nf) = shift_op(ShiftKind::Shr, 0xf0, 4, Width::D, f);
        assert_eq!(r, 0xf);
        assert!(!nf.cf());
        let (r, nf) = shift_op(ShiftKind::Shr, 0x18, 4, Width::D, f);
        assert_eq!(r, 1);
        assert!(nf.cf()); // bit 3 of 0x18 is 1
                          // sar of negative keeps sign.
        let (r, _) = shift_op(ShiftKind::Sar, 0x8000_0000, 4, Width::D, f);
        assert_eq!(r, 0xf800_0000);
        // rol byte.
        let (r, nf) = shift_op(ShiftKind::Rol, 0x81, 1, Width::B, f);
        assert_eq!(r, 0x03);
        assert!(nf.cf());
        // count 0 leaves flags alone.
        let mut fc = f;
        fc.set_cf(true);
        let (r, nf) = shift_op(ShiftKind::Shl, 5, 0, Width::D, fc);
        assert_eq!(r, 5);
        assert!(nf.cf());
    }

    #[test]
    fn bound_raises_br() {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        // bounds pair at 0x2000: [1, 10]; eax = 50 -> #BR
        m.mem.write_u32(0x2000, 1);
        m.mem.write_u32(0x2004, 10);
        m.mem.load(0x1000, &[0xb8, 50, 0, 0, 0, 0x62, 0x05, 0x00, 0x20, 0, 0]);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        let _ = m.run(100);
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::Bounds));
    }

    #[test]
    fn cdq_sign_extends() {
        let m = run_code(&[0xb8, 0xff, 0xff, 0xff, 0xff, 0x99], |_| {});
        assert_eq!(m.cpu.get(Reg::Edx), 0xffff_ffff);
        let m = run_code(&[0xb8, 1, 0, 0, 0, 0x99], |_| {});
        assert_eq!(m.cpu.get(Reg::Edx), 0);
    }

    #[test]
    fn rdtsc_monotonic() {
        let m = run_code(&[0x0f, 0x31, 0x89, 0xc3, 0x0f, 0x31], |_| {});
        assert!(m.cpu.get(Reg::Eax) > m.cpu.get(Reg::Ebx));
    }

    #[test]
    fn sahf_lahf_roundtrip() {
        let m = run_code(&[0xb4, 0xd7, 0x9e, 0x9f], |_| {});
        // 0xd7 sets SF ZF AF PF CF; lahf reads back 0xd7 (bit1 always 1).
        assert_eq!(m.cpu.reg8(4), 0xd7);
    }

    #[test]
    fn aam_zero_divides() {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        m.mem.load(0x1000, &[0xd4, 0x00]);
        m.cpu.eip = 0x1000;
        let _ = m.run(100);
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::DivideError));
    }
}

#[cfg(test)]
mod more_exec_tests {
    use super::*;
    use crate::machine::{MachineConfig, RunExit};
    use kfi_isa::Reg;

    fn run_code(code: &[u8], setup: impl FnOnce(&mut Machine)) -> Machine {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        let mut full = code.to_vec();
        full.extend_from_slice(&[0xfa, 0xf4]);
        m.mem.load(0x1000, &full);
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        setup(&mut m);
        assert_eq!(m.run(1_000_000), RunExit::Halted, "console: {}", m.console_string());
        m
    }

    #[test]
    fn movs_respects_direction_flag() {
        // Copy 4 dwords backwards: esi/edi start at the last dword.
        let m = run_code(
            &[
                0xbe, 0x0c, 0x20, 0, 0, // mov $0x200c,%esi
                0xbf, 0x0c, 0x30, 0, 0, // mov $0x300c,%edi
                0xb9, 4, 0, 0, 0,    // mov $4,%ecx
                0xfd, // std
                0xf3, 0xa5, // rep movsl
                0xfc, // cld
            ],
            |m| {
                for i in 0..4u32 {
                    m.mem.write_u32(0x2000 + i * 4, i + 1);
                }
            },
        );
        for i in 0..4u32 {
            assert_eq!(m.mem.read_u32(0x3000 + i * 4), i + 1);
        }
        assert_eq!(m.cpu.get(Reg::Esi), 0x2000u32.wrapping_sub(4));
    }

    #[test]
    fn xlat_translates() {
        let m = run_code(
            &[
                0xbb, 0x00, 0x20, 0, 0, // mov $0x2000,%ebx
                0xb0, 0x05, // mov $5,%al
                0xd7, // xlat
            ],
            |m| {
                m.mem.write_u8(0x2005, 0x99);
            },
        );
        assert_eq!(m.cpu.reg8(0), 0x99);
    }

    #[test]
    fn bswap_reverses_bytes() {
        let m = run_code(&[0xb8, 0x44, 0x33, 0x22, 0x11, 0x0f, 0xc8], |_| {});
        assert_eq!(m.cpu.get(Reg::Eax), 0x44332211);
    }

    #[test]
    fn user_popf_cannot_disable_interrupts() {
        // In user mode, push flags, clear IF in the image, popf: IF must
        // survive (IOPL-0 semantics).
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        // user code at 0x1000; IF set initially
        m.mem.load(0x1000, &[0x9c, 0x58, 0x25, 0xff, 0xfd, 0xff, 0xff, 0x50, 0x9d, 0xeb, 0xfe]);
        // pushf; pop %eax; and $~IF,%eax; push %eax; popf; jmp .
        m.cpu.eip = 0x1000;
        m.cpu.cs = USER_CS;
        m.cpu.eflags.set_if(true);
        m.cpu.set_reg(4, 0x8000);
        let _ = m.run(200);
        assert!(m.cpu.eflags.if_(), "user code cleared IF");
    }

    #[test]
    fn kernel_popf_controls_interrupts() {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        m.mem.load(0x1000, &[0xfb, 0x9c, 0x58, 0x25, 0xff, 0xfd, 0xff, 0xff, 0x50, 0x9d, 0xf4]);
        // sti; pushf; pop; and ~IF; push; popf; hlt
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        assert_eq!(m.run(1000), RunExit::Halted);
        assert!(!m.cpu.eflags.if_());
    }

    #[test]
    fn user_iret_to_kernel_cs_is_blocked() {
        let mut m = Machine::new(MachineConfig { timer_enabled: false, ..Default::default() });
        // Build a fake frame targeting kernel CS and iret from user mode.
        m.mem.write_u32(0x8000, 0x1000); // eip
        m.mem.write_u32(0x8004, KERNEL_CS); // cs: escalation attempt
        m.mem.write_u32(0x8008, 0x202); // eflags
        m.mem.load(0x1000, &[0xcf]); // iret
        m.cpu.eip = 0x1000;
        m.cpu.cs = USER_CS;
        m.cpu.set_reg(4, 0x8000);
        let _ = m.run(100);
        assert!(m.trap_log().iter().any(|t| t.vector == Vector::GeneralProtection));
    }

    #[test]
    fn imul_sets_overflow_on_wide_product() {
        // imul $0x10000, %eax, %eax with eax=0x10000 -> product 2^32.
        let m = run_code(
            &[
                0xb8, 0, 0, 1, 0, // mov $0x10000,%eax
                0x69, 0xc0, 0, 0, 1, 0, // imul $0x10000,%eax,%eax
                0x0f, 0x90, 0xc3, // seto %bl
            ],
            |_| {},
        );
        assert_eq!(m.cpu.get(Reg::Eax), 0);
        assert_eq!(m.cpu.reg8(3), 1, "OF must be set");
    }

    #[test]
    fn out_to_console_ports_takes_al() {
        let m = run_code(&[0xb8, 0x78, 0x56, 0x34, 0x12, 0xe6, 0xe9], |_| {});
        assert_eq!(m.console(), &[0x78], "console takes the low byte");
    }

    #[test]
    fn scas_repne_finds_byte() {
        // scan 16 bytes for 0x7f
        let m = run_code(
            &[
                0xbf, 0x00, 0x20, 0, 0, // mov $0x2000,%edi
                0xb0, 0x7f, // mov $0x7f,%al
                0xb9, 16, 0, 0, 0,    // mov $16,%ecx
                0xfc, // cld
                0xf2, 0xae, // repne scasb
            ],
            |m| {
                m.mem.write_u8(0x2005, 0x7f);
            },
        );
        // found at offset 5: edi points one past it, ecx = 16-6
        assert_eq!(m.cpu.get(Reg::Edi), 0x2006);
        assert_eq!(m.cpu.get(Reg::Ecx), 10);
    }
}
