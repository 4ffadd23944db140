//! Operand realization, layout fixpoint and byte emission.

use crate::expr::Expr;
use crate::parse::{AsmError, GenInsn, Item, Mnem, Parser, SectionId, TMem, TOperand};
use crate::program::{Program, Section, Symbol, SymbolKind, SymbolTable};
use kfi_isa::{
    encode, encode_wide, jcc_near, jcc_short, jmp_near, jmp_short, Cond, Grp3Kind, MemRef, Op,
    PortArg, Rm, ShiftCount, Src, Width,
};
use std::collections::HashMap;

/// Assembler options: section base addresses.
#[derive(Debug, Clone, Copy)]
pub struct AsmOptions {
    /// Link/load address of `.text`.
    pub text_base: u32,
    /// Link/load address of `.data`; `None` places it at the next
    /// page boundary after `.text`.
    pub data_base: Option<u32>,
}

impl Default for AsmOptions {
    fn default() -> AsmOptions {
        AsmOptions { text_base: 0, data_base: None }
    }
}

/// A realized (expression-resolved) instruction.
enum RealInsn {
    Plain(Op),
    JccT { cond: Cond, target: u32 },
    JmpT { target: u32 },
    CallT { target: u32 },
}

enum EmitFail {
    /// The short branch form does not reach; promote to the near form.
    NeedWide,
    /// A real error (bad operands, undefined symbol...).
    Error(String),
}

type Resolver<'a> = dyn FnMut(&Expr) -> Result<i64, String> + 'a;

fn resolve_mem(m: &TMem, r: &mut Resolver<'_>) -> Result<MemRef, String> {
    let disp = match &m.disp {
        Some(e) => {
            let v = r(e)?;
            v as i32
        }
        None => 0,
    };
    Ok(MemRef { base: m.base, index: m.index, disp })
}

fn op_rm(op: &TOperand, width: Width, r: &mut Resolver<'_>) -> Result<Rm, String> {
    match (op, width) {
        (TOperand::Reg(reg), Width::D) => Ok(Rm::Reg(reg.index())),
        (TOperand::Reg(reg), Width::B) => {
            Err(format!("32-bit register %{} in byte operation", reg.name()))
        }
        (TOperand::Reg8(n), Width::B) => Ok(Rm::Reg(*n)),
        (TOperand::Reg8(_), Width::D) => Err("8-bit register in dword operation".into()),
        (TOperand::Mem(m), _) => Ok(Rm::Mem(resolve_mem(m, r)?)),
        (TOperand::Bare(e), _) => Ok(Rm::Mem(MemRef::abs(r(e)? as u32))),
        _ => Err("operand cannot be used as r/m".into()),
    }
}

fn op_src(op: &TOperand, width: Width, r: &mut Resolver<'_>) -> Result<Src, String> {
    match op {
        TOperand::Imm(e) => Ok(Src::Imm(r(e)? as u32)),
        _ => Ok(match op_rm(op, width, r)? {
            Rm::Reg(n) => Src::Reg(n),
            Rm::Mem(m) => Src::Mem(m),
        }),
    }
}

fn width_of_operand(op: &TOperand) -> Option<Width> {
    match op {
        TOperand::Reg(_) => Some(Width::D),
        TOperand::Reg8(_) => Some(Width::B),
        _ => None,
    }
}

/// Deduces the operand width from an explicit suffix or register operands
/// (checked in the given priority order).
fn deduce_width(explicit: Option<Width>, ops: &[&TOperand]) -> Result<Width, String> {
    if let Some(w) = explicit {
        return Ok(w);
    }
    for op in ops {
        if let Some(w) = width_of_operand(op) {
            return Ok(w);
        }
    }
    Err("cannot deduce operand width; add an l/b suffix".into())
}

fn realize(insn: &GenInsn, r: &mut Resolver<'_>) -> Result<RealInsn, String> {
    use Mnem::*;
    let ops = &insn.ops;
    let nops = ops.len();
    let wrong = |n: usize| format!("expected {n} operand(s), got {nops}");

    let real = match insn.mnem {
        Mov => {
            if nops != 2 {
                return Err(wrong(2));
            }
            // Control-register moves.
            if let TOperand::Cr(cr) = &ops[1] {
                let TOperand::Reg(src) = &ops[0] else {
                    return Err("mov to %cr needs a 32-bit register source".into());
                };
                return Ok(RealInsn::Plain(Op::MovToCr { cr: *cr, src: *src }));
            }
            if let TOperand::Cr(cr) = &ops[0] {
                let TOperand::Reg(dst) = &ops[1] else {
                    return Err("mov from %cr needs a 32-bit register destination".into());
                };
                return Ok(RealInsn::Plain(Op::MovFromCr { cr: *cr, dst: *dst }));
            }
            let width = deduce_width(insn.width, &[&ops[1], &ops[0]])?;
            let dst = op_rm(&ops[1], width, r)?;
            let src = op_src(&ops[0], width, r)?;
            RealInsn::Plain(Op::Mov { width, dst, src })
        }
        Alu(kind) => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let width = deduce_width(insn.width, &[&ops[1], &ops[0]])?;
            let dst = op_rm(&ops[1], width, r)?;
            let src = op_src(&ops[0], width, r)?;
            RealInsn::Plain(Op::Alu { kind, width, dst, src })
        }
        Movzx | Movsx => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let TOperand::Reg(dst) = &ops[1] else {
                return Err("movzbl/movsbl need a 32-bit register destination".into());
            };
            let src = op_rm(&ops[0], Width::B, r)?;
            if insn.mnem == Movzx {
                RealInsn::Plain(Op::Movzx { dst: *dst, src })
            } else {
                RealInsn::Plain(Op::Movsx { dst: *dst, src })
            }
        }
        Lea => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let TOperand::Reg(dst) = &ops[1] else {
                return Err("lea needs a register destination".into());
            };
            let mem = match &ops[0] {
                TOperand::Mem(m) => resolve_mem(m, r)?,
                TOperand::Bare(e) => MemRef::abs(r(e)? as u32),
                _ => return Err("lea needs a memory source".into()),
            };
            RealInsn::Plain(Op::Lea { dst: *dst, mem })
        }
        Shift(kind) => {
            let (count, dst_i) = match nops {
                1 => (ShiftCount::One, 0),
                2 => {
                    let c = match &ops[0] {
                        TOperand::Imm(e) => {
                            let v = r(e)? as u32;
                            if v == 1 {
                                ShiftCount::One
                            } else {
                                ShiftCount::Imm(v as u8)
                            }
                        }
                        TOperand::Reg8(1) => ShiftCount::Cl,
                        _ => return Err("shift count must be $imm or %cl".into()),
                    };
                    (c, 1)
                }
                _ => return Err(wrong(2)),
            };
            let width = deduce_width(insn.width, &[&ops[dst_i]])?;
            let dst = op_rm(&ops[dst_i], width, r)?;
            RealInsn::Plain(Op::Shift { kind, width, dst, count })
        }
        Shld | Shrd => {
            if nops != 3 {
                return Err(wrong(3));
            }
            let count = match &ops[0] {
                TOperand::Imm(e) => ShiftCount::Imm(r(e)? as u8),
                TOperand::Reg8(1) => ShiftCount::Cl,
                _ => return Err("shld/shrd count must be $imm or %cl".into()),
            };
            let TOperand::Reg(src) = &ops[1] else {
                return Err("shld/shrd need a register filler".into());
            };
            let dst = op_rm(&ops[2], Width::D, r)?;
            if insn.mnem == Shld {
                RealInsn::Plain(Op::Shld { dst, src: *src, count })
            } else {
                RealInsn::Plain(Op::Shrd { dst, src: *src, count })
            }
        }
        Bt(kind) => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let src = op_src(&ops[0], Width::D, r)?;
            let dst = op_rm(&ops[1], Width::D, r)?;
            if matches!(src, Src::Mem(_)) {
                return Err("bt source must be a register or immediate".into());
            }
            RealInsn::Plain(Op::Bt { kind, dst, src })
        }
        Xadd | Cmpxchg => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let width = deduce_width(insn.width, &[&ops[0]])?;
            let TOperand::Reg(srcr) = &ops[0] else {
                return Err("xadd/cmpxchg need a register source".into());
            };
            let dst = op_rm(&ops[1], width, r)?;
            if insn.mnem == Xadd {
                RealInsn::Plain(Op::Xadd { width, dst, src: *srcr })
            } else {
                RealInsn::Plain(Op::Cmpxchg { width, dst, src: *srcr })
            }
        }
        Xchg => {
            if nops != 2 {
                return Err(wrong(2));
            }
            // One side must be a register; the encoder takes (reg, rm).
            match (&ops[0], &ops[1]) {
                (TOperand::Reg(a), other) | (other, TOperand::Reg(a)) => {
                    let rm = op_rm(other, Width::D, r)?;
                    RealInsn::Plain(Op::Xchg { reg: *a, rm })
                }
                _ => return Err("xchg needs at least one register operand".into()),
            }
        }
        Grp3(kind) => {
            if nops != 1 {
                return Err(wrong(1));
            }
            let width = deduce_width(insn.width, &[&ops[0]])?;
            let rm = op_rm(&ops[0], width, r)?;
            RealInsn::Plain(Op::Grp3 { kind, width, rm })
        }
        Imul => match nops {
            1 => {
                let width = deduce_width(insn.width, &[&ops[0]])?;
                let rm = op_rm(&ops[0], width, r)?;
                RealInsn::Plain(Op::Grp3 { kind: Grp3Kind::Imul, width, rm })
            }
            2 => {
                let TOperand::Reg(dst) = &ops[1] else {
                    return Err("imul destination must be a register".into());
                };
                let src = op_rm(&ops[0], Width::D, r)?;
                RealInsn::Plain(Op::Imul2 { dst: *dst, src })
            }
            3 => {
                let TOperand::Imm(e) = &ops[0] else {
                    return Err("three-operand imul needs $imm first".into());
                };
                let TOperand::Reg(dst) = &ops[2] else {
                    return Err("imul destination must be a register".into());
                };
                let src = op_rm(&ops[1], Width::D, r)?;
                RealInsn::Plain(Op::Imul3 { dst: *dst, src, imm: r(e)? as i32 })
            }
            _ => return Err(wrong(2)),
        },
        Inc | Dec => {
            if nops != 1 {
                return Err(wrong(1));
            }
            let width = deduce_width(insn.width, &[&ops[0]])?;
            let rm = op_rm(&ops[0], width, r)?;
            RealInsn::Plain(Op::IncDec { inc: insn.mnem == Inc, width, rm })
        }
        Push => {
            if nops != 1 {
                return Err(wrong(1));
            }
            let src = op_src(&ops[0], Width::D, r)?;
            RealInsn::Plain(Op::Push(src))
        }
        Pop => {
            if nops != 1 {
                return Err(wrong(1));
            }
            let rm = op_rm(&ops[0], Width::D, r)?;
            RealInsn::Plain(Op::Pop(rm))
        }
        Pusha => RealInsn::Plain(Op::Pusha),
        Popa => RealInsn::Plain(Op::Popa),
        Pushf => RealInsn::Plain(Op::Pushf),
        Popf => RealInsn::Plain(Op::Popf),
        Jcc(cond) => match ops.as_slice() {
            [TOperand::Bare(e)] => RealInsn::JccT { cond, target: r(e)? as u32 },
            _ => return Err("conditional jump needs a label target".into()),
        },
        Jmp => match ops.as_slice() {
            [TOperand::Bare(e)] => RealInsn::JmpT { target: r(e)? as u32 },
            [TOperand::Star(inner)] => {
                let rm = op_rm(inner, Width::D, r)?;
                RealInsn::Plain(Op::JmpInd(rm))
            }
            _ => return Err("jmp needs a label or *indirect target".into()),
        },
        Call => match ops.as_slice() {
            [TOperand::Bare(e)] => RealInsn::CallT { target: r(e)? as u32 },
            [TOperand::Star(inner)] => {
                let rm = op_rm(inner, Width::D, r)?;
                RealInsn::Plain(Op::CallInd(rm))
            }
            _ => return Err("call needs a label or *indirect target".into()),
        },
        Ret => match ops.as_slice() {
            [] => RealInsn::Plain(Op::Ret),
            [TOperand::Imm(e)] => RealInsn::Plain(Op::RetImm(r(e)? as u16)),
            _ => return Err("ret takes no operand or $imm".into()),
        },
        Lret => RealInsn::Plain(Op::Lret),
        Leave => RealInsn::Plain(Op::Leave),
        Int => match ops.as_slice() {
            [TOperand::Imm(e)] => RealInsn::Plain(Op::Int(r(e)? as u8)),
            _ => return Err("int needs $vector".into()),
        },
        Int3 => RealInsn::Plain(Op::Int3),
        Into => RealInsn::Plain(Op::Into),
        Iret => RealInsn::Plain(Op::Iret),
        Bound => match ops.as_slice() {
            [TOperand::Reg(reg), TOperand::Mem(m)] => {
                RealInsn::Plain(Op::Bound { reg: *reg, mem: resolve_mem(m, r)? })
            }
            [TOperand::Mem(m), TOperand::Reg(reg)] => {
                RealInsn::Plain(Op::Bound { reg: *reg, mem: resolve_mem(m, r)? })
            }
            _ => return Err("bound needs a register and a memory bounds pair".into()),
        },
        Setcc(cond) => {
            if nops != 1 {
                return Err(wrong(1));
            }
            let rm = op_rm(&ops[0], Width::B, r)?;
            RealInsn::Plain(Op::Setcc { cond, rm })
        }
        Cmov(cond) => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let TOperand::Reg(dst) = &ops[1] else {
                return Err("cmov destination must be a register".into());
            };
            let src = op_rm(&ops[0], Width::D, r)?;
            RealInsn::Plain(Op::Cmov { cond, dst: *dst, src })
        }
        Ud2 => RealInsn::Plain(Op::Ud2),
        Hlt => RealInsn::Plain(Op::Hlt),
        Nop => RealInsn::Plain(Op::Nop),
        Cwde => RealInsn::Plain(Op::Cwde),
        Cdq => RealInsn::Plain(Op::Cdq),
        Bswap => match ops.as_slice() {
            [TOperand::Reg(reg)] => RealInsn::Plain(Op::Bswap(*reg)),
            _ => return Err("bswap needs a 32-bit register".into()),
        },
        Rdtsc => RealInsn::Plain(Op::Rdtsc),
        Cpuid => RealInsn::Plain(Op::Cpuid),
        In => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let width = deduce_width(insn.width, &[&ops[1]])?;
            let port = port_arg(&ops[0], r)?;
            check_acc(&ops[1], width)?;
            RealInsn::Plain(Op::In { width, port })
        }
        Out => {
            if nops != 2 {
                return Err(wrong(2));
            }
            let width = deduce_width(insn.width, &[&ops[0]])?;
            check_acc(&ops[0], width)?;
            let port = port_arg(&ops[1], r)?;
            RealInsn::Plain(Op::Out { width, port })
        }
        Str(kind, width) => RealInsn::Plain(Op::Str { kind, width, rep: insn.rep }),
        Lidt => match ops.as_slice() {
            [TOperand::Mem(m)] => RealInsn::Plain(Op::Lidt(resolve_mem(m, r)?)),
            [TOperand::Bare(e)] => RealInsn::Plain(Op::Lidt(MemRef::abs(r(e)? as u32))),
            _ => return Err("lidt needs a memory operand".into()),
        },
        Cli => RealInsn::Plain(Op::Cli),
        Sti => RealInsn::Plain(Op::Sti),
        Aam => RealInsn::Plain(Op::Aam(optional_imm(ops, r, 10)?)),
        Aad => RealInsn::Plain(Op::Aad(optional_imm(ops, r, 10)?)),
        Xlat => RealInsn::Plain(Op::Xlat),
        Cmc => RealInsn::Plain(Op::Cmc),
        Clc => RealInsn::Plain(Op::Clc),
        Stc => RealInsn::Plain(Op::Stc),
        Cld => RealInsn::Plain(Op::Cld),
        Std => RealInsn::Plain(Op::Std),
        Sahf => RealInsn::Plain(Op::Sahf),
        Lahf => RealInsn::Plain(Op::Lahf),
    };
    Ok(real)
}

fn optional_imm(ops: &[TOperand], r: &mut Resolver<'_>, default: u8) -> Result<u8, String> {
    match ops {
        [] => Ok(default),
        [TOperand::Imm(e)] => Ok(r(e)? as u8),
        _ => Err("expected optional $imm".into()),
    }
}

fn port_arg(op: &TOperand, r: &mut Resolver<'_>) -> Result<PortArg, String> {
    match op {
        TOperand::Imm(e) => Ok(PortArg::Imm(r(e)? as u8)),
        TOperand::Dx => Ok(PortArg::Dx),
        _ => Err("port must be $imm8 or %dx".into()),
    }
}

fn check_acc(op: &TOperand, width: Width) -> Result<(), String> {
    match (op, width) {
        (TOperand::Reg8(0), Width::B) => Ok(()),
        (TOperand::Reg(kfi_isa::Reg::Eax), Width::D) => Ok(()),
        _ => Err("in/out data operand must be %al or %eax".into()),
    }
}

fn emit_real(real: &RealInsn, addr: u32, wide: bool) -> Result<Vec<u8>, EmitFail> {
    match real {
        RealInsn::Plain(op) => {
            let r = if wide { encode_wide(op) } else { encode(op) };
            r.map_err(|e| EmitFail::Error(e.to_string()))
        }
        RealInsn::JccT { cond, target } => {
            if wide {
                Ok(jcc_near(*cond, target.wrapping_sub(addr.wrapping_add(6)) as i32))
            } else {
                jcc_short(*cond, target.wrapping_sub(addr.wrapping_add(2)) as i32)
                    .map_err(|_| EmitFail::NeedWide)
            }
        }
        RealInsn::JmpT { target } => {
            if wide {
                Ok(jmp_near(target.wrapping_sub(addr.wrapping_add(5)) as i32))
            } else {
                jmp_short(target.wrapping_sub(addr.wrapping_add(2)) as i32)
                    .map_err(|_| EmitFail::NeedWide)
            }
        }
        RealInsn::CallT { target } => {
            Ok(kfi_isa::call_rel(target.wrapping_sub(addr.wrapping_add(5)) as i32))
        }
    }
}

/// A multi-source assembler.
///
/// # Examples
///
/// ```
/// use kfi_asm::{Assembler, AsmOptions};
/// let mut a = Assembler::new();
/// a.add_source("demo.s", ".text\nstart:\n  movl $1, %eax\n  ret\n")?;
/// let prog = a.finish(&AsmOptions { text_base: 0x1000, data_base: None })?;
/// assert_eq!(prog.symbols.addr_of("start"), Some(0x1000));
/// assert_eq!(prog.text.bytes, vec![0xb8, 1, 0, 0, 0, 0xc3]);
/// # Ok::<(), kfi_asm::AsmError>(())
/// ```
pub struct Assembler {
    parser: Parser,
}

impl Default for Assembler {
    fn default() -> Assembler {
        Assembler::new()
    }
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler { parser: Parser::new() }
    }

    /// Parses and appends one source file.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with file/line position.
    pub fn add_source(&mut self, name: &str, source: &str) -> Result<(), AsmError> {
        self.parser.parse_source(name, source)
    }

    /// Lays out, resolves and emits the program.
    ///
    /// # Errors
    ///
    /// Undefined symbols, unencodable operand combinations, duplicate
    /// labels, or a non-converging layout.
    pub fn finish(self, opts: &AsmOptions) -> Result<Program, AsmError> {
        Layout::run(self.parser, opts)
    }
}

/// Convenience one-shot assembly of a single source string.
///
/// # Errors
///
/// See [`Assembler::finish`].
pub fn assemble(source: &str, opts: &AsmOptions) -> Result<Program, AsmError> {
    let mut a = Assembler::new();
    a.add_source("<input>", source)?;
    a.finish(opts)
}

struct Layout {
    items: Vec<Item>,
    equs: HashMap<String, u32>,
    sizes: Vec<u32>,
    wide: Vec<bool>,
}

const PLACEHOLDER: i64 = 0x0c0f_fee0;

impl Layout {
    fn run(parser: Parser, opts: &AsmOptions) -> Result<Program, AsmError> {
        let equs = parser.equs.clone();
        let items = parser.items;
        let n = items.len();
        let mut l = Layout { items, equs, sizes: vec![0; n], wide: vec![false; n] };
        l.init_sizes()?;

        let mut symbols;
        for iter in 0..64 {
            let (labels, _) = l.walk(opts)?;
            symbols = l.equs.clone();
            symbols.extend(labels.clone());
            let mut changed = false;
            // Re-emit every instruction against the new symbol values.
            let (_, placements) = l.walk(opts)?;
            for (i, addr) in placements {
                let Item::Insn(insn) = &l.items[i] else { continue };
                let mut resolver = resolver_for(&symbols, addr);
                let real = realize(insn, &mut resolver).map_err(|m| err_at(insn, m))?;
                match emit_real(&real, addr, l.wide[i]) {
                    Ok(bytes) => {
                        if bytes.len() as u32 != l.sizes[i] {
                            if !l.wide[i] {
                                l.wide[i] = true;
                                let wb =
                                    emit_real(&real, addr, true).map_err(|f| emit_err(insn, f))?;
                                l.sizes[i] = wb.len() as u32;
                            } else {
                                l.sizes[i] = bytes.len() as u32;
                            }
                            changed = true;
                        }
                    }
                    Err(EmitFail::NeedWide) => {
                        l.wide[i] = true;
                        let wb = emit_real(&real, addr, true).map_err(|f| emit_err(insn, f))?;
                        l.sizes[i] = wb.len() as u32;
                        changed = true;
                    }
                    Err(f) => return Err(emit_err(insn, f)),
                }
            }
            if !changed {
                return l.finalize(opts, &symbols);
            }
            let _ = iter;
        }
        Err(AsmError { file: "<layout>".into(), line: 0, msg: "layout did not converge".into() })
    }

    /// Initial size estimates: branches optimistic-short, everything else
    /// emitted with a large placeholder for unresolved symbols.
    fn init_sizes(&mut self) -> Result<(), AsmError> {
        for i in 0..self.items.len() {
            let Item::Insn(insn) = &self.items[i] else { continue };
            match insn.mnem {
                Mnem::Jcc(_) if matches!(insn.ops.as_slice(), [TOperand::Bare(_)]) => {
                    self.sizes[i] = 2;
                }
                Mnem::Jmp if matches!(insn.ops.as_slice(), [TOperand::Bare(_)]) => {
                    self.sizes[i] = 2;
                }
                Mnem::Call if matches!(insn.ops.as_slice(), [TOperand::Bare(_)]) => {
                    self.sizes[i] = 5;
                }
                _ => {
                    let equs = &self.equs;
                    let mut resolver = |e: &Expr| -> Result<i64, String> {
                        Ok(e.eval(equs, 0).unwrap_or(PLACEHOLDER))
                    };
                    let real = realize(insn, &mut resolver).map_err(|m| err_at(insn, m))?;
                    let bytes = emit_real(&real, 0, false).map_err(|f| emit_err(insn, f))?;
                    self.sizes[i] = bytes.len() as u32;
                }
            }
        }
        Ok(())
    }

    /// Walks items assigning addresses. Returns the label table and the
    /// (item index, address) placement of every instruction/data item.
    #[allow(clippy::type_complexity)]
    fn walk(
        &self,
        opts: &AsmOptions,
    ) -> Result<(HashMap<String, u32>, Vec<(usize, u32)>), AsmError> {
        let mut labels = HashMap::new();
        let mut placements = Vec::new();
        // Two passes over sections: first text to learn its size, then data.
        let mut text_len = 0u32;
        for pass in 0..2 {
            let (section, base) = if pass == 0 {
                (SectionId::Text, opts.text_base)
            } else {
                let data_base = opts
                    .data_base
                    .unwrap_or_else(|| (opts.text_base + text_len).next_multiple_of(4096));
                (SectionId::Data, data_base)
            };
            let mut addr = base;
            let mut current = SectionId::Text;
            for (i, item) in self.items.iter().enumerate() {
                match item {
                    Item::Section(s) => current = *s,
                    _ if current != section => continue,
                    Item::Label(name) => {
                        if labels.insert(name.clone(), addr).is_some() && pass == 0 {
                            return Err(AsmError {
                                file: "<layout>".into(),
                                line: 0,
                                msg: format!("duplicate label `{name}`"),
                            });
                        }
                    }
                    Item::Insn(_) => {
                        placements.push((i, addr));
                        addr += self.sizes[i];
                    }
                    Item::Data { width, exprs, .. } => {
                        placements.push((i, addr));
                        addr += *width as u32 * exprs.len() as u32;
                    }
                    Item::Bytes(b) => {
                        placements.push((i, addr));
                        addr += b.len() as u32;
                    }
                    Item::Align(a) => {
                        placements.push((i, addr));
                        addr = addr.next_multiple_of(*a);
                    }
                    Item::Space(n, _) => {
                        placements.push((i, addr));
                        addr += n;
                    }
                    Item::FuncMark(_) | Item::Global(_) | Item::Subsystem(_) => {}
                }
            }
            if pass == 0 {
                text_len = addr - base;
            }
        }
        Ok((labels, placements))
    }

    fn finalize(
        self,
        opts: &AsmOptions,
        symbols: &HashMap<String, u32>,
    ) -> Result<Program, AsmError> {
        let (labels, _) = self.walk(opts)?;
        let data_base = opts.data_base.unwrap_or_else(|| {
            // Recompute text length for the default placement.
            let text_end = labels
                .values()
                .copied()
                .filter(|a| *a >= opts.text_base)
                .max()
                .unwrap_or(opts.text_base);
            let _ = text_end;
            0 // replaced below by the walk-based layout
        });
        let _ = data_base;

        // Emit section bytes.
        let mut text = Vec::new();
        let mut data = Vec::new();
        let mut func_marks: Vec<String> = Vec::new();
        let mut globals: Vec<String> = Vec::new();
        let mut label_meta: HashMap<String, (SectionId, Option<String>)> = HashMap::new();

        let mut text_len = 0u32;
        let mut data_base_actual = 0u32;
        for pass in 0..2 {
            let (section, base) = if pass == 0 {
                (SectionId::Text, opts.text_base)
            } else {
                let b = opts
                    .data_base
                    .unwrap_or_else(|| (opts.text_base + text_len).next_multiple_of(4096));
                data_base_actual = b;
                (SectionId::Data, b)
            };
            let out = if pass == 0 { &mut text } else { &mut data };
            let mut addr = base;
            let mut current = SectionId::Text;
            let mut subsystem: Option<String> = None;
            for (i, item) in self.items.iter().enumerate() {
                match item {
                    Item::Section(s) => current = *s,
                    Item::Subsystem(s) => {
                        if pass == 0 {
                            // Subsystem context is global source order;
                            // track it on the text pass only.
                        }
                        subsystem = Some(s.clone());
                    }
                    Item::FuncMark(n) => {
                        if pass == 0 {
                            func_marks.push(n.clone());
                        }
                    }
                    Item::Global(n) => {
                        if pass == 0 {
                            globals.push(n.clone());
                        }
                    }
                    _ if current != section => continue,
                    Item::Label(name) => {
                        label_meta
                            .entry(name.clone())
                            .or_insert_with(|| (section, subsystem.clone()));
                    }
                    Item::Insn(insn) => {
                        let mut resolver = resolver_for(symbols, addr);
                        let real = realize(insn, &mut resolver).map_err(|m| err_at(insn, m))?;
                        let bytes =
                            emit_real(&real, addr, self.wide[i]).map_err(|f| emit_err(insn, f))?;
                        debug_assert_eq!(bytes.len() as u32, self.sizes[i]);
                        addr += bytes.len() as u32;
                        out.extend_from_slice(&bytes);
                    }
                    Item::Data { width, exprs, file, line } => {
                        for e in exprs {
                            let v = e.eval(symbols, addr).map_err(|m| AsmError {
                                file: file.clone(),
                                line: *line,
                                msg: m.to_string(),
                            })? as u64;
                            out.extend_from_slice(&v.to_le_bytes()[..*width as usize]);
                            addr += *width as u32;
                        }
                    }
                    Item::Bytes(b) => {
                        out.extend_from_slice(b);
                        addr += b.len() as u32;
                    }
                    Item::Align(a) => {
                        let target = addr.next_multiple_of(*a);
                        let fill = if section == SectionId::Text { 0x90 } else { 0 };
                        while addr < target {
                            out.push(fill);
                            addr += 1;
                        }
                    }
                    Item::Space(n, fill) => {
                        out.extend(std::iter::repeat(*fill).take(*n as usize));
                        addr += n;
                    }
                }
            }
            if pass == 0 {
                text_len = addr - base;
            }
        }

        // Build symbols.
        let mut syms = Vec::new();
        for (name, value) in &labels {
            let (section, subsystem) =
                label_meta.get(name).cloned().unwrap_or((SectionId::Text, None));
            let kind = if func_marks.iter().any(|f| f == name) {
                SymbolKind::Function
            } else {
                SymbolKind::Label
            };
            let _ = section;
            syms.push(Symbol {
                name: name.clone(),
                value: *value,
                size: 0,
                kind,
                subsystem,
                global: globals.iter().any(|g| g == name),
            });
        }
        for (name, value) in &self.equs {
            syms.push(Symbol {
                name: name.clone(),
                value: *value,
                size: 0,
                kind: SymbolKind::Constant,
                subsystem: None,
                global: false,
            });
        }
        // Missing .type targets are an error (catches typos).
        for f in &func_marks {
            if !labels.contains_key(f) {
                return Err(AsmError {
                    file: "<layout>".into(),
                    line: 0,
                    msg: format!(".type for undefined symbol `{f}`"),
                });
            }
        }

        // Function sizes: distance to the next function or section end.
        let text_end = opts.text_base + text_len;
        let data_end = data_base_actual + data.len() as u32;
        let mut func_addrs: Vec<u32> =
            syms.iter().filter(|s| s.kind == SymbolKind::Function).map(|s| s.value).collect();
        func_addrs.sort_unstable();
        for s in &mut syms {
            if s.kind == SymbolKind::Function {
                let next = func_addrs.iter().copied().find(|a| *a > s.value).unwrap_or(u32::MAX);
                let section_end = if s.value >= data_base_actual && data_base_actual > 0 {
                    data_end
                } else {
                    text_end
                };
                s.size = next.min(section_end).saturating_sub(s.value);
            }
        }

        Ok(Program {
            text: Section { name: ".text".into(), base: opts.text_base, bytes: text },
            data: Section { name: ".data".into(), base: data_base_actual, bytes: data },
            symbols: SymbolTable::build(syms),
        })
    }
}

fn resolver_for<'a>(
    symbols: &'a HashMap<String, u32>,
    addr: u32,
) -> impl FnMut(&Expr) -> Result<i64, String> + 'a {
    move |e: &Expr| e.eval(symbols, addr).map_err(|m| m.to_string())
}

fn err_at(insn: &GenInsn, msg: String) -> AsmError {
    AsmError { file: insn.file.clone(), line: insn.line, msg }
}

fn emit_err(insn: &GenInsn, f: EmitFail) -> AsmError {
    let msg = match f {
        EmitFail::NeedWide => "internal: wide emission failed".to_string(),
        EmitFail::Error(m) => m,
    };
    err_at(insn, msg)
}
