//! The register IR the direct-threaded engine executes.
//!
//! One [`RvmProgram`] mirrors a [`CompiledProgram`]'s global tables
//! (function indices, vtables, subclass matrix) but every method body is
//! re-lowered from stack bytecode into three-address register code:
//!
//! - **registers** are one flat per-frame file: slots `0..nlocals` are
//!   the method's variable slots (same numbering as the stack bytecode, so the
//!   site tables' variable operands are register operands verbatim), and
//!   slots `nlocals..nregs` are *stack-position temporaries* — the
//!   canonical home of the value the stack machine would hold at that
//!   operand-stack depth;
//! - **operands are folded into instructions**: constants, field
//!   indices, vtable-resolved call sites and region slots all ride in
//!   the instruction word, so the hot loop never touches an operand
//!   stack;
//! - **superinstructions** fuse the hottest stack idioms into one
//!   dispatch: compare-and-branch ([`ROp::JmpCmp`]* — with a register or
//!   constant-pool right-hand side), add-immediate and the loop-closing
//!   increment-and-jump ([`ROp::AddImm`]/[`ROp::IncJump`]), and
//!   load-field-then-call ([`ROp::FieldCall`]).
//!
//! Instructions are a fixed-width struct (opcode + three register
//! operands + a table index + an immediate); the executor indexes a
//! dense fn-pointer table with the opcode — see [`exec`](crate::exec).
//!
//! [`CompiledProgram`]: cj_vm::bytecode::CompiledProgram

use cj_frontend::span::Span;
use cj_frontend::types::MethodId;
use cj_vm::bytecode::{ArraySite, CallTarget, CastSite, Lit, NewSite, RegRef, SlotTy};
use std::collections::HashMap;
use std::sync::Arc;

/// Comparison kind of a fused compare-and-branch (`Eq`/`Ne` use the
/// engine's reference-identity `value_eq`, the semantics of
/// [`Instr::Binary`] in the stack bytecode).
///
/// [`Instr::Binary`]: cj_vm::bytecode::Instr::Binary
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Decodes the `c` operand of a compare-and-branch instruction.
    #[inline]
    pub fn from_code(c: u16) -> CmpOp {
        match c {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Gt,
            3 => CmpOp::Ge,
            4 => CmpOp::Eq,
            _ => CmpOp::Ne,
        }
    }

    /// Encodes this comparison for the `c` operand.
    #[inline]
    pub fn code(self) -> u16 {
        match self {
            CmpOp::Lt => 0,
            CmpOp::Le => 1,
            CmpOp::Gt => 2,
            CmpOp::Ge => 3,
            CmpOp::Eq => 4,
            CmpOp::Ne => 5,
        }
    }

    /// The comparison with its operands swapped (`a < b` ⇔ `b > a`) —
    /// used to move a constant operand to the right-hand side.
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

/// Register-IR opcodes. The discriminant is the index into the
/// executor's dense handler table, so the order here and the order of
/// `HANDLERS` in `exec.rs` must match (pinned by a unit test there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ROp {
    /// `r[a] = consts[t]`.
    LoadConst,
    /// `r[a] = r[b]`.
    Move,
    /// `r[a] = r[b] + imm` (wrapping int add — a fused
    /// `Const; Binary(Add/Sub)` with an integer literal operand).
    AddImm,
    /// `r[a] = op(r[b])` with `c` the unary-op code (0 = neg, 1 = not).
    Unary,
    /// `r[a] = r[b] ⊕ r[c]` with `t` the
    /// [`BinOp`](cj_frontend::ast::BinOp) code.
    Binary,
    /// `r[a] = decode(ty, field idx c of the object in r[b])`.
    GetField,
    /// `field idx c of the object in r[a] = encode(ty, r[b])`.
    SetField,
    /// `r[a] = decode(ty, element r[c] of the array in r[b])`.
    Index,
    /// `element r[b] of the array in r[a] = encode(ty, r[c])`.
    SetIndex,
    /// `r[a] = length of the array in r[b]`.
    ArrayLen,
    /// `r[a] = new object` per [`NewSite`] `t`.
    NewObj,
    /// `r[a] = new array` of length `r[b]` per [`ArraySite`] `t`.
    NewArr,
    /// Enter a `letreg`: create a region (a bump-pointer arena) and bind
    /// it to frame region slot `a`.
    RegPush,
    /// Leave a `letreg`: free region slot `a`'s arena wholesale.
    RegPop,
    /// Call per [`RCallSite`] `t`; the result lands in the site's `dst`.
    Call,
    /// Superinstruction: `r[a] = decode(ty, field c of r[b])`, then call
    /// per [`RCallSite`] `t` — the let-bound `recv.field` argument feed
    /// of every recursive traversal, in one dispatch.
    FieldCall,
    /// `r[a] = cast` per [`CastSite`] `t`.
    Cast,
    /// Unconditional jump to `t`.
    Jump,
    /// Jump to `t` when `r[a]` is true.
    JmpIf,
    /// Jump to `t` when `r[a]` is false.
    JmpIfNot,
    /// Fused compare-and-branch: jump to `t` when `r[a] ⊙ r[b]` holds.
    JmpCmp,
    /// Jump to `t` when `r[a] ⊙ r[b]` does **not** hold.
    JmpCmpNot,
    /// Jump to `t` when `r[a] ⊙ consts[imm]` holds.
    JmpCmpC,
    /// Jump to `t` when `r[a] ⊙ consts[imm]` does **not** hold.
    JmpCmpNotC,
    /// Superinstruction: `r[a] = r[a] + imm; jump t` — a loop-closing
    /// induction-variable bump in one dispatch.
    IncJump,
    /// Record `r[a]`'s rendering in the print log.
    Print,
    /// Return `r[a]` to the caller's destination register.
    Ret,
}

/// Number of opcodes (the handler-table length).
pub const OP_COUNT: usize = 27;

/// One fixed-width register instruction. Field meaning is per-opcode
/// (see [`ROp`]); unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RInstr {
    /// Opcode — the handler-table index.
    pub op: ROp,
    /// First register operand (usually the destination).
    pub a: u16,
    /// Second register operand.
    pub b: u16,
    /// Third register operand / small code (field index, cmp/unary op).
    pub c: u16,
    /// Table index or jump target.
    pub t: u32,
    /// Immediate: `AddImm`/`IncJump` addend, `JmpCmp*C` constant-pool
    /// index.
    pub imm: i64,
    /// Field/element representation for the memory opcodes.
    pub ty: SlotTy,
}

impl RInstr {
    /// An instruction with every operand zeroed.
    pub fn new(op: ROp) -> RInstr {
        RInstr {
            op,
            a: 0,
            b: 0,
            c: 0,
            t: 0,
            imm: 0,
            ty: SlotTy::Int,
        }
    }
}

/// A call site in register code: the stack bytecode's [`CallSite`] plus the
/// caller register receiving the result and the call's source span
/// (receiver/limit faults at a fused [`ROp::FieldCall`] must still
/// report the *call*'s span, while the field half reports the field's).
///
/// [`CallSite`]: cj_vm::bytecode::CallSite
#[derive(Debug, Clone, PartialEq)]
pub struct RCallSite {
    /// Who is called.
    pub target: CallTarget,
    /// Caller registers passed positionally to the callee's parameters
    /// (variable slots, unchanged from the stack form).
    pub args: Vec<u16>,
    /// Region arguments, resolved against the caller's frame.
    pub inst: Vec<RegRef>,
    /// Where the callee's *method* region parameters start inside
    /// `inst`.
    pub tail_start: u16,
    /// Caller register the return value lands in.
    pub dst: u16,
    /// The call expression's source span.
    pub span: Span,
}

/// One register-lowered method body.
#[derive(Debug, Clone, PartialEq)]
pub struct RvmMethod {
    /// Display name (`cn.mn` or `mn`).
    pub name: String,
    /// The instruction stream; ends in [`ROp::Ret`].
    pub code: Vec<RInstr>,
    /// Source span per instruction, parallel to `code`.
    pub spans: Vec<Span>,
    /// Constant pool (the stack method's pool, possibly extended with
    /// folded defaults).
    pub consts: Vec<Lit>,
    /// Default value per *variable* register (frame initialization;
    /// temporaries initialize to unit).
    pub defaults: Vec<Lit>,
    /// Parameter registers, in declaration order (excluding `this`).
    pub params: Vec<u16>,
    /// Whether register 0 is a `this` receiver.
    pub has_this: bool,
    /// Class region parameters (bound from the receiver at virtual
    /// calls).
    pub class_params: u16,
    /// Abstraction region parameters (class prefix + method parameters).
    pub abs_params: u16,
    /// Total frame region slots.
    pub region_slots: u16,
    /// Frame register-file size: variable slots then stack-position
    /// temporaries.
    pub nregs: u16,
    /// Allocation sites (shared shape with the stack bytecode).
    pub news: Vec<NewSite>,
    /// Array-allocation sites.
    pub arrays: Vec<ArraySite>,
    /// Call sites, with destination registers and spans.
    pub calls: Vec<RCallSite>,
    /// Cast sites.
    pub casts: Vec<CastSite>,
    /// Statically fused superinstructions in this body (a lowering
    /// metric).
    pub fused: u32,
}

/// A fully register-lowered program.
#[derive(Debug, Clone)]
pub struct RvmProgram {
    /// Every method, same indexing as the source
    /// [`CompiledProgram`](cj_vm::bytecode::CompiledProgram).
    pub methods: Vec<Arc<RvmMethod>>,
    /// Function index per source method id.
    pub func_of: HashMap<MethodId, u32>,
    /// Per-class virtual dispatch table.
    pub vtables: Vec<Vec<u32>>,
    /// `subclass[a][b]` ⇔ class `a` is `b` or inherits from it.
    pub subclass: Vec<Vec<bool>>,
    /// The static `main` entry point, if one exists.
    pub main: Option<u32>,
}

impl RvmProgram {
    /// Total register instructions across all methods.
    pub fn instruction_count(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }

    /// Total statically fused superinstructions across all methods.
    pub fn fused_count(&self) -> u64 {
        self.methods.iter().map(|m| u64::from(m.fused)).sum()
    }
}
