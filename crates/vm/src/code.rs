//! The register IR the lowering pass produces and `cj-rvm` executes.
//!
//! One [`RvmProgram`] holds every method's code plus the tables the
//! lowering pass resolved once so execution never does a name lookup:
//! per-class **vtables** (virtual dispatch is an index into
//! `vtables[runtime_class]`), a **subclass matrix** (casts are one boolean
//! read), and per-method **site tables** for the operations that carry
//! structured operands (allocations, calls, casts).
//!
//! Every method body is three-address register code:
//!
//! - **registers** are one flat per-frame file: slots `0..nlocals` are
//!   the method's variable slots (so the site tables' variable operands
//!   are register operands verbatim), and slots `nlocals..nregs` are
//!   temporaries holding intermediate values;
//! - **operands are folded into instructions**: constants, field
//!   indices, vtable-resolved call sites and region slots all ride in
//!   the instruction word, so the hot loop never touches an operand
//!   stack;
//! - **superinstructions** fuse the hottest idioms into one dispatch:
//!   compare-and-branch ([`ROp::JmpCmp`]* — with a register or
//!   constant-pool right-hand side), add-immediate and the loop-closing
//!   increment-and-jump ([`ROp::AddImm`]/[`ROp::IncJump`]), and
//!   load-field-then-call ([`ROp::FieldCall`]).
//!
//! `letreg` lowers to explicit [`ROp::RegPush`]/[`ROp::RegPop`]
//! delimiting the extent of a frame-local region slot, and `new cn⟨r…⟩`
//! to [`ROp::NewObj`] whose site says which region slot to allocate in —
//! the paper's dynamic semantics, made explicit in the instruction
//! stream.
//!
//! Instructions are a fixed-width struct (opcode + three register
//! operands + a table index + an immediate); the `cj-rvm` executor
//! dispatches with one `match` on the opcode.

use cj_frontend::ast::BinOp;
use cj_frontend::span::Span;
use cj_frontend::types::Prim;
use cj_runtime::heap::SlotTy;
use cj_runtime::Value;

/// A region operand, resolved at lowering time: either the global heap or
/// a frame-local region slot (a class/method region parameter or a
/// `letreg`-bound region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegRef {
    /// The global heap region.
    Heap,
    /// Frame region slot `.0`.
    Slot(u16),
}

/// Comparison kind of a fused compare-and-branch (`Eq`/`Ne` use the
/// reference-identity [`value_eq`](cj_runtime::value::value_eq), the
/// semantics of `==` on every engine).
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
    /// The comparison a [`BinOp`] performs, if it is one.
    pub fn of(op: BinOp) -> Option<CmpOp> {
        match op {
            BinOp::Lt => Some(CmpOp::Lt),
            BinOp::Le => Some(CmpOp::Le),
            BinOp::Gt => Some(CmpOp::Gt),
            BinOp::Ge => Some(CmpOp::Ge),
            BinOp::Eq => Some(CmpOp::Eq),
            BinOp::Ne => Some(CmpOp::Ne),
            _ => None,
        }
    }

    /// Decodes the `c` operand of a compare-and-branch instruction.
    #[inline]
    pub fn from_code(c: u16) -> CmpOp {
        [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ][c as usize]
    }

    /// Encodes this comparison for the `c` operand.
    #[inline]
    pub fn code(self) -> u16 {
        self as u16
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

/// The operators [`ROp::Binary`] computes, in `t`-operand code order.
const BINARY_OPS: [BinOp; 11] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];

/// Encodes a [`BinOp`] for the generic [`ROp::Binary`] instruction.
pub fn bin_code(op: BinOp) -> u32 {
    let code = BINARY_OPS.iter().position(|&o| o == op);
    code.expect("short-circuit ops lower to jumps") as u32
}

/// Decodes the `t` operand of [`ROp::Binary`] (the inverse of
/// [`bin_code`]).
pub fn bin_of(code: u32) -> BinOp {
    BINARY_OPS[code as usize]
}

/// Register-IR opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ROp {
    /// `r[a] = consts[t]`.
    LoadConst,
    /// `r[a] = r[b]`.
    Move,
    /// `r[a] = r[b] + imm` (wrapping int add — `+`/`-` with an integer
    /// literal operand).
    AddImm,
    /// `r[a] = op(r[b])` with `c` the unary-op code (0 = neg, 1 = not).
    Unary,
    /// `r[a] = r[b] ⊕ r[c]` with `t` the [`bin_code`] of the operator.
    Binary,
    /// `r[a] = decode(ty, field idx c of the object in r[b])`.
    GetField,
    /// `field idx c of the object in r[a] = encode(r[b])`.
    SetField,
    /// `r[a] = decode(ty, element r[c] of the array in r[b])`.
    Index,
    /// `element r[b] of the array in r[a] = encode(r[c])`.
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
    /// Call per [`CallSite`] `t`; the result lands in the site's `dst`.
    Call,
    /// Superinstruction: `r[a] = decode(ty, field c of r[b])`, then call
    /// per [`CallSite`] `t` — the let-bound `recv.field` argument feed
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

impl ROp {
    /// Whether `t` is a jump target.
    pub fn is_jump(self) -> bool {
        matches!(
            self,
            ROp::Jump
                | ROp::JmpIf
                | ROp::JmpIfNot
                | ROp::JmpCmp
                | ROp::JmpCmpNot
                | ROp::JmpCmpC
                | ROp::JmpCmpNotC
                | ROp::IncJump
        )
    }

    /// Whether this is a superinstruction (one dispatch doing the work of
    /// several plain instructions).
    pub fn is_fused(self) -> bool {
        matches!(
            self,
            ROp::AddImm
                | ROp::FieldCall
                | ROp::JmpCmp
                | ROp::JmpCmpNot
                | ROp::JmpCmpC
                | ROp::JmpCmpNotC
                | ROp::IncJump
        )
    }
}

/// One fixed-width register instruction. Field meaning is per-opcode
/// (see [`ROp`]); unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RInstr {
    /// Opcode.
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
    /// Field/element representation a memory read decodes (the
    /// [`SlotTy`] of the heap's payload words).
    pub ty: SlotTy,
}

impl RInstr {
    /// `op` with register operands `a`, `b`, `c` and table index or jump
    /// target `t`; no immediate, and an `Int` representation.
    pub fn new(op: ROp, a: u16, b: u16, c: u16, t: u32) -> RInstr {
        let (imm, ty) = (0, SlotTy::Int);
        RInstr {
            op,
            a,
            b,
            c,
            t,
            imm,
            ty,
        }
    }
}

/// Static callee of a [`CallSite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// A static method, fully resolved to a function index.
    Static(u32),
    /// Virtual dispatch: `vtables[class_of(r[recv])][vslot]`.
    Virtual {
        /// Vtable slot, assigned at lowering time.
        vslot: u32,
        /// Receiver register.
        recv: u16,
    },
}

/// One call site: target, argument registers, the region instantiation
/// for the callee's abstraction parameters, the caller register receiving
/// the result, and the call's source span (receiver/limit faults at a
/// fused [`ROp::FieldCall`] must still report the *call*'s span, while
/// the field half reports the field's).
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// Who is called.
    pub target: CallTarget,
    /// Caller registers passed positionally to the callee's parameters
    /// (the kernel language guarantees arguments are variables).
    pub args: Vec<u16>,
    /// Region arguments, resolved against the caller's frame.
    pub inst: Vec<RegRef>,
    /// Where the callee's *method* region parameters start inside `inst`
    /// (the declared class's region arity) — virtual calls bind the class
    /// prefix from the receiver object instead.
    pub tail_start: u16,
    /// Caller register the return value lands in.
    pub dst: u16,
    /// The call expression's source span.
    pub span: Span,
}

/// One `new cn⟨r…⟩(v…)` site.
#[derive(Debug, Clone, PartialEq)]
pub struct NewSite {
    /// Class being constructed.
    pub class: u32,
    /// Region arguments; the object lives in `regions[0]` and records the
    /// full vector (virtual calls read the class-parameter prefix back).
    pub regions: Vec<RegRef>,
    /// Field initializers: caller registers, in constructor order.
    pub args: Vec<u16>,
}

/// One `new p[e]⟨r⟩` site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArraySite {
    /// Element primitive.
    pub elem: Prim,
    /// Region the array lives in.
    pub region: RegRef,
}

/// One `(cn) v` site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CastSite {
    /// Subject register.
    pub var: u16,
    /// Target class.
    pub class: u32,
}

/// One register-lowered method body plus everything needed to build its
/// frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RvmMethod {
    /// Display name (`cn.mn` or `mn`), for debugging and bench reports.
    pub name: String,
    /// The instruction stream; every path ends in [`ROp::Ret`].
    pub code: Vec<RInstr>,
    /// Source span per instruction (for structured runtime errors),
    /// parallel to `code`.
    pub spans: Vec<Span>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Default value per *variable* register (frame initialization;
    /// temporaries initialize to unit).
    pub defaults: Vec<Value>,
    /// Parameter registers, in declaration order (excluding `this`).
    pub params: Vec<u16>,
    /// Whether register 0 is a `this` receiver.
    pub has_this: bool,
    /// Of the region slots, how many are the owning class's region
    /// parameters (bound from the receiver at virtual calls).
    pub class_params: u16,
    /// Of the region slots, how many are abstraction parameters (class
    /// prefix + method region parameters, bound at calls).
    pub abs_params: u16,
    /// Total region slots (abstraction parameters, then one per `letreg`
    /// binding).
    pub region_slots: u16,
    /// Frame register-file size: variable slots then temporaries.
    pub nregs: u16,
    /// Allocation sites.
    pub news: Vec<NewSite>,
    /// Array-allocation sites.
    pub arrays: Vec<ArraySite>,
    /// Call sites, with destination registers and spans.
    pub calls: Vec<CallSite>,
    /// Cast sites.
    pub casts: Vec<CastSite>,
}

/// A fully lowered program: per-method register code plus the dispatch
/// tables resolved at lowering time.
#[derive(Debug, Clone)]
pub struct RvmProgram {
    /// Every method, instance methods first (in
    /// [`RProgram::all_rmethods`](cj_infer::RProgram::all_rmethods)
    /// order), then statics.
    pub methods: Vec<RvmMethod>,
    /// Per-class virtual dispatch table: `vtables[class][vslot]` is the
    /// function index of the most-derived override.
    pub vtables: Vec<Vec<u32>>,
    /// `subclass[a][b]` ⇔ class `a` is `b` or inherits from it.
    pub subclass: Vec<Vec<bool>>,
    /// The static `main` entry point, if one exists: its function index
    /// and the span of its declaration.
    pub main: Option<(u32, Span)>,
}

impl RvmProgram {
    /// Total register instructions across all methods (a code-size
    /// metric for the bench harness).
    pub fn instruction_count(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }

    /// Total superinstructions across all methods.
    pub fn fused_count(&self) -> u64 {
        let code = self.methods.iter().flat_map(|m| &m.code);
        code.filter(|i| i.op.is_fused()).count() as u64
    }
}
