//! The register IR the lowering pass produces and `cj-rvm` executes.
//!
//! One [`RvmProgram`] holds every method's code plus the tables the
//! lowering pass resolved once so execution never does a name lookup:
//! per-class **vtables** (virtual dispatch is an index into
//! `vtables[runtime_class]`), a pre-order numbering of the class tree
//! (a cast is two integer compares, see [`ClassTree`]), and per-method
//! **site tables** for the operations that carry structured operands
//! (allocations, calls, casts).
//!
//! Every method body is three-address register code:
//!
//! - **registers** are one flat per-frame file: slots `0..nlocals` are
//!   the method's variable slots (so the site tables' variable operands
//!   are register operands verbatim), then temporaries holding
//!   intermediate values, then one read-only **constant register** per
//!   distinct literal of the method. The frame template
//!   ([`RvmMethod::frame`]) holds the constants, so any operand may be a
//!   literal and no instruction loads one;
//! - **opcodes are typed**: lowering knows every operand's normal type,
//!   so `int` and `float` arithmetic and comparisons each have their own
//!   opcode ([`ROp::IAdd`], [`ROp::FLt`], …) that reads its operands
//!   without inspecting an operator code. Only `==`/`!=` on references,
//!   booleans and `null` use the generic [`ROp::Eq`]/[`ROp::Ne`];
//! - **superinstructions** fuse the hottest idioms into one dispatch:
//!   compare-and-branch ([`ROp::JmpILt`] and its siblings), load-field-
//!   then-call ([`ROp::FieldCall`]), and leave-`letreg`s-then-return
//!   ([`ROp::PopRet`]).
//!
//! `<`, `<=`, `>` and `>=` need only the `Lt` and `Le` opcodes: `a > b`
//! is `b < a` with the operands swapped in the instruction (which does
//! not change their evaluation order), exact for floats too. A negated
//! `int` comparison is the complementary one (`!(a < b)` is `b <= a`);
//! `float` comparisons have `JmpFNot*` forms, because NaN makes
//! `!(a < b)` differ from `a >= b`.
//!
//! `letreg` lowers to explicit [`ROp::RegPush`]/[`ROp::RegPop`]
//! delimiting the extent of a frame-local region slot, and `new cn⟨r…⟩`
//! to [`ROp::NewObj`] whose site says which region slot to allocate in —
//! the paper's dynamic semantics, made explicit in the instruction
//! stream. The `letreg` slots are allocated stack-wise after the
//! abstraction parameters, so the regions open at any point are the
//! slots right above them, innermost last.
//!
//! Instructions are a fixed-width struct (opcode, three register
//! operands, a table index or jump target, a memory representation); the
//! `cj-rvm` executor dispatches with one `match` on the opcode.

use cj_frontend::classtable::ClassTable;
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

/// Register-IR opcodes. `I*` opcodes take `int` operands and `F*`
/// opcodes `float` ones; `r[x]` is register `x` of the current frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ROp {
    /// `r[a] = r[b]`.
    Move,
    /// `r[a] = op(r[b])` with `c` the unary-op code (0 = neg, 1 = not).
    Unary,
    /// `r[a] = r[b] + r[c]`, wrapping.
    IAdd,
    /// `r[a] = r[b] - r[c]`, wrapping.
    ISub,
    /// `r[a] = r[b] * r[c]`, wrapping.
    IMul,
    /// `r[a] = r[b] / r[c]`, wrapping; a zero divisor is a fault at the
    /// instruction's span.
    IDiv,
    /// `r[a] = r[b] % r[c]`, wrapping; a zero divisor is a fault at the
    /// instruction's span.
    IRem,
    /// `r[a] = r[b] < r[c]`.
    ILt,
    /// `r[a] = r[b] <= r[c]`.
    ILe,
    /// `r[a] = r[b] == r[c]`.
    IEq,
    /// `r[a] = r[b] != r[c]`.
    INe,
    /// `r[a] = r[b] + r[c]`.
    FAdd,
    /// `r[a] = r[b] - r[c]`.
    FSub,
    /// `r[a] = r[b] * r[c]`.
    FMul,
    /// `r[a] = r[b] / r[c]`.
    FDiv,
    /// `r[a] = r[b] % r[c]`.
    FRem,
    /// `r[a] = r[b] < r[c]`.
    FLt,
    /// `r[a] = r[b] <= r[c]`.
    FLe,
    /// `r[a] = r[b] == r[c]`.
    FEq,
    /// `r[a] = r[b] != r[c]`.
    FNe,
    /// `r[a] = r[b] == r[c]` on references, booleans and `null`
    /// ([`value_eq`](cj_runtime::value::value_eq): reference identity).
    Eq,
    /// `r[a] = r[b] != r[c]`, the negation of [`ROp::Eq`].
    Ne,
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
    /// Jump to `t` when `r[a] < r[b]` (ints).
    JmpILt,
    /// Jump to `t` when `r[a] <= r[b]` (ints).
    JmpILe,
    /// Jump to `t` when `r[a] == r[b]` (ints).
    JmpIEq,
    /// Jump to `t` when `r[a] != r[b]` (ints).
    JmpINe,
    /// Jump to `t` when `r[a] < r[b]` (floats).
    JmpFLt,
    /// Jump to `t` when `r[a] <= r[b]` (floats).
    JmpFLe,
    /// Jump to `t` unless `r[a] < r[b]` (floats; taken on NaN).
    JmpFNotLt,
    /// Jump to `t` unless `r[a] <= r[b]` (floats; taken on NaN).
    JmpFNotLe,
    /// Jump to `t` when `r[a] == r[b]` (floats).
    JmpFEq,
    /// Jump to `t` when `r[a] != r[b]` (floats).
    JmpFNe,
    /// Jump to `t` when `r[a] == r[b]` per [`ROp::Eq`].
    JmpEq,
    /// Jump to `t` when `r[a] != r[b]` per [`ROp::Eq`].
    JmpNe,
    /// Record `r[a]`'s rendering in the print log.
    Print,
    /// Return `r[a]` to the caller's destination register.
    Ret,
    /// Superinstruction: leave the `c` innermost open `letreg`s (free
    /// their regions, innermost first), then return `r[a]`.
    PopRet,
}

impl ROp {
    /// Whether `t` is a jump target.
    pub fn is_jump(self) -> bool {
        matches!(self, ROp::Jump | ROp::JmpIf | ROp::JmpIfNot) || self.is_compare_branch()
    }

    /// Whether this is a compare-and-branch on two registers.
    fn is_compare_branch(self) -> bool {
        matches!(
            self,
            ROp::JmpILt
                | ROp::JmpILe
                | ROp::JmpIEq
                | ROp::JmpINe
                | ROp::JmpFLt
                | ROp::JmpFLe
                | ROp::JmpFNotLt
                | ROp::JmpFNotLe
                | ROp::JmpFEq
                | ROp::JmpFNe
                | ROp::JmpEq
                | ROp::JmpNe
        )
    }

    /// Whether this is a superinstruction (one dispatch doing the work of
    /// several plain instructions).
    pub fn is_fused(self) -> bool {
        matches!(self, ROp::FieldCall | ROp::PopRet) || self.is_compare_branch()
    }

    /// Which of the operands `a`, `b` and `c` name registers; the others
    /// are codes (field index, unary op, region slot, count) or unused.
    pub fn registers(self) -> [bool; 3] {
        use ROp::*;
        match self {
            IAdd | ISub | IMul | IDiv | IRem | ILt | ILe | IEq | INe | FAdd | FSub | FMul
            | FDiv | FRem | FLt | FLe | FEq | FNe | Eq | Ne | Index | SetIndex => {
                [true, true, true]
            }
            Move | Unary | GetField | SetField | ArrayLen | NewArr | FieldCall => {
                [true, true, false]
            }
            NewObj | Cast | JmpIf | JmpIfNot | Print | Ret | PopRet => [true, false, false],
            JmpILt | JmpILe | JmpIEq | JmpINe | JmpFLt | JmpFLe | JmpFNotLt | JmpFNotLe
            | JmpFEq | JmpFNe | JmpEq | JmpNe => [true, true, false],
            RegPush | RegPop | Call | Jump => [false, false, false],
        }
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
    /// Third register operand / small code (field index, unary op,
    /// `letreg` count).
    pub c: u16,
    /// Table index or jump target.
    pub t: u32,
    /// Field/element representation a memory read decodes (the
    /// [`SlotTy`] of the heap's payload words).
    pub ty: SlotTy,
}

impl RInstr {
    /// `op` with register operands `a`, `b`, `c` and table index or jump
    /// target `t`, and an `Int` representation.
    pub fn new(op: ROp, a: u16, b: u16, c: u16, t: u32) -> RInstr {
        let ty = SlotTy::Int;
        RInstr { op, a, b, c, t, ty }
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
    /// The instruction stream; every path ends in [`ROp::Ret`] or
    /// [`ROp::PopRet`].
    pub code: Vec<RInstr>,
    /// Source span per instruction (for structured runtime errors),
    /// parallel to `code`.
    pub spans: Vec<Span>,
    /// The register file a fresh frame starts from: each variable's
    /// default, `Unit` for the temporaries, then the constants.
    pub frame: Vec<Value>,
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
    /// Total region slots: the abstraction parameters, then as many as
    /// `letreg`s are ever open at once.
    pub region_slots: u16,
    /// Allocation sites.
    pub news: Vec<NewSite>,
    /// Array-allocation sites.
    pub arrays: Vec<ArraySite>,
    /// Call sites, with destination registers and spans.
    pub calls: Vec<CallSite>,
    /// Cast sites.
    pub casts: Vec<CastSite>,
}

/// The single-inheritance class tree, numbered in pre-order: class `a` is
/// `b` or inherits from it exactly when `a`'s position falls in `b`'s
/// subtree range. Built in time linear in the class count, and a test is
/// two compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTree {
    /// Per class: its pre-order position, and the last position of its
    /// subtree.
    range: Vec<[u32; 2]>,
}

impl ClassTree {
    /// Numbers the classes of `table`.
    pub fn build(table: &ClassTable) -> ClassTree {
        const NONE: u32 = u32::MAX;
        let n = table.len();
        // Children as first-child / next-sibling links; the roots start
        // the walk.
        let (mut first, mut next) = (vec![NONE; n], vec![NONE; n]);
        let mut stack = Vec::new();
        for info in table.classes() {
            let c = info.id.index();
            match info.superclass {
                Some(s) => {
                    next[c] = first[s.index()];
                    first[s.index()] = c as u32;
                }
                None => stack.push((c as u32, false)),
            }
        }
        // Depth first with an explicit stack, so a deep chain costs no
        // native stack: positions on the way down, subtree ends on the
        // way back up.
        let mut range = vec![[0, 0]; n];
        let mut order = 0;
        while let Some((c, done)) = stack.pop() {
            let c = c as usize;
            if done {
                range[c][1] = order - 1;
                continue;
            }
            range[c][0] = order;
            order += 1;
            stack.push((c as u32, true));
            let mut kid = first[c];
            while kid != NONE {
                stack.push((kid, false));
                kid = next[kid as usize];
            }
        }
        ClassTree { range }
    }

    /// Whether class `sub` is `sup` or inherits from it.
    #[inline]
    pub fn is_subclass(&self, sub: u32, sup: u32) -> bool {
        let [lo, hi] = self.range[sup as usize];
        let at = self.range[sub as usize][0];
        lo <= at && at <= hi
    }
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
    /// The class tree, for casts.
    pub classes: ClassTree,
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
