//! The compact stack bytecode the lowering pass produces (and `cj-rvm`
//! translates to register code).
//!
//! One [`CompiledProgram`] holds every method's code plus the tables the
//! lowering pass resolved once so execution never does a name lookup:
//! per-class **vtables** (virtual dispatch is an index into
//! `vtables[runtime_class]`), a **subclass matrix** (casts are one boolean
//! read), and per-method **site tables** for the operations that carry
//! structured operands (allocations, calls, casts).
//!
//! The machine is a stack machine over method-local variable slots: every
//! expression's lowering leaves exactly one value on the operand stack.
//! Receivers, call arguments and constructor arguments address variable
//! slots directly (the kernel language guarantees they are variables), so
//! the hot paths — field access, dispatch, allocation — never shuffle the
//! operand stack.
//!
//! `letreg` lowers to explicit [`Instr::RegPush`]/[`Instr::RegPop`]
//! delimiting the extent of a frame-local region slot, and `new cn⟨r…⟩`
//! to [`Instr::NewObj`] whose site says which region slot to allocate in
//! — the paper's dynamic semantics, made explicit in the instruction
//! stream.

use cj_frontend::ast::{BinOp, UnOp};
use cj_frontend::span::Span;
use cj_frontend::types::{MethodId, Prim};
use std::collections::HashMap;
use std::sync::Arc;

/// The runtime representation class of one field or array-element slot.
/// Payload slots are raw 64-bit words; the lowering pass bakes each
/// access's decode/encode into the instruction, so the VM never inspects
/// a stored word to learn its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTy {
    /// `int` — the word is the `i64` bit pattern.
    Int,
    /// `bool` — 0 or 1.
    Bool,
    /// `float` — `f64::to_bits`.
    Float,
    /// A reference — packed region/offset, or the null sentinel.
    Ref,
}

/// A region operand, resolved at lowering time: either the global heap or
/// a frame-local region slot (a class/method region parameter or a
/// `letreg`-bound region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegRef {
    /// The global heap region.
    Heap,
    /// Frame region slot `.0`.
    Slot(u16),
}

/// A literal in a method's constant pool (also the per-slot default
/// values used to (re)initialize locals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lit {
    /// The unit value.
    Unit,
    /// The null reference.
    Null,
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A float.
    Float(f64),
}

/// One bytecode instruction. Operand-stack effects are noted per variant;
/// `u32` operands index the owning method's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push constant-pool entry `.0`.
    Const(u32),
    /// Push variable slot `.0`.
    LoadVar(u16),
    /// Pop into variable slot `.0`.
    StoreVar(u16),
    /// Reset variable slot `.0` to its type default (loop re-entry of an
    /// initializer-less declaration).
    ResetVar(u16),
    /// Discard the top of stack.
    Pop,
    /// Push field `idx` of the object in variable `var`.
    GetField {
        /// Receiver variable slot.
        var: u16,
        /// Constructor-order field index.
        idx: u16,
        /// Field representation.
        ty: SlotTy,
    },
    /// Pop a value into field `idx` of the object in variable `var`.
    SetField {
        /// Receiver variable slot.
        var: u16,
        /// Constructor-order field index.
        idx: u16,
        /// Field representation.
        ty: SlotTy,
    },
    /// Allocate per [`NewSite`] `.0`; push the reference.
    NewObj(u32),
    /// Pop the length, allocate per [`ArraySite`] `.0`; push the
    /// reference.
    NewArr(u32),
    /// Pop an index; push element of the array in variable `var`.
    Index {
        /// Array variable slot.
        var: u16,
        /// Element representation.
        ty: SlotTy,
    },
    /// Pop a value, then an index; store into the array in variable
    /// `var`.
    SetIndex {
        /// Array variable slot.
        var: u16,
        /// Element representation.
        ty: SlotTy,
    },
    /// Push the length of the array in variable `.0`.
    ArrayLen(u16),
    /// Enter a `letreg`: create a region, bind it to region slot `.0`.
    RegPush(u16),
    /// Leave a `letreg`: delete the region in region slot `.0`, freeing
    /// its objects wholesale.
    RegPop(u16),
    /// Call per [`CallSite`] `.0`; push the result.
    Call(u32),
    /// Cast per [`CastSite`] `.0`; push the (unchanged) value.
    Cast(u32),
    /// Unconditional jump to instruction `.0`.
    Jump(u32),
    /// Pop a boolean; jump to `.0` when false.
    JumpIfFalse(u32),
    /// Pop a boolean; jump to `.0` when true.
    JumpIfTrue(u32),
    /// Pop one operand, push the result.
    Unary(UnOp),
    /// Pop two operands (right on top), push the result. `&&`/`||` never
    /// appear here — they lower to jumps.
    Binary(BinOp),
    /// Pop a value, record its rendering in the print log.
    Print,
    /// Pop the return value and leave the current frame.
    Ret,
}

/// Static callee of a [`CallSite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// A static method, fully resolved to a function index.
    Static(u32),
    /// Virtual dispatch: `vtables[class_of(vars[recv])][vslot]`.
    Virtual {
        /// Vtable slot, assigned at lowering time.
        vslot: u32,
        /// Receiver variable slot.
        recv: u16,
    },
}

/// One call site: target, argument variable slots, and the region
/// instantiation for the callee's abstraction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// Who is called.
    pub target: CallTarget,
    /// Caller variable slots passed positionally to the callee's
    /// parameters.
    pub args: Vec<u16>,
    /// Region arguments, resolved against the caller's frame.
    pub inst: Vec<RegRef>,
    /// Where the callee's *method* region parameters start inside `inst`
    /// (the declared class's region arity) — virtual calls bind the class
    /// prefix from the receiver object instead.
    pub tail_start: u16,
}

/// One `new cn⟨r…⟩(v…)` site.
#[derive(Debug, Clone, PartialEq)]
pub struct NewSite {
    /// Class being constructed.
    pub class: u32,
    /// Region arguments; the object lives in `regions[0]` and records the
    /// full vector (virtual calls read the class-parameter prefix back).
    pub regions: Vec<RegRef>,
    /// Field initializers: caller variable slot and field representation,
    /// in constructor order.
    pub args: Vec<(u16, SlotTy)>,
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
    /// Subject variable slot.
    pub var: u16,
    /// Target class.
    pub class: u32,
}

/// One lowered method body plus everything needed to build its frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMethod {
    /// Display name (`cn.mn` or `mn`), for debugging and bench reports.
    pub name: String,
    /// The instruction stream; ends in [`Instr::Ret`].
    pub code: Vec<Instr>,
    /// Source span per instruction (for structured runtime errors),
    /// parallel to `code`.
    pub spans: Vec<Span>,
    /// Constant pool.
    pub consts: Vec<Lit>,
    /// Default value per variable slot (frame initialization and
    /// [`Instr::ResetVar`]).
    pub defaults: Vec<Lit>,
    /// Parameter variable slots, in declaration order (excluding `this`).
    pub params: Vec<u16>,
    /// Whether slot 0 is a `this` receiver.
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
    /// Allocation sites.
    pub news: Vec<NewSite>,
    /// Array-allocation sites.
    pub arrays: Vec<ArraySite>,
    /// Call sites.
    pub calls: Vec<CallSite>,
    /// Cast sites.
    pub casts: Vec<CastSite>,
}

/// A fully lowered program: per-method code plus the dispatch tables
/// resolved at lowering time.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Every method, instance methods first (in
    /// [`RProgram::all_rmethods`](cj_infer::RProgram::all_rmethods)
    /// order), then statics.
    pub methods: Vec<Arc<CompiledMethod>>,
    /// Function index per source method id.
    pub func_of: HashMap<MethodId, u32>,
    /// Per-class virtual dispatch table: `vtables[class][vslot]` is the
    /// function index of the most-derived override.
    pub vtables: Vec<Vec<u32>>,
    /// `subclass[a][b]` ⇔ class `a` is `b` or inherits from it.
    pub subclass: Vec<Vec<bool>>,
    /// The static `main` entry point (function index), if one exists.
    pub main: Option<u32>,
}

impl CompiledProgram {
    /// The compiled method for a source method id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not part of the program.
    pub fn method(&self, id: MethodId) -> &CompiledMethod {
        &self.methods[self.func_of[&id] as usize]
    }

    /// Total instructions across all methods (a code-size metric for the
    /// bench harness).
    pub fn instruction_count(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }
}
