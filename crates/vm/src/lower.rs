//! Lowering: region-annotated kernel ([`RProgram`]) → register code
//! ([`RvmProgram`]), in one pass over each kernel body, reading the
//! regions from the method's annotation tables.
//!
//! Everything name-shaped is resolved here, once: virtual dispatch becomes
//! a vtable-slot index, casts a [`ClassTree`] range test, field access a
//! constructor-order offset with a baked-in representation, and every
//! region mention a frame-local region slot (abstraction parameters first,
//! then one slot per open `letreg` binding, allocated stack-wise —
//! shadowing gets a slot of its own, so `RegPush`/`RegPop` always address
//! the binding they delimit).
//!
//! # Code generation
//!
//! Each expression is compiled *into* where its value is wanted: a
//! destination register, the method's return, or nowhere (evaluated for
//! its effects only). Variables and literals never cost an instruction of
//! their own — a variable is its register, a literal its method's
//! constant register — and a statement's discarded value is never
//! materialized. Every arithmetic and comparison opcode is chosen by its
//! operands' normal type ([`KExpr::ty`]). A `letreg` placed around an
//! expression or a run of block items becomes a `RegPush` before it and
//! a `RegPop` after; an expression with a `letreg` around it never takes
//! part in the idioms below. Conditions compile to jumps directly,
//! `&&`/`||` included, and the hottest idioms come out as
//! superinstructions straight from the tree:
//!
//! - a comparison in an `if`/`while` condition is one compare-and-branch
//!   ([`ROp::JmpILt`] and its siblings);
//! - a `while` tests its condition on entry and then at the bottom of
//!   each iteration, so an iteration costs no jump back to the top;
//! - a return from inside `letreg`s leaves them in the same dispatch
//!   ([`ROp::PopRet`]);
//! - a field load feeding straight into a call (`let t = v.f in m(…t…)`)
//!   is [`ROp::FieldCall`].
//!
//! Fusion never swallows a jump target, so every label stays an
//! instruction boundary.

use crate::code::{
    ArraySite, CallSite, CallTarget, CastSite, ClassTree, NewSite, RInstr, ROp, RegRef, RvmMethod,
    RvmProgram,
};
use cj_frontend::ast::{BinOp, UnOp};
use cj_frontend::kernel::{walk_expr, KExpr, KExprKind, KMethod};
use cj_frontend::span::Span;
use cj_frontend::types::{ClassId, MethodId, NType, Prim, VarId};
use cj_frontend::Symbol;
use cj_infer::rast::{RMethod, RProgram};
use cj_regions::var::RegVar;
use cj_runtime::heap::SlotTy;
use cj_runtime::Value;
use std::collections::HashMap;

/// Lowers every method of `p` to register code.
pub fn lower_program(p: &RProgram) -> RvmProgram {
    let mut span = cj_trace::span("pipeline", "lower");
    let tables = GlobalTables::build(p);
    let methods: Vec<RvmMethod> = p
        .all_rmethods()
        .map(|(id, rm)| lower_method(p, id, p.kernel.method(id), rm, &tables))
        .collect();
    span.add("methods_lowered", methods.len() as u64);
    let program = RvmProgram {
        methods,
        main: (tables.main).map(|id| (tables.func_of[&id], p.kernel.method(id).span)),
        vtables: tables.vtables,
        classes: ClassTree::build(&p.kernel.table),
    };
    span.add("superinstructions", program.fused_count());
    program
}

// ---- global tables ---------------------------------------------------------

struct GlobalTables {
    func_of: HashMap<MethodId, u32>,
    /// Per class: method name → vtable slot.
    vslots: Vec<HashMap<Symbol, u32>>,
    vtables: Vec<Vec<u32>>,
    main: Option<MethodId>,
}

impl GlobalTables {
    fn build(p: &RProgram) -> GlobalTables {
        let table = &p.kernel.table;
        let func_of: HashMap<MethodId, u32> = p
            .all_rmethods()
            .enumerate()
            .map(|(i, (id, _))| (id, i as u32))
            .collect();

        // Vtables: process superclasses before subclasses (sort by depth;
        // ties by id for determinism). A subclass inherits its parent's
        // slot map and table, overrides in place, and appends new names.
        let n = table.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (table.class(ClassId(i as u32)).depth, i));
        let mut vslots: Vec<HashMap<Symbol, u32>> = vec![HashMap::new(); n];
        let mut vtables: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &i in &order {
            let info = table.class(ClassId(i as u32));
            let (mut slots, mut vtable) = match info.superclass {
                Some(parent) => (
                    vslots[parent.index()].clone(),
                    vtables[parent.index()].clone(),
                ),
                None => (HashMap::new(), Vec::new()),
            };
            for (m, sig) in info.own_methods.iter().enumerate() {
                let func = func_of[&MethodId::Instance(info.id, m as u32)];
                match slots.get(&sig.name) {
                    Some(&slot) => vtable[slot as usize] = func,
                    None => {
                        slots.insert(sig.name, vtable.len() as u32);
                        vtable.push(func);
                    }
                }
            }
            vslots[i] = slots;
            vtables[i] = vtable;
        }

        let main = table
            .lookup_static(Symbol::intern("main"))
            .map(|(i, _)| MethodId::Static(i));
        GlobalTables {
            func_of,
            vslots,
            vtables,
            main,
        }
    }
}

/// Region variables in scope, resolved to frame region slots: abstraction
/// parameters first, then one slot per open `letreg` binding, allocated
/// stack-wise, so the open bindings hold the slots right above the
/// parameters and shadowing gets a slot of its own.
struct RegionSlots {
    slots: HashMap<RegVar, u16>,
    next: u16,
    /// The most slots ever in use at once.
    high: u16,
}

impl RegionSlots {
    fn new(rm: &RMethod) -> RegionSlots {
        let slots = rm.abs_params.iter().enumerate();
        let next = rm.abs_params.len() as u16;
        RegionSlots {
            slots: slots.map(|(i, &r)| (r, i as u16)).collect(),
            next,
            high: next,
        }
    }

    fn resolve(&self, r: RegVar) -> RegRef {
        match self.slots.get(&r) {
            Some(&s) if !r.is_heap() => RegRef::Slot(s),
            // Unbound region variables resolve to the heap, exactly like
            // the interpreter's environment fallback.
            _ => RegRef::Heap,
        }
    }

    /// Binds `r` to the next free slot; returns the slot and the binding
    /// it shadows, for [`Self::unbind`].
    fn bind(&mut self, r: RegVar) -> (u16, Option<u16>) {
        let slot = self.next;
        self.next += 1;
        self.high = self.high.max(self.next);
        (slot, self.slots.insert(r, slot))
    }

    /// Undoes the latest [`Self::bind`], of `r`.
    fn unbind(&mut self, r: RegVar, shadowed: Option<u16>) {
        self.next -= 1;
        match shadowed {
            Some(old) => self.slots.insert(r, old),
            None => self.slots.remove(&r),
        };
    }
}

// ---- per-method lowering ---------------------------------------------------

fn lit_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Where an expression's value is wanted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    /// Nowhere: the expression runs for its effects only.
    Effect,
    /// In this register.
    Into(u16),
    /// As the method's result: every path ends in a return.
    Ret,
}

/// One arm of a two-way choice: an `if` branch, or the constant arm of a
/// short-circuit `&&`/`||`.
#[derive(Clone, Copy)]
enum Arm<'e> {
    Expr(&'e KExpr),
    Bool(bool),
}

/// The constant a literal expression denotes.
fn literal(e: &KExpr) -> Option<Value> {
    match e.kind {
        KExprKind::Unit => Some(Value::Unit),
        KExprKind::Null => Some(Value::Null),
        KExprKind::Int(v) => Some(Value::Int(v)),
        KExprKind::Bool(v) => Some(Value::Bool(v)),
        KExprKind::Float(v) => Some(Value::Float(v)),
        _ => None,
    }
}

/// Whether evaluating `e` may store to variable `v`.
fn assigns(e: &KExpr, v: VarId) -> bool {
    let mut hit = false;
    walk_expr(e, &mut |x| {
        hit |=
            matches!(x.kind, KExprKind::AssignVar(w, _) | KExprKind::Let { var: w, .. } if w == v);
    });
    hit
}

/// A variable's register: variables occupy the first registers of the
/// frame, in slot order.
fn var_reg(v: VarId) -> u16 {
    v.index() as u16
}

/// The operand type a typed opcode is chosen by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Num {
    Int,
    Float,
    /// References, booleans and `null`: only `==`/`!=` apply.
    Other,
}

/// The operand type of `l op r`.
fn num(l: &KExpr, r: &KExpr) -> Num {
    match (l.ty, r.ty) {
        (NType::Prim(Prim::Int), NType::Prim(Prim::Int)) => Num::Int,
        (NType::Prim(Prim::Float), NType::Prim(Prim::Float)) => Num::Float,
        _ => Num::Other,
    }
}

/// The opcode computing `l op r` on operands of type `n`, and whether it
/// takes them swapped (`a > b` is `b < a`).
fn value_op(op: BinOp, n: Num) -> (ROp, bool) {
    use BinOp::*;
    let rop = match (op, n) {
        (Add, Num::Int) => ROp::IAdd,
        (Sub, Num::Int) => ROp::ISub,
        (Mul, Num::Int) => ROp::IMul,
        (Div, Num::Int) => ROp::IDiv,
        (Rem, Num::Int) => ROp::IRem,
        (Add, Num::Float) => ROp::FAdd,
        (Sub, Num::Float) => ROp::FSub,
        (Mul, Num::Float) => ROp::FMul,
        (Div, Num::Float) => ROp::FDiv,
        (Rem, Num::Float) => ROp::FRem,
        (Lt | Gt, Num::Int) => ROp::ILt,
        (Le | Ge, Num::Int) => ROp::ILe,
        (Eq, Num::Int) => ROp::IEq,
        (Ne, Num::Int) => ROp::INe,
        (Lt | Gt, Num::Float) => ROp::FLt,
        (Le | Ge, Num::Float) => ROp::FLe,
        (Eq, Num::Float) => ROp::FEq,
        (Ne, Num::Float) => ROp::FNe,
        (Eq, Num::Other) => ROp::Eq,
        (Ne, Num::Other) => ROp::Ne,
        _ => unreachable!("ill-typed binary {op}"),
    };
    (rop, swaps(op))
}

/// Whether an order comparison `op` is computed with swapped operands.
fn swaps(op: BinOp) -> bool {
    matches!(op, BinOp::Gt | BinOp::Ge)
}

/// The compare-and-branch that jumps when `(l op r) == when` on operands
/// of type `n`, and whether it takes them swapped.
fn branch_op(op: BinOp, n: Num, when: bool) -> (ROp, bool) {
    use BinOp::*;
    let op = match (when, n, op) {
        (true, ..) => op,
        // NaN makes a negated float order comparison differ from the
        // complementary one.
        (false, Num::Float, Lt | Gt) => return (ROp::JmpFNotLt, swaps(op)),
        (false, Num::Float, Le | Ge) => return (ROp::JmpFNotLe, swaps(op)),
        (false, ..) => match op {
            Lt => Ge,
            Le => Gt,
            Gt => Le,
            Ge => Lt,
            Eq => Ne,
            Ne => Eq,
            _ => unreachable!("not a comparison: {op}"),
        },
    };
    let jump = match (op, n) {
        (Lt | Gt, Num::Int) => ROp::JmpILt,
        (Le | Ge, Num::Int) => ROp::JmpILe,
        (Eq, Num::Int) => ROp::JmpIEq,
        (Ne, Num::Int) => ROp::JmpINe,
        (Lt | Gt, Num::Float) => ROp::JmpFLt,
        (Le | Ge, Num::Float) => ROp::JmpFLe,
        (Eq, Num::Float) => ROp::JmpFEq,
        (Ne, Num::Float) => ROp::JmpFNe,
        (Eq, Num::Other) => ROp::JmpEq,
        (Ne, Num::Other) => ROp::JmpNe,
        _ => unreachable!("ill-typed comparison {op}"),
    };
    (jump, swaps(op))
}

struct FnLowerer<'a> {
    p: &'a RProgram,
    km: &'a KMethod,
    rm: &'a RMethod,
    tables: &'a GlobalTables,
    /// The method being lowered; [`Self::finish`] builds its `frame`.
    m: RvmMethod,
    /// Registers used so far: the variables, then the temporaries' high
    /// water mark.
    nregs: u16,
    /// The method's distinct literals; constant `k` is register
    /// `u16::MAX - k` until [`Self::finish`] places it after the
    /// temporaries.
    consts: Vec<Value>,
    regions: RegionSlots,
    /// The `letreg`s enclosing the current point, innermost last: a return
    /// from inside leaves them first. Each is its span, its region and
    /// the slot of the binding it shadows; its own slot is
    /// `abs_params` plus its position.
    open: Vec<(Span, RegVar, Option<u16>)>,
    /// Next free temporary; temporaries live above the variable registers
    /// and are allocated stack-wise.
    next_temp: u16,
    /// Position of the most recently bound jump target: fusion never
    /// rewrites an instruction before it.
    barrier: usize,
    /// Whether a loop condition is being lowered.
    in_loop_test: bool,
}

fn lower_method(
    p: &RProgram,
    id: MethodId,
    km: &KMethod,
    rm: &RMethod,
    tables: &GlobalTables,
) -> RvmMethod {
    let m = RvmMethod {
        name: p.kernel.method_name(id),
        code: Vec::new(),
        spans: Vec::new(),
        frame: Vec::new(),
        params: km.params.iter().map(|&v| var_reg(v)).collect(),
        has_this: !km.is_static,
        class_params: (rm.abs_params.len() - rm.mparams.len()) as u16,
        abs_params: rm.abs_params.len() as u16,
        region_slots: 0,
        news: Vec::new(),
        arrays: Vec::new(),
        calls: Vec::new(),
        casts: Vec::new(),
    };
    let regions = RegionSlots::new(rm);
    let next_temp = km.vars.len() as u16;
    let mut lo = FnLowerer {
        p,
        km,
        rm,
        tables,
        m,
        nregs: next_temp,
        consts: Vec::new(),
        regions,
        open: Vec::new(),
        next_temp,
        barrier: 0,
        in_loop_test: false,
    };
    lo.expr(&km.body, Want::Ret);
    lo.finish()
}

impl FnLowerer<'_> {
    /// Places the constant registers after the temporaries.
    fn finish(mut self) -> RvmMethod {
        let base = self.nregs;
        if let Some(last) = self.consts.len().checked_sub(1) {
            let first = u16::MAX - last as u16;
            debug_assert!(base <= first, "registers overflow");
            let place = |r: &mut u16| {
                if *r >= first {
                    *r = base + (u16::MAX - *r);
                }
            };
            for i in &mut self.m.code {
                let [a, b, c] = i.op.registers();
                if a {
                    place(&mut i.a);
                }
                if b {
                    place(&mut i.b);
                }
                if c {
                    place(&mut i.c);
                }
            }
        }
        let frame = &mut self.m.frame;
        frame.reserve_exact(base as usize + self.consts.len());
        frame.extend(self.km.vars.iter().map(|v| Value::default_of(v.ty)));
        frame.resize(base as usize, Value::Unit);
        frame.extend_from_slice(&self.consts);
        let code = &self.m.code;
        debug_assert!(code
            .iter()
            .all(|i| !i.op.is_jump() || (i.t as usize) < code.len()));
        RvmMethod {
            region_slots: self.regions.high,
            ..self.m
        }
    }

    fn emit(&mut self, i: RInstr, span: Span) -> usize {
        self.m.code.push(i);
        self.m.spans.push(span);
        self.m.code.len() - 1
    }

    /// The constant register holding `lit`.
    fn konst(&mut self, lit: Value) -> u16 {
        let k = match self.consts.iter().position(|&l| lit_eq(l, lit)) {
            Some(k) => k,
            None => {
                self.consts.push(lit);
                self.consts.len() - 1
            }
        };
        u16::MAX - k as u16
    }

    fn temp(&mut self) -> u16 {
        self.next_temp += 1;
        self.nregs = self.nregs.max(self.next_temp);
        self.next_temp - 1
    }

    /// Binds a jump target at the current end of the code.
    fn label(&mut self) -> u32 {
        self.barrier = self.m.code.len();
        self.m.code.len() as u32
    }

    /// Points every jump in `jumps` at `to`.
    fn patch_to(&mut self, jumps: Vec<usize>, to: u32) {
        for j in jumps {
            self.m.code[j].t = to;
        }
    }

    /// Points every jump in `jumps` at the current end of the code.
    fn patch(&mut self, jumps: Vec<usize>) {
        if !jumps.is_empty() {
            let to = self.label();
            self.patch_to(jumps, to);
        }
    }

    /// The last instruction, if it is a `want` no jump lands after (so
    /// the next instruction may fuse into it).
    fn fusable_last(&self, want: ROp) -> Option<usize> {
        let last = self.m.code.len().checked_sub(1)?;
        (last >= self.barrier && self.m.code[last].op == want).then_some(last)
    }

    /// Field representation of constructor-order field `idx` of the class
    /// statically typing variable `v`.
    fn field_ty(&self, v: VarId, idx: u32) -> SlotTy {
        let class = self
            .km
            .var_ty(v)
            .as_class()
            .expect("field receiver has a class type");
        SlotTy::of(self.p.kernel.table.all_fields(class)[idx as usize].ty)
    }

    /// Element representation of the array statically typing variable
    /// `v`.
    fn elem_ty(&self, v: VarId) -> SlotTy {
        match self.km.var_ty(v) {
            NType::Array(p) => SlotTy::of(NType::Prim(p)),
            other => unreachable!("indexing a non-array {other}"),
        }
    }

    /// The register a value-producing instruction writes.
    fn dst(&mut self, want: Want) -> u16 {
        match want {
            Want::Into(r) => r,
            Want::Effect | Want::Ret => self.temp(),
        }
    }

    /// Emits `i` writing where `want` asks, and returns it if wanted.
    fn produce(&mut self, want: Want, i: RInstr, span: Span) {
        let a = self.dst(want);
        self.emit(RInstr { a, ..i }, span);
        self.deliver(want, a, span);
    }

    /// Finishes a value computed into `r` (chosen by [`Self::dst`]).
    fn deliver(&mut self, want: Want, r: u16, span: Span) {
        if want == Want::Ret {
            // Leave every enclosing `letreg` first, in the same dispatch.
            let i = match self.open.len() as u16 {
                0 => RInstr::new(ROp::Ret, r, 0, 0, 0),
                open => RInstr::new(ROp::PopRet, r, 0, open, 0),
            };
            self.emit(i, span);
        }
    }

    /// Delivers a value that needs no computing: a variable's or a
    /// constant's register `r`.
    fn copy(&mut self, r: u16, want: Want, span: Span) {
        match want {
            Want::Into(to) if to != r => {
                self.emit(RInstr::new(ROp::Move, to, r, 0, 0), span);
            }
            Want::Ret => self.deliver(want, r, span),
            _ => {}
        }
    }

    fn constant(&mut self, lit: Value, want: Want, span: Span) {
        if want != Want::Effect {
            let k = self.konst(lit);
            self.copy(k, want, span);
        }
    }

    /// The register holding `e`'s value: a variable's own register, a
    /// literal's constant register, or a fresh temporary `e` is computed
    /// into.
    fn operand(&mut self, e: &KExpr) -> u16 {
        if self.bare(e) {
            if let KExprKind::Var(v) = e.kind {
                return var_reg(v);
            }
            if let Some(lit) = literal(e) {
                return self.konst(lit);
            }
        }
        let t = self.temp();
        self.expr(e, Want::Into(t));
        t
    }

    /// The registers holding `l`'s then `r`'s value, evaluated in that
    /// order. A variable `l` that `r` assigns is copied first, so the
    /// consumer sees the value it had when it was evaluated.
    fn operands(&mut self, l: &KExpr, r: &KExpr) -> (u16, u16) {
        let a = match l.kind {
            KExprKind::Var(v) if self.bare(l) && assigns(r, v) => {
                let t = self.temp();
                self.emit(RInstr::new(ROp::Move, t, var_reg(v), 0, 0), l.span);
                t
            }
            _ => self.operand(l),
        };
        (a, self.operand(r))
    }

    /// [`Self::expr`] for a block item. A `let` is handled here, so
    /// temporaries nested in initializers cost one `node` frame per level.
    fn item(&mut self, e: &KExpr, want: Want) {
        let KExprKind::Let { var, init } = &e.kind else {
            return self.expr(e, want);
        };
        let into = Want::Into(var_reg(*var));
        match init {
            Some(init) => self.expr(init, into),
            // A fresh declaration without initializer resets the slot
            // (loops re-enter lets).
            None => self.constant(Value::default_of(self.km.var_ty(*var)), into, e.span),
        }
        self.constant(Value::Unit, want, e.span);
    }

    /// Whether no `letreg` is placed around `e`.
    fn bare(&self, e: &KExpr) -> bool {
        self.rm.letregs_at(e.id).is_empty()
    }

    /// Whether the arm emits nothing when its value is dropped.
    fn is_silent(&self, arm: Arm) -> bool {
        match arm {
            Arm::Bool(_) => true,
            Arm::Expr(e) => {
                self.bare(e) && (literal(e).is_some() || matches!(e.kind, KExprKind::Var(_)))
            }
        }
    }

    /// Enters `letreg r`: binds `r` to the next region slot.
    fn push_region(&mut self, r: RegVar, span: Span) {
        let (slot, shadowed) = self.regions.bind(r);
        self.emit(RInstr::new(ROp::RegPush, slot, 0, 0, 0), span);
        self.open.push((span, r, shadowed));
    }

    /// Leaves the innermost `letreg` after code that delivered `want`: a
    /// returning body has already left the region on every path.
    fn pop_region(&mut self, want: Want) {
        let (span, r, shadowed) = self.open.pop().expect("an open letreg");
        if want != Want::Ret {
            let slot = self.regions.next - 1;
            self.emit(RInstr::new(ROp::RegPop, slot, 0, 0, 0), span);
        }
        self.regions.unbind(r, shadowed);
    }

    /// Lowers `e` inside the `letreg`s placed around it, delivering its
    /// value as `want` asks.
    fn expr(&mut self, e: &KExpr, want: Want) {
        let mark = self.next_temp;
        let regions = self.rm.letregs_at(e.id);
        for l in regions {
            self.push_region(l.region, e.span);
        }
        self.node(e, want);
        for _ in regions {
            self.pop_region(want);
        }
        self.next_temp = mark;
    }

    fn node(&mut self, e: &KExpr, want: Want) {
        let span = e.span;
        match &e.kind {
            KExprKind::Block(items) => {
                let ranges: Vec<(RegVar, u32, u32)> = self.rm.letregs_in(e.id).collect();
                for (i, item) in (0..).zip(items) {
                    for &(r, _, _) in ranges.iter().filter(|&&(_, lo, _)| lo == i) {
                        self.push_region(r, item.span);
                    }
                    let last = i as usize + 1 == items.len();
                    let item_want = if last { want } else { Want::Effect };
                    self.item(item, item_want);
                    for _ in ranges.iter().filter(|&&(_, _, hi)| hi == i) {
                        self.pop_region(item_want);
                    }
                }
                if items.is_empty() {
                    self.constant(Value::Unit, want, span);
                }
            }
            KExprKind::Let { .. } => self.item(e, want),
            KExprKind::Unit
            | KExprKind::Null
            | KExprKind::Int(_)
            | KExprKind::Bool(_)
            | KExprKind::Float(_) => self.constant(literal(e).expect("a literal"), want, span),
            KExprKind::Var(v) => self.copy(var_reg(*v), want, span),
            KExprKind::Field(v, fr) => {
                let ty = self.field_ty(*v, fr.index);
                let i = RInstr::new(ROp::GetField, 0, var_reg(*v), fr.index as u16, 0);
                self.produce(want, RInstr { ty, ..i }, span);
            }
            KExprKind::AssignVar(v, rhs) => {
                self.expr(rhs, Want::Into(var_reg(*v)));
                self.constant(Value::Unit, want, span);
            }
            KExprKind::AssignField(v, fr, rhs) => {
                let b = self.operand(rhs);
                let i = RInstr::new(ROp::SetField, var_reg(*v), b, fr.index as u16, 0);
                self.emit(i, span);
                self.constant(Value::Unit, want, span);
            }
            KExprKind::New(class, args) => {
                let regions = self.rm.inst(e.id);
                let site = NewSite {
                    class: class.0,
                    regions: regions.iter().map(|&r| self.regions.resolve(r)).collect(),
                    args: args.iter().map(|&a| var_reg(a)).collect(),
                };
                self.m.news.push(site);
                let t = (self.m.news.len() - 1) as u32;
                self.produce(want, RInstr::new(ROp::NewObj, 0, 0, 0, t), span);
            }
            KExprKind::NewArray(elem, len) => {
                let b = self.operand(len);
                let region = self.regions.resolve(self.rm.inst(e.id)[0]);
                self.m.arrays.push(ArraySite {
                    elem: *elem,
                    region,
                });
                let t = (self.m.arrays.len() - 1) as u32;
                self.produce(want, RInstr::new(ROp::NewArr, 0, b, 0, t), span);
            }
            KExprKind::Index(v, idx) => {
                let c = self.operand(idx);
                let ty = self.elem_ty(*v);
                let i = RInstr::new(ROp::Index, 0, var_reg(*v), c, 0);
                self.produce(want, RInstr { ty, ..i }, span);
            }
            KExprKind::AssignIndex(v, idx, val) => {
                let (b, c) = self.operands(idx, val);
                self.emit(RInstr::new(ROp::SetIndex, var_reg(*v), b, c, 0), span);
                self.constant(Value::Unit, want, span);
            }
            KExprKind::ArrayLen(v) => {
                self.produce(want, RInstr::new(ROp::ArrayLen, 0, var_reg(*v), 0, 0), span);
            }
            KExprKind::CallVirtual(recv, method, args) => {
                let (target, tail_start) = match method {
                    MethodId::Instance(c, i) => {
                        let name = self.p.kernel.table.class(*c).own_methods[*i as usize].name;
                        let vslot = self.tables.vslots[c.index()][&name];
                        let target = CallTarget::Virtual {
                            vslot,
                            recv: var_reg(*recv),
                        };
                        (target, self.p.rclass(*c).params.len() as u16)
                    }
                    MethodId::Static(_) => (CallTarget::Static(self.tables.func_of[method]), 0),
                };
                self.call(target, tail_start, self.rm.inst(e.id), args, want, span);
            }
            KExprKind::CallStatic(method, args) => {
                let target = CallTarget::Static(self.tables.func_of[method]);
                self.call(target, 0, self.rm.inst(e.id), args, want, span);
            }
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => {
                self.choose(cond, Arm::Expr(then_e), Arm::Expr(else_e), want, span);
            }
            KExprKind::While { cond, body } => {
                // The condition is tested on entry, then again at the
                // bottom of every iteration. A loop inside a condition
                // does not copy its own (copies of copies would grow
                // exponentially with nesting): it jumps to its bottom
                // test instead.
                let copy = !self.in_loop_test;
                let mut entry = Vec::new();
                match copy {
                    true => self.loop_test(cond, false, &mut entry),
                    false => entry.push(self.emit(RInstr::new(ROp::Jump, 0, 0, 0, 0), span)),
                }
                let top = self.label();
                self.expr(body, Want::Effect);
                if !copy {
                    self.patch(std::mem::take(&mut entry));
                }
                let mut again = Vec::new();
                self.loop_test(cond, true, &mut again);
                self.patch_to(again, top);
                self.patch(entry);
                self.constant(Value::Unit, want, span);
            }
            KExprKind::Cast(class, var) => {
                self.m.casts.push(CastSite {
                    var: var_reg(*var),
                    class: class.0,
                });
                let t = (self.m.casts.len() - 1) as u32;
                self.produce(want, RInstr::new(ROp::Cast, 0, 0, 0, t), span);
            }
            KExprKind::Unary(op, a) => {
                let b = self.operand(a);
                let c = match op {
                    UnOp::Neg => 0,
                    UnOp::Not => 1,
                };
                self.produce(want, RInstr::new(ROp::Unary, 0, b, c, 0), span);
            }
            // Short-circuit logic is a choice: `a && b` is
            // `if (a) b else false`, `a || b` is `if (a) true else b`.
            KExprKind::Binary(BinOp::And, a, b) => {
                self.choose(a, Arm::Expr(b), Arm::Bool(false), want, span);
            }
            KExprKind::Binary(BinOp::Or, a, b) => {
                self.choose(a, Arm::Bool(true), Arm::Expr(b), want, span);
            }
            KExprKind::Binary(op, l, r) => {
                let (op, swap) = value_op(*op, num(l, r));
                let (b, c) = self.operands(l, r);
                let (b, c) = if swap { (c, b) } else { (b, c) };
                self.produce(want, RInstr::new(op, 0, b, c, 0), span);
            }
            KExprKind::Print(a) => {
                let r = self.operand(a);
                self.emit(RInstr::new(ROp::Print, r, 0, 0, 0), span);
                self.constant(Value::Unit, want, span);
            }
        }
    }

    fn call(
        &mut self,
        target: CallTarget,
        tail_start: u16,
        inst: &[RegVar],
        args: &[VarId],
        want: Want,
        span: Span,
    ) {
        let dst = self.dst(want);
        let args = args.iter().map(|&a| var_reg(a)).collect();
        let inst = inst.iter().map(|&r| self.regions.resolve(r)).collect();
        self.m.calls.push(CallSite {
            target,
            args,
            inst,
            tail_start,
            dst,
            span,
        });
        let t = (self.m.calls.len() - 1) as u32;
        // A field load feeding straight into the call fuses with it.
        match self.fusable_last(ROp::GetField) {
            Some(last) => {
                self.m.code[last] = RInstr {
                    op: ROp::FieldCall,
                    t,
                    ..self.m.code[last]
                }
            }
            None => {
                self.emit(RInstr::new(ROp::Call, 0, 0, 0, t), span);
            }
        }
        self.deliver(want, dst, span);
    }

    /// `if (cond) then_a else else_a`, delivering the chosen arm's value.
    fn choose(&mut self, cond: &KExpr, then_a: Arm, else_a: Arm, want: Want, span: Span) {
        let dropped = want == Want::Effect;
        match (
            dropped && self.is_silent(then_a),
            dropped && self.is_silent(else_a),
        ) {
            (true, true) => self.expr(cond, Want::Effect),
            // One arm does nothing: branch around the other.
            (then_silent, true) | (then_silent @ true, false) => {
                let mut skip = Vec::new();
                self.branch(cond, then_silent, &mut skip);
                self.arm(if then_silent { else_a } else { then_a }, want, span);
                self.patch(skip);
            }
            (false, false) => {
                let mut to_else = Vec::new();
                self.branch(cond, false, &mut to_else);
                self.arm(then_a, want, span);
                // A returning arm needs no jump over the other one.
                let to_end = (want != Want::Ret)
                    .then(|| self.emit(RInstr::new(ROp::Jump, 0, 0, 0, 0), span))
                    .into_iter()
                    .collect();
                self.patch(to_else);
                self.arm(else_a, want, span);
                self.patch(to_end);
            }
        }
    }

    fn arm(&mut self, arm: Arm, want: Want, span: Span) {
        match arm {
            Arm::Expr(e) => self.expr(e, want),
            Arm::Bool(b) => self.constant(Value::Bool(b), want, span),
        }
    }

    /// Emits code that jumps when `e` evaluates to `when` and falls
    /// through otherwise; the jumps to patch go into `jumps`.
    fn branch(&mut self, e: &KExpr, when: bool, jumps: &mut Vec<usize>) {
        let mark = self.next_temp;
        match &e.kind {
            // A condition with a `letreg` around it is just a value.
            _ if !self.bare(e) => self.jump_if(e, when, jumps),
            KExprKind::Bool(b) if *b == when => {
                jumps.push(self.emit(RInstr::new(ROp::Jump, 0, 0, 0, 0), e.span));
            }
            KExprKind::Bool(_) => {}
            KExprKind::Unary(UnOp::Not, a) => self.branch(a, !when, jumps),
            KExprKind::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // The value of `a` that decides the whole expression.
                let decides = *op == BinOp::Or;
                if when == decides {
                    self.branch(a, when, jumps);
                    self.branch(b, when, jumps);
                } else {
                    let mut skip = Vec::new();
                    self.branch(a, decides, &mut skip);
                    self.branch(b, when, jumps);
                    self.patch(skip);
                }
            }
            KExprKind::Binary(
                op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne),
                l,
                r,
            ) => {
                let (jump, swap) = branch_op(*op, num(l, r), when);
                let (a, b) = self.operands(l, r);
                let (a, b) = if swap { (b, a) } else { (a, b) };
                jumps.push(self.emit(RInstr::new(jump, a, b, 0, 0), e.span));
            }
            _ => self.jump_if(e, when, jumps),
        }
        self.next_temp = mark;
    }

    /// [`Self::branch`] on a loop's condition, inside which a loop jumps
    /// to its bottom test instead of copying its own condition.
    fn loop_test(&mut self, cond: &KExpr, when: bool, jumps: &mut Vec<usize>) {
        let outer = std::mem::replace(&mut self.in_loop_test, true);
        self.branch(cond, when, jumps);
        self.in_loop_test = outer;
    }

    /// Emits code that computes `e` and jumps when it is `when`.
    fn jump_if(&mut self, e: &KExpr, when: bool, jumps: &mut Vec<usize>) {
        let a = self.operand(e);
        let op = if when { ROp::JmpIf } else { ROp::JmpIfNot };
        jumps.push(self.emit(RInstr::new(op, a, 0, 0, 0), e.span));
    }
}
