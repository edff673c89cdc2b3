//! Lowering: region-annotated kernel ([`RProgram`]) → register code
//! ([`RvmProgram`]), in one pass over each kernel body, reading the
//! regions from the method's annotation tables.
//!
//! Everything name-shaped is resolved here, once: virtual dispatch becomes
//! a vtable-slot index, casts a subclass-matrix read, field access a
//! constructor-order offset with a baked-in representation, and every
//! region mention a frame-local region slot (abstraction parameters first,
//! then one slot per `letreg` binding — shadowing gets fresh slots, so
//! `RegPush`/`RegPop` always address the binding they delimit).
//!
//! # Code generation
//!
//! Each expression is compiled *into* where its value is wanted: a
//! destination register, the method's return, or nowhere (evaluated for
//! its effects only). Variables and literals never cost an instruction of
//! their own — they fold into the consuming instruction's operands — and
//! a statement's discarded value is never materialized. A `letreg`
//! placed around an expression or a run of block items becomes a
//! `RegPush` before it and a `RegPop` after; an expression with a
//! `letreg` around it never takes part in the idioms below. Conditions compile
//! to jumps directly, `&&`/`||` included, and the hottest idioms come out
//! as superinstructions straight from the tree:
//!
//! - a comparison in an `if`/`while` condition is one compare-and-branch
//!   ([`ROp::JmpCmp`]*, with a constant right-hand side folded into the
//!   instruction);
//! - `e ± k` with an integer literal `k` is [`ROp::AddImm`];
//! - a loop body ending in `i = i + k` closes with [`ROp::IncJump`];
//! - a field load feeding straight into a call (`let t = v.f in m(…t…)`)
//!   is [`ROp::FieldCall`].
//!
//! Fusion never swallows a jump target, so every label stays an
//! instruction boundary.

use crate::code::{
    bin_code, ArraySite, CallSite, CallTarget, CastSite, CmpOp, NewSite, RInstr, ROp, RegRef,
    RvmMethod, RvmProgram,
};
use cj_frontend::ast::{BinOp, UnOp};
use cj_frontend::kernel::{walk_expr, KExpr, KExprKind, KMethod};
use cj_frontend::span::Span;
use cj_frontend::types::{ClassId, MethodId, NType, VarId};
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
        subclass: tables.subclass,
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
    subclass: Vec<Vec<bool>>,
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

        let subclass = (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| table.is_subclass(ClassId(a as u32), ClassId(b as u32)))
                    .collect()
            })
            .collect();
        let main = table
            .lookup_static(Symbol::intern("main"))
            .map(|(i, _)| MethodId::Static(i));
        GlobalTables {
            func_of,
            vslots,
            vtables,
            subclass,
            main,
        }
    }
}

/// Region variables in scope, resolved to frame region slots: abstraction
/// parameters first, then one fresh slot per `letreg` binding, so
/// shadowing gets a slot of its own.
struct RegionSlots {
    slots: HashMap<RegVar, u16>,
    next: u16,
}

impl RegionSlots {
    fn new(rm: &RMethod) -> RegionSlots {
        let slots = rm.abs_params.iter().enumerate();
        RegionSlots {
            slots: slots.map(|(i, &r)| (r, i as u16)).collect(),
            next: rm.abs_params.len() as u16,
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

    /// Binds `r` to a fresh slot; returns the slot and the binding it
    /// shadows, for [`Self::unbind`].
    fn bind(&mut self, r: RegVar) -> (u16, Option<u16>) {
        self.next += 1;
        (self.next - 1, self.slots.insert(r, self.next - 1))
    }

    fn unbind(&mut self, r: RegVar, shadowed: Option<u16>) {
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
    /// As the method's result: every path ends in `Ret`.
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

struct FnLowerer<'a> {
    p: &'a RProgram,
    km: &'a KMethod,
    rm: &'a RMethod,
    tables: &'a GlobalTables,
    /// The method being lowered; `nregs` tracks the temporaries' high
    /// water mark.
    m: RvmMethod,
    regions: RegionSlots,
    /// The `letreg`s enclosing the current point, innermost last: a return
    /// from inside leaves them first. Each is its slot, its span, its
    /// region and the slot of the binding it shadows.
    open: Vec<(u16, Span, RegVar, Option<u16>)>,
    /// Next free temporary; temporaries live above the variable registers
    /// and are allocated stack-wise.
    next_temp: u16,
    /// Position of the most recently bound jump target: fusion never
    /// rewrites an instruction before it.
    barrier: usize,
}

fn lower_method(
    p: &RProgram,
    id: MethodId,
    km: &KMethod,
    rm: &RMethod,
    tables: &GlobalTables,
) -> RvmMethod {
    let nlocals = km.vars.len() as u16;
    let m = RvmMethod {
        name: p.kernel.method_name(id),
        code: Vec::new(),
        spans: Vec::new(),
        consts: Vec::new(),
        defaults: km.vars.iter().map(|v| Value::default_of(v.ty)).collect(),
        params: km.params.iter().map(|&v| var_reg(v)).collect(),
        has_this: !km.is_static,
        class_params: (rm.abs_params.len() - rm.mparams.len()) as u16,
        abs_params: rm.abs_params.len() as u16,
        region_slots: 0,
        nregs: nlocals,
        news: Vec::new(),
        arrays: Vec::new(),
        calls: Vec::new(),
        casts: Vec::new(),
    };
    let regions = RegionSlots::new(rm);
    let (open, next_temp, barrier) = (Vec::new(), nlocals, 0);
    let mut lo = FnLowerer {
        p,
        km,
        rm,
        tables,
        m,
        regions,
        open,
        next_temp,
        barrier,
    };
    lo.expr(&km.body, Want::Ret);
    let code = &lo.m.code;
    debug_assert!(code
        .iter()
        .all(|i| !i.op.is_jump() || (i.t as usize) < code.len()));
    RvmMethod {
        region_slots: lo.regions.next,
        ..lo.m
    }
}

impl FnLowerer<'_> {
    fn emit(&mut self, i: RInstr, span: Span) -> usize {
        self.m.code.push(i);
        self.m.spans.push(span);
        self.m.code.len() - 1
    }

    fn konst(&mut self, lit: Value) -> u32 {
        match self.m.consts.iter().position(|&l| lit_eq(l, lit)) {
            Some(i) => i as u32,
            None => {
                self.m.consts.push(lit);
                (self.m.consts.len() - 1) as u32
            }
        }
    }

    fn temp(&mut self) -> u16 {
        self.next_temp += 1;
        self.m.nregs = self.m.nregs.max(self.next_temp);
        self.next_temp - 1
    }

    /// Binds a jump target at the current end of the code.
    fn label(&mut self) -> u32 {
        self.barrier = self.m.code.len();
        self.m.code.len() as u32
    }

    /// Points every jump in `jumps` at the current end of the code.
    fn patch(&mut self, jumps: Vec<usize>) {
        if !jumps.is_empty() {
            let to = self.label();
            for j in jumps {
                self.m.code[j].t = to;
            }
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
            // Leave every enclosing `letreg` first.
            for i in (0..self.open.len()).rev() {
                let (slot, at, ..) = self.open[i];
                self.emit(RInstr::new(ROp::RegPop, slot, 0, 0, 0), at);
            }
            self.emit(RInstr::new(ROp::Ret, r, 0, 0, 0), span);
        }
    }

    fn constant(&mut self, lit: Value, want: Want, span: Span) {
        if want != Want::Effect {
            let t = self.konst(lit);
            self.produce(want, RInstr::new(ROp::LoadConst, 0, 0, 0, t), span);
        }
    }

    /// The register holding `e`'s value: a variable's own register, or a
    /// fresh temporary `e` is computed into.
    fn operand(&mut self, e: &KExpr) -> u16 {
        if let (KExprKind::Var(v), true) = (&e.kind, self.bare(e)) {
            return var_reg(*v);
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

    /// Enters `letreg r`: binds `r` to a fresh region slot.
    fn push_region(&mut self, r: RegVar, span: Span) {
        let (slot, shadowed) = self.regions.bind(r);
        self.emit(RInstr::new(ROp::RegPush, slot, 0, 0, 0), span);
        self.open.push((slot, span, r, shadowed));
    }

    /// Leaves the innermost `letreg` after code that delivered `want`: a
    /// returning body has already left the region on every path.
    fn pop_region(&mut self, want: Want) {
        let (slot, span, r, shadowed) = self.open.pop().expect("an open letreg");
        if want != Want::Ret {
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
            KExprKind::Var(v) => match want {
                Want::Into(r) if r != var_reg(*v) => {
                    self.emit(RInstr::new(ROp::Move, r, var_reg(*v), 0, 0), span);
                }
                Want::Ret => self.deliver(want, var_reg(*v), span),
                _ => {}
            },
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
                let top = self.label();
                let mut exit = Vec::new();
                self.branch(cond, false, &mut exit);
                self.expr(body, Want::Effect);
                // A body ending in `i = i + k` bumps and loops in one
                // dispatch.
                match self.fusable_last(ROp::AddImm) {
                    Some(last) if self.m.code[last].a == self.m.code[last].b => {
                        let bump = self.m.code[last];
                        let i = RInstr::new(ROp::IncJump, bump.a, 0, 0, top);
                        self.m.code[last] = RInstr { imm: bump.imm, ..i };
                    }
                    _ => {
                        self.emit(RInstr::new(ROp::Jump, 0, 0, 0, top), span);
                    }
                }
                self.patch(exit);
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
            KExprKind::Binary(op, l, r) => self.binary(*op, l, r, want, span),
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

    fn binary(&mut self, op: BinOp, l: &KExpr, r: &KExpr, want: Want, span: Span) {
        // `e + k`, `k + e` and `e - k` with an integer literal `k`.
        let int = |e: &KExpr| match e.kind {
            KExprKind::Int(k) => Some(k),
            _ => None,
        };
        let imm = match (op, int(l), int(r)) {
            (BinOp::Add, None, Some(k)) => Some((l, k)),
            (BinOp::Sub, None, Some(k)) => Some((l, k.wrapping_neg())),
            (BinOp::Add, Some(k), None) => Some((r, k)),
            _ => None,
        };
        let i = match imm {
            Some((e, imm)) => {
                let b = self.operand(e);
                RInstr {
                    imm,
                    ..RInstr::new(ROp::AddImm, 0, b, 0, 0)
                }
            }
            None => {
                let (b, c) = self.operands(l, r);
                RInstr::new(ROp::Binary, 0, b, c, bin_code(op))
            }
        };
        self.produce(want, i, span);
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
            KExprKind::Binary(op, l, r) if CmpOp::of(*op).is_some() => {
                let cmp = CmpOp::of(*op).expect("a comparison");
                let (with_reg, with_const) = match when {
                    true => (ROp::JmpCmp, ROp::JmpCmpC),
                    false => (ROp::JmpCmpNot, ROp::JmpCmpNotC),
                };
                // A literal operand rides in the instruction, on the right.
                let i = match (literal(l), literal(r)) {
                    (_, Some(k)) => {
                        let a = self.operand(l);
                        let imm = i64::from(self.konst(k));
                        RInstr {
                            imm,
                            ..RInstr::new(with_const, a, 0, cmp.code(), 0)
                        }
                    }
                    (Some(k), None) => {
                        let a = self.operand(r);
                        let imm = i64::from(self.konst(k));
                        RInstr {
                            imm,
                            ..RInstr::new(with_const, a, 0, cmp.mirrored().code(), 0)
                        }
                    }
                    (None, None) => {
                        let (a, b) = self.operands(l, r);
                        RInstr::new(with_reg, a, b, cmp.code(), 0)
                    }
                };
                jumps.push(self.emit(i, e.span));
            }
            _ => self.jump_if(e, when, jumps),
        }
        self.next_temp = mark;
    }

    /// Emits code that computes `e` and jumps when it is `when`.
    fn jump_if(&mut self, e: &KExpr, when: bool, jumps: &mut Vec<usize>) {
        let a = self.operand(e);
        let op = if when { ROp::JmpIf } else { ROp::JmpIfNot };
        jumps.push(self.emit(RInstr::new(op, a, 0, 0, 0), e.span));
    }
}
