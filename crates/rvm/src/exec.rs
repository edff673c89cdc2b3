//! The direct-threaded register engine.
//!
//! Dispatch is *direct-threaded* in the safe-Rust sense: every opcode's
//! handler is a free function, `HANDLERS` is a dense array of function
//! pointers indexed by the opcode discriminant, and the hot loop is
//! nothing but `pc = HANDLERS[op](…)?` — no `match` over the
//! instruction set in the dispatch path. A handler returns the next
//! program counter; the `SWITCH` sentinel means the frame stack
//! changed (call or return) and the outer loop must re-establish the
//! frame bases.
//!
//! Observable behaviour — return value, captured prints,
//! [`SpaceStats`], and structured [`RuntimeError`]s with their spans —
//! is bit-identical to the tree-walking interpreter
//! (`cj_runtime::run_main`); the differential suites enforce this.
//! `steps` in the returned [`Outcome`] counts *dispatches*, the register
//! engine's native work unit — one fused superinstruction does the work
//! of several plain instructions in a single step.
//!
//! The deliberate divergences from the interpreter — both reachable only
//! by *unchecked* programs, since the region checker proves such
//! references are never observed (Theorem 1): casting a reference whose
//! region has been deleted reports [`RuntimeError::DanglingAccess`] here
//! (the arena holding the object's class header is gone) where the
//! interpreter's immortal store would still answer, and printing or
//! returning such a reference shows a sentinel serial instead of the
//! original one.
//!
//! [`SpaceStats`]: cj_runtime::SpaceStats

use cj_frontend::ast::BinOp;
use cj_frontend::span::Span;
use cj_runtime::store::ObjId;
use cj_runtime::{Outcome, RunConfig, RuntimeError, Value};
use cj_vm::code::{
    bin_of, CallTarget, CmpOp, Lit, RInstr, RegRef, RvmMethod, RvmProgram, SlotTy, OP_COUNT,
};
use cj_vm::heap::{pack_ref, ObjRef, RegionHeap, NULL_WORD};
use std::fmt;

/// An engine-internal value. `Ref` carries the owning region and arena
/// offset (for access) plus the allocation serial (for observable
/// identity).
#[derive(Debug, Clone, Copy)]
enum RValue {
    Unit,
    Int(i64),
    Bool(bool),
    Float(f64),
    Null,
    Ref(ObjRef),
}

impl RValue {
    #[inline]
    fn as_int(self) -> i64 {
        match self {
            RValue::Int(v) => v,
            _ => unreachable!("ill-typed int operand"),
        }
    }

    #[inline]
    fn as_bool(self) -> bool {
        match self {
            RValue::Bool(v) => v,
            _ => unreachable!("ill-typed bool operand"),
        }
    }
}

/// Mirrors `cj_runtime::Value`'s rendering exactly (prints must be
/// byte-identical across engines).
impl fmt::Display for RValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RValue::Unit => f.write_str("()"),
            RValue::Int(v) => write!(f, "{v}"),
            RValue::Bool(v) => write!(f, "{v}"),
            RValue::Float(v) => write!(f, "{v}"),
            RValue::Null => f.write_str("null"),
            RValue::Ref(r) => write!(f, "obj@{}", r.serial),
        }
    }
}

#[inline]
fn lit_value(l: Lit) -> RValue {
    match l {
        Lit::Unit => RValue::Unit,
        Lit::Null => RValue::Null,
        Lit::Int(v) => RValue::Int(v),
        Lit::Bool(v) => RValue::Bool(v),
        Lit::Float(v) => RValue::Float(v),
    }
}

fn to_value(v: RValue) -> Value {
    match v {
        RValue::Unit => Value::Unit,
        RValue::Int(x) => Value::Int(x),
        RValue::Bool(x) => Value::Bool(x),
        RValue::Float(x) => Value::Float(x),
        RValue::Null => Value::Null,
        RValue::Ref(r) => Value::Ref(ObjId(r.serial)),
    }
}

fn from_value(v: Value) -> Option<RValue> {
    match v {
        Value::Unit => Some(RValue::Unit),
        Value::Int(x) => Some(RValue::Int(x)),
        Value::Bool(x) => Some(RValue::Bool(x)),
        Value::Float(x) => Some(RValue::Float(x)),
        Value::Null => Some(RValue::Null),
        // Foreign object references cannot enter a fresh heap.
        Value::Ref(_) => None,
    }
}

/// Reference-identity equality, exactly the other engines' `value_eq`.
#[inline]
fn value_eq(a: RValue, b: RValue) -> bool {
    match (a, b) {
        (RValue::Int(x), RValue::Int(y)) => x == y,
        (RValue::Bool(x), RValue::Bool(y)) => x == y,
        (RValue::Float(x), RValue::Float(y)) => x == y,
        (RValue::Null, RValue::Null) => true,
        (RValue::Ref(x), RValue::Ref(y)) => x.region == y.region && x.word == y.word,
        _ => false,
    }
}

/// Encodes a value into a payload word per the slot representation.
#[inline]
fn encode(ty: SlotTy, v: RValue) -> u64 {
    match (ty, v) {
        (SlotTy::Int, RValue::Int(x)) => x as u64,
        (SlotTy::Bool, RValue::Bool(x)) => x as u64,
        (SlotTy::Float, RValue::Float(x)) => x.to_bits(),
        (SlotTy::Ref, RValue::Null) => NULL_WORD,
        (SlotTy::Ref, RValue::Ref(r)) => pack_ref(r),
        _ => unreachable!("ill-typed payload store"),
    }
}

fn binary(op: BinOp, l: RValue, r: RValue, span: Span) -> Result<RValue, RuntimeError> {
    use BinOp::*;
    use RValue::*;
    Ok(match (op, l, r) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (Div, Int(_), Int(0)) => return Err(RuntimeError::DivisionByZero(span)),
        (Div, Int(x), Int(y)) => Int(x.wrapping_div(y)),
        (Rem, Int(_), Int(0)) => return Err(RuntimeError::DivisionByZero(span)),
        (Rem, Int(x), Int(y)) => Int(x.wrapping_rem(y)),
        (Add, Float(x), Float(y)) => Float(x + y),
        (Sub, Float(x), Float(y)) => Float(x - y),
        (Mul, Float(x), Float(y)) => Float(x * y),
        (Div, Float(x), Float(y)) => Float(x / y),
        (Rem, Float(x), Float(y)) => Float(x % y),
        (Lt, Int(x), Int(y)) => Bool(x < y),
        (Le, Int(x), Int(y)) => Bool(x <= y),
        (Gt, Int(x), Int(y)) => Bool(x > y),
        (Ge, Int(x), Int(y)) => Bool(x >= y),
        (Lt, Float(x), Float(y)) => Bool(x < y),
        (Le, Float(x), Float(y)) => Bool(x <= y),
        (Gt, Float(x), Float(y)) => Bool(x > y),
        (Ge, Float(x), Float(y)) => Bool(x >= y),
        (Eq, x, y) => Bool(value_eq(x, y)),
        (Ne, x, y) => Bool(!value_eq(x, y)),
        _ => unreachable!("ill-typed binary"),
    })
}

/// Evaluates a fused comparison.
#[inline]
fn cmp_eval(cmp: CmpOp, l: RValue, r: RValue) -> bool {
    use CmpOp::*;
    use RValue::*;
    match (cmp, l, r) {
        (Eq, x, y) => value_eq(x, y),
        (Ne, x, y) => !value_eq(x, y),
        (Lt, Int(x), Int(y)) => x < y,
        (Le, Int(x), Int(y)) => x <= y,
        (Gt, Int(x), Int(y)) => x > y,
        (Ge, Int(x), Int(y)) => x >= y,
        (Lt, Float(x), Float(y)) => x < y,
        (Le, Float(x), Float(y)) => x <= y,
        (Gt, Float(x), Float(y)) => x > y,
        (Ge, Float(x), Float(y)) => x >= y,
        _ => unreachable!("ill-typed comparison"),
    }
}

/// Frame bookkeeping: bases into the shared register/region-slot files,
/// plus the caller register the return value lands in.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    pc: u32,
    regs: u32,
    rslots: u32,
    dst: u16,
}

struct Rvm<'a> {
    p: &'a RvmProgram,
    heap: RegionHeap,
    /// Register files of every live frame, contiguously.
    regs: Vec<RValue>,
    /// Region slot values (region ids; 0 = heap) for every frame.
    rslots: Vec<u32>,
    frames: Vec<Frame>,
    /// Current frame's register base (re-established on frame switch).
    lbase: usize,
    /// Current frame's region-slot base.
    rbase: usize,
    steps: u64,
    limit: u64,
    max_depth: u32,
    erase: bool,
    /// Superinstruction dispatches retired (a telemetry counter).
    supers: u64,
    prints: Vec<String>,
    inst_buf: Vec<u32>,
    reg_buf: Vec<u32>,
    word_buf: Vec<u64>,
    ret: RValue,
}

/// Handler return value meaning "the frame stack changed" — re-enter the
/// outer loop (or finish, when the last frame returned).
const SWITCH: u32 = u32::MAX;

/// One opcode's execution routine: returns the next program counter (or
/// [`SWITCH`]).
type Handler = fn(&mut Rvm<'_>, &RvmMethod, RInstr, usize) -> Step;

/// A handler's outcome: the next program counter (or [`SWITCH`]), or a
/// runtime fault.
type Step = Result<u32, RuntimeError>;

/// The dense dispatch table, indexed by the [`ROp`](cj_vm::ROp) discriminant (order
/// pinned by a unit test below).
static HANDLERS: [Handler; OP_COUNT] = [
    h_load_const,
    h_move,
    h_add_imm,
    h_unary,
    h_binary,
    h_get_field,
    h_set_field,
    h_index,
    h_set_index,
    h_array_len,
    h_new_obj,
    h_new_arr,
    h_reg_push,
    h_reg_pop,
    h_call,
    h_field_call,
    h_cast,
    h_jump,
    h_jmp_if,
    h_jmp_if_not,
    h_jmp_cmp,
    h_jmp_cmp_not,
    h_jmp_cmp_c,
    h_jmp_cmp_not_c,
    h_inc_jump,
    h_print,
    h_ret,
];

/// Runs the program's static `main` on the register engine.
///
/// # Errors
///
/// Any [`RuntimeError`]; for checked programs, dangling-access errors
/// cannot occur.
pub fn run_main(p: &RvmProgram, args: &[Value], cfg: RunConfig) -> Result<Outcome, RuntimeError> {
    let func = p.main.ok_or(RuntimeError::NoMain)?;
    let method = &p.methods[func as usize];
    if method.params.len() != args.len() {
        return Err(RuntimeError::BadMainArgs);
    }
    let mut vm = Rvm {
        p,
        heap: RegionHeap::new(),
        regs: Vec::with_capacity(256),
        rslots: Vec::with_capacity(64),
        frames: Vec::with_capacity(64),
        lbase: 0,
        rbase: 0,
        steps: 0,
        limit: cfg.step_limit,
        max_depth: cfg.max_depth,
        erase: cfg.erase_regions,
        supers: 0,
        prints: Vec::new(),
        inst_buf: Vec::new(),
        reg_buf: Vec::new(),
        word_buf: Vec::new(),
        ret: RValue::Unit,
    };
    vm.regs
        .extend(method.defaults.iter().map(|&d| lit_value(d)));
    vm.regs.resize(method.nregs as usize, RValue::Unit);
    for (k, &a) in args.iter().enumerate() {
        let v = from_value(a).ok_or(RuntimeError::BadMainArgs)?;
        vm.regs[method.params[k] as usize] = v;
    }
    // Entry-point region parameters are bound to the heap (slot value 0).
    vm.rslots.resize(method.region_slots as usize, 0);
    vm.frames.push(Frame {
        func,
        pc: 0,
        regs: 0,
        rslots: 0,
        dst: 0,
    });
    let mut span = cj_trace::span("pipeline", "rvm-exec");
    let value = vm.run()?;
    span.add("dispatches", vm.steps);
    span.add("superinstructions_hit", vm.supers);
    Ok(Outcome {
        value: to_value(value),
        space: vm.heap.stats(),
        steps: vm.steps,
        prints: vm.prints,
    })
}

impl Rvm<'_> {
    #[inline(always)]
    fn reg(&self, r: u16) -> RValue {
        self.regs[self.lbase + r as usize]
    }

    #[inline(always)]
    fn set_reg(&mut self, r: u16, v: RValue) {
        let i = self.lbase + r as usize;
        self.regs[i] = v;
    }

    #[inline]
    fn deref(&self, v: RValue, span: Span) -> Result<ObjRef, RuntimeError> {
        match v {
            RValue::Ref(r) => {
                if self.heap.is_live(r.region) {
                    Ok(r)
                } else {
                    Err(RuntimeError::DanglingAccess(span))
                }
            }
            _ => Err(RuntimeError::NullPointer(span)),
        }
    }

    #[inline]
    fn resolve(&self, r: RegRef) -> u32 {
        match r {
            RegRef::Heap => 0,
            RegRef::Slot(s) => self.rslots[self.rbase + s as usize],
        }
    }

    #[inline]
    fn decode(&self, ty: SlotTy, word: u64) -> RValue {
        match ty {
            SlotTy::Int => RValue::Int(word as i64),
            SlotTy::Bool => RValue::Bool(word != 0),
            SlotTy::Float => RValue::Float(f64::from_bits(word)),
            SlotTy::Ref => match self.heap.unpack_ref(word) {
                Some(r) => RValue::Ref(r),
                None => RValue::Null,
            },
        }
    }

    fn run(&mut self) -> Result<RValue, RuntimeError> {
        let p = self.p;
        'frames: loop {
            let frame = *self.frames.last().expect("active frame");
            let method: &RvmMethod = &p.methods[frame.func as usize];
            self.lbase = frame.regs as usize;
            self.rbase = frame.rslots as usize;
            let mut pc = frame.pc as usize;
            loop {
                self.steps += 1;
                if self.steps > self.limit {
                    return Err(RuntimeError::StepLimit);
                }
                let i = method.code[pc];
                let next = HANDLERS[i.op as usize](self, method, i, pc)?;
                if next == SWITCH {
                    if self.frames.is_empty() {
                        return Ok(self.ret);
                    }
                    continue 'frames;
                }
                pc = next as usize;
            }
        }
    }

    /// The shared call protocol of `ROp::Call` and `ROp::FieldCall`:
    /// pushes the callee frame (region binding identical to the
    /// interpreter's) and reports a frame switch.
    fn do_call(&mut self, m: &RvmMethod, site_idx: usize, pc: usize) -> Step {
        if self.frames.len() as u32 > self.max_depth {
            return Err(RuntimeError::DepthLimit);
        }
        let p = self.p;
        let site = &m.calls[site_idx];
        self.inst_buf.clear();
        for &r in &site.inst {
            let id = self.resolve(r);
            self.inst_buf.push(id);
        }
        let (func, receiver) = match site.target {
            CallTarget::Static(f) => (f, None),
            CallTarget::Virtual { vslot, recv } => {
                let r = self.deref(self.reg(recv), site.span)?;
                let class = self.heap.class_of(r);
                (p.vtables[class as usize][vslot as usize], Some(r))
            }
        };
        let callee: &RvmMethod = &p.methods[func as usize];
        let new_lbase = self.regs.len();
        self.regs
            .extend(callee.defaults.iter().map(|&d| lit_value(d)));
        self.regs
            .resize(new_lbase + callee.nregs as usize, RValue::Unit);
        if let Some(r) = receiver {
            self.regs[new_lbase] = RValue::Ref(r);
        }
        for (k, &a) in site.args.iter().enumerate() {
            let v = self.regs[self.lbase + a as usize];
            self.regs[new_lbase + callee.params[k] as usize] = v;
        }
        let new_rbase = self.rslots.len();
        self.rslots
            .resize(new_rbase + callee.region_slots as usize, 0);
        match receiver {
            // Instance target: class region parameters come from the
            // receiver's recorded regions, method region parameters
            // positionally from the declared instantiation tail.
            Some(r) => {
                let ncp = callee.class_params as usize;
                for i in 0..ncp {
                    self.rslots[new_rbase + i] = self.heap.region_arg(r, i);
                }
                let tail = (site.tail_start as usize).min(self.inst_buf.len());
                let nmp = callee.abs_params as usize - ncp;
                for j in 0..nmp {
                    self.rslots[new_rbase + ncp + j] =
                        self.inst_buf.get(tail + j).copied().unwrap_or(0);
                }
            }
            None => {
                for i in 0..callee.abs_params as usize {
                    self.rslots[new_rbase + i] = self.inst_buf.get(i).copied().unwrap_or(0);
                }
            }
        }
        self.frames.last_mut().expect("frame").pc = (pc + 1) as u32;
        self.frames.push(Frame {
            func,
            pc: 0,
            regs: new_lbase as u32,
            rslots: new_rbase as u32,
            dst: site.dst,
        });
        Ok(SWITCH)
    }
}

fn h_load_const(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    vm.set_reg(i.a, lit_value(m.consts[i.t as usize]));
    Ok((pc + 1) as u32)
}

fn h_move(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let v = vm.reg(i.b);
    vm.set_reg(i.a, v);
    Ok((pc + 1) as u32)
}

fn h_add_imm(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let v = vm.reg(i.b).as_int().wrapping_add(i.imm);
    vm.set_reg(i.a, RValue::Int(v));
    vm.supers += 1;
    Ok((pc + 1) as u32)
}

fn h_unary(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let v = vm.reg(i.b);
    let out = match (i.c, v) {
        (0, RValue::Int(x)) => RValue::Int(x.wrapping_neg()),
        (0, RValue::Float(x)) => RValue::Float(-x),
        (1, RValue::Bool(x)) => RValue::Bool(!x),
        _ => unreachable!("ill-typed unary"),
    };
    vm.set_reg(i.a, out);
    Ok((pc + 1) as u32)
}

fn h_binary(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let l = vm.reg(i.b);
    let r = vm.reg(i.c);
    let out = binary(bin_of(i.t), l, r, m.spans[pc])?;
    vm.set_reg(i.a, out);
    Ok((pc + 1) as u32)
}

fn h_get_field(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let r = vm.deref(vm.reg(i.b), m.spans[pc])?;
    let word = vm.heap.field(r, i.c as usize);
    let v = vm.decode(i.ty, word);
    vm.set_reg(i.a, v);
    Ok((pc + 1) as u32)
}

fn h_set_field(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let r = vm.deref(vm.reg(i.a), m.spans[pc])?;
    let word = encode(i.ty, vm.reg(i.b));
    vm.heap.set_field(r, i.c as usize, word);
    Ok((pc + 1) as u32)
}

fn h_index(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let idx = vm.reg(i.c).as_int();
    let r = vm.deref(vm.reg(i.b), m.spans[pc])?;
    match vm.heap.element(r, idx as usize) {
        Some(word) => {
            let v = vm.decode(i.ty, word);
            vm.set_reg(i.a, v);
            Ok((pc + 1) as u32)
        }
        None => Err(RuntimeError::IndexOutOfBounds(m.spans[pc])),
    }
}

fn h_set_index(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let idx = vm.reg(i.b).as_int();
    let val = vm.reg(i.c);
    let r = vm.deref(vm.reg(i.a), m.spans[pc])?;
    if vm.heap.set_element(r, idx as usize, encode(i.ty, val)) {
        Ok((pc + 1) as u32)
    } else {
        Err(RuntimeError::IndexOutOfBounds(m.spans[pc]))
    }
}

fn h_array_len(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let r = vm.deref(vm.reg(i.b), m.spans[pc])?;
    let len = vm.heap.array_len(r) as i64;
    vm.set_reg(i.a, RValue::Int(len));
    Ok((pc + 1) as u32)
}

fn h_new_obj(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let site = &m.news[i.t as usize];
    vm.reg_buf.clear();
    for &r in &site.regions {
        let id = vm.resolve(r);
        vm.reg_buf.push(id);
    }
    vm.word_buf.clear();
    for &(var, ty) in &site.args {
        let w = encode(ty, vm.reg(var));
        vm.word_buf.push(w);
    }
    let obj = vm
        .heap
        .alloc_object(vm.reg_buf[0], site.class, &vm.reg_buf, &vm.word_buf)?;
    vm.set_reg(i.a, RValue::Ref(obj));
    Ok((pc + 1) as u32)
}

fn h_new_arr(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let site = m.arrays[i.t as usize];
    let n = vm.reg(i.b).as_int();
    if n < 0 {
        return Err(RuntimeError::NegativeLength(m.spans[pc]));
    }
    let region = vm.resolve(site.region);
    let obj = vm.heap.alloc_array(region, site.elem, n as usize)?;
    vm.set_reg(i.a, RValue::Ref(obj));
    Ok((pc + 1) as u32)
}

fn h_reg_push(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    // Region-erasure semantics: the letreg is a no-op and its region
    // variable denotes the heap.
    let id = if vm.erase { 0 } else { vm.heap.push() };
    vm.rslots[vm.rbase + i.a as usize] = id;
    Ok((pc + 1) as u32)
}

fn h_reg_pop(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    if !vm.erase {
        vm.heap.pop(vm.rslots[vm.rbase + i.a as usize])?;
    }
    Ok((pc + 1) as u32)
}

fn h_call(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    vm.do_call(m, i.t as usize, pc)
}

fn h_field_call(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    // Field half first (its faults carry the field access's span)…
    let r = vm.deref(vm.reg(i.b), m.spans[pc])?;
    let word = vm.heap.field(r, i.c as usize);
    let v = vm.decode(i.ty, word);
    vm.set_reg(i.a, v);
    vm.supers += 1;
    // …then the call half (its faults carry the call's span).
    vm.do_call(m, i.t as usize, pc)
}

fn h_cast(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let site = m.casts[i.t as usize];
    let v = vm.reg(site.var);
    match v {
        RValue::Null => vm.set_reg(i.a, RValue::Null),
        RValue::Ref(r) => {
            if !vm.heap.is_live(r.region) {
                // The arena that held the class header is gone (the
                // deliberate unchecked-program divergence above).
                return Err(RuntimeError::DanglingAccess(m.spans[pc]));
            }
            let class = vm.heap.class_of(r) as usize;
            if vm.p.subclass[class][site.class as usize] {
                vm.set_reg(i.a, v);
            } else {
                return Err(RuntimeError::CastFailed(m.spans[pc]));
            }
        }
        _ => return Err(RuntimeError::CastFailed(m.spans[pc])),
    }
    Ok((pc + 1) as u32)
}

fn h_jump(_vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, _pc: usize) -> Step {
    Ok(i.t)
}

/// A conditional jump's next program counter.
#[inline(always)]
fn branch(taken: bool, i: RInstr, pc: usize) -> Step {
    Ok(if taken { i.t } else { (pc + 1) as u32 })
}

fn h_jmp_if(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    branch(vm.reg(i.a).as_bool(), i, pc)
}

fn h_jmp_if_not(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    branch(!vm.reg(i.a).as_bool(), i, pc)
}

fn h_jmp_cmp(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    vm.supers += 1;
    let (lhs, rhs) = (vm.reg(i.a), vm.reg(i.b));
    branch(cmp_eval(CmpOp::from_code(i.c), lhs, rhs), i, pc)
}

fn h_jmp_cmp_not(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    vm.supers += 1;
    let (lhs, rhs) = (vm.reg(i.a), vm.reg(i.b));
    branch(!cmp_eval(CmpOp::from_code(i.c), lhs, rhs), i, pc)
}

fn h_jmp_cmp_c(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    vm.supers += 1;
    let rhs = lit_value(m.consts[i.imm as usize]);
    branch(cmp_eval(CmpOp::from_code(i.c), vm.reg(i.a), rhs), i, pc)
}

fn h_jmp_cmp_not_c(vm: &mut Rvm<'_>, m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    vm.supers += 1;
    let rhs = lit_value(m.consts[i.imm as usize]);
    branch(!cmp_eval(CmpOp::from_code(i.c), vm.reg(i.a), rhs), i, pc)
}

fn h_inc_jump(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, _pc: usize) -> Step {
    let v = vm.reg(i.a).as_int().wrapping_add(i.imm);
    vm.set_reg(i.a, RValue::Int(v));
    vm.supers += 1;
    Ok(i.t)
}

fn h_print(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, pc: usize) -> Step {
    let s = vm.reg(i.a).to_string();
    vm.prints.push(s);
    Ok((pc + 1) as u32)
}

fn h_ret(vm: &mut Rvm<'_>, _m: &RvmMethod, i: RInstr, _pc: usize) -> Step {
    let value = vm.reg(i.a);
    let done = vm.frames.pop().expect("frame");
    vm.regs.truncate(done.regs as usize);
    vm.rslots.truncate(done.rslots as usize);
    match vm.frames.last() {
        Some(caller) => {
            let slot = caller.regs as usize + done.dst as usize;
            vm.regs[slot] = value;
        }
        None => vm.ret = value,
    }
    Ok(SWITCH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_vm::code::{bin_code, ROp};

    /// The handler table is indexed by the `ROp` discriminant; this pins
    /// the enum order to the order `HANDLERS` is written in.
    #[test]
    fn opcode_discriminants_match_handler_table_order() {
        let order = [
            ROp::LoadConst,
            ROp::Move,
            ROp::AddImm,
            ROp::Unary,
            ROp::Binary,
            ROp::GetField,
            ROp::SetField,
            ROp::Index,
            ROp::SetIndex,
            ROp::ArrayLen,
            ROp::NewObj,
            ROp::NewArr,
            ROp::RegPush,
            ROp::RegPop,
            ROp::Call,
            ROp::FieldCall,
            ROp::Cast,
            ROp::Jump,
            ROp::JmpIf,
            ROp::JmpIfNot,
            ROp::JmpCmp,
            ROp::JmpCmpNot,
            ROp::JmpCmpC,
            ROp::JmpCmpNotC,
            ROp::IncJump,
            ROp::Print,
            ROp::Ret,
        ];
        assert_eq!(order.len(), OP_COUNT);
        assert_eq!(order.len(), HANDLERS.len());
        for (idx, op) in order.into_iter().enumerate() {
            assert_eq!(op as usize, idx, "{op:?} is out of handler-table order");
        }
    }

    #[test]
    fn bin_code_round_trips() {
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne] {
            assert_eq!(bin_of(bin_code(op)), op);
        }
    }
}
