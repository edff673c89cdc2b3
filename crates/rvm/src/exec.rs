//! The register engine's executor.
//!
//! Dispatch is one `match` on the opcode inside the dispatch loop, each
//! arm the opcode's handler inlined, so the program counter and the frame
//! bases stay in locals of one function. A call or a return leaves the
//! inner loop, and the outer loop re-establishes the frame bases.
//!
//! A call copies the callee's register-file template — its variable
//! defaults, then `Unit` for the temporaries, built once per run — and
//! writes the region instantiation straight into the callee's region
//! slots.
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
    bin_of, CallTarget, CastSite, CmpOp, Lit, NewSite, RInstr, ROp, RegRef, RvmMethod, RvmProgram,
    SlotTy,
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
    /// Per method, the register file a fresh frame starts from: the
    /// variable defaults, then `Unit` for the temporaries.
    templates: Vec<Vec<RValue>>,
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
    reg_buf: Vec<u32>,
    word_buf: Vec<u64>,
}

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
    let templates = p
        .methods
        .iter()
        .map(|m| {
            let mut regs: Vec<RValue> = m.defaults.iter().map(|&d| lit_value(d)).collect();
            regs.resize(m.nregs as usize, RValue::Unit);
            regs
        })
        .collect();
    let mut vm = Rvm {
        p,
        heap: RegionHeap::new(),
        templates,
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
        reg_buf: Vec::new(),
        word_buf: Vec::new(),
    };
    vm.regs.extend_from_slice(&vm.templates[func as usize]);
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
    let value = vm.run();
    if value.is_ok() {
        span.add("dispatches", vm.steps);
        span.add("superinstructions_hit", vm.supers);
    }
    let (space, steps, prints) = (vm.heap.stats(), vm.steps, std::mem::take(&mut vm.prints));
    // Freeing the arenas and register files is the engine's work too.
    drop(vm);
    drop(span);
    Ok(Outcome {
        value: to_value(value?),
        space,
        steps,
        prints,
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

    /// The dispatch loop: one `match` on the opcode per step. The outer
    /// loop re-establishes the frame bases after a call or a return.
    fn run(&mut self) -> Result<RValue, RuntimeError> {
        let p = self.p;
        'frames: loop {
            let frame = *self.frames.last().expect("active frame");
            let m: &RvmMethod = &p.methods[frame.func as usize];
            self.lbase = frame.regs as usize;
            self.rbase = frame.rslots as usize;
            let mut pc = frame.pc as usize;
            loop {
                self.steps += 1;
                if self.steps > self.limit {
                    return Err(RuntimeError::StepLimit);
                }
                let i = m.code[pc];
                pc = match i.op {
                    ROp::LoadConst => {
                        self.set_reg(i.a, lit_value(m.consts[i.t as usize]));
                        pc + 1
                    }
                    ROp::Move => {
                        let v = self.reg(i.b);
                        self.set_reg(i.a, v);
                        pc + 1
                    }
                    ROp::AddImm => {
                        let v = self.reg(i.b).as_int().wrapping_add(i.imm);
                        self.set_reg(i.a, RValue::Int(v));
                        self.supers += 1;
                        pc + 1
                    }
                    ROp::Unary => {
                        let out = match (i.c, self.reg(i.b)) {
                            (0, RValue::Int(x)) => RValue::Int(x.wrapping_neg()),
                            (0, RValue::Float(x)) => RValue::Float(-x),
                            (1, RValue::Bool(x)) => RValue::Bool(!x),
                            _ => unreachable!("ill-typed unary"),
                        };
                        self.set_reg(i.a, out);
                        pc + 1
                    }
                    ROp::Binary => {
                        let out = binary(bin_of(i.t), self.reg(i.b), self.reg(i.c), m.spans[pc])?;
                        self.set_reg(i.a, out);
                        pc + 1
                    }
                    ROp::GetField => {
                        self.get_field(i, m.spans[pc])?;
                        pc + 1
                    }
                    ROp::SetField => {
                        let r = self.deref(self.reg(i.a), m.spans[pc])?;
                        let word = encode(i.ty, self.reg(i.b));
                        self.heap.set_field(r, i.c as usize, word);
                        pc + 1
                    }
                    ROp::Index => {
                        let idx = self.reg(i.c).as_int();
                        let r = self.deref(self.reg(i.b), m.spans[pc])?;
                        let Some(word) = self.heap.element(r, idx as usize) else {
                            return Err(RuntimeError::IndexOutOfBounds(m.spans[pc]));
                        };
                        let v = self.decode(i.ty, word);
                        self.set_reg(i.a, v);
                        pc + 1
                    }
                    ROp::SetIndex => {
                        let idx = self.reg(i.b).as_int();
                        let val = self.reg(i.c);
                        let r = self.deref(self.reg(i.a), m.spans[pc])?;
                        if !self.heap.set_element(r, idx as usize, encode(i.ty, val)) {
                            return Err(RuntimeError::IndexOutOfBounds(m.spans[pc]));
                        }
                        pc + 1
                    }
                    ROp::ArrayLen => {
                        let r = self.deref(self.reg(i.b), m.spans[pc])?;
                        let len = self.heap.array_len(r) as i64;
                        self.set_reg(i.a, RValue::Int(len));
                        pc + 1
                    }
                    ROp::NewObj => {
                        self.new_obj(&m.news[i.t as usize], i.a)?;
                        pc + 1
                    }
                    ROp::NewArr => {
                        let site = m.arrays[i.t as usize];
                        let n = self.reg(i.b).as_int();
                        if n < 0 {
                            return Err(RuntimeError::NegativeLength(m.spans[pc]));
                        }
                        let region = self.resolve(site.region);
                        let obj = self.heap.alloc_array(region, site.elem, n as usize)?;
                        self.set_reg(i.a, RValue::Ref(obj));
                        pc + 1
                    }
                    ROp::RegPush => {
                        // Region-erasure semantics: the letreg is a no-op
                        // and its region variable denotes the heap.
                        let id = if self.erase { 0 } else { self.heap.push() };
                        self.rslots[self.rbase + i.a as usize] = id;
                        pc + 1
                    }
                    ROp::RegPop => {
                        if !self.erase {
                            self.heap.pop(self.rslots[self.rbase + i.a as usize])?;
                        }
                        pc + 1
                    }
                    ROp::Call => {
                        self.call(m, i.t as usize, pc)?;
                        continue 'frames;
                    }
                    ROp::FieldCall => {
                        // Field half first (its faults carry the field
                        // access's span)…
                        self.get_field(i, m.spans[pc])?;
                        self.supers += 1;
                        // …then the call half (its faults carry the call's
                        // span).
                        self.call(m, i.t as usize, pc)?;
                        continue 'frames;
                    }
                    ROp::Cast => {
                        self.cast(m.casts[i.t as usize], i.a, m.spans[pc])?;
                        pc + 1
                    }
                    ROp::Jump => i.t as usize,
                    ROp::JmpIf => branch(self.reg(i.a).as_bool(), i, pc),
                    ROp::JmpIfNot => branch(!self.reg(i.a).as_bool(), i, pc),
                    ROp::JmpCmp => {
                        self.supers += 1;
                        let taken = cmp_eval(CmpOp::from_code(i.c), self.reg(i.a), self.reg(i.b));
                        branch(taken, i, pc)
                    }
                    ROp::JmpCmpNot => {
                        self.supers += 1;
                        let taken = cmp_eval(CmpOp::from_code(i.c), self.reg(i.a), self.reg(i.b));
                        branch(!taken, i, pc)
                    }
                    ROp::JmpCmpC => {
                        self.supers += 1;
                        let rhs = lit_value(m.consts[i.imm as usize]);
                        branch(cmp_eval(CmpOp::from_code(i.c), self.reg(i.a), rhs), i, pc)
                    }
                    ROp::JmpCmpNotC => {
                        self.supers += 1;
                        let rhs = lit_value(m.consts[i.imm as usize]);
                        branch(!cmp_eval(CmpOp::from_code(i.c), self.reg(i.a), rhs), i, pc)
                    }
                    ROp::IncJump => {
                        let v = self.reg(i.a).as_int().wrapping_add(i.imm);
                        self.set_reg(i.a, RValue::Int(v));
                        self.supers += 1;
                        i.t as usize
                    }
                    ROp::Print => {
                        let s = self.reg(i.a).to_string();
                        self.prints.push(s);
                        pc + 1
                    }
                    ROp::Ret => match self.ret(self.reg(i.a)) {
                        Some(value) => return Ok(value),
                        None => continue 'frames,
                    },
                };
            }
        }
    }

    /// `r[a] = decode(ty, field c of the object in r[b])`.
    #[inline(always)]
    fn get_field(&mut self, i: RInstr, span: Span) -> Result<(), RuntimeError> {
        let r = self.deref(self.reg(i.b), span)?;
        let word = self.heap.field(r, i.c as usize);
        let v = self.decode(i.ty, word);
        self.set_reg(i.a, v);
        Ok(())
    }

    #[inline]
    fn new_obj(&mut self, site: &NewSite, dst: u16) -> Result<(), RuntimeError> {
        self.reg_buf.clear();
        for &r in &site.regions {
            let id = self.resolve(r);
            self.reg_buf.push(id);
        }
        self.word_buf.clear();
        for &(var, ty) in &site.args {
            let w = encode(ty, self.reg(var));
            self.word_buf.push(w);
        }
        let obj =
            self.heap
                .alloc_object(self.reg_buf[0], site.class, &self.reg_buf, &self.word_buf)?;
        self.set_reg(dst, RValue::Ref(obj));
        Ok(())
    }

    #[inline]
    fn cast(&mut self, site: CastSite, dst: u16, span: Span) -> Result<(), RuntimeError> {
        let v = self.reg(site.var);
        match v {
            RValue::Null => self.set_reg(dst, RValue::Null),
            RValue::Ref(r) => {
                if !self.heap.is_live(r.region) {
                    // The arena that held the class header is gone (the
                    // deliberate unchecked-program divergence above).
                    return Err(RuntimeError::DanglingAccess(span));
                }
                let class = self.heap.class_of(r) as usize;
                if !self.p.subclass[class][site.class as usize] {
                    return Err(RuntimeError::CastFailed(span));
                }
                self.set_reg(dst, v);
            }
            _ => return Err(RuntimeError::CastFailed(span)),
        }
        Ok(())
    }

    /// The shared call protocol of `ROp::Call` and `ROp::FieldCall`:
    /// pushes the callee frame, its registers copied from the callee's
    /// template and its region slots bound exactly as the interpreter
    /// binds them.
    #[inline]
    fn call(&mut self, m: &RvmMethod, site_idx: usize, pc: usize) -> Result<(), RuntimeError> {
        if self.frames.len() as u32 > self.max_depth {
            return Err(RuntimeError::DepthLimit);
        }
        let p = self.p;
        let site = &m.calls[site_idx];
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
        self.regs.extend_from_slice(&self.templates[func as usize]);
        if let Some(r) = receiver {
            self.regs[new_lbase] = RValue::Ref(r);
        }
        for (k, &a) in site.args.iter().enumerate() {
            let v = self.regs[self.lbase + a as usize];
            self.regs[new_lbase + callee.params[k] as usize] = v;
        }
        // Region instantiation, resolved against the caller's slots and
        // pushed as the callee's first `abs_params` slots. An instance
        // target binds its class region parameters from the receiver's
        // recorded regions, and its method region parameters positionally
        // from the declared instantiation's tail.
        let new_rbase = self.rslots.len();
        let (bound, tail) = match receiver {
            Some(r) => {
                let ncp = callee.class_params as usize;
                for i in 0..ncp {
                    let id = self.heap.region_arg(r, i);
                    self.rslots.push(id);
                }
                (ncp, (site.tail_start as usize).min(site.inst.len()))
            }
            None => (0, 0),
        };
        for j in 0..callee.abs_params as usize - bound {
            let id = site.inst.get(tail + j).map_or(0, |&r| self.resolve(r));
            self.rslots.push(id);
        }
        self.rslots
            .resize(new_rbase + callee.region_slots as usize, 0);
        self.frames.last_mut().expect("frame").pc = (pc + 1) as u32;
        self.frames.push(Frame {
            func,
            pc: 0,
            regs: new_lbase as u32,
            rslots: new_rbase as u32,
            dst: site.dst,
        });
        Ok(())
    }

    /// Pops the current frame and hands `value` to the caller's
    /// destination register; `Some(value)` when `main` itself returned.
    #[inline]
    fn ret(&mut self, value: RValue) -> Option<RValue> {
        let done = self.frames.pop().expect("frame");
        self.regs.truncate(done.regs as usize);
        self.rslots.truncate(done.rslots as usize);
        match self.frames.last() {
            Some(caller) => {
                let slot = caller.regs as usize + done.dst as usize;
                self.regs[slot] = value;
                None
            }
            None => Some(value),
        }
    }
}

/// A conditional jump's next program counter.
#[inline(always)]
fn branch(taken: bool, i: RInstr, pc: usize) -> usize {
    if taken {
        i.t as usize
    } else {
        pc + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_vm::code::bin_code;

    #[test]
    fn bin_code_round_trips() {
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne] {
            assert_eq!(bin_of(bin_code(op)), op);
        }
    }
}
