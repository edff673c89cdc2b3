//! The register engine's executor.
//!
//! Dispatch is one `match` on the opcode inside the dispatch loop, each
//! arm the opcode's handler inlined, so the program counter and the frame
//! bases stay in locals of one function. A call or a return leaves the
//! inner loop, and the outer loop re-establishes the frame bases.
//!
//! A call copies the callee's frame template ([`RvmMethod::frame`]:
//! variable defaults, `Unit` temporaries and the constant registers) and
//! writes the region instantiation straight into the callee's region
//! slots.
//!
//! Opcodes are typed ([`ROp::IAdd`], [`ROp::JmpFLt`], …), so an
//! arithmetic or comparison handler reads its two operands and computes,
//! with no operator code to decode; only `==`/`!=` on references,
//! booleans and `null` go through `value_eq`. Integer division and
//! remainder wrap, and read the instruction's span only to report a zero
//! divisor.
//!
//! Observable behaviour — return value, captured prints,
//! [`SpaceStats`], and structured [`RuntimeError`]s with their spans —
//! is bit-identical to the tree-walking interpreter
//! (`cj_runtime::run_main`); the differential suites enforce this. Both
//! engines hold the same [`Value`]s and allocate in the same
//! [`RegionHeap`]; the typed handlers compute exactly what the
//! interpreter's `binary` does.
//! `steps` in the returned [`Outcome`] counts *dispatches*, the register
//! engine's native work unit — one fused superinstruction does the work
//! of several plain instructions in a single step.
//!
//! [`SpaceStats`]: cj_runtime::SpaceStats

use cj_frontend::ast::UnOp;
use cj_frontend::span::Span;
use cj_runtime::heap::{encode, ObjRef, RegionHeap};
use cj_runtime::value::{unary, value_eq};
use cj_runtime::{Outcome, RunConfig, RuntimeError, Value};
use cj_vm::code::{CallTarget, CastSite, NewSite, RInstr, ROp, RegRef, RvmMethod, RvmProgram};
use std::cmp::Ordering::{Equal, Less};

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
    regs: Vec<Value>,
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
    let (func, decl) = p.main.ok_or(RuntimeError::NoMain)?;
    let method = &p.methods[func as usize];
    // Foreign object references cannot enter a fresh heap.
    if method.params.len() != args.len() || args.iter().any(|a| matches!(a, Value::Ref(_))) {
        return Err(RuntimeError::BadMainArgs(decl));
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
        reg_buf: Vec::new(),
        word_buf: Vec::new(),
    };
    vm.regs.extend_from_slice(&method.frame);
    for (k, &a) in args.iter().enumerate() {
        vm.regs[method.params[k] as usize] = a;
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
        value: value?,
        space,
        steps,
        prints,
    })
}

impl Rvm<'_> {
    #[inline(always)]
    fn reg(&self, r: u16) -> Value {
        self.regs[self.lbase + r as usize]
    }

    #[inline(always)]
    fn set_reg(&mut self, r: u16, v: Value) {
        let i = self.lbase + r as usize;
        self.regs[i] = v;
    }

    #[inline]
    fn deref(&self, v: Value, span: Span) -> Result<ObjRef, RuntimeError> {
        match v {
            Value::Ref(r) if self.heap.is_live(r.region) => Ok(r),
            Value::Ref(_) => Err(RuntimeError::DanglingAccess(span)),
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

    /// The dispatch loop: one `match` on the opcode per step. The outer
    /// loop re-establishes the frame bases after a call or a return.
    fn run(&mut self) -> Result<Value, RuntimeError> {
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
                    ROp::Move => {
                        let v = self.reg(i.b);
                        self.set_reg(i.a, v);
                        pc + 1
                    }
                    ROp::Unary => {
                        let op = [UnOp::Neg, UnOp::Not][i.c as usize];
                        self.set_reg(i.a, unary(op, self.reg(i.b)));
                        pc + 1
                    }
                    ROp::IAdd => self.ints(i, pc, |x, y| Value::Int(x.wrapping_add(y))),
                    ROp::ISub => self.ints(i, pc, |x, y| Value::Int(x.wrapping_sub(y))),
                    ROp::IMul => self.ints(i, pc, |x, y| Value::Int(x.wrapping_mul(y))),
                    ROp::IDiv | ROp::IRem => {
                        let (x, y) = (int(self.reg(i.b)), int(self.reg(i.c)));
                        if y == 0 {
                            return Err(RuntimeError::DivisionByZero(m.spans[pc]));
                        }
                        let v = match i.op {
                            ROp::IDiv => x.wrapping_div(y),
                            _ => x.wrapping_rem(y),
                        };
                        self.set_reg(i.a, Value::Int(v));
                        pc + 1
                    }
                    ROp::ILt => self.ints(i, pc, |x, y| Value::Bool(x < y)),
                    ROp::ILe => self.ints(i, pc, |x, y| Value::Bool(x <= y)),
                    ROp::IEq => self.ints(i, pc, |x, y| Value::Bool(x == y)),
                    ROp::INe => self.ints(i, pc, |x, y| Value::Bool(x != y)),
                    ROp::FAdd => self.floats(i, pc, |x, y| Value::Float(x + y)),
                    ROp::FSub => self.floats(i, pc, |x, y| Value::Float(x - y)),
                    ROp::FMul => self.floats(i, pc, |x, y| Value::Float(x * y)),
                    ROp::FDiv => self.floats(i, pc, |x, y| Value::Float(x / y)),
                    ROp::FRem => self.floats(i, pc, |x, y| Value::Float(x % y)),
                    ROp::FLt => self.floats(i, pc, |x, y| Value::Bool(x < y)),
                    ROp::FLe => self.floats(i, pc, |x, y| Value::Bool(x <= y)),
                    ROp::FEq => self.floats(i, pc, |x, y| Value::Bool(x == y)),
                    ROp::FNe => self.floats(i, pc, |x, y| Value::Bool(x != y)),
                    ROp::Eq => {
                        let v = value_eq(self.reg(i.b), self.reg(i.c));
                        self.set_reg(i.a, Value::Bool(v));
                        pc + 1
                    }
                    ROp::Ne => {
                        let v = !value_eq(self.reg(i.b), self.reg(i.c));
                        self.set_reg(i.a, Value::Bool(v));
                        pc + 1
                    }
                    ROp::GetField => {
                        self.get_field(i, m.spans[pc])?;
                        pc + 1
                    }
                    ROp::SetField => {
                        let r = self.deref(self.reg(i.a), m.spans[pc])?;
                        let word = encode(self.reg(i.b));
                        self.heap.set_field(r, i.c as usize, word);
                        pc + 1
                    }
                    ROp::Index => {
                        let idx = int(self.reg(i.c));
                        let r = self.deref(self.reg(i.b), m.spans[pc])?;
                        let Some(word) = self.heap.element(r, idx as usize) else {
                            return Err(RuntimeError::IndexOutOfBounds(m.spans[pc]));
                        };
                        let v = self.heap.decode(i.ty, word);
                        self.set_reg(i.a, v);
                        pc + 1
                    }
                    ROp::SetIndex => {
                        let idx = int(self.reg(i.b));
                        let val = self.reg(i.c);
                        let r = self.deref(self.reg(i.a), m.spans[pc])?;
                        if !self.heap.set_element(r, idx as usize, encode(val)) {
                            return Err(RuntimeError::IndexOutOfBounds(m.spans[pc]));
                        }
                        pc + 1
                    }
                    ROp::ArrayLen => {
                        let r = self.deref(self.reg(i.b), m.spans[pc])?;
                        let len = self.heap.array_len(r) as i64;
                        self.set_reg(i.a, Value::Int(len));
                        pc + 1
                    }
                    ROp::NewObj => {
                        self.new_obj(&m.news[i.t as usize], i.a)?;
                        pc + 1
                    }
                    ROp::NewArr => {
                        let site = m.arrays[i.t as usize];
                        let n = int(self.reg(i.b));
                        if n < 0 {
                            return Err(RuntimeError::NegativeLength(m.spans[pc]));
                        }
                        let region = self.resolve(site.region);
                        let obj = self.heap.alloc_array(region, site.elem, n as usize)?;
                        self.set_reg(i.a, Value::Ref(obj));
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
                    ROp::JmpIf => branch(boolean(self.reg(i.a)), i, pc),
                    ROp::JmpIfNot => branch(!boolean(self.reg(i.a)), i, pc),
                    ROp::JmpILt => self.int_jump(i, pc, |x, y| x < y),
                    ROp::JmpILe => self.int_jump(i, pc, |x, y| x <= y),
                    ROp::JmpIEq => self.int_jump(i, pc, |x, y| x == y),
                    ROp::JmpINe => self.int_jump(i, pc, |x, y| x != y),
                    ROp::JmpFLt => self.float_jump(i, pc, |x, y| x < y),
                    ROp::JmpFLe => self.float_jump(i, pc, |x, y| x <= y),
                    ROp::JmpFNotLt => {
                        self.float_jump(i, pc, |x, y| x.partial_cmp(&y) != Some(Less))
                    }
                    ROp::JmpFNotLe => self.float_jump(i, pc, |x, y| {
                        !matches!(x.partial_cmp(&y), Some(Less | Equal))
                    }),
                    ROp::JmpFEq => self.float_jump(i, pc, |x, y| x == y),
                    ROp::JmpFNe => self.float_jump(i, pc, |x, y| x != y),
                    ROp::JmpEq => {
                        self.supers += 1;
                        branch(value_eq(self.reg(i.a), self.reg(i.b)), i, pc)
                    }
                    ROp::JmpNe => {
                        self.supers += 1;
                        branch(!value_eq(self.reg(i.a), self.reg(i.b)), i, pc)
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
                    ROp::PopRet => {
                        // The open `letreg`s hold the region slots right
                        // above the abstraction parameters.
                        self.supers += 1;
                        if !self.erase {
                            let open = self.rbase + m.abs_params as usize;
                            for slot in (open..open + i.c as usize).rev() {
                                self.heap.pop(self.rslots[slot])?;
                            }
                        }
                        match self.ret(self.reg(i.a)) {
                            Some(value) => return Ok(value),
                            None => continue 'frames,
                        }
                    }
                };
            }
        }
    }

    /// `r[a] = f(r[b], r[c])` on ints; the next program counter.
    #[inline(always)]
    fn ints(&mut self, i: RInstr, pc: usize, f: impl FnOnce(i64, i64) -> Value) -> usize {
        let v = f(int(self.reg(i.b)), int(self.reg(i.c)));
        self.set_reg(i.a, v);
        pc + 1
    }

    /// `r[a] = f(r[b], r[c])` on floats; the next program counter.
    #[inline(always)]
    fn floats(&mut self, i: RInstr, pc: usize, f: impl FnOnce(f64, f64) -> Value) -> usize {
        let v = f(float(self.reg(i.b)), float(self.reg(i.c)));
        self.set_reg(i.a, v);
        pc + 1
    }

    /// Jumps to `t` when `f(r[a], r[b])` holds on ints.
    #[inline(always)]
    fn int_jump(&mut self, i: RInstr, pc: usize, f: impl FnOnce(i64, i64) -> bool) -> usize {
        self.supers += 1;
        branch(f(int(self.reg(i.a)), int(self.reg(i.b))), i, pc)
    }

    /// Jumps to `t` when `f(r[a], r[b])` holds on floats.
    #[inline(always)]
    fn float_jump(&mut self, i: RInstr, pc: usize, f: impl FnOnce(f64, f64) -> bool) -> usize {
        self.supers += 1;
        branch(f(float(self.reg(i.a)), float(self.reg(i.b))), i, pc)
    }

    /// `r[a] = decode(ty, field c of the object in r[b])`.
    #[inline(always)]
    fn get_field(&mut self, i: RInstr, span: Span) -> Result<(), RuntimeError> {
        let r = self.deref(self.reg(i.b), span)?;
        let word = self.heap.field(r, i.c as usize);
        let v = self.heap.decode(i.ty, word);
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
        for &var in &site.args {
            let w = encode(self.reg(var));
            self.word_buf.push(w);
        }
        let obj =
            self.heap
                .alloc_object(self.reg_buf[0], site.class, &self.reg_buf, &self.word_buf)?;
        self.set_reg(dst, Value::Ref(obj));
        Ok(())
    }

    #[inline]
    fn cast(&mut self, site: CastSite, dst: u16, span: Span) -> Result<(), RuntimeError> {
        let v = self.reg(site.var);
        match v {
            Value::Null => self.set_reg(dst, Value::Null),
            Value::Ref(_) => {
                // A reference into a popped region has no class header
                // left to read.
                let r = self.deref(v, span)?;
                let class = self.heap.class_of(r);
                if !self.p.classes.is_subclass(class, site.class) {
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
        let site = &m.calls[site_idx];
        if self.frames.len() as u32 > self.max_depth {
            return Err(RuntimeError::DepthLimit(site.span));
        }
        let p = self.p;
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
        self.regs.extend_from_slice(&callee.frame);
        if let Some(r) = receiver {
            self.regs[new_lbase] = Value::Ref(r);
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
    fn ret(&mut self, value: Value) -> Option<Value> {
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

/// The integer in a well-typed `int` operand.
#[inline(always)]
fn int(v: Value) -> i64 {
    v.as_int().expect("ill-typed int operand")
}

/// The float in a well-typed `float` operand.
#[inline(always)]
fn float(v: Value) -> f64 {
    match v {
        Value::Float(x) => x,
        _ => unreachable!("ill-typed float operand"),
    }
}

/// The boolean in a well-typed `bool` operand.
#[inline(always)]
fn boolean(v: Value) -> bool {
    v.as_bool().expect("ill-typed bool operand")
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
