//! Stack-bytecode → register-IR lowering.
//!
//! The stack lowering's codegen is structural: every expression leaves exactly
//! one value on the operand stack, so the stack depth at each program
//! point is statically determined. This pass exploits that with an
//! abstract-interpretation translation — the operand stack is simulated
//! at lowering time as a stack of *abstract operands*:
//!
//! - a `Const` or `LoadVar` pushes an abstract constant/variable and
//!   emits **nothing** — the value is materialized only where it is
//!   consumed, usually folding straight into the consumer's register
//!   operands (the classic lazy stack-to-register translation);
//! - a local that appears on the abstract stack is **spilled** to its
//!   stack-position temporary the moment something stores to it, so the
//!   pushed value (not the mutated one) is what the consumer sees;
//! - at control-flow join points (every jump target) the abstract stack
//!   is flushed to its canonical form — depth `d` lives in register
//!   `nlocals + d` — so all predecessors agree on register contents.
//!
//! On top of the base translation, peephole lookahead fuses
//! superinstructions ([`ROp::JmpCmp`]\*, [`ROp::AddImm`],
//! [`ROp::IncJump`], [`ROp::FieldCall`]) and folds `StoreVar` into the
//! producing instruction's destination register. Fusion never crosses a
//! jump target (a *barrier*), so every label still maps to a valid
//! instruction boundary.
//!
//! [`RvmCache`] mirrors `cj_vm::LowerCache`'s per-method memo
//! discipline: the stack tier's cache already reuses an unchanged
//! method's `Arc<CompiledMethod>` across revisions (its fingerprint is
//! α-invariant in region ids), so pointer-identity on that `Arc` is
//! exactly the same invariant — a method the stack tier re-lowered is
//! re-translated here, everything else replays.

use crate::code::{CmpOp, RCallSite, RInstr, ROp, RvmMethod, RvmProgram};
use cj_frontend::ast::{BinOp, UnOp};
use cj_frontend::span::Span;
use cj_frontend::types::MethodId;
use cj_vm::bytecode::{CompiledMethod, CompiledProgram, Instr, Lit};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Work counters of one [`RvmCache::lower`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RvmStats {
    /// Methods actually translated this call.
    pub methods_lowered: usize,
    /// Methods reused from the cache (unchanged stack-tier method).
    pub methods_reused: usize,
}

/// A per-method register-lowering memo; see the module docs.
#[derive(Debug, Default)]
pub struct RvmCache {
    /// Per method: the stack-tier artifact the translation came from
    /// (kept alive so pointer identity is sound) and the translation.
    methods: HashMap<MethodId, (Arc<CompiledMethod>, Arc<RvmMethod>)>,
}

impl RvmCache {
    /// An empty cache.
    pub fn new() -> RvmCache {
        RvmCache::default()
    }

    /// Register-lowers `p`, reusing every cached method whose stack-tier
    /// `Arc<CompiledMethod>` is unchanged (the stack tier's per-method
    /// memo already guarantees α-invariant reuse, so this inherits it).
    pub fn lower(&mut self, p: &CompiledProgram) -> (RvmProgram, RvmStats) {
        let mut span = cj_trace::span("pipeline", "rvm-lower");
        let mut rev: HashMap<usize, MethodId> =
            p.func_of.iter().map(|(id, &f)| (f as usize, *id)).collect();
        let mut stats = RvmStats::default();
        let mut fresh = HashMap::with_capacity(p.methods.len());
        let mut methods = Vec::with_capacity(p.methods.len());
        for (idx, m) in p.methods.iter().enumerate() {
            let id = rev.remove(&idx);
            let lowered = match id.and_then(|id| self.methods.get(&id)) {
                Some((witness, r)) if Arc::ptr_eq(witness, m) => {
                    stats.methods_reused += 1;
                    Arc::clone(r)
                }
                _ => {
                    stats.methods_lowered += 1;
                    Arc::new(translate_method(m))
                }
            };
            if let Some(id) = id {
                fresh.insert(id, (Arc::clone(m), Arc::clone(&lowered)));
            }
            methods.push(lowered);
        }
        // Dropping the old map evicts methods that no longer exist.
        self.methods = fresh;
        let program = RvmProgram {
            methods,
            func_of: p.func_of.clone(),
            vtables: p.vtables.clone(),
            subclass: p.subclass.clone(),
            main: p.main,
        };
        span.add("methods_lowered", stats.methods_lowered as u64);
        span.add("methods_reused", stats.methods_reused as u64);
        span.add("superinstructions", program.fused_count());
        (program, stats)
    }
}

/// One-shot register lowering of a whole program (no memo).
pub fn lower_program(p: &CompiledProgram) -> RvmProgram {
    RvmCache::new().lower(p).0
}

/// Encodes a [`BinOp`] for the generic [`ROp::Binary`] instruction.
pub(crate) fn bin_code(op: BinOp) -> u32 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Lt => 5,
        BinOp::Le => 6,
        BinOp::Gt => 7,
        BinOp::Ge => 8,
        BinOp::Eq => 9,
        BinOp::Ne => 10,
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops lower to jumps"),
    }
}

fn cmp_of(op: BinOp) -> Option<CmpOp> {
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

/// An abstract operand: where the value the stack machine would have at
/// this depth actually lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AOp {
    /// Constant-pool entry, not yet materialized.
    Lit(u32),
    /// The current value of a variable register (spilled on mutation).
    Local(u16),
    /// Already materialized in its canonical stack-position temporary.
    Reg(u16),
}

struct Lowerer<'a> {
    m: &'a CompiledMethod,
    nlocals: u16,
    labels: HashSet<usize>,
    out: Vec<RInstr>,
    ospans: Vec<Span>,
    stack: Vec<AOp>,
    /// Stack pc → register pc (for jump-target fixup).
    map: Vec<u32>,
    /// Stack depth at each jump target (recorded at the jump).
    label_depth: HashMap<usize, usize>,
    consts: Vec<Lit>,
    calls: Vec<RCallSite>,
    fused: u32,
    max_temp: usize,
    /// Register pc below which backward fusion must not reach (set at
    /// every label so fused instructions never swallow a jump target).
    barrier: usize,
    /// Span of the stack instruction currently being translated.
    cur_span: Span,
}

/// Translates one stack-bytecode method into register form.
pub(crate) fn translate_method(m: &CompiledMethod) -> RvmMethod {
    let mut labels = HashSet::new();
    for i in &m.code {
        if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = i {
            labels.insert(*t as usize);
        }
    }
    let mut lo = Lowerer {
        m,
        nlocals: m.defaults.len() as u16,
        labels,
        out: Vec::with_capacity(m.code.len()),
        ospans: Vec::with_capacity(m.code.len()),
        stack: Vec::new(),
        map: vec![0; m.code.len() + 1],
        label_depth: HashMap::new(),
        consts: m.consts.clone(),
        calls: m
            .calls
            .iter()
            .map(|c| RCallSite {
                target: c.target,
                args: c.args.clone(),
                inst: c.inst.clone(),
                tail_start: c.tail_start,
                dst: 0,
                span: Span::DUMMY,
            })
            .collect(),
        fused: 0,
        max_temp: 0,
        barrier: 0,
        cur_span: Span::DUMMY,
    };
    lo.run();
    let map = std::mem::take(&mut lo.map);
    for i in &mut lo.out {
        if matches!(
            i.op,
            ROp::Jump
                | ROp::JmpIf
                | ROp::JmpIfNot
                | ROp::JmpCmp
                | ROp::JmpCmpNot
                | ROp::JmpCmpC
                | ROp::JmpCmpNotC
                | ROp::IncJump
        ) {
            i.t = map[i.t as usize];
        }
    }
    RvmMethod {
        name: m.name.clone(),
        code: lo.out,
        spans: lo.ospans,
        consts: lo.consts,
        defaults: m.defaults.clone(),
        params: m.params.clone(),
        has_this: m.has_this,
        class_params: m.class_params,
        abs_params: m.abs_params,
        region_slots: m.region_slots,
        nregs: lo.nlocals + lo.max_temp as u16,
        news: m.news.clone(),
        arrays: m.arrays.clone(),
        calls: lo.calls,
        casts: m.casts.clone(),
        fused: lo.fused,
    }
}

impl Lowerer<'_> {
    fn emit(&mut self, i: RInstr) {
        self.out.push(i);
        self.ospans.push(self.cur_span);
    }

    /// The canonical temporary register for stack depth `d`.
    fn temp(&mut self, d: usize) -> u16 {
        self.max_temp = self.max_temp.max(d + 1);
        self.nlocals + d as u16
    }

    /// Constant-pool index for `lit`, reusing an existing entry.
    fn konst(&mut self, lit: Lit) -> u32 {
        if let Some(i) = self.consts.iter().position(|&c| c == lit) {
            return i as u32;
        }
        self.consts.push(lit);
        (self.consts.len() - 1) as u32
    }

    /// Materializes abstract-stack entry `i` into its canonical
    /// temporary.
    fn materialize(&mut self, i: usize) {
        let dst = self.temp(i);
        match self.stack[i] {
            AOp::Reg(_) => return,
            AOp::Local(v) => self.emit(RInstr {
                a: dst,
                b: v,
                ..RInstr::new(ROp::Move)
            }),
            AOp::Lit(c) => self.emit(RInstr {
                a: dst,
                t: c,
                ..RInstr::new(ROp::LoadConst)
            }),
        }
        self.stack[i] = AOp::Reg(dst);
    }

    /// Spills every abstract-stack copy of variable `v` before `v` is
    /// mutated.
    fn spill_local(&mut self, v: u16) {
        for i in 0..self.stack.len() {
            if self.stack[i] == AOp::Local(v) {
                self.materialize(i);
            }
        }
    }

    /// Flushes the whole abstract stack to canonical form (join points).
    fn flush_all(&mut self) {
        for i in 0..self.stack.len() {
            self.materialize(i);
        }
    }

    /// The register holding a popped operand that occupied depth `d`
    /// (materializing a constant into `d`'s temporary if needed).
    fn use_op(&mut self, op: AOp, d: usize) -> u16 {
        match op {
            AOp::Local(v) => v,
            AOp::Reg(r) => r,
            AOp::Lit(c) => {
                let dst = self.temp(d);
                self.emit(RInstr {
                    a: dst,
                    t: c,
                    ..RInstr::new(ROp::LoadConst)
                });
                dst
            }
        }
    }

    /// Destination register for a value-producing instruction at
    /// `prod_pc`: folds a directly-following `StoreVar` into the
    /// destination when no label intervenes. Returns `(dst, folded)`.
    fn choose_dst(&mut self, prod_pc: usize) -> (u16, bool) {
        let next = prod_pc + 1;
        if !self.labels.contains(&next) {
            if let Some(Instr::StoreVar(v)) = self.m.code.get(next).copied() {
                self.spill_local(v);
                return (v, true);
            }
        }
        let d = self.stack.len();
        (self.temp(d), false)
    }

    /// Records (or checks) the stack depth jumpers deliver at `target`.
    fn note_label_depth(&mut self, target: usize) {
        let d = self.stack.len();
        let prev = self.label_depth.insert(target, d);
        debug_assert!(
            prev.is_none_or(|p| p == d),
            "inconsistent stack depth at jump target {target}"
        );
    }

    fn run(&mut self) {
        let n = self.m.code.len();
        let mut pc = 0usize;
        let mut dead = false;
        while pc < n {
            if self.labels.contains(&pc) {
                if dead {
                    // Reached only by jumps: the abstract stack is the
                    // canonical form at the recorded depth.
                    let depth = self.label_depth.get(&pc).copied().unwrap_or(0);
                    self.stack.clear();
                    for i in 0..depth {
                        let r = self.temp(i);
                        self.stack.push(AOp::Reg(r));
                    }
                } else {
                    self.cur_span = self.m.spans[pc];
                    self.flush_all();
                    self.note_label_depth(pc);
                }
                self.barrier = self.out.len();
            } else if dead {
                // Unreachable filler (never emitted by our codegen, but
                // harmless to skip).
                self.map[pc] = self.out.len() as u32;
                pc += 1;
                continue;
            }
            self.map[pc] = self.out.len() as u32;
            self.cur_span = self.m.spans[pc];
            let (skip, now_dead) = self.translate(pc);
            dead = now_dead;
            pc += 1 + skip;
        }
        self.map[n] = self.out.len() as u32;
    }

    /// Translates the instruction at `pc`; returns how many *extra*
    /// stack instructions were consumed by fusion and whether the
    /// translation ended in dead code (after `Jump`/`Ret`).
    fn translate(&mut self, pc: usize) -> (usize, bool) {
        let m = self.m;
        match m.code[pc] {
            Instr::Const(c) => {
                self.stack.push(AOp::Lit(c));
            }
            Instr::LoadVar(v) => {
                self.stack.push(AOp::Local(v));
            }
            Instr::StoreVar(v) => {
                let top = self.stack.pop().expect("operand");
                self.spill_local(v);
                match top {
                    AOp::Lit(c) => self.emit(RInstr {
                        a: v,
                        t: c,
                        ..RInstr::new(ROp::LoadConst)
                    }),
                    AOp::Local(u) if u == v => {}
                    AOp::Local(u) => self.emit(RInstr {
                        a: v,
                        b: u,
                        ..RInstr::new(ROp::Move)
                    }),
                    AOp::Reg(r) => self.emit(RInstr {
                        a: v,
                        b: r,
                        ..RInstr::new(ROp::Move)
                    }),
                }
            }
            Instr::ResetVar(v) => {
                self.spill_local(v);
                let c = self.konst(m.defaults[v as usize]);
                self.emit(RInstr {
                    a: v,
                    t: c,
                    ..RInstr::new(ROp::LoadConst)
                });
            }
            Instr::Pop => {
                self.stack.pop();
            }
            Instr::GetField { var, idx, ty } => {
                let (dst, folded) = self.choose_dst(pc);
                // load-field-then-call: `let t = v.f in m(…, t, …)`.
                let call_pc = pc + 2;
                if folded && call_pc < m.code.len() && !self.labels.contains(&call_pc) {
                    if let Instr::Call(s) = m.code[call_pc] {
                        let field_span = m.spans[pc];
                        let (cdst, cfolded) = self.choose_dst(call_pc);
                        self.calls[s as usize].dst = cdst;
                        self.calls[s as usize].span = m.spans[call_pc];
                        self.cur_span = field_span;
                        self.emit(RInstr {
                            a: dst,
                            b: var,
                            c: idx,
                            t: s,
                            ty,
                            ..RInstr::new(ROp::FieldCall)
                        });
                        self.fused += 1;
                        let here = (self.out.len() - 1) as u32;
                        self.map[pc + 1] = here;
                        self.map[call_pc] = here;
                        if cfolded {
                            self.map[call_pc + 1] = self.out.len() as u32;
                            return (3, false);
                        }
                        let d = self.stack.len();
                        let r = self.temp(d);
                        self.stack.push(AOp::Reg(r));
                        return (2, false);
                    }
                }
                self.emit(RInstr {
                    a: dst,
                    b: var,
                    c: idx,
                    ty,
                    ..RInstr::new(ROp::GetField)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::SetField { var, idx, ty } => {
                let val = self.stack.pop().expect("operand");
                let d = self.stack.len();
                let src = self.use_op(val, d);
                self.emit(RInstr {
                    a: var,
                    b: src,
                    c: idx,
                    ty,
                    ..RInstr::new(ROp::SetField)
                });
            }
            Instr::NewObj(s) => {
                let (dst, folded) = self.choose_dst(pc);
                self.emit(RInstr {
                    a: dst,
                    t: s,
                    ..RInstr::new(ROp::NewObj)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::NewArr(s) => {
                let len = self.stack.pop().expect("operand");
                let d = self.stack.len();
                let len_reg = self.use_op(len, d);
                let (dst, folded) = self.choose_dst(pc);
                self.emit(RInstr {
                    a: dst,
                    b: len_reg,
                    t: s,
                    ..RInstr::new(ROp::NewArr)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::Index { var, ty } => {
                let idx = self.stack.pop().expect("operand");
                let d = self.stack.len();
                let idx_reg = self.use_op(idx, d);
                let (dst, folded) = self.choose_dst(pc);
                self.emit(RInstr {
                    a: dst,
                    b: var,
                    c: idx_reg,
                    ty,
                    ..RInstr::new(ROp::Index)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::SetIndex { var, ty } => {
                let val = self.stack.pop().expect("operand");
                let idx = self.stack.pop().expect("operand");
                let d = self.stack.len();
                let idx_reg = self.use_op(idx, d);
                let val_reg = self.use_op(val, d + 1);
                self.emit(RInstr {
                    a: var,
                    b: idx_reg,
                    c: val_reg,
                    ty,
                    ..RInstr::new(ROp::SetIndex)
                });
            }
            Instr::ArrayLen(var) => {
                let (dst, folded) = self.choose_dst(pc);
                self.emit(RInstr {
                    a: dst,
                    b: var,
                    ..RInstr::new(ROp::ArrayLen)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::RegPush(slot) => self.emit(RInstr {
                a: slot,
                ..RInstr::new(ROp::RegPush)
            }),
            Instr::RegPop(slot) => self.emit(RInstr {
                a: slot,
                ..RInstr::new(ROp::RegPop)
            }),
            Instr::Call(s) => {
                let (dst, folded) = self.choose_dst(pc);
                self.calls[s as usize].dst = dst;
                self.calls[s as usize].span = m.spans[pc];
                self.emit(RInstr {
                    t: s,
                    ..RInstr::new(ROp::Call)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::Cast(s) => {
                let (dst, folded) = self.choose_dst(pc);
                self.emit(RInstr {
                    a: dst,
                    t: s,
                    ..RInstr::new(ROp::Cast)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::Jump(t) => {
                self.flush_all();
                self.note_label_depth(t as usize);
                // inc-and-loop: fuse a trailing `i = i + k` into the
                // back edge (never across a label).
                let last = self.out.len();
                if last > self.barrier {
                    let prev = self.out[last - 1];
                    if prev.op == ROp::AddImm && prev.a == prev.b {
                        self.out[last - 1] = RInstr {
                            a: prev.a,
                            t,
                            imm: prev.imm,
                            ..RInstr::new(ROp::IncJump)
                        };
                        self.fused += 1;
                        return (0, true);
                    }
                }
                self.emit(RInstr {
                    t,
                    ..RInstr::new(ROp::Jump)
                });
                return (0, true);
            }
            Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => {
                let cond = self.stack.pop().expect("operand");
                let d = self.stack.len();
                self.flush_all();
                let reg = self.use_op(cond, d);
                self.note_label_depth(t as usize);
                let op = if matches!(m.code[pc], Instr::JumpIfFalse(_)) {
                    ROp::JmpIfNot
                } else {
                    ROp::JmpIf
                };
                self.emit(RInstr {
                    a: reg,
                    t,
                    ..RInstr::new(op)
                });
            }
            Instr::Unary(op) => {
                let v = self.stack.pop().expect("operand");
                let d = self.stack.len();
                let src = self.use_op(v, d);
                let (dst, folded) = self.choose_dst(pc);
                self.emit(RInstr {
                    a: dst,
                    b: src,
                    c: match op {
                        UnOp::Neg => 0,
                        UnOp::Not => 1,
                    },
                    ..RInstr::new(ROp::Unary)
                });
                return self.finish_producer(pc, dst, folded);
            }
            Instr::Binary(op) => return self.translate_binary(pc, op),
            Instr::Print => {
                let v = self.stack.pop().expect("operand");
                let d = self.stack.len();
                let src = self.use_op(v, d);
                self.emit(RInstr {
                    a: src,
                    ..RInstr::new(ROp::Print)
                });
            }
            Instr::Ret => {
                let v = self.stack.pop().expect("return value");
                let d = self.stack.len();
                let src = self.use_op(v, d);
                self.emit(RInstr {
                    a: src,
                    ..RInstr::new(ROp::Ret)
                });
                return (0, true);
            }
        }
        (0, false)
    }

    /// Pushes a producer's result (or records the folded `StoreVar`).
    fn finish_producer(&mut self, pc: usize, dst: u16, folded: bool) -> (usize, bool) {
        if folded {
            self.map[pc + 1] = self.out.len() as u32;
            (1, false)
        } else {
            self.stack.push(AOp::Reg(dst));
            (0, false)
        }
    }

    fn translate_binary(&mut self, pc: usize, op: BinOp) -> (usize, bool) {
        let m = self.m;
        let r = self.stack.pop().expect("operand");
        let l = self.stack.pop().expect("operand");
        let d = self.stack.len();

        // Fused compare-and-branch (constants move to the rhs).
        let branch_pc = pc + 1;
        if let Some(cmp) = cmp_of(op) {
            if branch_pc < m.code.len() && !self.labels.contains(&branch_pc) {
                if let Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = m.code[branch_pc] {
                    let on_true = matches!(m.code[branch_pc], Instr::JumpIfTrue(_));
                    let fused = match (l, r) {
                        (l, AOp::Lit(c)) if !matches!(l, AOp::Lit(_)) => {
                            let lhs = self.use_op(l, d);
                            Some((lhs, None, c, cmp))
                        }
                        (AOp::Lit(c), r) if !matches!(r, AOp::Lit(_)) => {
                            let lhs = self.use_op(r, d + 1);
                            Some((lhs, None, c, cmp.mirrored()))
                        }
                        (l, r) => {
                            let lhs = self.use_op(l, d);
                            let rhs = self.use_op(r, d + 1);
                            Some((lhs, Some(rhs), 0, cmp))
                        }
                    };
                    if let Some((lhs, rhs, cidx, cmp)) = fused {
                        self.flush_all();
                        self.note_label_depth(t as usize);
                        let rop = match (rhs, on_true) {
                            (Some(_), true) => ROp::JmpCmp,
                            (Some(_), false) => ROp::JmpCmpNot,
                            (None, true) => ROp::JmpCmpC,
                            (None, false) => ROp::JmpCmpNotC,
                        };
                        self.emit(RInstr {
                            a: lhs,
                            b: rhs.unwrap_or(0),
                            c: cmp.code(),
                            t,
                            imm: i64::from(cidx),
                            ..RInstr::new(rop)
                        });
                        self.fused += 1;
                        self.map[branch_pc] = (self.out.len() - 1) as u32;
                        return (1, false);
                    }
                }
            }
        }

        // Add/subtract an integer literal → AddImm.
        let imm_of = |a: AOp, consts: &[Lit]| match a {
            AOp::Lit(c) => match consts[c as usize] {
                Lit::Int(k) => Some(k),
                _ => None,
            },
            _ => None,
        };
        if matches!(op, BinOp::Add | BinOp::Sub) {
            let fold = match (imm_of(l, &self.consts), imm_of(r, &self.consts)) {
                (None, Some(k)) => {
                    let imm = if op == BinOp::Sub {
                        k.wrapping_neg()
                    } else {
                        k
                    };
                    Some((l, d, imm))
                }
                (Some(k), None) if op == BinOp::Add => Some((r, d + 1, k)),
                _ => None,
            };
            if let Some((src, depth, imm)) = fold {
                let src = self.use_op(src, depth);
                let (dst, folded) = self.choose_dst(pc);
                self.emit(RInstr {
                    a: dst,
                    b: src,
                    imm,
                    ..RInstr::new(ROp::AddImm)
                });
                self.fused += 1;
                return self.finish_producer(pc, dst, folded);
            }
        }

        let lhs = self.use_op(l, d);
        let rhs = self.use_op(r, d + 1);
        let (dst, folded) = self.choose_dst(pc);
        self.emit(RInstr {
            a: dst,
            b: lhs,
            c: rhs,
            t: bin_code(op),
            ..RInstr::new(ROp::Binary)
        });
        self.finish_producer(pc, dst, folded)
    }
}
