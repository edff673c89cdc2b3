//! A big-step interpreter for region-annotated Core-Java.
//!
//! The interpreter walks each method's kernel body and reads the region
//! annotations from the method's tables. It executes the *annotated*
//! program over the shared [`RegionHeap`]: a `letreg` placed around an
//! expression or a run of block items pushes a real region before it and
//! frees the region's arena after it (one evaluation step, as a `letreg`
//! node of the target language costs), `new cn⟨r…⟩` allocates into the
//! region bound to `r`, and method calls carry region arguments exactly as
//! in the target language's dynamic semantics. Field and element reads
//! decode the stored word with the static type of the read. Every object
//! access checks that the object's region is still live, so a dangling
//! access — impossible for well-region-typed programs, Theorem 1 — is
//! detected and reported rather than silently misbehaving. This is the
//! validation harness behind the integration suite and the space-reuse
//! measurements of Fig 8.

use crate::heap::{encode, ObjRef, RegionError, RegionHeap, SlotTy, SpaceStats};
use crate::value::{self, Value};
use cj_frontend::ast::BinOp;
use cj_frontend::kernel::{KExpr, KExprKind};
use cj_frontend::span::Span;
use cj_frontend::types::{ClassId, MethodId};
use cj_infer::rast::{Letreg, RMethod, RProgram};
use cj_regions::var::RegVar;
use std::collections::HashMap;
use std::fmt;

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Dereference of `null`.
    NullPointer(Span),
    /// `(cn) v` failed: the object's class is not a subclass of `cn`.
    CastFailed(Span),
    /// Array index out of range.
    IndexOutOfBounds(Span),
    /// Integer division or remainder by zero.
    DivisionByZero(Span),
    /// Access to an object whose region has been deleted. Never happens
    /// for programs accepted by the region checker.
    DanglingAccess(Span),
    /// Region allocator violation.
    Region(RegionError),
    /// The configured step budget was exhausted.
    StepLimit,
    /// The configured call-depth budget was exhausted at the call with
    /// this span.
    DepthLimit(Span),
    /// No static `main` method exists.
    NoMain,
    /// `main`, declared at this span, received the wrong number/kinds of
    /// arguments.
    BadMainArgs(Span),
    /// Negative array length.
    NegativeLength(Span),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NullPointer(_) => f.write_str("null pointer dereference"),
            RuntimeError::CastFailed(_) => f.write_str("downcast failed"),
            RuntimeError::IndexOutOfBounds(_) => f.write_str("array index out of bounds"),
            RuntimeError::DivisionByZero(_) => f.write_str("division by zero"),
            RuntimeError::DanglingAccess(_) => f.write_str("dangling region access"),
            RuntimeError::Region(e) => write!(f, "region error: {e}"),
            RuntimeError::StepLimit => f.write_str("step limit exceeded"),
            RuntimeError::DepthLimit(_) => f.write_str("call depth limit exceeded"),
            RuntimeError::NoMain => f.write_str("no static `main` method"),
            RuntimeError::BadMainArgs(_) => f.write_str("bad arguments for `main`"),
            RuntimeError::NegativeLength(_) => f.write_str("negative array length"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl RuntimeError {
    /// The source location of the fault, where one is known.
    pub fn span(&self) -> Option<Span> {
        match self {
            RuntimeError::NullPointer(s)
            | RuntimeError::CastFailed(s)
            | RuntimeError::IndexOutOfBounds(s)
            | RuntimeError::DivisionByZero(s)
            | RuntimeError::DanglingAccess(s)
            | RuntimeError::NegativeLength(s)
            | RuntimeError::DepthLimit(s)
            | RuntimeError::BadMainArgs(s) => Some(*s),
            RuntimeError::Region(_) | RuntimeError::StepLimit | RuntimeError::NoMain => None,
        }
    }
}

impl cj_diag::IntoDiagnostic for RuntimeError {
    fn into_diagnostic(self) -> cj_diag::Diagnostic {
        let span = self.span().unwrap_or(Span::DUMMY);
        let mut d =
            cj_diag::Diagnostic::error(self.to_string(), span).with_code(cj_diag::codes::RUNTIME);
        if matches!(self, RuntimeError::DanglingAccess(_)) {
            d = d.with_note(
                "checked programs never dangle (Theorem 1); this indicates \
                 an inference or checker bug",
            );
        }
        d
    }
}

impl From<RegionError> for RuntimeError {
    fn from(e: RegionError) -> Self {
        RuntimeError::Region(e)
    }
}

/// Which execution engine runs the annotated program. Both engines share
/// [`RunConfig`], the [`RuntimeError`] vocabulary, the [`Value`] type and
/// the [`RegionHeap`] (with its [`SpaceStats`]), and must produce
/// identical observable behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The `cj-rvm` register-machine engine: the program is lowered to
    /// register bytecode with superinstructions and run by a `match`
    /// dispatch loop over a bump-arena region heap.
    #[default]
    Rvm,
    /// The tree-walking reference interpreter in this crate.
    Interp,
}

impl Engine {
    /// Canonical names accepted by [`FromStr`](std::str::FromStr).
    pub const NAMES: [&'static str; 2] = ["rvm", "interp"];
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Rvm => "rvm",
            Engine::Interp => "interp",
        })
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "rvm" => Ok(Engine::Rvm),
            "interp" | "interpreter" => Ok(Engine::Interp),
            other => Err(format!(
                "unknown engine `{other}` (expected one of: {})",
                Engine::NAMES.join(", ")
            )),
        }
    }
}

/// Execution configuration, shared by the interpreter and the `cj-rvm`
/// register VM so limits and defaults never diverge between engines.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Maximum execution steps (interpreter evaluation steps, register VM
    /// dispatches) before aborting with [`RuntimeError::StepLimit`].
    pub step_limit: u64,
    /// Maximum method-call depth before aborting with
    /// [`RuntimeError::DepthLimit`]. Identical in both engines.
    pub max_depth: u32,
    /// Region-erasure mode: ignore `letreg` and allocate everything in the
    /// heap. The paper proves annotated and erased programs bisimilar; the
    /// integration suite compares the two executions' observable behaviour.
    pub erase_regions: bool,
    /// Which engine a driver-level `run` should use. The engines themselves
    /// ignore this field — it is carried here so every layer (CLI, serve,
    /// daemon, `Workspace`) selects engines through one configuration type.
    pub engine: Engine,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            step_limit: 2_000_000_000,
            max_depth: 200_000,
            erase_regions: false,
            engine: Engine::default(),
        }
    }
}

/// The result of a complete run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The value returned by the entry method.
    pub value: Value,
    /// Space accounting (Fig 8's metric).
    pub space: SpaceStats,
    /// Steps executed.
    pub steps: u64,
    /// Captured `print` output.
    pub prints: Vec<String>,
}

/// Runs the program's static `main`.
///
/// # Errors
///
/// Any [`RuntimeError`]; for checked programs, dangling-access errors
/// cannot occur.
pub fn run_main(p: &RProgram, args: &[Value], cfg: RunConfig) -> Result<Outcome, RuntimeError> {
    let (idx, _) = p
        .kernel
        .table
        .lookup_static(cj_frontend::Symbol::intern("main"))
        .ok_or(RuntimeError::NoMain)?;
    run_static(p, MethodId::Static(idx), args, cfg)
}

/// Runs an arbitrary static method as the entry point.
///
/// # Errors
///
/// See [`run_main`].
pub fn run_static(
    p: &RProgram,
    id: MethodId,
    args: &[Value],
    cfg: RunConfig,
) -> Result<Outcome, RuntimeError> {
    let km = p.kernel.method(id);
    if km.params.len() != args.len() {
        return Err(RuntimeError::BadMainArgs(km.span));
    }
    let mut interp = Interp {
        p,
        heap: RegionHeap::new(),
        steps: 0,
        limit: cfg.step_limit,
        depth: 0,
        max_depth: cfg.max_depth,
        erase: cfg.erase_regions,
        prints: Vec::new(),
    };
    let rm = p.rmethod(id);
    let mut frame = Frame::new(rm, km.vars.len());
    for (i, &a) in args.iter().enumerate() {
        frame.vars[km.params[i].index()] = a;
    }
    // Entry-point region parameters are bound to the heap.
    for &r in &rm.abs_params {
        frame.regmap.insert(r, 0);
    }
    let value = interp.eval(&mut frame, &km.body)?;
    Ok(Outcome {
        value,
        space: interp.heap.stats(),
        steps: interp.steps,
        prints: interp.prints,
    })
}

/// Like [`run_main`] but on a dedicated thread with a large stack, for
/// deeply recursive programs (e.g. merge sort over long lists).
///
/// # Errors
///
/// See [`run_main`].
///
/// # Panics
///
/// Panics if the worker thread cannot be spawned or itself panics.
pub fn run_main_big_stack(
    p: &RProgram,
    args: &[Value],
    cfg: RunConfig,
) -> Result<Outcome, RuntimeError> {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(1 << 29) // 512 MiB
            .spawn_scoped(s, || run_main(p, args, cfg))
            .expect("spawn interpreter thread")
            .join()
            .expect("interpreter thread panicked")
    })
}

struct Frame<'a> {
    /// The running method's annotations.
    rm: &'a RMethod,
    vars: Vec<Value>,
    /// Region variable to heap region id.
    regmap: HashMap<RegVar, u32>,
}

impl<'a> Frame<'a> {
    fn new(rm: &'a RMethod, nvars: usize) -> Frame<'a> {
        Frame {
            rm,
            vars: vec![Value::Null; nvars],
            regmap: HashMap::new(),
        }
    }
}

struct Interp<'a> {
    p: &'a RProgram,
    heap: RegionHeap,
    steps: u64,
    limit: u64,
    depth: u32,
    max_depth: u32,
    erase: bool,
    prints: Vec<String>,
}

impl<'a> Interp<'a> {
    fn region(&self, frame: &Frame<'_>, r: RegVar) -> u32 {
        if self.erase || r.is_heap() {
            return 0;
        }
        frame.regmap.get(&r).copied().unwrap_or(0)
    }

    fn deref(&self, v: Value, span: Span) -> Result<ObjRef, RuntimeError> {
        match v {
            Value::Ref(o) if self.heap.is_live(o.region) => Ok(o),
            Value::Ref(_) => Err(RuntimeError::DanglingAccess(span)),
            _ => Err(RuntimeError::NullPointer(span)),
        }
    }

    /// Evaluates one block item. A `let` is handled here rather than in
    /// [`Self::eval`], so temporaries nested in initializers cost one
    /// `eval` frame per level.
    fn item(&mut self, frame: &mut Frame<'a>, e: &'a KExpr) -> Result<Value, RuntimeError> {
        let KExprKind::Let { var, init } = &e.kind else {
            return self.eval(frame, e);
        };
        self.tick()?;
        frame.vars[var.index()] = match init {
            Some(init) => self.eval(frame, init)?,
            // Fresh declaration without initializer: reset the slot (loops
            // re-enter Lets).
            None => Value::default_of(self.p.kernel.method(frame.rm.id).vars[var.index()].ty),
        };
        Ok(Value::Unit)
    }

    /// Counts one evaluation step against the limit.
    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.limit {
            return Err(RuntimeError::StepLimit);
        }
        Ok(())
    }

    /// Enters `letreg r` (one step): pushes a fresh region and binds `r`
    /// to it. A run that fails stops here, so the way out of a failure
    /// pops nothing.
    fn push(&mut self, frame: &mut Frame<'a>, r: RegVar) -> Result<u32, RuntimeError> {
        self.tick()?;
        // Under region erasure a letreg is a no-op.
        let rid = if self.erase { 0 } else { self.heap.push() };
        frame.regmap.insert(r, rid);
        Ok(rid)
    }

    /// Leaves `letreg r`, freeing its region.
    fn pop(&mut self, frame: &mut Frame<'a>, r: RegVar, rid: u32) -> Result<(), RuntimeError> {
        frame.regmap.remove(&r);
        if !self.erase {
            self.heap.pop(rid)?;
        }
        Ok(())
    }

    /// Evaluates `e` inside the `letreg`s placed around it.
    fn eval(&mut self, frame: &mut Frame<'a>, e: &'a KExpr) -> Result<Value, RuntimeError> {
        match frame.rm.letregs_at(e.id) {
            [] => self.node(frame, e),
            around => self.eval_in(frame, e, around),
        }
    }

    /// Evaluates `e` inside the `letreg`s `around` it.
    fn eval_in(
        &mut self,
        frame: &mut Frame<'a>,
        e: &'a KExpr,
        around: &'a [Letreg],
    ) -> Result<Value, RuntimeError> {
        let Some((l, inner)) = around.split_first() else {
            return self.node(frame, e);
        };
        let rid = self.push(frame, l.region)?;
        let value = self.eval_in(frame, e, inner)?;
        self.pop(frame, l.region, rid)?;
        Ok(value)
    }

    // Inlined into `eval`, so an unplaced expression costs one call.
    #[inline(always)]
    fn node(&mut self, frame: &mut Frame<'a>, e: &'a KExpr) -> Result<Value, RuntimeError> {
        // A block's steps are its statements' (see below).
        if !matches!(e.kind, KExprKind::Block(_)) {
            self.tick()?;
        }
        match &e.kind {
            KExprKind::Unit => Ok(Value::Unit),
            KExprKind::Int(v) => Ok(Value::Int(*v)),
            KExprKind::Bool(v) => Ok(Value::Bool(*v)),
            KExprKind::Float(v) => Ok(Value::Float(*v)),
            KExprKind::Null => Ok(Value::Null),
            KExprKind::Var(v) => Ok(frame.vars[v.index()]),
            KExprKind::Field(v, fref) => {
                let o = self.deref(frame.vars[v.index()], e.span)?;
                let word = self.heap.field(o, fref.index as usize);
                Ok(self.heap.decode(SlotTy::of(e.ty), word))
            }
            KExprKind::AssignVar(v, rhs) => {
                let val = self.eval(frame, rhs)?;
                frame.vars[v.index()] = val;
                Ok(Value::Unit)
            }
            KExprKind::AssignField(v, fref, rhs) => {
                let val = self.eval(frame, rhs)?;
                let o = self.deref(frame.vars[v.index()], e.span)?;
                self.heap.set_field(o, fref.index as usize, encode(val));
                Ok(Value::Unit)
            }
            KExprKind::New(class, args) => {
                let regions = frame.rm.inst(e.id);
                let ids: Vec<u32> = regions.iter().map(|&r| self.region(frame, r)).collect();
                let fields: Vec<u64> = args
                    .iter()
                    .map(|&a| encode(frame.vars[a.index()]))
                    .collect();
                let obj = self.heap.alloc_object(ids[0], class.0, &ids, &fields)?;
                Ok(Value::Ref(obj))
            }
            KExprKind::NewArray(elem, len) => {
                let n = self.eval(frame, len)?.as_int().expect("length is int");
                if n < 0 {
                    return Err(RuntimeError::NegativeLength(e.span));
                }
                let rid = self.region(frame, frame.rm.inst(e.id)[0]);
                let obj = self.heap.alloc_array(rid, *elem, n as usize)?;
                Ok(Value::Ref(obj))
            }
            KExprKind::Index(v, idx) => {
                let i = self.eval(frame, idx)?.as_int().expect("index is int");
                let o = self.deref(frame.vars[v.index()], e.span)?;
                let word = self.heap.element(o, i as usize);
                let word = word.ok_or(RuntimeError::IndexOutOfBounds(e.span))?;
                Ok(self.heap.decode(SlotTy::of(e.ty), word))
            }
            KExprKind::AssignIndex(v, idx, val) => {
                let i = self.eval(frame, idx)?.as_int().expect("index is int");
                let val = self.eval(frame, val)?;
                let o = self.deref(frame.vars[v.index()], e.span)?;
                if !self.heap.set_element(o, i as usize, encode(val)) {
                    return Err(RuntimeError::IndexOutOfBounds(e.span));
                }
                Ok(Value::Unit)
            }
            KExprKind::ArrayLen(v) => {
                let o = self.deref(frame.vars[v.index()], e.span)?;
                Ok(Value::Int(self.heap.array_len(o) as i64))
            }
            KExprKind::CallVirtual(recv, method, args) => {
                let o = self.deref(frame.vars[recv.index()], e.span)?;
                let runtime_class = ClassId(self.heap.class_of(o));
                let target = self.dispatch(runtime_class, *method);
                let inst = frame.rm.inst(e.id);
                self.call(frame, target, Some(o), *method, inst, args, e.span)
            }
            KExprKind::CallStatic(method, args) => {
                let inst = frame.rm.inst(e.id);
                self.call(frame, *method, None, *method, inst, args, e.span)
            }
            KExprKind::Block(items) => {
                // Each run of items a `letreg` encloses runs in its region.
                let ranges: Vec<(RegVar, u32, u32)> = frame.rm.letregs_in(e.id).collect();
                // Most blocks have none and take the plain loop.
                if ranges.is_empty() {
                    let mut value = Value::Unit;
                    for (i, item) in items.iter().enumerate() {
                        if i + 1 < items.len() && !matches!(item.kind, KExprKind::Let { .. }) {
                            self.tick()?;
                        }
                        value = self.item(frame, item)?;
                    }
                    return Ok(value);
                }
                let mut open = Vec::new();
                let mut value = Value::Unit;
                for (i, item) in (0..).zip(items) {
                    for &(r, _, _) in ranges.iter().filter(|&&(_, lo, _)| lo == i) {
                        open.push((r, self.push(frame, r)?));
                    }
                    // Sequencing a discarded statement is one step.
                    if i as usize + 1 < items.len() && !matches!(item.kind, KExprKind::Let { .. }) {
                        self.tick()?;
                    }
                    value = self.item(frame, item)?;
                    for _ in ranges.iter().filter(|&&(_, _, hi)| hi == i) {
                        let (r, rid) = open.pop().expect("ranges nest");
                        self.pop(frame, r, rid)?;
                    }
                }
                Ok(value)
            }
            KExprKind::Let { .. } => self.item(frame, e),
            KExprKind::If {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.eval(frame, cond)?.as_bool().expect("condition");
                if c {
                    self.eval(frame, then_e)
                } else {
                    self.eval(frame, else_e)
                }
            }
            KExprKind::While { cond, body } => {
                loop {
                    self.tick()?;
                    let c = self.eval(frame, cond)?.as_bool().expect("condition");
                    if !c {
                        break;
                    }
                    self.eval(frame, body)?;
                }
                Ok(Value::Unit)
            }
            KExprKind::Cast(class, var) => {
                let v = frame.vars[var.index()];
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Ref(_) => {
                        let o = self.deref(v, e.span)?;
                        let rc = ClassId(self.heap.class_of(o));
                        if self.p.kernel.table.is_subclass(rc, *class) {
                            Ok(v)
                        } else {
                            Err(RuntimeError::CastFailed(e.span))
                        }
                    }
                    _ => Err(RuntimeError::CastFailed(e.span)),
                }
            }
            KExprKind::Unary(op, a) => Ok(value::unary(*op, self.eval(frame, a)?)),
            KExprKind::Binary(op, a, b) => self.binary(frame, *op, a, b, e.span),
            KExprKind::Print(a) => {
                let v = self.eval(frame, a)?;
                self.prints.push(v.to_string());
                Ok(Value::Unit)
            }
        }
    }

    fn dispatch(&self, runtime_class: ClassId, decl: MethodId) -> MethodId {
        let MethodId::Instance(c, slot) = decl else {
            return decl;
        };
        let name = self.p.kernel.table.class(c).own_methods[slot as usize].name;
        let (decl_class, _) = self
            .p
            .kernel
            .table
            .lookup_method(runtime_class, name)
            .expect("method exists on runtime class");
        let s = self
            .p
            .kernel
            .table
            .class(decl_class)
            .own_methods
            .iter()
            .position(|m| m.name == name)
            .expect("present") as u32;
        MethodId::Instance(decl_class, s)
    }

    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        caller: &mut Frame<'a>,
        target: MethodId,
        receiver: Option<ObjRef>,
        declared: MethodId,
        inst: &[RegVar],
        args: &[cj_frontend::VarId],
        span: Span,
    ) -> Result<Value, RuntimeError> {
        if self.depth >= self.max_depth {
            return Err(RuntimeError::DepthLimit(span));
        }
        self.depth += 1;
        let km = self.p.kernel.method(target);
        let rm = self.p.rmethod(target);
        let mut frame = Frame::new(rm, km.vars.len());
        // Default-initialize every slot by type.
        for (i, v) in km.vars.iter().enumerate() {
            frame.vars[i] = Value::default_of(v.ty);
        }
        if let Some(o) = receiver {
            frame.vars[0] = Value::Ref(o);
        }
        for (&p, &a) in km.params.iter().zip(args) {
            frame.vars[p.index()] = caller.vars[a.index()];
        }
        // Region environment: class parameters from the receiver's recorded
        // regions; method parameters from the (resolved) instantiation.
        let resolved: Vec<u32> = inst.iter().map(|&r| self.region(caller, r)).collect();
        match target {
            MethodId::Instance(tc, _) => {
                let tclass_params = &self.p.rclass(tc).params;
                for (i, &cp) in tclass_params.iter().enumerate() {
                    let rid = receiver.map_or(0, |o| self.heap.region_arg(o, i));
                    frame.regmap.insert(cp, rid);
                }
                // Method region parameters: positionally from the declared
                // method's instantiation tail.
                let decl_class_arity = match declared {
                    MethodId::Instance(dc, _) => self.p.rclass(dc).params.len(),
                    MethodId::Static(_) => 0,
                };
                let tail = &resolved[decl_class_arity.min(resolved.len())..];
                for (i, &mp) in rm.mparams.iter().enumerate() {
                    let rid = tail.get(i).copied().unwrap_or(0);
                    frame.regmap.insert(mp, rid);
                }
            }
            MethodId::Static(_) => {
                for (i, &ap) in rm.abs_params.iter().enumerate() {
                    let rid = resolved.get(i).copied().unwrap_or(0);
                    frame.regmap.insert(ap, rid);
                }
            }
        }
        let result = self.eval(&mut frame, &km.body);
        self.depth -= 1;
        result
    }

    fn binary(
        &mut self,
        frame: &mut Frame<'a>,
        op: BinOp,
        a: &'a KExpr,
        b: &'a KExpr,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        // Short-circuit logic first.
        match op {
            BinOp::And => {
                let l = self.eval(frame, a)?.as_bool().expect("bool");
                if !l {
                    return Ok(Value::Bool(false));
                }
                return self.eval(frame, b);
            }
            BinOp::Or => {
                let l = self.eval(frame, a)?.as_bool().expect("bool");
                if l {
                    return Ok(Value::Bool(true));
                }
                return self.eval(frame, b);
            }
            _ => {}
        }
        let l = self.eval(frame, a)?;
        let r = self.eval(frame, b)?;
        value::binary(op, l, r, span)
    }
}
