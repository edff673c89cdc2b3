//! The region-annotated target language (Fig 1(b)).
//!
//! Region inference turns a kernel program into an [`RProgram`]: every class
//! carries region parameters and an invariant, every method carries region
//! parameters and a precondition, every type is an [`RType`] with explicit
//! regions, and `letreg` nodes introduce lexically scoped local regions.

use cj_frontend::ast::{BinOp, UnOp};
use cj_frontend::kernel::{FieldRef, KProgram};
use cj_frontend::span::Span;
use cj_frontend::types::{ClassId, MethodId, Prim, VarId};
use cj_regions::abstraction::AbsEnv;
use cj_regions::constraint::ConstraintSet;
use cj_regions::subst::RegSubst;
use cj_regions::var::RegVar;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A region-annotated type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RType {
    /// `void`.
    Void,
    /// A primitive (no regions — primitives are copied).
    Prim(Prim),
    /// A class type `cn⟨r₁…rₙ⟩`. The first region is where the object
    /// itself lives; `pads` are the extra regions of the Sec 5 padding
    /// strategy (empty unless downcast padding is enabled).
    Class {
        /// The class.
        class: ClassId,
        /// Region arguments, first = object region.
        regions: Vec<RegVar>,
        /// Padded regions `[r…]` for downcast preservation.
        pads: Vec<RegVar>,
    },
    /// A primitive array `p[]⟨r⟩` — one region for the whole object.
    Array {
        /// Element type.
        elem: Prim,
        /// The array object's region.
        region: RegVar,
    },
}

impl RType {
    /// A class type without pads.
    pub fn class(class: ClassId, regions: Vec<RegVar>) -> RType {
        RType::Class {
            class,
            regions,
            pads: Vec::new(),
        }
    }

    /// All regions mentioned, in order (pads last).
    pub fn regions(&self) -> Vec<RegVar> {
        match self {
            RType::Void | RType::Prim(_) => Vec::new(),
            RType::Class { regions, pads, .. } => {
                regions.iter().chain(pads.iter()).copied().collect()
            }
            RType::Array { region, .. } => vec![*region],
        }
    }

    /// The region of the object itself (first region), if any.
    pub fn object_region(&self) -> Option<RegVar> {
        match self {
            RType::Class { regions, .. } => regions.first().copied(),
            RType::Array { region, .. } => Some(*region),
            _ => None,
        }
    }

    /// Applies a region substitution.
    pub fn subst(&self, s: &RegSubst) -> RType {
        match self {
            RType::Void => RType::Void,
            RType::Prim(p) => RType::Prim(*p),
            RType::Class {
                class,
                regions,
                pads,
            } => RType::Class {
                class: *class,
                regions: s.apply_all(regions),
                pads: s.apply_all(pads),
            },
            RType::Array { elem, region } => RType::Array {
                elem: *elem,
                region: s.apply(*region),
            },
        }
    }
}

impl fmt::Display for RType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RType::Void => f.write_str("void"),
            RType::Prim(p) => write!(f, "{p}"),
            RType::Class {
                class,
                regions,
                pads,
            } => {
                write!(f, "class#{}<", class.0)?;
                for (i, r) in regions.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{r}")?;
                }
                f.write_str(">")?;
                if !pads.is_empty() {
                    f.write_str("[")?;
                    for (i, r) in pads.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{r}")?;
                    }
                    f.write_str("]")?;
                }
                Ok(())
            }
            RType::Array { elem, region } => write!(f, "{elem}[]<{region}>"),
        }
    }
}

/// Region signature of a class: `class cn⟨params⟩ extends … where inv`.
#[derive(Debug, Clone)]
pub struct RClass {
    /// The class.
    pub id: ClassId,
    /// Region parameters; the superclass's parameters are a prefix.
    pub params: Vec<RegVar>,
    /// Annotated types of *all* fields in constructor order, expressed over
    /// `params`.
    pub field_types: Vec<RType>,
    /// The closed-form class invariant `inv.cn` over `params`.
    pub invariant: ConstraintSet,
    /// The dedicated recursive region (last parameter) if the class is
    /// recursive.
    pub rec_region: Option<RegVar>,
}

impl RClass {
    /// Number of region parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// The invariant instantiated at `regions`, positionally matching
    /// `params`.
    ///
    /// # Panics
    ///
    /// Under the arity and conflicting-binding conditions of
    /// [`RegSubst::instantiation`].
    pub fn invariant_at(&self, regions: &[RegVar]) -> ConstraintSet {
        self.invariant
            .subst(&RegSubst::instantiation(&self.params, regions))
    }
}

/// Region signature and annotated body of a method.
#[derive(Debug, Clone)]
pub struct RMethod {
    /// Which method this is.
    pub id: MethodId,
    /// The method's own region parameters (for parameters and result).
    pub mparams: Vec<RegVar>,
    /// Full abstraction parameters: owning class's region parameters
    /// (instance methods only) followed by `mparams`.
    pub abs_params: Vec<RegVar>,
    /// Annotated type per kernel variable slot.
    pub var_types: Vec<RType>,
    /// Annotated return type.
    pub ret_type: RType,
    /// The closed-form precondition `pre.m` over `abs_params`.
    pub precondition: ConstraintSet,
    /// The annotated body.
    pub body: RExpr,
    /// Regions localized by `letreg` in this method (one entry per letreg).
    pub localized: Vec<RegVar>,
}

/// A region-annotated expression.
#[derive(Debug, Clone)]
pub struct RExpr {
    /// The annotated form.
    pub kind: RExprKind,
    /// The expression's annotated type.
    pub rtype: RType,
    /// Source location (from the kernel).
    pub span: Span,
}

impl RExpr {
    /// The direct sub-expressions, in evaluation order.
    pub fn children(&self) -> impl Iterator<Item = &RExpr> {
        let (a, b, c, items): (_, _, _, &[RExpr]) = match &self.kind {
            RExprKind::AssignVar(_, a)
            | RExprKind::AssignField(_, _, a)
            | RExprKind::NewArray { len: a, .. }
            | RExprKind::Index(_, a)
            | RExprKind::Unary(_, a)
            | RExprKind::Print(a)
            | RExprKind::Letreg(_, a) => (Some(&**a), None, None, &[]),
            RExprKind::AssignIndex(_, a, b)
            | RExprKind::Binary(_, a, b)
            | RExprKind::While { cond: a, body: b } => (Some(&**a), Some(&**b), None, &[]),
            RExprKind::If {
                cond,
                then_e,
                else_e,
            } => (Some(&**cond), Some(&**then_e), Some(&**else_e), &[]),
            RExprKind::Let { init, .. } => (init.as_deref(), None, None, &[]),
            RExprKind::Block(items) => (None, None, None, items),
            _ => (None, None, None, &[]),
        };
        a.into_iter().chain(b).chain(c).chain(items)
    }

    /// [`RExpr::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut RExpr> {
        let (a, b, c, items): (_, _, _, &mut [RExpr]) = match &mut self.kind {
            RExprKind::AssignVar(_, a)
            | RExprKind::AssignField(_, _, a)
            | RExprKind::NewArray { len: a, .. }
            | RExprKind::Index(_, a)
            | RExprKind::Unary(_, a)
            | RExprKind::Print(a)
            | RExprKind::Letreg(_, a) => (Some(&mut **a), None, None, &mut []),
            RExprKind::AssignIndex(_, a, b)
            | RExprKind::Binary(_, a, b)
            | RExprKind::While { cond: a, body: b } => {
                (Some(&mut **a), Some(&mut **b), None, &mut [])
            }
            RExprKind::If {
                cond,
                then_e,
                else_e,
            } => (
                Some(&mut **cond),
                Some(&mut **then_e),
                Some(&mut **else_e),
                &mut [],
            ),
            RExprKind::Let { init, .. } => (init.as_deref_mut(), None, None, &mut []),
            RExprKind::Block(items) => (None, None, None, items),
            _ => (None, None, None, &mut []),
        };
        a.into_iter().chain(b).chain(c).chain(items)
    }

    /// Passes the regions of this node's own type, allocation,
    /// instantiation and cast target — not its children's, nor a `letreg`
    /// binder — through `f`.
    pub fn map_own_regions(&mut self, f: &impl Fn(RegVar) -> RegVar) {
        match &mut self.rtype {
            RType::Class { regions, pads, .. } => {
                for r in regions.iter_mut().chain(pads) {
                    *r = f(*r);
                }
            }
            RType::Array { region, .. } => *region = f(*region),
            RType::Void | RType::Prim(_) => {}
        }
        match &mut self.kind {
            RExprKind::New { regions, .. }
            | RExprKind::CallVirtual { inst: regions, .. }
            | RExprKind::CallStatic { inst: regions, .. }
            | RExprKind::Cast { regions, .. } => {
                for r in regions {
                    *r = f(*r);
                }
            }
            RExprKind::NewArray { region, .. } => *region = f(*region),
            _ => {}
        }
    }

    /// The variables this node's own operation reads or writes — its
    /// operand, receiver or cast subject, then its arguments — not its
    /// children's. A `let`'s declared variable is not among them.
    pub fn own_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let (one, args): (_, &[VarId]) = match &self.kind {
            RExprKind::Var(v)
            | RExprKind::Field(v, _)
            | RExprKind::ArrayLen(v)
            | RExprKind::AssignVar(v, _)
            | RExprKind::AssignField(v, _, _)
            | RExprKind::Index(v, _)
            | RExprKind::AssignIndex(v, _, _)
            | RExprKind::Cast { var: v, .. } => (Some(v), &[]),
            RExprKind::New { args, .. } | RExprKind::CallStatic { args, .. } => (None, args),
            RExprKind::CallVirtual { recv, args, .. } => (Some(recv), args),
            _ => (None, &[]),
        };
        one.into_iter().chain(args).copied()
    }

    /// The regions this node's own operation touches — its type's, its
    /// variables' (typed by `var_types`; a `let` touches its declared
    /// variable's) and its allocation, instantiation or cast target's.
    /// Children are not included.
    pub fn own_regions(&self, var_types: &[RType]) -> Vec<RegVar> {
        let mut own = self.rtype.regions();
        let declared = match &self.kind {
            RExprKind::Let { var, .. } => Some(*var),
            _ => None,
        };
        for v in self.own_vars().chain(declared) {
            own.extend(var_types[v.index()].regions());
        }
        match &self.kind {
            RExprKind::New { regions, .. }
            | RExprKind::CallVirtual { inst: regions, .. }
            | RExprKind::CallStatic { inst: regions, .. }
            | RExprKind::Cast { regions, .. } => own.extend(regions),
            RExprKind::NewArray { region, .. } => own.push(*region),
            _ => {}
        }
        own
    }

    /// The unit value.
    pub fn unit(span: Span) -> RExpr {
        RExpr {
            kind: RExprKind::Unit,
            rtype: RType::Void,
            span,
        }
    }

    /// A block of the nonempty `items`, typed by its last item; a single
    /// item stands for itself.
    pub fn block(mut items: Vec<RExpr>) -> RExpr {
        if items.len() == 1 {
            return items.pop().expect("one item");
        }
        let last = items.last().expect("a block has a value item");
        let (rtype, span) = (last.rtype.clone(), items[0].span.to(last.span));
        RExpr {
            kind: RExprKind::Block(items),
            rtype,
            span,
        }
    }
}

/// Annotated expression forms; mirrors
/// [`KExprKind`](cj_frontend::kernel::KExprKind) with region information
/// added, plus the `letreg` construct of the target language.
#[derive(Debug, Clone)]
pub enum RExprKind {
    /// Unit value.
    Unit,
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Float literal.
    Float(f64),
    /// `(cn⟨r…⟩) null` — regions are in `rtype`.
    Null,
    /// Variable read.
    Var(VarId),
    /// Field read `v.f`.
    Field(VarId, FieldRef),
    /// `v = e`.
    AssignVar(VarId, Box<RExpr>),
    /// `v.f = e`.
    AssignField(VarId, FieldRef, Box<RExpr>),
    /// `new cn⟨regions⟩(args)` — the object is allocated in `regions[0]`.
    New {
        /// Class being constructed.
        class: ClassId,
        /// Region arguments of the constructed type.
        regions: Vec<RegVar>,
        /// Field initializer variables.
        args: Vec<VarId>,
    },
    /// `new p[len]⟨region⟩`.
    NewArray {
        /// Element primitive.
        elem: Prim,
        /// Region the array lives in.
        region: RegVar,
        /// Length expression.
        len: Box<RExpr>,
    },
    /// `v[e]`.
    Index(VarId, Box<RExpr>),
    /// `v[e₁] = e₂`.
    AssignIndex(VarId, Box<RExpr>, Box<RExpr>),
    /// `v.length`.
    ArrayLen(VarId),
    /// `v.mn⟨inst⟩(args)`: `inst` instantiates the callee's full
    /// abstraction parameters (class prefix + method regions).
    CallVirtual {
        /// Receiver variable.
        recv: VarId,
        /// Statically resolved method.
        method: MethodId,
        /// Region arguments for the callee's `abs_params`.
        inst: Vec<RegVar>,
        /// Argument variables.
        args: Vec<VarId>,
    },
    /// `mn⟨inst⟩(args)` — static call.
    CallStatic {
        /// The static method.
        method: MethodId,
        /// Region arguments for the callee's `abs_params`.
        inst: Vec<RegVar>,
        /// Argument variables.
        args: Vec<VarId>,
    },
    /// `{ e₁; …; eₙ }`: the last item's value is the block's (an empty
    /// block is unit).
    Block(Vec<RExpr>),
    /// `t v [= init]`, a block item of type `void` scoping over the rest
    /// of its block.
    Let {
        /// Declared variable (annotated type in the method's `var_types`).
        var: VarId,
        /// Optional initializer.
        init: Option<Box<RExpr>>,
    },
    /// `letreg r in e` — introduces a lexically scoped region.
    Letreg(RegVar, Box<RExpr>),
    /// Conditional.
    If {
        /// Condition.
        cond: Box<RExpr>,
        /// Then branch.
        then_e: Box<RExpr>,
        /// Else branch.
        else_e: Box<RExpr>,
    },
    /// Loop.
    While {
        /// Condition.
        cond: Box<RExpr>,
        /// Body.
        body: Box<RExpr>,
    },
    /// `(cn⟨regions⟩) v` — up- or downcast with explicit target regions.
    Cast {
        /// Target class.
        class: ClassId,
        /// Target type's regions.
        regions: Vec<RegVar>,
        /// Subject.
        var: VarId,
    },
    /// Unary primitive operation.
    Unary(UnOp, Box<RExpr>),
    /// Binary primitive operation / reference equality.
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    /// Debug print.
    Print(Box<RExpr>),
}

/// Visits every annotated sub-expression (pre-order).
pub fn walk_rexpr<'a>(e: &'a RExpr, f: &mut impl FnMut(&'a RExpr)) {
    f(e);
    for c in e.children() {
        walk_rexpr(c, f);
    }
}

/// Rebuilds an annotated type with every region passed through `f`.
pub fn map_rtype_regions(t: &RType, f: &impl Fn(RegVar) -> RegVar) -> RType {
    match t {
        RType::Void => RType::Void,
        RType::Prim(p) => RType::Prim(*p),
        RType::Class {
            class,
            regions,
            pads,
        } => RType::Class {
            class: *class,
            regions: regions.iter().map(|&r| f(r)).collect(),
            pads: pads.iter().map(|&r| f(r)).collect(),
        },
        RType::Array { elem, region } => RType::Array {
            elem: *elem,
            region: f(*region),
        },
    }
}

/// A fully region-annotated program — the output of inference and the input
/// of the region checker and the interpreter.
#[derive(Debug, Clone)]
pub struct RProgram {
    /// The underlying kernel program (class table, normal types, bodies),
    /// shared with the driver that typechecked it.
    pub kernel: Arc<KProgram>,
    /// Region signatures per class (indexed by `ClassId`).
    pub classes: Vec<RClass>,
    /// Annotated instance methods, parallel to `kernel.methods`.
    pub methods: Vec<Vec<RMethod>>,
    /// Annotated static methods, parallel to `kernel.statics`.
    pub statics: Vec<RMethod>,
    /// The environment `Q` of closed constraint abstractions
    /// (`inv.cn`, `pre.m`).
    pub q: AbsEnv,
}

impl RProgram {
    /// The annotated class signature for `id`.
    pub fn rclass(&self, id: ClassId) -> &RClass {
        &self.classes[id.index()]
    }

    /// The annotated method for `id`.
    pub fn rmethod(&self, id: MethodId) -> &RMethod {
        match id {
            MethodId::Instance(c, i) => &self.methods[c.index()][i as usize],
            MethodId::Static(i) => &self.statics[i as usize],
        }
    }

    /// Iterates over all annotated methods with their ids.
    pub fn all_rmethods(&self) -> impl Iterator<Item = (MethodId, &RMethod)> {
        let inst = self.methods.iter().enumerate().flat_map(|(c, ms)| {
            ms.iter()
                .enumerate()
                .map(move |(i, m)| (MethodId::Instance(ClassId(c as u32), i as u32), m))
        });
        let stat = self
            .statics
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId::Static(i as u32), m));
        inst.chain(stat)
    }

    /// The method's *closed constraint environment*: its solved
    /// precondition conjoined with the class invariant `inv.cn` of every
    /// class type occurring in the method (variable types, return type,
    /// expression annotations), instantiated at that type's region
    /// arguments. Entailment over this set is the region-reachability
    /// relation that annotation-driven analyses (e.g. the `cj-policy`
    /// source/sink and confinement rules) query: `s ≥ t` entailed here
    /// means data in region `s` may be referenced from structure living in
    /// region `t`.
    pub fn method_closure(&self, id: MethodId) -> ConstraintSet {
        let m = self.rmethod(id);
        let mut set = m.precondition.clone();
        let mut seen: BTreeSet<(ClassId, Vec<RegVar>)> = BTreeSet::new();
        let mut add = |set: &mut ConstraintSet, t: &RType| {
            let RType::Class { class, regions, .. } = t else {
                return;
            };
            if !seen.insert((*class, regions.clone())) {
                return;
            }
            // Only invariants of matching arity instantiate (padded types
            // carry extra regions beyond the invariant's formals; their
            // base regions are covered by the unpadded occurrences).
            let rc = self.rclass(*class);
            if rc.arity() == regions.len() {
                set.and(&rc.invariant_at(regions));
            }
        };
        for t in &m.var_types {
            add(&mut set, t);
        }
        add(&mut set, &m.ret_type);
        walk_rexpr(&m.body, &mut |e| add(&mut set, &e.rtype));
        set
    }
}
