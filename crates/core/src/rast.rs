//! The region-annotated target language (Fig 1(b)).
//!
//! Region inference turns a kernel program into an [`RProgram`]: every class
//! carries region parameters and an invariant, every method carries region
//! parameters and a precondition, every type is an [`RType`] with explicit
//! regions, and `letreg`s introduce lexically scoped local regions.
//!
//! The target language is the kernel plus region annotations, so an
//! annotated method body *is* its kernel body, reached through
//! [`RProgram::kernel`]: the annotations sit in tables of the [`RMethod`]
//! indexed by the kernel expressions' dense [`ExprId`]s — a type per
//! expression, a region instantiation per `new`, `new p[]`, call and
//! cast, and the [`Letreg`] placements.

use cj_frontend::kernel::{ExprId, KExpr, KExprKind, KProgram};
use cj_frontend::types::{ClassId, MethodId, Prim};
use cj_regions::abstraction::AbsEnv;
use cj_regions::constraint::ConstraintSet;
use cj_regions::subst::RegSubst;
use cj_regions::var::RegVar;
use std::cmp::Reverse;
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
    pub fn regions(&self) -> impl Iterator<Item = RegVar> + '_ {
        let (regions, pads): (&[RegVar], &[RegVar]) = match self {
            RType::Void | RType::Prim(_) => (&[], &[]),
            RType::Class { regions, pads, .. } => (regions, pads),
            RType::Array { region, .. } => (std::slice::from_ref(region), &[]),
        };
        regions.iter().chain(pads).copied()
    }

    /// Whether the type mentions `r`.
    pub fn mentions(&self, r: RegVar) -> bool {
        self.regions().any(|x| x == r)
    }

    /// The region of the object itself (first region), if any.
    pub fn object_region(&self) -> Option<RegVar> {
        match self {
            RType::Class { regions, .. } => regions.first().copied(),
            RType::Array { region, .. } => Some(*region),
            _ => None,
        }
    }

    /// Passes every region of the type through `f`, in place.
    pub fn map_regions(&mut self, f: impl Fn(RegVar) -> RegVar) {
        match self {
            RType::Void | RType::Prim(_) => {}
            RType::Class { regions, pads, .. } => {
                for r in regions.iter_mut().chain(pads) {
                    *r = f(*r);
                }
            }
            RType::Array { region, .. } => *region = f(*region),
        }
    }

    /// Applies a region substitution.
    pub fn subst(&self, s: &RegSubst) -> RType {
        let mut t = self.clone();
        t.map_regions(|r| s.apply(r));
        t
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

/// Where a `letreg` binds its region. A `let` that is a block item scopes
/// over the rest of its block, so an `Items` range, never `Node`, encloses
/// one. Placements at the same expression or range nest in list order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Around one expression: the region is pushed before it runs and
    /// popped after.
    Node(ExprId),
    /// Around items `lo..=hi` of the block `block`: the region is pushed
    /// before item `lo` and popped after item `hi`.
    Items {
        /// The block.
        block: ExprId,
        /// First item inside.
        lo: u32,
        /// Last item inside.
        hi: u32,
    },
}

impl Placement {
    /// The order of [`RMethod::letregs`]: by the expression the placement
    /// starts at, a block before the item ranges in it, and a range before
    /// the narrower ones starting where it does. A placement that encloses
    /// another comes first.
    pub fn order(self) -> (ExprId, Option<(u32, Reverse<u32>)>) {
        match self {
            Placement::Node(e) => (e, None),
            Placement::Items { block, lo, hi } => (block, Some((lo, Reverse(hi)))),
        }
    }
}

/// A `letreg r in …` of the target language, over the kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Letreg {
    /// The bound region.
    pub region: RegVar,
    /// What it encloses.
    pub at: Placement,
}

/// Region signature of a method, and the region annotations of its body
/// as tables over the kernel body's [`ExprId`]s.
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
    /// Annotated type per body expression.
    pub types: Vec<RType>,
    /// The region instantiations of the body's `new`s (the constructed
    /// type's regions), `new p[]`s (the array's region), calls (the
    /// callee's `abs_params`) and casts (the target type's regions), in
    /// expression order; see [`RMethod::inst`].
    pub inst: Vec<RegVar>,
    /// Where each expression's instantiation starts in `inst`, plus one
    /// final entry: expression `e`'s is `inst[inst_at[e]..inst_at[e + 1]]`.
    pub inst_at: Vec<u32>,
    /// The `letreg`s of the body (see [`RMethod::letregs`]); changed only
    /// through [`RMethod::set_letregs`], which keeps `placed` in step.
    pub(crate) letregs: Vec<Letreg>,
    /// Two bits per expression, kept by [`RMethod::set_letregs`]: whether
    /// a `letreg` is placed around it, and whether one is placed around
    /// items of it. Empty when the body has no `letreg`.
    pub(crate) placed: Vec<u64>,
}

impl RMethod {
    /// The annotated type of `e`.
    pub fn ty(&self, e: &KExpr) -> &RType {
        &self.types[e.id.index()]
    }

    /// The region instantiation of `e`: empty unless `e` is a `new`,
    /// `new p[]`, call or cast.
    pub fn inst(&self, e: ExprId) -> &[RegVar] {
        let i = e.index();
        &self.inst[self.inst_at[i] as usize..self.inst_at[i + 1] as usize]
    }

    /// The regions `e`'s own operation touches (see [`own_regions`]).
    pub fn own_regions<'a>(&'a self, e: &'a KExpr) -> impl Iterator<Item = RegVar> + 'a {
        own_regions(e, &self.types, &self.var_types, self.inst(e.id))
    }

    /// The `letreg`s of the body, sorted by [`Placement::order`]: a
    /// placement that encloses another comes before it.
    pub fn letregs(&self) -> &[Letreg] {
        &self.letregs
    }

    /// Replaces the `letreg`s of the body, sorting them by
    /// [`Placement::order`] (placements in the same place keep their
    /// order, outermost first).
    pub fn set_letregs(&mut self, mut letregs: Vec<Letreg>) {
        letregs.sort_by_key(|l| l.at.order());
        self.placed.clear();
        if !letregs.is_empty() {
            self.placed.resize(self.types.len() / 32 + 1, 0);
        }
        for l in &letregs {
            let bit = match l.at {
                Placement::Node(e) => 2 * e.index(),
                Placement::Items { block, .. } => 2 * block.index() + 1,
            };
            self.placed[bit / 64] |= 1 << (bit % 64);
        }
        self.letregs = letregs;
    }

    /// Whether a `letreg` is placed around `e` (`items` false) or around
    /// items of it (`items` true).
    #[inline]
    fn is_placed(&self, e: ExprId, items: bool) -> bool {
        let bit = 2 * e.index() + usize::from(items);
        (self.placed.get(bit / 64)).is_some_and(|&w| w & (1 << (bit % 64)) != 0)
    }

    /// The `letreg`s placed around expression `e`, outermost first.
    #[inline]
    pub fn letregs_at(&self, e: ExprId) -> &[Letreg] {
        if !self.is_placed(e, false) {
            return &[];
        }
        let from = (self.letregs).partition_point(|l| l.at.order() < (e, None));
        let n = (self.letregs[from..].iter())
            .take_while(|l| l.at == Placement::Node(e))
            .count();
        &self.letregs[from..from + n]
    }

    /// The regions bound around item ranges of block `block`, as
    /// `(region, lo, hi)`, outermost first.
    #[inline]
    pub fn letregs_in(&self, block: ExprId) -> impl Iterator<Item = (RegVar, u32, u32)> + '_ {
        let from = match self.is_placed(block, true) {
            true => (self.letregs).partition_point(|l| l.at.order() <= (block, None)),
            false => self.letregs.len(),
        };
        self.letregs[from..].iter().map_while(move |l| match l.at {
            Placement::Items { block: b, lo, hi } if b == block => Some((l.region, lo, hi)),
            _ => None,
        })
    }
}

/// The regions expression `e`'s own operation touches — its type's (from
/// `types`), its variables' (from `var_types`; a `let` touches its declared
/// variable's) and its instantiation `inst`'s. Children are not included.
pub fn own_regions<'a>(
    e: &'a KExpr,
    types: &'a [RType],
    var_types: &'a [RType],
    inst: &'a [RegVar],
) -> impl Iterator<Item = RegVar> + 'a {
    let declared = match &e.kind {
        KExprKind::Let { var, .. } => Some(*var),
        _ => None,
    };
    let vars = e.own_vars().chain(declared);
    types[e.id.index()]
        .regions()
        .chain(vars.flat_map(|v| var_types[v.index()].regions()))
        .chain(inst.iter().copied())
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
        for t in &m.types {
            add(&mut set, t);
        }
        set
    }
}
