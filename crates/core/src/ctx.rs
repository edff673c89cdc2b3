//! The inference context: class and method region signatures.
//!
//! This implements the \[CLASS\] part of Fig 3: each class receives region
//! parameters (the superclass's parameters as a prefix, fresh regions for
//! the components of every non-recursive field, and one dedicated region —
//! placed last — shared by all recursive fields, Sec 3.1), and a raw
//! `inv.cn` constraint abstraction expressing the no-dangling requirement
//! plus the invariants of its field types.
//!
//! Method signatures (\[METH\] preamble) receive fresh region parameters for
//! their parameter and result types; the abstraction `pre.m` is
//! parameterized by the owning class's regions followed by the method's
//! own.
//!
//! Every abstraction gets a dense [`AbsId`] here, numbered in name order:
//! inference keys abstractions only by id, and the names built by
//! [`invariant_name`] and [`precondition_name`] survive only to print `Q`
//! and to answer queries by name.

use crate::options::InferOptions;
use crate::rast::RType;
use cj_frontend::graph::tarjan_scc;
use cj_frontend::kernel::KProgram;
use cj_frontend::types::{ClassId, MethodId, NType};
use cj_regions::abstraction::{AbsBody, AbsCall, AbsEnv, AbsId, ConstraintAbs};
use cj_regions::constraint::ConstraintSet;
use cj_regions::var::{RegVar, RegVarGen};
use std::collections::HashMap;

/// Region signature of a class during inference.
#[derive(Debug, Clone)]
pub struct ClassSig {
    /// Region parameters; superclass parameters are a shared-identity
    /// prefix.
    pub params: Vec<RegVar>,
    /// Annotated types for all fields (constructor order, inherited first),
    /// expressed over `params`.
    pub field_types: Vec<RType>,
    /// The dedicated recursive region, if the class is recursive.
    pub rec_region: Option<RegVar>,
}

impl ClassSig {
    /// Position of the recursive region within `params`, if any.
    pub fn rec_position(&self) -> Option<usize> {
        self.rec_region
            .and_then(|r| self.params.iter().position(|&p| p == r))
    }
}

/// Region signature of a method during inference.
#[derive(Debug, Clone)]
pub struct MethodSigR {
    /// The method's own region parameters (parameters + result).
    pub mparams: Vec<RegVar>,
    /// Owning class region parameters (instance methods) ++ `mparams`.
    pub abs_params: Vec<RegVar>,
    /// Annotated `this` type for instance methods.
    pub this_type: Option<RType>,
    /// Annotated parameter types over `mparams` (and class params).
    pub param_types: Vec<RType>,
    /// Annotated return type.
    pub ret_type: RType,
    /// The method's `pre` abstraction (`pre.cn.mn` / `pre.mn`).
    pub abs: AbsId,
}

/// The name of class `class`'s invariant abstraction: `inv.cn`.
pub fn invariant_name(class: &str) -> String {
    format!("inv.{class}")
}

/// The name of a method's precondition abstraction: `pre.cn.mn` for method
/// `mn` of class `cn`, `pre.mn` for a static method.
pub fn precondition_name(class: Option<&str>, method: &str) -> String {
    match class {
        Some(c) => format!("pre.{c}.{method}"),
        None => format!("pre.{method}"),
    }
}

/// Shared state for a whole inference run.
pub struct Ctx<'a> {
    /// The kernel program being inferred.
    pub kp: &'a KProgram,
    /// Options.
    pub opts: InferOptions,
    /// Fresh region source (shared by every phase).
    pub gen: RegVarGen,
    /// Class signatures, indexed by `ClassId`.
    pub classes: Vec<ClassSig>,
    /// Method signatures.
    pub msigs: HashMap<MethodId, MethodSigR>,
    /// The raw (unsolved) abstraction environment, numbered in name order;
    /// override resolution and escaping-local instantiation add atoms here
    /// between solves. The pipeline's solve moves the names and parameters
    /// out into the closed environment and reads only the bodies.
    pub raw: AbsEnv,
    /// The `inv` abstraction of each class, indexed by `ClassId`.
    invs: Vec<AbsId>,
    /// Whether the program contains any downcast (`(cn) v` to a strict
    /// subclass); governs whether the downcast policy has work to do.
    pub has_downcasts: bool,
    /// Flow analysis results, computed when the padding policy is active.
    pub downcast_info: Option<cj_downcast::DowncastAnalysis>,
}

impl<'a> Ctx<'a> {
    /// Builds class signatures, method signatures and raw `inv.cn`
    /// abstractions for `kp`, and numbers every abstraction.
    pub fn new(kp: &'a KProgram, opts: InferOptions) -> Ctx<'a> {
        let mut ctx = Ctx {
            kp,
            opts,
            gen: RegVarGen::new(),
            classes: Vec::new(),
            msigs: HashMap::new(),
            raw: AbsEnv::new(),
            invs: Vec::new(),
            has_downcasts: program_has_downcasts(kp),
            downcast_info: None,
        };
        if ctx.has_downcasts && opts.downcast == crate::options::DowncastPolicy::Padding {
            ctx.downcast_info = Some(cj_downcast::analyze(kp));
        }
        let pres = ctx.number_abstractions();
        ctx.build_class_sigs();
        ctx.build_inv_abstractions();
        ctx.build_method_sigs(&pres);
        ctx
    }

    /// Number of pad regions a variable of static class `c` needs under the
    /// padding policy: enough to reach the widest class in its downcast set.
    pub fn pad_count(&self, m: MethodId, v: cj_frontend::VarId, c: ClassId) -> usize {
        let Some(info) = &self.downcast_info else {
            return 0;
        };
        let own = self.arity(c);
        info.var_set(m, v)
            .iter()
            .map(|&d| self.arity(d))
            .max()
            .unwrap_or(own)
            .saturating_sub(own)
    }

    /// Pad count for a method's result value.
    pub fn ret_pad_count(&self, m: MethodId, c: ClassId) -> usize {
        let Some(info) = &self.downcast_info else {
            return 0;
        };
        let own = self.arity(c);
        info.ret_sets
            .get(&m)
            .into_iter()
            .flatten()
            .map(|&d| self.arity(d))
            .max()
            .unwrap_or(own)
            .saturating_sub(own)
    }

    /// The `inv` abstraction of a class.
    pub fn inv(&self, c: ClassId) -> AbsId {
        self.invs[c.index()]
    }

    /// Region arity of a class.
    pub fn arity(&self, c: ClassId) -> usize {
        self.classes[c.index()].params.len()
    }

    /// A fresh annotated type for normal type `ty` (fresh distinct regions,
    /// per the first annotation guideline of Sec 3).
    pub fn fresh_rtype(&mut self, ty: NType) -> RType {
        match ty {
            NType::Void => RType::Void,
            NType::Prim(p) => RType::Prim(p),
            NType::Null => unreachable!("kernel nulls carry class types"),
            NType::Class(c) => {
                let regions = self.gen.fresh_n(self.arity(c));
                RType::class(c, regions)
            }
            NType::Array(p) => RType::Array {
                elem: p,
                region: self.gen.fresh(),
            },
        }
    }

    /// Adds every `inv.*` and `pre.*` abstraction to `raw`, with neither
    /// parameters nor body yet, numbered in name order so that `Q` and the
    /// condensation's vertex order both follow names.
    /// Returns the `pre` abstraction of each method, in
    /// `kp.all_methods()` order.
    fn number_abstractions(&mut self) -> Vec<AbsId> {
        let (kp, table) = (self.kp, &self.kp.table);
        let invs = table
            .classes()
            .iter()
            .map(|c| invariant_name(c.name.as_str()));
        let pres = kp.all_methods().map(|(id, m)| {
            let class = match id {
                MethodId::Instance(c, _) => Some(table.name(c).as_str()),
                MethodId::Static(_) => None,
            };
            precondition_name(class, m.name.as_str())
        });
        // Owners: classes by `ClassId`, then methods.
        let mut named: Vec<(String, usize)> = invs.chain(pres).zip(0..).collect();
        named.sort_unstable();
        let mut ids = vec![AbsId(0); named.len()];
        for (name, owner) in named {
            ids[owner] = self.raw.push(ConstraintAbs {
                name,
                params: Vec::new(),
                body: AbsBody::default(),
            });
        }
        let pres = ids.split_off(table.len());
        self.invs = ids;
        pres
    }

    // ---- class inference -------------------------------------------------

    fn build_class_sigs(&mut self) {
        let table = &self.kp.table;
        let n = table.len();
        // Dependency graph: superclass edges, then own-field-type edges.
        // The superclass reaches every inherited field's type, and the
        // search visits it first, so leaving those edges out changes
        // neither the components nor their order.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for info in table.classes() {
            if let Some(s) = info.superclass {
                adj[info.id.index()].push(s.index());
            }
            for f in &info.own_fields {
                if let NType::Class(d) = f.ty {
                    adj[info.id.index()].push(d.index());
                }
            }
        }
        let sccs = tarjan_scc(n, |v| adj[v].iter().copied());

        self.classes = (0..n)
            .map(|_| ClassSig {
                params: Vec::new(),
                field_types: Vec::new(),
                rec_region: None,
            })
            .collect();

        // Field-type-only SCC membership (recursion through fields, not
        // through inheritance alone) determines recursive fields.
        let recursive = table.recursive_classes();

        for scc in sccs {
            // Within an SCC, supers first, then by id.
            let mut members: Vec<ClassId> = scc.iter().map(|&i| ClassId(i as u32)).collect();
            members.sort_by_key(|&c| (table.class(c).depth, c));
            let in_scc = |c: ClassId| scc.contains(&c.index());

            // Phase 1: parameters.
            for &c in &members {
                let info = table.class(c);
                let mut params: Vec<RegVar> = match info.superclass {
                    Some(s) => self.classes[s.index()].params.clone(),
                    None => vec![self.gen.fresh()], // Object<r1>
                };
                if info.superclass.is_some() {
                    // Regions for the components of own non-recursive fields.
                    for f in &info.own_fields {
                        match f.ty {
                            NType::Class(d) if in_scc(d) || recursive[c.index()] && d == c => {
                                // recursive field: handled by rec region
                            }
                            NType::Class(d) => {
                                let k = self.classes[d.index()].params.len();
                                debug_assert!(k > 0, "field class processed first");
                                params.extend(self.gen.fresh_n(k));
                            }
                            NType::Array(_) => params.push(self.gen.fresh()),
                            NType::Prim(_) | NType::Void | NType::Null => {}
                        }
                    }
                    // One dedicated region, last, for all recursive fields.
                    let has_rec_field = info
                        .own_fields
                        .iter()
                        .any(|f| matches!(f.ty, NType::Class(d) if in_scc(d)));
                    if has_rec_field {
                        let rr = self.gen.fresh();
                        params.push(rr);
                        self.classes[c.index()].rec_region = Some(rr);
                    } else {
                        // Inherit the superclass's recursive region if any.
                        self.classes[c.index()].rec_region = info
                            .superclass
                            .and_then(|s| self.classes[s.index()].rec_region);
                    }
                }
                self.classes[c.index()].params = params;
            }

            // Phase 2: field types (arities of all SCC members now known).
            for &c in &members {
                let info = table.class(c);
                let mut field_types: Vec<RType> = match info.superclass {
                    Some(s) => self.classes[s.index()].field_types.clone(),
                    None => Vec::new(),
                };
                // Walk own fields in order, consuming the fresh params that
                // phase 1 appended for them.
                let sup_arity = info
                    .superclass
                    .map(|s| self.classes[s.index()].params.len())
                    .unwrap_or(1);
                let params = self.classes[c.index()].params.clone();
                let mut cursor = sup_arity;
                for f in &info.own_fields {
                    let rt = match f.ty {
                        NType::Prim(p) => RType::Prim(p),
                        NType::Void | NType::Null => RType::Void,
                        NType::Array(p) => {
                            let r = params[cursor];
                            cursor += 1;
                            RType::Array { elem: p, region: r }
                        }
                        NType::Class(d) if in_scc(d) => {
                            let rr = self.classes[c.index()]
                                .rec_region
                                .expect("recursive field implies rec region");
                            if d == c {
                                // cn⟨r_rec, r₂ … rₙ⟩ (Sec 3.1).
                                let mut regions = params.clone();
                                regions[0] = rr;
                                RType::class(c, regions)
                            } else {
                                // Mutually recursive: collapse the partner's
                                // regions onto the recursive region (a
                                // simple, sound scheme: it may merge regions
                                // that could stay apart, never the reverse).
                                let k = self.classes[d.index()].params.len();
                                RType::class(d, vec![rr; k])
                            }
                        }
                        NType::Class(d) => {
                            let k = self.classes[d.index()].params.len();
                            let regions = params[cursor..cursor + k].to_vec();
                            cursor += k;
                            RType::class(d, regions)
                        }
                    };
                    field_types.push(rt);
                }
                self.classes[c.index()].field_types = field_types;
            }
        }
    }

    fn build_inv_abstractions(&mut self) {
        let table = &self.kp.table;
        for info in table.classes() {
            let sig = &self.classes[info.id.index()];
            let mut atoms = ConstraintSet::new();
            let first = sig.params[0];
            // No-dangling: every component region outlives the object's.
            for &p in &sig.params[1..] {
                atoms.add_outlives(p, first);
            }
            let mut calls = Vec::new();
            if let Some(s) = info.superclass {
                let sup_arity = self.classes[s.index()].params.len();
                calls.push(AbsCall {
                    callee: self.inv(s),
                    args: sig.params[..sup_arity].to_vec(),
                });
            }
            // Invariants of own fields' class types.
            let own_start = sig.field_types.len() - info.own_fields.len();
            for ft in &sig.field_types[own_start..] {
                if let RType::Class { class, regions, .. } = ft {
                    calls.push(AbsCall {
                        callee: self.inv(*class),
                        args: regions.clone(),
                    });
                }
            }
            let params = sig.params.clone();
            let abs = self.raw.get_mut(self.invs[info.id.index()]);
            abs.params = params;
            abs.body = AbsBody { atoms, calls };
        }
    }

    // ---- method signatures ------------------------------------------------

    fn build_method_sigs(&mut self, pres: &[AbsId]) {
        let ids: Vec<MethodId> = self.kp.all_methods().map(|(id, _)| id).collect();
        for (id, &abs) in ids.into_iter().zip(pres) {
            let m = self.kp.method(id);
            let (class_params, this_type) = match id {
                MethodId::Instance(c, _) => {
                    let params = self.classes[c.index()].params.clone();
                    (params.clone(), Some(RType::class(c, params)))
                }
                MethodId::Static(_) => (Vec::new(), None),
            };
            let mut mparams = Vec::new();
            let mut param_types = Vec::new();
            for &p in &m.params {
                let mut rt = self.fresh_sig_rtype(m.var_ty(p), &mut mparams);
                if let (RType::Class { class, pads, .. }, true) =
                    (&mut rt, self.downcast_info.is_some())
                {
                    let n = self.pad_count(id, p, *class);
                    let fresh = self.gen.fresh_n(n);
                    mparams.extend(fresh.iter().copied());
                    pads.extend(fresh);
                }
                param_types.push(rt);
            }
            let mut ret_type = self.fresh_sig_rtype(m.ret, &mut mparams);
            if let (RType::Class { class, pads, .. }, true) =
                (&mut ret_type, self.downcast_info.is_some())
            {
                let n = self.ret_pad_count(id, *class);
                let fresh = self.gen.fresh_n(n);
                mparams.extend(fresh.iter().copied());
                pads.extend(fresh);
            }
            let mut abs_params = class_params;
            abs_params.extend(mparams.iter().copied());
            self.raw.get_mut(abs).params = abs_params.clone();
            let sig = MethodSigR {
                mparams,
                abs_params,
                this_type,
                param_types,
                ret_type,
                abs,
            };
            self.msigs.insert(id, sig);
        }
    }

    fn fresh_sig_rtype(&mut self, ty: NType, mparams: &mut Vec<RegVar>) -> RType {
        match ty {
            NType::Void => RType::Void,
            NType::Prim(p) => RType::Prim(p),
            NType::Null => unreachable!("kernel signature types are resolved"),
            NType::Class(c) => {
                let regions = self.gen.fresh_n(self.arity(c));
                mparams.extend(regions.iter().copied());
                RType::class(c, regions)
            }
            NType::Array(p) => {
                let r = self.gen.fresh();
                mparams.push(r);
                RType::Array { elem: p, region: r }
            }
        }
    }
}

/// Whether any cast in the program targets a strict subclass of its
/// operand's static type.
pub fn program_has_downcasts(kp: &KProgram) -> bool {
    use cj_frontend::kernel::{walk_expr, KExprKind};
    let mut found = false;
    for (_, m) in kp.all_methods() {
        walk_expr(&m.body, &mut |e| {
            if let KExprKind::Cast(target, v) = &e.kind {
                if let NType::Class(src) = m.var_ty(*v) {
                    if *target != src && kp.table.is_subclass(*target, src) {
                        found = true;
                    }
                }
            }
        });
        if found {
            break;
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_frontend::typecheck::check_source;
    use cj_regions::abstraction::solve_fixpoint;

    fn ctx_for(src: &str) -> (KProgram, InferOptions) {
        (check_source(src).unwrap(), InferOptions::default())
    }

    #[test]
    fn abstractions_are_numbered_in_name_order() {
        // Declaration order (Z before A, `zed` before `alpha`) differs from
        // name order.
        let (kp, opts) = ctx_for(
            "class Z { Object f; Object get() { this.f } }
             class A { Object g; }
             class M { static int zed(int x) { x } static int alpha(int x) { x } }",
        );
        let ctx = Ctx::new(&kp, opts);
        let names: Vec<&str> = ctx.raw.iter().map(|a| a.name.as_str()).collect();
        let want = "inv.A inv.M inv.Object inv.Z pre.Z.get pre.alpha pre.zed";
        assert_eq!(names.join(" "), want);
        for (i, name) in names.into_iter().enumerate() {
            assert_eq!(ctx.raw.find(name), Some(AbsId(i as u32)));
        }
        let name_of = |id: AbsId| ctx.raw.get(id).name.as_str();
        let z = kp.table.class_id("Z").unwrap();
        assert_eq!(name_of(ctx.inv(z)), "inv.Z");
        assert_eq!(name_of(ctx.inv(ClassId::OBJECT)), "inv.Object");
        assert_eq!(
            name_of(ctx.msigs[&MethodId::Instance(z, 0)].abs),
            "pre.Z.get"
        );
        assert_eq!(name_of(ctx.msigs[&MethodId::Static(0)].abs), "pre.zed");
        assert_eq!(name_of(ctx.msigs[&MethodId::Static(1)].abs), "pre.alpha");
    }

    #[test]
    fn pair_gets_three_params() {
        let (kp, opts) = ctx_for("class Pair { Object fst; Object snd; }");
        let ctx = Ctx::new(&kp, opts);
        let pair = kp.table.class_id("Pair").unwrap();
        let sig = &ctx.classes[pair.index()];
        // r1 (object, shared with Object) + one per Object field.
        assert_eq!(sig.params.len(), 3);
        assert!(sig.rec_region.is_none());
        // Fields use distinct regions.
        let r_fst: Vec<_> = sig.field_types[0].regions().collect();
        let r_snd: Vec<_> = sig.field_types[1].regions().collect();
        assert_ne!(r_fst, r_snd);
    }

    #[test]
    fn list_gets_dedicated_recursive_region_last() {
        let (kp, opts) = ctx_for("class List { Object value; List next; }");
        let ctx = Ctx::new(&kp, opts);
        let list = kp.table.class_id("List").unwrap();
        let sig = &ctx.classes[list.index()];
        assert_eq!(sig.params.len(), 3); // r1, r_value, r_rec
        let rr = sig.rec_region.expect("recursive");
        assert_eq!(*sig.params.last().unwrap(), rr);
        // next: List<r_rec, r_value, r_rec>
        match &sig.field_types[1] {
            RType::Class { regions, .. } => {
                assert_eq!(regions[0], rr);
                assert_eq!(regions[1], sig.params[1]);
                assert_eq!(regions[2], rr);
            }
            other => panic!("unexpected field type {other:?}"),
        }
    }

    #[test]
    fn inv_list_matches_paper_after_fixpoint() {
        // inv.List<r1,r2,r3> = r3>=r1 & r2>=r3 & r2>=r1 (Sec 3.1).
        let (kp, opts) = ctx_for("class List { Object value; List next; }");
        let mut ctx = Ctx::new(&kp, opts);
        let list = kp.table.class_id("List").unwrap();
        let (object, inv_list) = (ctx.inv(ClassId::OBJECT), ctx.inv(list));
        let mut solver = cj_regions::Solver::new();
        solve_fixpoint(&mut ctx.raw, &[object], &mut solver);
        solve_fixpoint(&mut ctx.raw, &[inv_list], &mut solver);
        let sig = &ctx.classes[list.index()];
        let (r1, r2, r3) = (sig.params[0], sig.params[1], sig.params[2]);
        solver.reset();
        solver.add_set(&ctx.raw.get(inv_list).body.atoms);
        assert!(solver.outlives_holds(r3, r1));
        assert!(solver.outlives_holds(r2, r3));
        assert!(solver.outlives_holds(r2, r1));
        assert!(!solver.outlives_holds(r3, r2));
    }

    #[test]
    fn subclass_params_extend_superclass() {
        let (kp, opts) = ctx_for("class A { Object x; } class B extends A { Object y; }");
        let ctx = Ctx::new(&kp, opts);
        let a = kp.table.class_id("A").unwrap();
        let b = kp.table.class_id("B").unwrap();
        let pa = &ctx.classes[a.index()].params;
        let pb = &ctx.classes[b.index()].params;
        assert_eq!(pa.len(), 2);
        assert_eq!(pb.len(), 3);
        assert_eq!(&pb[..2], &pa[..]); // shared-identity prefix
    }

    #[test]
    fn mutual_recursion_collapses_partner_regions() {
        let (kp, opts) = ctx_for("class A { B b; } class B { A a; }");
        let ctx = Ctx::new(&kp, opts);
        let a = kp.table.class_id("A").unwrap();
        let sig = &ctx.classes[a.index()];
        let rr = sig.rec_region.expect("mutually recursive");
        match &sig.field_types[0] {
            RType::Class { regions, .. } => {
                assert!(regions.iter().all(|&r| r == rr));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn method_sig_regions_fresh_per_method() {
        let (kp, opts) = ctx_for(
            "class Pair { Object fst; Object snd;
               Object getFst() { this.fst }
               Object getSnd() { this.snd } }",
        );
        let ctx = Ctx::new(&kp, opts);
        let pair = kp.table.class_id("Pair").unwrap();
        let m0 = ctx.msigs[&MethodId::Instance(pair, 0)].clone();
        let m1 = ctx.msigs[&MethodId::Instance(pair, 1)].clone();
        assert_eq!(m0.mparams.len(), 1); // Object result
        assert_eq!(m1.mparams.len(), 1);
        assert_ne!(m0.mparams, m1.mparams);
        // abs params = class params ++ mparams
        assert_eq!(m0.abs_params.len(), 4);
    }

    #[test]
    fn static_method_has_no_class_prefix() {
        let (kp, opts) = ctx_for("class M { static int id(int x) { x } }");
        let ctx = Ctx::new(&kp, opts);
        let sig = &ctx.msigs[&MethodId::Static(0)];
        assert!(sig.this_type.is_none());
        assert!(sig.abs_params.is_empty()); // int params carry no regions
    }

    #[test]
    fn tree_with_two_recursive_fields_shares_one_region() {
        let (kp, opts) = ctx_for("class Tree { int key; Tree left; Tree right; }");
        let ctx = Ctx::new(&kp, opts);
        let t = kp.table.class_id("Tree").unwrap();
        let sig = &ctx.classes[t.index()];
        assert_eq!(sig.params.len(), 2); // r1 + r_rec (int key needs none)
        let rr = sig.rec_region.unwrap();
        for ft in &sig.field_types[1..] {
            assert_eq!(ft.object_region(), Some(rr));
        }
    }
}
