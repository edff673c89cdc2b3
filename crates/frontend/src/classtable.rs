//! The class table: hierarchy, fields and method signatures.
//!
//! Built once from the surface AST, the [`ClassTable`] answers the questions
//! every later phase asks: subclassing, least upper bounds (the paper's
//! `msst`), field lookup through the hierarchy, dynamic-dispatch method
//! resolution, and which classes are (mutually) recursive — the input to the
//! recursive-field region scheme of Sec 3.1.

use crate::ast;
use crate::intern::Symbol;
use crate::span::{Diagnostics, Span};
use crate::types::{ClassId, NType, Prim};
use std::collections::HashMap;
use std::fmt;

/// A field, as seen from the class that declares it.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: Symbol,
    /// Normal type.
    pub ty: NType,
    /// The class that declares the field.
    pub owner: ClassId,
    /// Index among *all* fields of `owner` (inherited first). This is the
    /// constructor-argument position.
    pub index: usize,
    /// Declaration site.
    pub span: Span,
}

/// An instance-method signature (bodies live in the kernel program).
#[derive(Debug, Clone)]
pub struct MethodSig {
    /// Method name.
    pub name: Symbol,
    /// Parameter types, excluding `this`.
    pub params: Vec<NType>,
    /// Return type.
    pub ret: NType,
    /// Declaration site.
    pub span: Span,
}

/// A static-method signature.
#[derive(Debug, Clone)]
pub struct StaticSig {
    /// Method name (globally unique).
    pub name: Symbol,
    /// Parameter types.
    pub params: Vec<NType>,
    /// Return type.
    pub ret: NType,
    /// Class whose body declared it (for error messages only).
    pub declared_in: ClassId,
    /// Declaration site.
    pub span: Span,
}

/// Everything known about one class.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// Class name.
    pub name: Symbol,
    /// This class's id.
    pub id: ClassId,
    /// Superclass; `None` only for `Object`.
    pub superclass: Option<ClassId>,
    /// Fields declared by this class itself.
    pub own_fields: Vec<FieldInfo>,
    /// Number of fields, inherited included; read it with
    /// [`ClassTable::field_count`].
    field_count: usize,
    /// Instance-method signatures declared by this class itself.
    pub own_methods: Vec<MethodSig>,
    /// Distance from `Object` (0 for `Object`).
    pub depth: u32,
    /// Declaration site.
    pub span: Span,
}

/// The program-wide class table.
///
/// # Examples
///
/// ```
/// use cj_frontend::parser::parse_program;
/// use cj_frontend::classtable::ClassTable;
/// use cj_frontend::types::ClassId;
///
/// let p = parse_program("class A { } class B extends A { }").unwrap();
/// let table = ClassTable::build(&p).unwrap();
/// let a = table.class_id("A").unwrap();
/// let b = table.class_id("B").unwrap();
/// assert!(table.is_subclass(b, a));
/// assert!(table.is_subclass(a, ClassId::OBJECT));
/// ```
#[derive(Debug, Clone)]
pub struct ClassTable {
    classes: Vec<ClassInfo>,
    by_name: HashMap<Symbol, ClassId>,
    statics: Vec<StaticSig>,
    statics_by_name: HashMap<Symbol, u32>,
}

impl ClassTable {
    /// Builds the table from a parsed program.
    ///
    /// # Errors
    ///
    /// Reports duplicate classes, unknown superclasses, inheritance cycles,
    /// duplicate/shadowed fields, invalid override signatures, duplicate
    /// static methods, and array types over non-primitives.
    pub fn build(program: &ast::Program) -> Result<ClassTable, Diagnostics> {
        let mut diags = Diagnostics::new();
        let mut by_name = HashMap::new();
        let mut classes = vec![ClassInfo {
            name: Symbol::intern("Object"),
            id: ClassId::OBJECT,
            superclass: None,
            own_fields: Vec::new(),
            field_count: 0,
            own_methods: Vec::new(),
            depth: 0,
            span: Span::DUMMY,
        }];
        by_name.insert(Symbol::intern("Object"), ClassId::OBJECT);

        // Pass 1: allocate ids.
        for decl in &program.classes {
            if let Some(&prev) = by_name.get(&decl.name) {
                let mut d = crate::span::Diagnostic::error(
                    format!("duplicate class `{}`", decl.name),
                    decl.span,
                );
                let prev_span = classes[prev.index()].span;
                if !prev_span.is_dummy() {
                    d = d.with_label(prev_span, format!("`{}` first declared here", decl.name));
                }
                diags.push(d);
                continue;
            }
            let id = ClassId(classes.len() as u32);
            by_name.insert(decl.name, id);
            classes.push(ClassInfo {
                name: decl.name,
                id,
                superclass: None,
                own_fields: Vec::new(),
                field_count: 0,
                own_methods: Vec::new(),
                depth: 0,
                span: decl.span,
            });
        }
        if diags.has_errors() {
            return Err(diags);
        }

        // Pass 2: superclasses + cycle check.
        for decl in &program.classes {
            let id = by_name[&decl.name];
            let sup = match decl.superclass {
                None => ClassId::OBJECT,
                Some(name) => match by_name.get(&name) {
                    Some(&s) => s,
                    None => {
                        diags.error(format!("unknown superclass `{name}`"), decl.span);
                        ClassId::OBJECT
                    }
                },
            };
            classes[id.index()].superclass = Some(sup);
        }
        // Cycle detection + depth computation. Each class is climbed past
        // once: a climb stops at a class whose depth is settled, and every
        // class it passed is then settled, so a deep chain stays linear.
        const UNSETTLED: u32 = u32::MAX;
        const ON_PATH: u32 = u32::MAX - 1;
        const CYCLIC: u32 = u32::MAX - 2;
        let mut depths = vec![UNSETTLED; classes.len()];
        let mut path: Vec<usize> = Vec::new();
        for i in 0..classes.len() {
            let mut next = Some(ClassId(i as u32));
            // The depth of the last climbed class's superclass, `None` above
            // `Object`; a class on the path or past a cycle is cyclic.
            let above = loop {
                let Some(c) = next else { break None };
                match depths[c.index()] {
                    UNSETTLED => {
                        depths[c.index()] = ON_PATH;
                        path.push(c.index());
                        next = classes[c.index()].superclass;
                    }
                    ON_PATH => break Some(CYCLIC),
                    settled => break Some(settled),
                }
            };
            let mut depth = match above {
                None => Some(0),
                Some(CYCLIC) => None,
                Some(d) => Some(d + 1),
            };
            while let Some(c) = path.pop() {
                depths[c] = depth.unwrap_or(CYCLIC);
                depth = depth.map(|d| d + 1);
            }
        }
        for (info, depth) in classes.iter_mut().zip(depths) {
            if depth == CYCLIC {
                diags.error(
                    format!("inheritance cycle involving `{}`", info.name),
                    info.span,
                );
            } else {
                info.depth = depth;
            }
        }
        if diags.has_errors() {
            return Err(diags);
        }

        let mut table = ClassTable {
            classes,
            by_name,
            statics: Vec::new(),
            statics_by_name: HashMap::new(),
        };

        // Pass 3: fields, methods, statics (process in depth order so a
        // superclass's fields, and their count, are known before its
        // subclasses').
        let mut order: Vec<&ast::ClassDecl> = program.classes.iter().collect();
        order.sort_by_key(|d| table.classes[table.by_name[&d.name].index()].depth);
        for decl in order {
            let id = table.by_name[&decl.name];
            let sup = table.classes[id.index()]
                .superclass
                .unwrap_or(ClassId::OBJECT);
            let inherited = table.classes[sup.index()].field_count;
            let mut own_fields = Vec::new();
            for (i, fd) in decl.fields.iter().enumerate() {
                let ty = match table.resolve_ty(&fd.ty) {
                    Ok(t) => t,
                    Err(msg) => {
                        diags.error(msg, fd.span);
                        continue;
                    }
                };
                if ty == NType::Void {
                    diags.error(
                        format!("field `{}` cannot have type `void`", fd.name),
                        fd.span,
                    );
                    continue;
                }
                let existing_field_span =
                    table.lookup_field(id, fd.name).map(|f| f.span).or_else(|| {
                        own_fields
                            .iter()
                            .find(|f: &&FieldInfo| f.name == fd.name)
                            .map(|f| f.span)
                    });
                if let Some(prev_span) = existing_field_span {
                    let mut d = crate::span::Diagnostic::error(
                        format!(
                            "field `{}` shadows or duplicates an existing field",
                            fd.name
                        ),
                        fd.span,
                    );
                    if !prev_span.is_dummy() {
                        d = d.with_label(prev_span, format!("`{}` declared here", fd.name));
                    }
                    diags.push(d);
                    continue;
                }
                own_fields.push(FieldInfo {
                    name: fd.name,
                    ty,
                    owner: id,
                    index: inherited + i,
                    span: fd.span,
                });
            }
            table.classes[id.index()].field_count = inherited + own_fields.len();
            table.classes[id.index()].own_fields = own_fields;

            let mut own_methods = Vec::new();
            for md in &decl.methods {
                let ret = table.resolve_ty(&md.ret).unwrap_or_else(|msg| {
                    diags.error(msg, md.span);
                    NType::Void
                });
                let mut params = Vec::new();
                for p in &md.params {
                    let ty = table.resolve_ty(&p.ty).unwrap_or_else(|msg| {
                        diags.error(msg, p.span);
                        NType::Void
                    });
                    if ty == NType::Void {
                        diags.error(
                            format!("parameter `{}` cannot have type `void`", p.name),
                            p.span,
                        );
                    }
                    params.push(ty);
                }
                if md.is_static {
                    if let Some(&idx) = table.statics_by_name.get(&md.name) {
                        let prev = &table.statics[idx as usize];
                        let mut d = crate::span::Diagnostic::error(
                            format!("duplicate static method `{}`", md.name),
                            md.span,
                        );
                        if !prev.span.is_dummy() {
                            d = d.with_label(
                                prev.span,
                                format!(
                                    "`{}` first declared here, in `{}`",
                                    md.name,
                                    table.name(prev.declared_in)
                                ),
                            );
                        }
                        diags.push(d);
                        continue;
                    }
                    let idx = table.statics.len() as u32;
                    table.statics_by_name.insert(md.name, idx);
                    table.statics.push(StaticSig {
                        name: md.name,
                        params,
                        ret,
                        declared_in: id,
                        span: md.span,
                    });
                } else {
                    if let Some(prev) = own_methods.iter().find(|m: &&MethodSig| m.name == md.name)
                    {
                        let mut d = crate::span::Diagnostic::error(
                            format!("duplicate method `{}` (no overloading)", md.name),
                            md.span,
                        );
                        if !prev.span.is_dummy() {
                            d = d.with_label(
                                prev.span,
                                format!("`{}` first declared here", md.name),
                            );
                        }
                        diags.push(d);
                        continue;
                    }
                    // Override check: identical signature required.
                    if let Some((decl_class, sup_sig)) = table.lookup_method(sup, md.name) {
                        if sup_sig.params != params || sup_sig.ret != ret {
                            let mut d = crate::span::Diagnostic::error(
                                format!(
                                    "method `{}` overrides a superclass method with a \
                                     different signature",
                                    md.name
                                ),
                                md.span,
                            );
                            if !sup_sig.span.is_dummy() {
                                d = d.with_label(
                                    sup_sig.span,
                                    format!(
                                        "overridden method declared here, in `{}`",
                                        table.name(decl_class)
                                    ),
                                );
                            }
                            diags.push(d);
                        }
                    }
                    own_methods.push(MethodSig {
                        name: md.name,
                        params,
                        ret,
                        span: md.span,
                    });
                }
            }
            table.classes[id.index()].own_methods = own_methods;
        }

        if diags.has_errors() {
            Err(diags)
        } else {
            Ok(table)
        }
    }

    /// Resolves a surface type to a normal type.
    fn resolve_ty(&self, ty: &ast::Ty) -> Result<NType, String> {
        match ty {
            ast::Ty::Int => Ok(NType::INT),
            ast::Ty::Bool => Ok(NType::BOOL),
            ast::Ty::Float => Ok(NType::FLOAT),
            ast::Ty::Void => Ok(NType::Void),
            ast::Ty::Class(name) => self
                .by_name
                .get(name)
                .map(|&id| NType::Class(id))
                .ok_or_else(|| format!("unknown class `{name}`")),
            ast::Ty::Array(elem) => match &**elem {
                ast::Ty::Int => Ok(NType::Array(Prim::Int)),
                ast::Ty::Bool => Ok(NType::Array(Prim::Bool)),
                ast::Ty::Float => Ok(NType::Array(Prim::Float)),
                other => Err(format!(
                    "array element type must be primitive, found `{other}`"
                )),
            },
        }
    }

    /// Public resolution of a surface type (used by downstream tools).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`](crate::span::Diagnostic) (with a dummy
    /// span — attach the use site's) when the type mentions an unknown
    /// class or is an array over a non-primitive.
    pub fn resolve(&self, ty: &ast::Ty) -> Result<NType, crate::span::Diagnostic> {
        self.resolve_ty(ty).map_err(|msg| {
            crate::span::Diagnostic::error(msg, crate::span::Span::DUMMY)
                .with_code(cj_diag::codes::TYPECHECK)
        })
    }

    /// Number of classes (including `Object`).
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the table contains only `Object`.
    pub fn is_empty(&self) -> bool {
        self.classes.len() == 1
    }

    /// Info for `id`.
    pub fn class(&self, id: ClassId) -> &ClassInfo {
        &self.classes[id.index()]
    }

    /// All classes, `Object` first.
    pub fn classes(&self) -> &[ClassInfo] {
        &self.classes
    }

    /// Looks up a class by name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(&Symbol::intern(name)).copied()
    }

    /// The display name of a class.
    pub fn name(&self, id: ClassId) -> Symbol {
        self.classes[id.index()].name
    }

    /// The display name of a normal type.
    pub fn display_ty(&self, ty: NType) -> String {
        match ty {
            NType::Class(c) => self.name(c).as_str().to_owned(),
            other => other.to_string(),
        }
    }

    /// Whether `sub` equals or transitively extends `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = sub;
        loop {
            if cur == sup {
                return true;
            }
            match self.classes[cur.index()].superclass {
                Some(s) => cur = s,
                None => return false,
            }
        }
    }

    /// Normal subtyping on types: reflexive, class-covariant, `Null ≤ cn`,
    /// arrays invariant.
    pub fn is_subtype(&self, sub: NType, sup: NType) -> bool {
        match (sub, sup) {
            (a, b) if a == b => true,
            (NType::Null, NType::Class(_)) | (NType::Null, NType::Array(_)) => true,
            (NType::Class(a), NType::Class(b)) => self.is_subclass(a, b),
            _ => false,
        }
    }

    /// Least upper bound of two classes in the single-inheritance hierarchy.
    pub fn lub_class(&self, a: ClassId, b: ClassId) -> ClassId {
        let (mut a, mut b) = (a, b);
        while self.classes[a.index()].depth > self.classes[b.index()].depth {
            a = self.classes[a.index()]
                .superclass
                .expect("non-root has super");
        }
        while self.classes[b.index()].depth > self.classes[a.index()].depth {
            b = self.classes[b.index()]
                .superclass
                .expect("non-root has super");
        }
        while a != b {
            a = self.classes[a.index()]
                .superclass
                .expect("roots meet at Object");
            b = self.classes[b.index()]
                .superclass
                .expect("roots meet at Object");
        }
        a
    }

    /// The paper's `msst`: minimal common supertype of two normal types, if
    /// any. `Null` is below every reference type.
    pub fn msst(&self, a: NType, b: NType) -> Option<NType> {
        match (a, b) {
            (a, b) if a == b => Some(a),
            (NType::Null, t) | (t, NType::Null) if t.is_reference() => Some(t),
            (NType::Class(x), NType::Class(y)) => Some(NType::Class(self.lub_class(x, y))),
            _ => None,
        }
    }

    /// Total number of fields of `id`, inherited included.
    pub fn field_count(&self, id: ClassId) -> usize {
        self.classes[id.index()].field_count
    }

    /// All fields of `id` in constructor order (inherited first).
    pub fn all_fields(&self, id: ClassId) -> Vec<&FieldInfo> {
        let info = &self.classes[id.index()];
        let mut fields = match info.superclass {
            Some(s) => self.all_fields(s),
            None => Vec::new(),
        };
        fields.extend(info.own_fields.iter());
        fields
    }

    /// Finds a field by name, searching up the hierarchy.
    pub fn lookup_field(&self, id: ClassId, name: Symbol) -> Option<&FieldInfo> {
        let info = &self.classes[id.index()];
        info.own_fields
            .iter()
            .find(|f| f.name == name)
            .or_else(|| info.superclass.and_then(|s| self.lookup_field(s, name)))
    }

    /// Resolves an instance method by name, searching up the hierarchy.
    /// Returns the *declaring* class (the most-derived one that defines or
    /// overrides it when starting from `id`) and the signature.
    pub fn lookup_method(&self, id: ClassId, name: Symbol) -> Option<(ClassId, &MethodSig)> {
        let info = &self.classes[id.index()];
        info.own_methods
            .iter()
            .find(|m| m.name == name)
            .map(|m| (id, m))
            .or_else(|| info.superclass.and_then(|s| self.lookup_method(s, name)))
    }

    /// All static method signatures.
    pub fn statics(&self) -> &[StaticSig] {
        &self.statics
    }

    /// Looks up a static method by name.
    pub fn lookup_static(&self, name: Symbol) -> Option<(u32, &StaticSig)> {
        self.statics_by_name
            .get(&name)
            .map(|&i| (i, &self.statics[i as usize]))
    }

    /// The field-type cycle of every class, by class id: `Some(k)` for a
    /// *recursive class* (Sec 3.1), one whose fields, inherited ones
    /// included, reach back to it through field types, and `None` for
    /// every other class. Classes share `k` exactly when each reaches the
    /// other. Each recursive class gets a dedicated recursive region as
    /// its last region parameter.
    pub fn field_cycles(&self) -> Vec<Option<u32>> {
        let n = self.classes.len();
        // Vertex `c` is class `c` and vertex `n + c` the fields of `c`: an
        // edge to the type of each own field and one to the fields of the
        // superclass. Class vertices reach each other exactly as the
        // classes do through their fields, and the graph stays linear in
        // the program however deep the hierarchy.
        let mut adj: Vec<Vec<usize>> = (n..2 * n).map(|fields| vec![fields]).collect();
        adj.extend(self.classes.iter().map(|info| {
            let sup = info.superclass.map(|s| n + s.index());
            let types = info.own_fields.iter().filter_map(|f| match f.ty {
                NType::Class(d) => Some(d.index()),
                _ => None,
            });
            sup.into_iter().chain(types).collect()
        }));
        let sccs = crate::graph::tarjan_scc(2 * n, |v| adj[v].iter().copied());
        // A class lies on a cycle exactly when its component has another
        // vertex: at least its own fields vertex.
        let mut cycles = vec![None; n];
        for (k, scc) in sccs.iter().enumerate().filter(|(_, scc)| scc.len() > 1) {
            for &v in scc.iter().filter(|&&v| v < n) {
                cycles[v] = Some(k as u32);
            }
        }
        cycles
    }

    /// Whether each class is recursive (see
    /// [`field_cycles`](ClassTable::field_cycles)).
    pub fn recursive_classes(&self) -> Vec<bool> {
        self.field_cycles().iter().map(Option::is_some).collect()
    }

    /// The *recursive fields* of `id` under `cycles`, the result of
    /// [`field_cycles`](ClassTable::field_cycles): its fields, inherited
    /// ones included, whose type lies in its own cycle. Empty unless `id`
    /// is recursive.
    pub fn recursive_fields(&self, id: ClassId, cycles: &[Option<u32>]) -> Vec<&FieldInfo> {
        let Some(own) = cycles[id.index()] else {
            return Vec::new();
        };
        self.all_fields(id)
            .into_iter()
            .filter(|f| matches!(f.ty, NType::Class(d) if cycles[d.index()] == Some(own)))
            .collect()
    }
}

impl fmt::Display for ClassTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.classes {
            write!(f, "class {}", c.name)?;
            if let Some(s) = c.superclass {
                write!(f, " extends {}", self.name(s))?;
            }
            writeln!(
                f,
                " ({} own fields, {} own methods)",
                c.own_fields.len(),
                c.own_methods.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn table(src: &str) -> ClassTable {
        ClassTable::build(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn object_is_implicit() {
        let t = table("class A { }");
        assert_eq!(t.len(), 2);
        assert!(t.is_subclass(t.class_id("A").unwrap(), ClassId::OBJECT));
    }

    #[test]
    fn lub_meets_at_common_ancestor() {
        let t = table("class A { } class B extends A { } class C extends A { }");
        let (a, b, c) = (
            t.class_id("A").unwrap(),
            t.class_id("B").unwrap(),
            t.class_id("C").unwrap(),
        );
        assert_eq!(t.lub_class(b, c), a);
        assert_eq!(t.lub_class(b, a), a);
        assert_eq!(t.lub_class(b, b), b);
    }

    #[test]
    fn msst_handles_null() {
        let t = table("class A { }");
        let a = NType::Class(t.class_id("A").unwrap());
        assert_eq!(t.msst(NType::Null, a), Some(a));
        assert_eq!(t.msst(a, NType::Null), Some(a));
        assert_eq!(t.msst(NType::INT, NType::BOOL), None);
    }

    #[test]
    fn fields_inherit_in_constructor_order() {
        let t = table("class A { int x; } class B extends A { int y; }");
        let b = t.class_id("B").unwrap();
        let fs = t.all_fields(b);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].name.as_str(), "x");
        assert_eq!(fs[1].name.as_str(), "y");
        assert_eq!(fs[1].index, 1);
    }

    #[test]
    fn field_shadowing_rejected() {
        let r = ClassTable::build(
            &parse_program("class A { int x; } class B extends A { int x; }").unwrap(),
        );
        let diags = r.unwrap_err();
        let d = &diags.items[0];
        assert_eq!(d.labels.len(), 1, "shadowed field points at the original");
        assert!(d.labels[0].message.contains("`x` declared here"));
        assert!(d.labels[0].span.lo < d.span.lo, "label sits on class A");
    }

    #[test]
    fn duplicate_class_labels_first_declaration() {
        let diags =
            ClassTable::build(&parse_program("class A { } class A { }").unwrap()).unwrap_err();
        let d = &diags.items[0];
        assert!(d.message.contains("duplicate class `A`"));
        assert_eq!(d.labels.len(), 1);
        assert!(d.labels[0].message.contains("first declared here"));
    }

    #[test]
    fn duplicate_method_and_static_label_first_declaration() {
        let diags =
            ClassTable::build(&parse_program("class A { int m() { 1 } int m() { 2 } }").unwrap())
                .unwrap_err();
        assert!(diags.items[0].labels[0]
            .message
            .contains("`m` first declared here"));

        let diags = ClassTable::build(
            &parse_program("class A { static int f() { 1 } } class B { static int f() { 2 } }")
                .unwrap(),
        )
        .unwrap_err();
        assert!(diags.items[0].labels[0]
            .message
            .contains("first declared here, in `A`"));
    }

    #[test]
    fn override_signature_must_match() {
        let bad = ClassTable::build(
            &parse_program("class A { int m() { 1 } } class B extends A { bool m() { true } }")
                .unwrap(),
        );
        let diags = bad.unwrap_err();
        let d = &diags.items[0];
        assert!(d.message.contains("different signature"));
        assert_eq!(d.labels.len(), 1, "override mismatch points at the base");
        assert!(d.labels[0]
            .message
            .contains("overridden method declared here, in `A`"));
        let ok = table("class A { int m() { 1 } } class B extends A { int m() { 2 } }");
        let b = ok.class_id("B").unwrap();
        let (decl, _) = ok.lookup_method(b, Symbol::intern("m")).unwrap();
        assert_eq!(decl, b);
    }

    #[test]
    fn method_resolution_walks_up() {
        let t = table("class A { int m() { 1 } } class B extends A { }");
        let b = t.class_id("B").unwrap();
        let a = t.class_id("A").unwrap();
        let (decl, sig) = t.lookup_method(b, Symbol::intern("m")).unwrap();
        assert_eq!(decl, a);
        assert_eq!(sig.ret, NType::INT);
    }

    #[test]
    fn inheritance_cycle_detected() {
        let r = ClassTable::build(
            &parse_program("class A extends B { } class B extends A { }").unwrap(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn duplicate_static_rejected() {
        let r = ClassTable::build(
            &parse_program("class A { static int f() { 1 } } class B { static int f() { 2 } }")
                .unwrap(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn recursive_class_detection() {
        let t =
            table("class List { Object value; List next; } class Pair { Object fst; Object snd; }");
        let rec = t.recursive_classes();
        let list = t.class_id("List").unwrap();
        let pair = t.class_id("Pair").unwrap();
        assert!(rec[list.index()]);
        assert!(!rec[pair.index()]);
        let fields = t.recursive_fields(list, &t.field_cycles());
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].name, Symbol::intern("next"));
    }

    #[test]
    fn mutually_recursive_classes() {
        let t = table("class A { B b; } class B { A a; }");
        let rec = t.recursive_classes();
        assert!(rec[t.class_id("A").unwrap().index()]);
        assert!(rec[t.class_id("B").unwrap().index()]);
        let (a, b) = (t.class_id("A").unwrap(), t.class_id("B").unwrap());
        let cycles = t.field_cycles();
        assert_eq!(cycles[a.index()], cycles[b.index()], "one cycle");
        assert_eq!(t.recursive_fields(a, &cycles).len(), 1);
    }

    #[test]
    fn inherited_fields_count_but_inheritance_alone_does_not() {
        // B inherits `b`, a field of its own type; A only points at B.
        let t = table("class A { B b; } class B extends A { }");
        let (a, b) = (t.class_id("A").unwrap(), t.class_id("B").unwrap());
        let cycles = t.field_cycles();
        assert_eq!(cycles[a.index()], None);
        assert!(cycles[b.index()].is_some());
        assert_eq!(t.recursive_fields(b, &cycles)[0].owner, a);
    }

    #[test]
    fn unknown_superclass_rejected() {
        assert!(ClassTable::build(&parse_program("class A extends Zed { }").unwrap()).is_err());
    }

    #[test]
    fn array_of_class_rejected() {
        assert!(
            ClassTable::build(&parse_program("class A { } class B { A[] xs; }").unwrap()).is_err()
        );
    }
}
