//! `cj-policy` — a region-effect policy engine on top of the inference.
//!
//! The paper's inference produces closed per-class invariants and per-method
//! preconditions plus a fully region-annotated program. This crate turns
//! those annotations into a static-analysis *service*: users declare rules
//! in a small line-oriented language (a `.cjpolicy` file, or the same text
//! inline in a serve/daemon request) and every violation is reported as a
//! first-class [`cj_diag`] diagnostic in the `E071x` code family, with the
//! primary span at the offending allocation or call and a secondary
//! "rule declared here" label pointing into the policy source.
//!
//! # The rule language
//!
//! One rule per line; `#` starts a comment; blank lines are ignored.
//!
//! ```text
//! # values of class Cell never escape their creation region
//! no-escape Cell
//!
//! # Node objects may only be allocated into regions owned by a Tree
//! confine Node to Tree
//!
//! # values born in a Secret-hosting region never reach Log.write's
//! # parameters (use a bare name for a static sink: `separate Secret from store`)
//! separate Secret from Log.write
//! ```
//!
//! Rule semantics are grounded entirely in the inferred annotations:
//!
//! - **`no-escape C`** ([`codes::POLICY_NO_ESCAPE`], E0711): every
//!   `new C⟨r…⟩` must allocate into a region that is provably deallocated —
//!   the object region is `letreg`-bound in the allocating method, or it is
//!   an abstraction parameter that every caller (transitively, over the
//!   closed call graph including overrides) instantiates with a
//!   `letreg`-bound region. Allocating into `heap`, into a parameter of an
//!   uncalled method (the open world), or into a parameter some call chain
//!   maps to `heap` is a violation.
//! - **`confine C to D`** ([`codes::POLICY_CONFINE`], E0712): every
//!   `new C⟨r…⟩` must place the object in a region *owned by `D`* — a
//!   region appearing in some `D`-typed (or `D`-subclass-typed) annotation
//!   in the allocating method, or provably equal to one under the method's
//!   closed precondition conjoined with the instantiated invariants of
//!   every class type in scope.
//! - **`separate S from D.m`** ([`codes::POLICY_SEPARATE`], E0713):
//!   taint-style source/sink separation. A region *hosts* `S` values when
//!   it is the object region of an `S`-typed (or subclass) annotation in
//!   the method. At every call whose resolved callee matches the sink, no
//!   argument's object region may be reachable from an `S`-hosting region:
//!   reachability is entailment of `s ≥ t` (the source region outlives the
//!   argument region, so argument-reachable structure can reference source
//!   data) over the same closed constraint environment.
//!
//! Verdicts are deterministic, independent of the execution engine, and
//! invariant under the `--extents` modes (extent rewriting moves `letreg`
//! *placement*, never the set of regions allocation sites live in).
//!
//! [`check()`] evaluates every rule against every method of the program it
//! is given; it keeps no state between calls.

#![forbid(unsafe_code)]

pub mod check;

pub use check::{check, PolicyReport, Violation};

use cj_diag::{codes, Diagnostic, Diagnostics, Span};
use cj_infer::options::ParseOptionError;
use std::fmt;
use std::str::FromStr;

/// The three rule kinds of the policy language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// `no-escape C` — values of class `C` never escape their creation
    /// region.
    NoEscape,
    /// `confine C to D` — `C` objects are only allocated into regions
    /// owned by class `D`.
    Confine,
    /// `separate S from [D.]m` — values born in an `S`-hosting region
    /// never flow into the sink method's parameter regions.
    Separate,
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuleKind::NoEscape => "no-escape",
            RuleKind::Confine => "confine",
            RuleKind::Separate => "separate",
        })
    }
}

impl RuleKind {
    /// Every rule kind.
    pub const ALL: [RuleKind; 3] = [RuleKind::NoEscape, RuleKind::Confine, RuleKind::Separate];

    /// Accepted spellings (canonical first).
    pub const NAMES: [&'static str; 4] = ["no-escape", "confine", "separate", "no_escape"];
}

impl FromStr for RuleKind {
    type Err = ParseOptionError;

    fn from_str(s: &str) -> Result<RuleKind, ParseOptionError> {
        match s {
            "no-escape" | "no_escape" => Ok(RuleKind::NoEscape),
            "confine" => Ok(RuleKind::Confine),
            "separate" => Ok(RuleKind::Separate),
            _ => Err(ParseOptionError {
                what: "policy rule kind",
                input: s.to_string(),
                expected: &RuleKind::NAMES,
            }),
        }
    }
}

/// One parsed policy rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The rule kind.
    pub kind: RuleKind,
    /// The guarded class: the allocation class for `no-escape`/`confine`,
    /// the source class for `separate`.
    pub class: String,
    /// The owner class of a `confine … to D` rule.
    pub owner: Option<String>,
    /// The sink's class for a `separate … from D.m` rule (`None` for a
    /// static sink `separate … from m`).
    pub sink_class: Option<String>,
    /// The sink's method name for a `separate` rule.
    pub sink_method: Option<String>,
    /// Span of the rule within the policy source.
    pub span: Span,
    /// The rule's source text (used for "rule declared here" labels).
    pub text: String,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RuleKind::NoEscape => write!(f, "no-escape {}", self.class),
            RuleKind::Confine => {
                write!(
                    f,
                    "confine {} to {}",
                    self.class,
                    self.owner.as_deref().unwrap_or("?")
                )
            }
            RuleKind::Separate => {
                write!(f, "separate {} from ", self.class)?;
                if let Some(c) = &self.sink_class {
                    write!(f, "{c}.")?;
                }
                f.write_str(self.sink_method.as_deref().unwrap_or("?"))
            }
        }
    }
}

/// A parsed set of policy rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicySet {
    /// Display name of the policy source (file name, or a pseudo-name for
    /// inline rules).
    pub name: String,
    /// The policy source text.
    pub source: String,
    /// The rules, in declaration order.
    pub rules: Vec<Rule>,
}

impl PolicySet {
    /// Parses policy source text. Spans in the returned set (and in any
    /// error diagnostics) are local to `source`.
    ///
    /// # Errors
    ///
    /// One [`codes::POLICY`] diagnostic per malformed line.
    pub fn parse(
        name: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<PolicySet, Diagnostics> {
        let name = name.into();
        let source = source.into();
        let mut rules = Vec::new();
        let mut errors = Diagnostics::new();
        let mut offset = 0u32;
        for line in source.split_inclusive('\n') {
            let line_start = offset;
            offset += line.len() as u32;
            let line = line.strip_suffix('\n').unwrap_or(line);
            let code = line.split('#').next().unwrap_or("");
            let trimmed = code.trim_end();
            let lead = trimmed.len() - trimmed.trim_start().len();
            let text = trimmed.trim_start();
            if text.is_empty() {
                continue;
            }
            let lo = line_start + lead as u32;
            let span = Span::new(lo, lo + text.len() as u32);
            match parse_rule(text, span) {
                Ok(rule) => rules.push(rule),
                Err(msg) => {
                    errors.push(Diagnostic::error(msg, span).with_code(codes::POLICY));
                }
            }
        }
        if errors.has_errors() {
            return Err(errors);
        }
        Ok(PolicySet {
            name,
            source,
            rules,
        })
    }

    /// Shifts every rule span by `base` (rebases the set into a host's
    /// global span space, e.g. a workspace file slot).
    pub fn shift_spans(&mut self, base: u32) {
        for rule in &mut self.rules {
            rule.span = Span::new(rule.span.lo + base, rule.span.hi + base);
        }
    }
}

/// Parses one rule line (comments and indentation already stripped).
fn parse_rule(text: &str, span: Span) -> Result<Rule, String> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let kind: RuleKind = tokens[0]
        .parse()
        .map_err(|e: ParseOptionError| e.to_string())?;
    let ident = |tok: &str, what: &str| -> Result<String, String> {
        let ok = !tok.is_empty()
            && tok
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && tok.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if ok {
            Ok(tok.to_string())
        } else {
            Err(format!("malformed {what} `{tok}` (expected an identifier)"))
        }
    };
    let rule = match kind {
        RuleKind::NoEscape => {
            let [_, class] = tokens[..] else {
                return Err("malformed rule (expected `no-escape <Class>`)".to_string());
            };
            Rule {
                kind,
                class: ident(class, "class name")?,
                owner: None,
                sink_class: None,
                sink_method: None,
                span,
                text: text.to_string(),
            }
        }
        RuleKind::Confine => {
            let [_, class, "to", owner] = tokens[..] else {
                return Err("malformed rule (expected `confine <Class> to <Owner>`)".to_string());
            };
            Rule {
                kind,
                class: ident(class, "class name")?,
                owner: Some(ident(owner, "owner class name")?),
                sink_class: None,
                sink_method: None,
                span,
                text: text.to_string(),
            }
        }
        RuleKind::Separate => {
            let [_, class, "from", sink] = tokens[..] else {
                return Err(
                    "malformed rule (expected `separate <Source> from [<Class>.]<method>`)"
                        .to_string(),
                );
            };
            let (sink_class, sink_method) = match sink.split_once('.') {
                Some((c, m)) => (
                    Some(ident(c, "sink class name")?),
                    ident(m, "sink method name")?,
                ),
                None => (None, ident(sink, "sink method name")?),
            };
            Rule {
                kind,
                class: ident(class, "source class name")?,
                owner: None,
                sink_class,
                sink_method: Some(sink_method),
                span,
                text: text.to_string(),
            }
        }
    };
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_kind_display_from_str_round_trips() {
        for kind in RuleKind::ALL {
            let shown = kind.to_string();
            assert_eq!(shown.parse::<RuleKind>().unwrap(), kind);
        }
        assert_eq!("no_escape".parse::<RuleKind>().unwrap(), RuleKind::NoEscape);
        let err = "taint".parse::<RuleKind>().unwrap_err();
        assert_eq!(err.what, "policy rule kind");
        assert!(err.to_string().contains("no-escape"));
    }

    #[test]
    fn parses_all_three_kinds_with_comments_and_blank_lines() {
        let text = "# guidelines\n\nno-escape Cell\nconfine Node to Tree  # ownership\nseparate Secret from Log.write\nseparate Secret from store\n";
        let set = PolicySet::parse("rules.cjpolicy", text).unwrap();
        assert_eq!(set.rules.len(), 4);
        assert_eq!(set.rules[0].kind, RuleKind::NoEscape);
        assert_eq!(set.rules[0].class, "Cell");
        assert_eq!(set.rules[1].owner.as_deref(), Some("Tree"));
        assert_eq!(set.rules[1].text, "confine Node to Tree");
        assert_eq!(set.rules[2].sink_class.as_deref(), Some("Log"));
        assert_eq!(set.rules[2].sink_method.as_deref(), Some("write"));
        assert_eq!(set.rules[3].sink_class, None);
        assert_eq!(set.rules[3].sink_method.as_deref(), Some("store"));
        // Spans select exactly the rule text.
        let r1 = set.rules[1].span;
        assert_eq!(
            &text[r1.lo as usize..r1.hi as usize],
            "confine Node to Tree"
        );
    }

    #[test]
    fn malformed_rules_are_policy_diagnostics_with_spans() {
        let err = PolicySet::parse("p", "no-escape\nconfine A B\nseparate X into y\n").unwrap_err();
        assert_eq!(err.items.len(), 3);
        for d in err.iter() {
            assert_eq!(d.code, Some(codes::POLICY));
            assert!(!d.span.is_dummy());
        }
        assert!(err.items[0].message.contains("no-escape <Class>"));
        assert!(err.items[1].message.contains("confine <Class> to <Owner>"));
        assert!(err.items[2].message.contains("separate <Source> from"));
    }

    #[test]
    fn shift_spans_rebases_rules() {
        let mut set = PolicySet::parse("p", "no-escape Cell\n").unwrap();
        let before = set.rules[0].span;
        set.shift_spans(1 << 20);
        assert_eq!(set.rules[0].span.lo, before.lo + (1 << 20));
    }
}
