//! Inference configuration.

use std::fmt;
use std::str::FromStr;

/// Error returned by the [`FromStr`] impls of [`SubtypeMode`] and
/// [`DowncastPolicy`]: the input matched no variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOptionError {
    /// What kind of option was being parsed (`"subtype mode"`, …).
    pub what: &'static str,
    /// The rejected input.
    pub input: String,
    /// The accepted canonical spellings.
    pub expected: &'static [&'static str],
}

impl fmt::Display for ParseOptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} `{}` (expected one of: {})",
            self.what,
            self.input,
            self.expected.join(", ")
        )
    }
}

impl std::error::Error for ParseOptionError {}

/// Which region-subtyping rule the inference uses (Sec 3.2).
///
/// The three variants trade annotation simplicity against region-lifetime
/// precision; Fig 8 compares their space reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SubtypeMode {
    /// No region subtyping: all region parameters unify equivariantly
    /// (the rule of Boyapati et al. and RegJava).
    None,
    /// Object subtyping (Cyclone): the object's own (first) region is
    /// covariant, field regions equivariant.
    Object,
    /// Field subtyping (this paper): additionally, the dedicated recursive
    /// region is covariant for classes whose recursive fields are immutable
    /// after construction (`isRecReadOnly`).
    #[default]
    Field,
}

impl fmt::Display for SubtypeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SubtypeMode::None => "no-sub",
            SubtypeMode::Object => "object-sub",
            SubtypeMode::Field => "field-sub",
        })
    }
}

impl SubtypeMode {
    /// Every mode, in Fig 8 column order.
    pub const ALL: [SubtypeMode; 3] = [SubtypeMode::None, SubtypeMode::Object, SubtypeMode::Field];

    /// The spellings [`FromStr`] accepts (canonical `Display` form first,
    /// then the short CLI aliases).
    pub const NAMES: [&'static str; 6] = [
        "no-sub",
        "object-sub",
        "field-sub",
        "none",
        "object",
        "field",
    ];
}

impl FromStr for SubtypeMode {
    type Err = ParseOptionError;

    /// Round-trips with [`Display`](fmt::Display) (`no-sub`, `object-sub`,
    /// `field-sub`); the short aliases `none`, `object`, `field` are also
    /// accepted.
    fn from_str(s: &str) -> Result<SubtypeMode, ParseOptionError> {
        match s {
            "no-sub" | "none" => Ok(SubtypeMode::None),
            "object-sub" | "object" => Ok(SubtypeMode::Object),
            "field-sub" | "field" => Ok(SubtypeMode::Field),
            other => Err(ParseOptionError {
                what: "subtype mode",
                input: other.to_string(),
                expected: &Self::NAMES,
            }),
        }
    }
}

/// How downcasts are made region-safe (Sec 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DowncastPolicy {
    /// Reject programs containing downcasts (the Sec 4 core system).
    Reject,
    /// Technique 1: at every upcast, equate the regions that would be lost
    /// with the object's first region, so any later downcast can recover
    /// them. Simple and modular, loses some lifetime precision.
    #[default]
    EquateFirst,
    /// Technique 2: run the global backward-flow analysis and pad only the
    /// variables and allocation sites that may actually be downcast.
    Padding,
}

impl fmt::Display for DowncastPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DowncastPolicy::Reject => "reject",
            DowncastPolicy::EquateFirst => "equate-first",
            DowncastPolicy::Padding => "padding",
        })
    }
}

impl DowncastPolicy {
    /// Every policy.
    pub const ALL: [DowncastPolicy; 3] = [
        DowncastPolicy::Reject,
        DowncastPolicy::EquateFirst,
        DowncastPolicy::Padding,
    ];

    /// The spellings [`FromStr`] accepts (canonical `Display` form first,
    /// then the short CLI alias).
    pub const NAMES: [&'static str; 4] = ["reject", "equate-first", "padding", "equate"];
}

impl FromStr for DowncastPolicy {
    type Err = ParseOptionError;

    /// Round-trips with [`Display`](fmt::Display) (`reject`,
    /// `equate-first`, `padding`); the short alias `equate` is also
    /// accepted.
    fn from_str(s: &str) -> Result<DowncastPolicy, ParseOptionError> {
        match s {
            "reject" => Ok(DowncastPolicy::Reject),
            "equate-first" | "equate" => Ok(DowncastPolicy::EquateFirst),
            "padding" => Ok(DowncastPolicy::Padding),
            other => Err(ParseOptionError {
                what: "downcast policy",
                input: other.to_string(),
                expected: &Self::NAMES,
            }),
        }
    }
}

/// Which extent-inference pass places and tightens `letreg` bindings.
///
/// The pass runs *after* region inference proper: inference decides which
/// regions are local to a method (`RMethod::localized`); extent inference
/// decides how much of the body each local region's `letreg` spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExtentMode {
    /// The paper's block-scoped placement (\[exp-block\]): each localized
    /// region is bound at the smallest enclosing *block* covering its
    /// occurrences.
    #[default]
    Paper,
    /// Flow-sensitive liveness tightening (`cj-liveness`): a backward
    /// per-point liveness pass shrinks each letreg to the smallest
    /// well-scoped range covering the region's live program points.
    Liveness,
}

impl fmt::Display for ExtentMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExtentMode::Paper => "paper",
            ExtentMode::Liveness => "liveness",
        })
    }
}

impl ExtentMode {
    /// Every mode, paper baseline first.
    pub const ALL: [ExtentMode; 2] = [ExtentMode::Paper, ExtentMode::Liveness];

    /// The spellings [`FromStr`] accepts (canonical `Display` form only —
    /// both are already short).
    pub const NAMES: [&'static str; 2] = ["paper", "liveness"];
}

impl FromStr for ExtentMode {
    type Err = ParseOptionError;

    /// Round-trips with [`Display`](fmt::Display) (`paper`, `liveness`).
    fn from_str(s: &str) -> Result<ExtentMode, ParseOptionError> {
        match s {
            "paper" => Ok(ExtentMode::Paper),
            "liveness" => Ok(ExtentMode::Liveness),
            other => Err(ParseOptionError {
                what: "extent mode",
                input: other.to_string(),
                expected: &Self::NAMES,
            }),
        }
    }
}

/// Options controlling a run of region inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InferOptions {
    /// Region-subtyping rule.
    pub mode: SubtypeMode,
    /// Downcast-safety strategy.
    pub downcast: DowncastPolicy,
    /// Letreg extent-inference pass.
    pub extent: ExtentMode,
}

impl InferOptions {
    /// Options with the given subtyping mode and default downcast policy.
    pub fn with_mode(mode: SubtypeMode) -> InferOptions {
        InferOptions {
            mode,
            ..InferOptions::default()
        }
    }
}

/// Statistics reported by a run of region inference (used by the Fig 8/9
/// harnesses), including the per-SCC counters that let incremental drivers
/// *demonstrate* how much work a recompilation actually performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InferStats {
    /// Iterations of the outer (resolution/instantiation) loop.
    pub global_iterations: usize,
    /// Total member solves of the worklist fixpoints that ran: an SCC
    /// carried over from the previous repair round adds nothing, and an
    /// SCC in which no member applies a member takes one solve per member.
    pub fixpoint_iterations: usize,
    /// Total region variables allocated.
    pub regions_created: usize,
    /// Number of `letreg`s inserted program-wide.
    pub localized_regions: usize,
    /// Override-resolution repairs applied.
    pub override_repairs: usize,
    /// Number of downcast sites analysed.
    pub downcast_sites: usize,
    /// Method bodies symbolically inferred in this run.
    pub methods_inferred: usize,
    /// Abstraction SCCs whose worklist fixpoint ran (summed over
    /// repair-loop rounds). A clean SCC carried over from the previous
    /// round is not solved again, so it does not count.
    pub sccs_solved: usize,
}

impl InferStats {
    /// The one JSON form of the counters — `cjrc infer --json`'s `stats`
    /// and the serve `stats` response's `infer_stats`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"global_iterations\":{},\"fixpoint_iterations\":{},\"regions_created\":{},\
             \"localized_regions\":{},\"override_repairs\":{},\"downcast_sites\":{},\
             \"methods_inferred\":{},\"sccs_solved\":{}}}",
            self.global_iterations,
            self.fixpoint_iterations,
            self.regions_created,
            self.localized_regions,
            self.override_repairs,
            self.downcast_sites,
            self.methods_inferred,
            self.sccs_solved
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtype_mode_roundtrips_with_display() {
        for mode in SubtypeMode::ALL {
            assert_eq!(mode.to_string().parse::<SubtypeMode>(), Ok(mode));
        }
    }

    #[test]
    fn downcast_policy_roundtrips_with_display() {
        for policy in DowncastPolicy::ALL {
            assert_eq!(policy.to_string().parse::<DowncastPolicy>(), Ok(policy));
        }
    }

    #[test]
    fn extent_mode_roundtrips_with_display() {
        for extent in ExtentMode::ALL {
            assert_eq!(extent.to_string().parse::<ExtentMode>(), Ok(extent));
        }
        let err = "nll".parse::<ExtentMode>().unwrap_err();
        assert!(err.to_string().contains("unknown extent mode `nll`"));
        assert!(err.to_string().contains("liveness"));
    }

    #[test]
    fn short_cli_aliases_accepted() {
        assert_eq!("none".parse::<SubtypeMode>(), Ok(SubtypeMode::None));
        assert_eq!("object".parse::<SubtypeMode>(), Ok(SubtypeMode::Object));
        assert_eq!("field".parse::<SubtypeMode>(), Ok(SubtypeMode::Field));
        assert_eq!(
            "equate".parse::<DowncastPolicy>(),
            Ok(DowncastPolicy::EquateFirst)
        );
    }

    #[test]
    fn unknown_spellings_list_alternatives() {
        let err = "both".parse::<SubtypeMode>().unwrap_err();
        assert!(err.to_string().contains("unknown subtype mode `both`"));
        assert!(err.to_string().contains("field-sub"));
        let err = "pad".parse::<DowncastPolicy>().unwrap_err();
        assert!(err.to_string().contains("padding"));
    }
}
