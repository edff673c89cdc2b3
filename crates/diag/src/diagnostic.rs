//! Structured compiler diagnostics.
//!
//! A [`Diagnostic`] is a machine-readable message: severity, stable error
//! [`code`](Diagnostic::code), primary [`Span`], secondary labelled spans,
//! and free-form notes. [`Diagnostics`] is the batch form used as the error
//! type of whole passes. Rendering (caret snippets, JSON) lives in
//! [`emit`](crate::emit).

use crate::span::Span;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Most diagnostics any renderer shows for one file; see
/// [`Diagnostics::capped`].
pub const MAX_DIAGNOSTICS_PER_FILE: usize = 100;

fn suppressed_note(count: usize) -> String {
    format!(
        "{count} more diagnostic{} suppressed (at most {MAX_DIAGNOSTICS_PER_FILE} are shown per file)",
        if count == 1 { "" } else { "s" }
    )
}

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A hard error; compilation cannot proceed.
    Error,
    /// A non-fatal warning.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warning => f.write_str("warning"),
        }
    }
}

/// A secondary span attached to a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// The labelled location.
    pub span: Span,
    /// What this location contributes to the error.
    pub message: String,
}

/// A compiler message attached to a [`Span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `"E0201"`); `None` until the
    /// emitting pass stamps one (see [`Diagnostics::set_default_code`]).
    pub code: Option<&'static str>,
    /// Human-readable message, lowercase, no trailing period.
    pub message: String,
    /// Primary location.
    pub span: Span,
    /// Secondary locations with their own messages.
    pub labels: Vec<Label>,
    /// Free-form explanatory notes.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with the given severity at `span`.
    pub fn new(severity: Severity, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity,
            code: None,
            message: message.into(),
            span,
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// An error diagnostic at `span`.
    pub fn error(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(Severity::Error, message, span)
    }

    /// A warning diagnostic at `span`.
    pub fn warning(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(Severity::Warning, message, span)
    }

    /// Sets the stable error code.
    pub fn with_code(mut self, code: &'static str) -> Diagnostic {
        self.code = Some(code);
        self
    }

    /// Attaches a secondary labelled span.
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Attaches an explanatory note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.message)
    }
}

impl std::error::Error for Diagnostic {}

/// A batch of diagnostics, used as the error type of compiler passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// The collected messages, in emission order.
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// A collection holding the single diagnostic `d`.
    pub fn from_one(d: Diagnostic) -> Diagnostics {
        Diagnostics { items: vec![d] }
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Adds an error with the given message and span.
    pub fn error(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(message, span));
    }

    /// Whether any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of collected diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Iterates over the collected diagnostics.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Appends every diagnostic of `other`.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Stamps `code` on every diagnostic that does not carry one yet.
    ///
    /// Passes call this at their boundary so each stage owns a code range
    /// without threading codes through every emission site.
    pub fn set_default_code(mut self, code: &'static str) -> Diagnostics {
        for d in &mut self.items {
            if d.code.is_none() {
                d.code = Some(code);
            }
        }
        self
    }

    /// The diagnostics a renderer shows: the first
    /// [`MAX_DIAGNOSTICS_PER_FILE`] of each file, in order, where
    /// `file_of` maps a diagnostic's primary span to its file. A file
    /// with more gets one note on its last shown diagnostic counting the
    /// rest, so the caret, JSON and terse forms all report the same cut.
    /// Borrowed when nothing is cut.
    pub fn capped(&self, file_of: impl Fn(Span) -> u32) -> Cow<'_, Diagnostics> {
        if self.items.len() <= MAX_DIAGNOSTICS_PER_FILE {
            return Cow::Borrowed(self);
        }
        // Per file: diagnostics seen, and the index of its last shown one.
        let mut files: HashMap<u32, (usize, usize)> = HashMap::new();
        let mut kept = Diagnostics::new();
        for d in &self.items {
            let (seen, last) = files.entry(file_of(d.span)).or_default();
            *seen += 1;
            if *seen <= MAX_DIAGNOSTICS_PER_FILE {
                *last = kept.len();
                kept.push(d.clone());
            }
        }
        if kept.len() == self.len() {
            return Cow::Borrowed(self);
        }
        for (seen, last) in files.into_values() {
            if seen > MAX_DIAGNOSTICS_PER_FILE {
                let note = suppressed_note(seen - MAX_DIAGNOSTICS_PER_FILE);
                kept.items[last].notes.push(note);
            }
        }
        Cow::Owned(kept)
    }
}

impl fmt::Display for Diagnostics {
    /// One `severity: message` line per diagnostic, capped like every
    /// other rendering (the batch counts as one file).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shown = self.capped(|_| 0);
        for d in shown.iter() {
            writeln!(f, "{}", d)?;
        }
        if shown.len() < self.len() {
            writeln!(f, "note: {}", suppressed_note(self.len() - shown.len()))?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostics {}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Diagnostics {
            items: iter.into_iter().collect(),
        }
    }
}

impl From<Diagnostic> for Diagnostics {
    fn from(d: Diagnostic) -> Diagnostics {
        Diagnostics::from_one(d)
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warnings_are_not_errors() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning("unused", Span::DUMMY));
        assert!(!ds.has_errors());
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn default_code_fills_only_gaps() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::error("a", Span::DUMMY).with_code("E0001"));
        ds.push(Diagnostic::error("b", Span::DUMMY));
        let ds = ds.set_default_code("E0999");
        assert_eq!(ds.items[0].code, Some("E0001"));
        assert_eq!(ds.items[1].code, Some("E0999"));
    }

    #[test]
    fn capped_keeps_the_first_hundred_per_file_and_counts_the_rest() {
        // 10x the bound in file 0, a few in file 1, interleaved.
        let mut ds = Diagnostics::new();
        for i in 0..10 * MAX_DIAGNOSTICS_PER_FILE as u32 {
            ds.error(format!("e{i}"), Span::new(i, i + 1));
            if i % 400 == 0 {
                ds.error(format!("other{i}"), Span::new(1_000_000 + i, 1_000_001 + i));
            }
        }
        let file_of = |s: Span| s.lo / 1_000_000;
        let shown = ds.capped(file_of);
        assert_eq!(shown.len(), MAX_DIAGNOSTICS_PER_FILE + 3);
        assert!(shown.has_errors());
        let last0 = shown.iter().rfind(|d| file_of(d.span) == 0).unwrap();
        assert_eq!(last0.message, "e99");
        assert_eq!(
            last0.notes,
            vec!["900 more diagnostics suppressed (at most 100 are shown per file)".to_string()]
        );
        let file1 = shown.iter().filter(|d| file_of(d.span) == 1);
        assert!(file1.clone().all(|d| d.notes.is_empty()) && file1.count() == 3);
        // Under the bound nothing is copied or annotated.
        let small: Diagnostics = ds.items[..50].iter().cloned().collect();
        assert!(matches!(small.capped(file_of), Cow::Borrowed(_)));
        // The terse form cuts at the same bound and says so.
        let text = ds.to_string();
        assert_eq!(text.lines().count(), MAX_DIAGNOSTICS_PER_FILE + 1);
        assert!(
            text.ends_with(
                "note: 903 more diagnostics suppressed (at most 100 are shown per file)\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn builder_attaches_structure() {
        let d = Diagnostic::error("bad", Span::new(1, 2))
            .with_code("E0100")
            .with_label(Span::new(5, 8), "declared here")
            .with_note("try removing it");
        assert_eq!(d.code, Some("E0100"));
        assert_eq!(d.labels.len(), 1);
        assert_eq!(d.notes, vec!["try removing it".to_string()]);
    }
}
