//! Rendering diagnostics: rustc-style caret snippets and the one JSON
//! object serializer.
//!
//! The [`Emitter`] borrows one file's text, indexes its lines once and
//! renders any number of diagnostics against it as caret snippets:
//!
//! ```text
//! error[E0201]: unknown class `Pear`
//!   --> demo.cj:3:11
//!    |
//!  3 |     Pear p = new Pear(null);
//!    |     ^^^^
//!    = note: classes must be declared at the top level
//! ```
//!
//! [`render_json_diagnostic`] turns one diagnostic into a one-line JSON
//! object, with the caller choosing how each span is placed. Batches,
//! per-file caps and multi-file span placement belong to the driver's
//! workspace, which renders every diagnostic `cjrc` prints through these
//! two.

use crate::diagnostic::{Diagnostic, Severity};
use crate::json::json_string;
use crate::span::{SourceMap, Span};
use std::fmt::Write as _;

/// Renders diagnostics against one source file.
#[derive(Debug)]
pub struct Emitter<'a> {
    name: &'a str,
    src: &'a str,
    map: SourceMap,
}

impl<'a> Emitter<'a> {
    /// An emitter for the source text `src`, displayed as file `name`.
    pub fn new(name: &'a str, src: &'a str) -> Emitter<'a> {
        Emitter {
            name,
            src,
            map: SourceMap::new(src),
        }
    }

    /// Renders one diagnostic as a caret-style snippet.
    pub fn render(&self, d: &Diagnostic) -> String {
        let mut out = String::new();
        match d.code {
            Some(code) => {
                let _ = writeln!(out, "{}[{}]: {}", d.severity, code, d.message);
            }
            None => {
                let _ = writeln!(out, "{}: {}", d.severity, d.message);
            }
        }
        let gutter = self.gutter_width(d);
        self.render_span(&mut out, d.span, None, caret_char(d.severity), gutter);
        for label in &d.labels {
            self.render_span(&mut out, label.span, Some(&label.message), '-', gutter);
        }
        for note in &d.notes {
            let _ = writeln!(out, "{:gutter$} = note: {}", "", note);
        }
        out
    }

    /// 1-based `(line, column)` of the byte `offset` in this emitter's
    /// file.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        self.map.line_col(offset)
    }

    fn gutter_width(&self, d: &Diagnostic) -> usize {
        let max_line = std::iter::once(d.span)
            .chain(d.labels.iter().map(|l| l.span))
            .map(|s| self.map.line_col(s.lo).0)
            .max()
            .unwrap_or(1);
        max_line.to_string().len() + 1
    }

    fn render_span(
        &self,
        out: &mut String,
        span: Span,
        label: Option<&str>,
        underline: char,
        gutter: usize,
    ) {
        // A dummy span means "no location" (IO/CLI errors, program-scoped
        // checker violations, non-convergence): the file line alone, with
        // no snippet — a caret at 1:1 would point at unrelated source.
        if span.is_dummy() {
            let _ = writeln!(out, "{:gutter$}--> {}", "", self.name);
            if let Some(msg) = label {
                let _ = writeln!(out, "{:gutter$}  {}", "", msg);
            }
            return;
        }
        let (line, col) = self.map.line_col(span.lo);
        let _ = writeln!(out, "{:gutter$}--> {}:{}:{}", "", self.name, line, col);
        let (start, end) = self.map.line_span(line);
        // Underline the intersection of the span with its first line.
        let (text, under_start, under_len) = clip_line(
            self.src[start as usize..end as usize].trim_end(),
            (col as usize).saturating_sub(1),
            ((span.hi.min(end).max(span.lo) - span.lo) as usize).max(1),
        );
        let _ = writeln!(out, "{:gutter$} |", "");
        let _ = writeln!(out, "{:>gutter$} | {}", line, text);
        let mut marks = String::new();
        let _ = write!(
            marks,
            "{:gutter$} | {:under_start$}{}",
            "",
            "",
            underline.to_string().repeat(under_len)
        );
        if let Some(msg) = label {
            let _ = write!(marks, " {}", msg);
        }
        let _ = writeln!(out, "{}", marks);
    }
}

/// Longest source line a snippet prints whole; a longer one is clipped
/// to a window of this many bytes around the caret, so one long line
/// cannot blow up every diagnostic that points into it.
const SNIPPET_WIDTH: usize = 120;

/// How much of a clipped line the window keeps before the caret.
const SNIPPET_LEAD: usize = 40;

/// The part of `text` a snippet prints, with `...` marking cut ends, plus
/// the underline's start and length within it.
fn clip_line(text: &str, start: usize, len: usize) -> (String, usize, usize) {
    if text.len() <= SNIPPET_WIDTH {
        return (text.to_string(), start, len);
    }
    let mut lo = start.saturating_sub(SNIPPET_LEAD).min(text.len());
    while !text.is_char_boundary(lo) {
        lo -= 1;
    }
    let mut hi = (lo + SNIPPET_WIDTH).min(text.len());
    while !text.is_char_boundary(hi) {
        hi -= 1;
    }
    let prefix = if lo > 0 { "..." } else { "" };
    let suffix = if hi < text.len() { "..." } else { "" };
    let shown = format!("{prefix}{}{suffix}", &text[lo..hi]);
    let len = len.min(hi.saturating_sub(start)).max(1);
    (shown, prefix.len() + start - lo, len)
}

fn caret_char(severity: Severity) -> char {
    match severity {
        Severity::Error => '^',
        Severity::Warning => '~',
    }
}

/// The one JSON serializer for diagnostics, a single-line object:
///
/// ```text
/// {"severity":..,"code":..,"message":..,"span":..,
///  "labels":[{"span":..,"message":..},…],"notes":[..]}
/// ```
///
/// `span_json` renders one span as a JSON value; the workspace tags each
/// span with its owning file, `{"file":..,"lo":..,"hi":..,"line":..,"col":..}`,
/// or renders `null` for an unlocated one.
pub fn render_json_diagnostic(d: &Diagnostic, mut span_json: impl FnMut(Span) -> String) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"severity\":\"{}\"", d.severity);
    match d.code {
        Some(code) => {
            let _ = write!(out, ",\"code\":{}", json_string(code));
        }
        None => out.push_str(",\"code\":null"),
    }
    let _ = write!(out, ",\"message\":{}", json_string(&d.message));
    let _ = write!(out, ",\"span\":{}", span_json(d.span));
    out.push_str(",\"labels\":[");
    for (i, label) in d.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"span\":{},\"message\":{}}}",
            span_json(label.span),
            json_string(&label.message)
        );
    }
    out.push_str("],\"notes\":[");
    for (i, note) in d.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(note));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Diagnostic;

    #[test]
    fn caret_snippet_shape() {
        let src = "class A {}\nclass A {}";
        let e = Emitter::new("demo.cj", src);
        let d = Diagnostic::error("duplicate class `A`", Span::new(11, 18))
            .with_code("E0200")
            .with_label(Span::new(0, 7), "first declared here")
            .with_note("classes may be declared once");
        let text = e.render(&d);
        assert!(text.starts_with("error[E0200]: duplicate class `A`\n"));
        assert!(text.contains("--> demo.cj:2:1"), "{text}");
        assert!(text.contains("2 | class A {}"), "{text}");
        assert!(text.contains("^^^^^^^"), "{text}");
        assert!(text.contains("------- first declared here"), "{text}");
        assert!(
            text.contains("= note: classes may be declared once"),
            "{text}"
        );
    }

    #[test]
    fn long_lines_are_clipped_around_the_caret() {
        let src = format!("{}bad{}", "x".repeat(5000), "y".repeat(5000));
        let e = Emitter::new("long.cj", &src);
        let d = Diagnostic::error("here", Span::new(5000, 5003));
        let text = e.render(&d);
        assert!(text.len() < 400, "{text}");
        let lines: Vec<&str> = text.lines().collect();
        let (shown, marks) = (lines[3], lines[4]);
        assert!(
            shown.contains("...xxx") && shown.ends_with("yyy..."),
            "{text}"
        );
        let caret = marks.find('^').unwrap();
        assert_eq!(&shown[caret..caret + 3], "bad", "{text}");
        assert_eq!(marks.matches('^').count(), 3, "{text}");
    }

    #[test]
    fn json_roundtrippable_shape() {
        let d = Diagnostic::error("boom \"quoted\"", Span::new(6, 7))
            .with_code("E0100")
            .with_label(Span::DUMMY, "nowhere");
        let json = render_json_diagnostic(&d, |span| {
            if span.is_dummy() {
                "null".to_string()
            } else {
                format!("{{\"lo\":{},\"hi\":{}}}", span.lo, span.hi)
            }
        });
        assert_eq!(
            json,
            "{\"severity\":\"error\",\"code\":\"E0100\",\"message\":\"boom \\\"quoted\\\"\",\
             \"span\":{\"lo\":6,\"hi\":7},\"labels\":[{\"span\":null,\"message\":\"nowhere\"}],\
             \"notes\":[]}"
        );
    }

    #[test]
    fn multiline_span_underlines_first_line_only() {
        let src = "abc\ndef";
        let e = Emitter::new("x.cj", src);
        let d = Diagnostic::error("spans lines", Span::new(1, 6));
        let text = e.render(&d);
        assert!(text.contains("1 | abc"), "{text}");
        assert!(text.contains("^^"), "{text}");
    }
}
