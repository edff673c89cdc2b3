//! Source positions.
//!
//! Every AST node carries a [`Span`] (byte range into the source text). A
//! [`SourceMap`] converts byte offsets back to line/column pairs when
//! rendering diagnostics.

use std::fmt;

/// A half-open byte range `[lo, hi)` into the source text.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// A span covering `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> Span {
        debug_assert!(lo <= hi, "span bounds out of order");
        Span { lo, hi }
    }

    /// The zero span, used for synthesized nodes.
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Whether this is the dummy (synthesized) span.
    pub fn is_dummy(self) -> bool {
        self == Span::DUMMY
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// Maps byte offsets to 1-based line/column pairs.
///
/// # Examples
///
/// ```
/// use cj_diag::SourceMap;
///
/// let map = SourceMap::new("ab\ncd");
/// assert_eq!(map.line_col(3), (2, 1)); // 'c'
/// ```
#[derive(Debug, Clone)]
pub struct SourceMap {
    /// Byte offsets at which each line starts.
    line_starts: Vec<u32>,
    len: u32,
}

impl SourceMap {
    /// Builds the line index for `src`.
    pub fn new(src: &str) -> SourceMap {
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            line_starts,
            len: src.len() as u32,
        }
    }

    /// 1-based `(line, column)` of the byte `offset`.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let offset = offset.min(self.len);
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line as u32 + 1, offset - self.line_starts[line] + 1)
    }

    /// Byte range `[start, end)` of the 1-based `line`, excluding the
    /// trailing newline.
    pub fn line_span(&self, line: u32) -> (u32, u32) {
        let idx = (line.max(1) as usize - 1).min(self.line_starts.len() - 1);
        let start = self.line_starts[idx];
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&next| next.saturating_sub(1))
            .unwrap_or(self.len);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(b.to(a), Span::new(2, 9));
    }

    #[test]
    fn line_col_basics() {
        let map = SourceMap::new("abc\ndef\n\nx");
        assert_eq!(map.line_col(0), (1, 1));
        assert_eq!(map.line_col(2), (1, 3));
        assert_eq!(map.line_col(4), (2, 1));
        assert_eq!(map.line_col(8), (3, 1));
        assert_eq!(map.line_col(9), (4, 1));
    }

    #[test]
    fn line_col_clamps_past_end() {
        let map = SourceMap::new("ab");
        assert_eq!(map.line_col(100), (1, 3));
    }

    #[test]
    fn line_spans() {
        let map = SourceMap::new("abc\ndef\n\nx");
        assert_eq!(map.line_span(1), (0, 3));
        assert_eq!(map.line_span(2), (4, 7));
        assert_eq!(map.line_span(3), (8, 8));
        assert_eq!(map.line_span(4), (9, 10));
    }
}
