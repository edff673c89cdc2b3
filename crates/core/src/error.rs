//! Inference errors.

use cj_diag::{codes, Diagnostic, IntoDiagnostic};
use cj_frontend::span::Span;
use std::fmt;

/// An error produced by region inference.
///
/// Well-normal-typed programs infer successfully (Theorem 1) unless a
/// policy refuses them: downcasts under
/// [`DowncastPolicy::Reject`](crate::options::DowncastPolicy::Reject).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// A downcast was found but the active policy rejects downcasts.
    DowncastRejected {
        /// Method containing the cast.
        method: String,
        /// Location of the cast.
        span: Span,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::DowncastRejected { method, .. } => write!(
                f,
                "downcast in `{method}` rejected: enable the equate-first or \
                 padding downcast policy"
            ),
        }
    }
}

impl std::error::Error for InferError {}

impl IntoDiagnostic for InferError {
    fn into_diagnostic(self) -> Diagnostic {
        match &self {
            InferError::DowncastRejected { method, span } => {
                Diagnostic::error(self.to_string(), *span)
                    .with_code(codes::INFER)
                    .with_label(*span, format!("downcast here, in `{method}`"))
                    .with_note(
                        "the `reject` downcast policy refuses all downcasts; \
                         pass `--downcast equate-first` or `--downcast padding`",
                    )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_diag::Severity;

    #[test]
    fn downcast_rejection_becomes_located_diagnostic() {
        let err = InferError::DowncastRejected {
            method: "M.main".into(),
            span: Span::new(10, 15),
        };
        let d = err.into_diagnostic();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.code, Some(codes::INFER));
        assert_eq!(d.span, Span::new(10, 15));
        assert_eq!(d.labels.len(), 1);
        assert!(!d.notes.is_empty());
    }
}
