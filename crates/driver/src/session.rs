//! [`Session`]: the three calls the `perfbench` benchmark makes, over a
//! one-file [`Workspace`].
//!
//! The driver is [`Workspace`]. This type exists only because the
//! benchmark definition under `perfbench/` pins `Session::new(source,
//! opts)`, `.run(args)` and `.annotate()`; it is deleted when the
//! benchmark is ported to `Workspace` (ROADMAP direction 6).

use crate::workspace::{CompileResult, SessionOptions, Workspace};
use cj_diag::Diagnostics;
use cj_runtime::{Outcome, Value};

/// One source text compiled and run under fixed [`SessionOptions`].
#[derive(Debug)]
pub struct Session {
    ws: Workspace,
    /// Set when the source was rejected at ingestion (oversized); returned
    /// by every call.
    ingest_error: Option<Diagnostics>,
}

impl Session {
    /// A session over `source` with the given options.
    pub fn new(source: impl Into<String>, opts: SessionOptions) -> Session {
        let mut ws = Workspace::new(opts);
        let ingest_error = ws.set_source("<input>", source).err();
        Session { ws, ingest_error }
    }

    /// Compiles (through region checking) under the session's inference
    /// options and executes `main` with integer arguments on the session's
    /// engine.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics, or a runtime fault.
    pub fn run(&mut self, args: &[i64]) -> CompileResult<Outcome> {
        self.ingest_ok()?;
        let values: Vec<Value> = args.iter().map(|&v| Value::Int(v)).collect();
        let opts = self.ws.options();
        let (infer, engine) = (opts.infer, opts.run.engine);
        self.ws.run(infer, engine, &values)
    }

    /// Renders the program inferred under the session's options in the
    /// paper's annotation syntax.
    ///
    /// # Errors
    ///
    /// Any compilation diagnostics.
    pub fn annotate(&mut self) -> CompileResult<String> {
        self.ingest_ok()?;
        let infer = self.ws.options().infer;
        self.ws.annotate(infer)
    }

    fn ingest_ok(&self) -> CompileResult<()> {
        match &self.ingest_error {
            Some(diags) => Err(diags.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cj_infer::InferOptions;

    const PAIR: &str = "
        class Pair { Object fst; Object snd;
          void swap() { Object t = this.fst; this.fst = this.snd; this.snd = t; }
        }
        class M { static int main(int n) { n * 2 } }";

    #[test]
    fn run_and_annotate_answer_as_a_one_file_workspace() {
        let mut session = Session::new(PAIR, SessionOptions::default());
        let mut ws = Workspace::new(SessionOptions::default());
        ws.set_source("pair.cj", PAIR).unwrap();
        let annotated = ws.annotate(InferOptions::default()).unwrap();
        assert_eq!(session.annotate().unwrap(), annotated);
        assert_eq!(session.run(&[21]).unwrap().value, Value::Int(42));
    }

    #[test]
    fn an_oversized_source_fails_every_call() {
        let big = "x".repeat(crate::FILE_SPAN_STRIDE as usize);
        let mut session = Session::new(big, SessionOptions::default());
        for err in [
            session.run(&[]).unwrap_err(),
            session.annotate().unwrap_err(),
        ] {
            assert!(err.items[0].message.contains("limited to"), "{err}");
        }
    }
}
