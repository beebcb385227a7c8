//! Shared plumbing for the experiment binaries (one per paper claim,
//! each gating it by exit code — see `src/bin/`). Serving, store and
//! cluster performance is measured by the ledger (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod corpus;
pub mod timing;

pub use args::Args;
pub use corpus::{corpus_pairs, evaluable_pairs, CorpusChoice};
pub use timing::{time_ms, LatencySummary};

/// What a gated binary found broken; [`Gate::verdict`] ends the run.
#[derive(Debug, Default)]
pub struct Gate(pub Vec<String>);

impl Gate {
    /// Record the failure `why` describes unless `ok` (NaN compared into
    /// `ok` is `false`, so it fails).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.0.push(why());
        }
    }

    /// `<bin>: OK — <ok>` when nothing failed, else `<bin>: FAIL —
    /// <failures>` and exit code 1.
    pub fn verdict(self, bin: &str, ok: &str) {
        if self.0.is_empty() {
            println!("{bin}: OK — {ok}");
        } else {
            println!("{bin}: FAIL — {}", self.0.join("; "));
            std::process::exit(1);
        }
    }
}
