//! `sketch-lint` — a std-only, dependency-free static-analysis pass
//! that enforces the workspace's determinism, panic-safety, and
//! unsafe-hygiene invariants (see [`rules`] for the rule table).
//!
//! In the same hand-rolled spirit as the in-tree rand/proptest
//! shims: a real Rust [`lexer`] (raw strings, nested block
//! comments, char-vs-lifetime disambiguation, byte literals), a
//! line/column-aware rule [`engine`], and six [`rules`] distilled from
//! this repository's own bug history. Every invariant the proptest
//! batteries verify dynamically — bit-identical top-k across thread
//! counts, byte-identical cached/sharded responses, a server that
//! survives hostile input — rests on a source-level discipline; this
//! crate checks those disciplines statically, so a regression fails CI
//! at the offending line instead of (at best) a distant oracle test.
//!
//! The only escape hatches are explicit inline justifications,
//! `// lint: ordered (…)` and `// lint: cast-ok (…)`. R3 has none: a
//! request-path panic is fixed by restructuring the code.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod rules;

use std::path::PathBuf;

use engine::{Diagnostic, SourceFile};

/// A resolved lint invocation.
pub struct Options {
    /// Paths (files or directories) to lint.
    pub paths: Vec<PathBuf>,
    /// Exit non-zero on any violation.
    pub deny: bool,
    /// Emit the machine-readable JSON summary instead of text.
    pub json: bool,
}

/// Everything one run produced, for rendering and exit-code logic.
pub struct RunReport {
    /// Files scanned.
    pub files: usize,
    /// Violations, sorted by position.
    pub violations: Vec<Diagnostic>,
    /// Per-rule violation counts, in rule order (id, count).
    pub counts: Vec<(&'static str, usize)>,
}

impl RunReport {
    /// Whether a `--deny` run should fail: any violation.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Lint every `.rs` file reachable from `opts.paths`.
///
/// # Errors
///
/// I/O failures, as a printable message.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    let files = engine::collect_files(&opts.paths)?;
    let mut violations: Vec<Diagnostic> = Vec::new();
    for path in &files {
        let rel = engine::path_str(path);
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = SourceFile::new(rel, src);
        for rule in rules::RULES {
            if (rule.applies)(&file.path) {
                violations.extend((rule.check)(&file));
            }
        }
    }
    violations
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));

    let counts = rules::RULES
        .iter()
        .map(|r| (r.id, violations.iter().filter(|d| d.rule == r.id).count()))
        .collect();
    Ok(RunReport {
        files: files.len(),
        violations,
        counts,
    })
}

/// Render the JSON summary (hand-rolled, deterministic key order).
#[must_use]
pub fn render_json(report: &RunReport) -> String {
    let mut out = String::from("{\"files\":");
    out.push_str(&report.files.to_string());
    out.push_str(",\"violations\":");
    out.push_str(&report.violations.len().to_string());
    out.push_str(",\"counts\":{");
    for (i, (id, n)) in report.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(id);
        out.push_str("\":");
        out.push_str(&n.to_string());
    }
    out.push_str("},\"diagnostics\":[");
    for (i, d) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":");
        push_json_string(&mut out, &d.file);
        out.push_str(",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"col\":");
        out.push_str(&d.col.to_string());
        out.push_str(",\"rule\":\"");
        out.push_str(d.rule);
        out.push_str("\",\"message\":");
        push_json_string(&mut out, &d.message);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
