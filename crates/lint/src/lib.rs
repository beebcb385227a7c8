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
//! Escape hatches are explicit and reviewed: `// lint: ordered (…)`
//! and `// lint: cast-ok (…)` inline justifications, and the
//! tab-separated `crates/lint/allowlist.tsv` whose entries must each
//! still match something — stale entries fail the run, so the file can
//! shrink but never silently pad.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod rules;

use std::path::PathBuf;

use engine::{Allowlist, Diagnostic, SourceFile};

/// A resolved lint invocation.
pub struct Options {
    /// Paths (files or directories) to lint.
    pub paths: Vec<PathBuf>,
    /// Exit non-zero on any violation or stale allowlist entry.
    pub deny: bool,
    /// Emit the machine-readable JSON summary instead of text.
    pub json: bool,
    /// Rewrite the allowlist from current violations.
    pub fix_allowlist: bool,
    /// Allowlist file path (when present on disk).
    pub allowlist_path: Option<PathBuf>,
}

/// Everything one run produced, for rendering and exit-code logic.
pub struct RunReport {
    /// Files scanned.
    pub files: usize,
    /// Violations not covered by the allowlist, sorted by position.
    pub violations: Vec<Diagnostic>,
    /// Diagnostics suppressed by allowlist entries.
    pub allowlisted: usize,
    /// Allowlist entries that suppressed nothing (each is an error).
    pub stale: Vec<String>,
    /// Per-rule violation counts, in rule order (id, count).
    pub counts: Vec<(&'static str, usize)>,
}

impl RunReport {
    /// Whether a `--deny` run should fail.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || !self.stale.is_empty()
    }
}

/// Lint every `.rs` file reachable from `opts.paths`.
///
/// # Errors
///
/// I/O or allowlist-parse failures, as a printable message.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    let mut allowlist = match &opts.allowlist_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Allowlist::parse(&text)?
        }
        None => Allowlist::empty(),
    };

    let files = engine::collect_files(&opts.paths)?;
    // Violations paired with their source-line text (the text is what
    // `--fix-allowlist` records as the match snippet).
    let mut violations: Vec<(Diagnostic, String)> = Vec::new();
    let mut allowlisted = 0usize;
    for path in &files {
        let rel = engine::path_str(path);
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = SourceFile::new(rel, src);
        for rule in rules::RULES {
            if !(rule.applies)(&file.path) {
                continue;
            }
            for diag in (rule.check)(&file) {
                let line_text = file.line_text(diag.line).trim().to_string();
                if allowlist.suppresses(&diag, &line_text) {
                    allowlisted += 1;
                } else {
                    violations.push((diag, line_text));
                }
            }
        }
    }
    violations.sort_by(|a, b| {
        (&a.0.file, a.0.line, a.0.col, a.0.rule).cmp(&(&b.0.file, b.0.line, b.0.col, b.0.rule))
    });

    if opts.fix_allowlist {
        if let Some(p) = &opts.allowlist_path {
            let rewritten = fix_allowlist(&allowlist, &violations);
            std::fs::write(p, Allowlist::render(&rewritten))
                .map_err(|e| format!("{}: {e}", p.display()))?;
        }
    }
    let violations: Vec<Diagnostic> = violations.into_iter().map(|(d, _)| d).collect();

    let counts = rules::RULES
        .iter()
        .map(|r| (r.id, violations.iter().filter(|d| d.rule == r.id).count()))
        .collect();
    let stale = allowlist
        .stale()
        .iter()
        .map(|e| {
            format!(
                "stale allowlist entry ({} {} {:?}): nothing matches — remove it",
                e.rule, e.file, e.snippet
            )
        })
        .collect();
    Ok(RunReport {
        files: files.len(),
        violations,
        allowlisted,
        stale,
        counts,
    })
}

/// The `--fix-allowlist` rewrite: keep entries that still match, drop
/// stale ones, and append an entry (with a TODO justification awaiting
/// review) for every currently-unsuppressed violation. The new entry's
/// snippet is the flagged source line, trimmed — robust to the line
/// moving, invalidated when its content changes.
fn fix_allowlist(
    current: &Allowlist,
    violations: &[(Diagnostic, String)],
) -> Vec<engine::AllowEntry> {
    let stale: Vec<String> = current
        .stale()
        .iter()
        .map(|e| format!("{}\t{}\t{}", e.rule, e.file, e.snippet))
        .collect();
    let mut out: Vec<engine::AllowEntry> = current
        .entries
        .iter()
        .filter(|e| !stale.contains(&format!("{}\t{}\t{}", e.rule, e.file, e.snippet)))
        .cloned()
        .collect();
    for (d, line_text) in violations {
        let snippet = if line_text.is_empty() {
            d.message.clone()
        } else {
            line_text.clone()
        };
        out.push(engine::AllowEntry {
            rule: d.rule.to_string(),
            file: d.file.clone(),
            snippet,
            justification: "TODO: justify or fix".to_string(),
        });
    }
    out
}

/// Render the JSON summary (hand-rolled, deterministic key order).
#[must_use]
pub fn render_json(report: &RunReport) -> String {
    let mut out = String::from("{\"files\":");
    out.push_str(&report.files.to_string());
    out.push_str(",\"violations\":");
    out.push_str(&report.violations.len().to_string());
    out.push_str(",\"allowlisted\":");
    out.push_str(&report.allowlisted.to_string());
    out.push_str(",\"stale_allowlist\":");
    out.push_str(&report.stale.len().to_string());
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
