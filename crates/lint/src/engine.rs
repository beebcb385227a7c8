//! The rule engine: per-file token context (with `#[cfg(test)]` region
//! tracking and justification-comment lookup), workspace walking, and
//! diagnostic plumbing.

use std::path::{Path, PathBuf};

use crate::lexer::{self, Token};

/// One finding: where, which rule, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`R1`..`R6`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Render in the classic `file:line:col: rule: message` shape.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A lexed source file plus everything rules need to scope and suppress
/// findings: line offsets, test regions, and the significant (i.e.
/// non-comment) token stream.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Raw source text.
    pub src: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub sig: Vec<usize>,
    /// Byte offset where each 1-based line starts.
    line_starts: Vec<usize>,
    /// For each 1-based line, whether it is inside test code
    /// (a `#[cfg(test)]` / `#[test]` item, or a `tests/` file).
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Lex and index `src`.
    #[must_use]
    pub fn new(path: String, src: String) -> Self {
        let tokens = lexer::tokenize(&src);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let n_lines = line_starts.len();
        let whole_file_test = path.contains("/tests/");
        let mut test_lines = vec![whole_file_test; n_lines + 2];
        if !whole_file_test {
            mark_test_regions(&src, &tokens, &sig, &mut test_lines);
        }
        Self {
            path,
            src,
            tokens,
            sig,
            line_starts,
            test_lines,
        }
    }

    /// The `i`-th significant token.
    #[must_use]
    pub fn sig_tok(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    /// Source text of the `i`-th significant token.
    #[must_use]
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig_tok(i).text(&self.src)
    }

    /// Number of significant tokens.
    #[must_use]
    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// Raw text of a 1-based line (without the newline).
    #[must_use]
    pub fn line_text(&self, line: u32) -> &str {
        let idx = line as usize - 1;
        let start = match self.line_starts.get(idx) {
            Some(&s) => s,
            None => return "",
        };
        let end = self
            .line_starts
            .get(idx + 1)
            .map_or(self.src.len(), |&e| e - 1);
        self.src[start..end].trim_end_matches('\r')
    }

    /// Whether a 1-based line falls in test code.
    #[must_use]
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Whether the flagged line (or the line above it) carries the
    /// given justification marker in its text — the escape hatch for
    /// rules that accept an inline `// lint: …` annotation.
    #[must_use]
    pub fn line_has_justification(&self, line: u32, marker: &str) -> bool {
        if self.line_text(line).contains(marker) {
            return true;
        }
        line > 1 && self.line_text(line - 1).contains(marker)
    }

    /// Diagnostic for the `i`-th significant token.
    #[must_use]
    pub fn diag_at(&self, i: usize, rule: &'static str, message: String) -> Diagnostic {
        let t = self.sig_tok(i);
        Diagnostic {
            file: self.path.clone(),
            line: t.line,
            col: t.col,
            rule,
            message,
        }
    }
}

/// Mark lines covered by `#[cfg(test)]` / `#[test]` items. The scan
/// walks significant tokens: on a test-marking attribute it skips any
/// further attributes, then brace-matches the following item (or stops
/// at `;` for braceless items) and marks that line span.
fn mark_test_regions(src: &str, tokens: &[Token], sig: &[usize], test_lines: &mut [bool]) {
    let text = |i: usize| tokens[sig[i]].text(src);
    let mut i = 0;
    while i < sig.len() {
        if text(i) != "#" {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test)) = parse_attribute(src, tokens, sig, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes between the test marker and the
        // item it covers.
        let mut j = attr_end;
        while j < sig.len() && text(j) == "#" {
            match parse_attribute(src, tokens, sig, j) {
                Some((end, _)) => j = end,
                None => break,
            }
        }
        let start_line = tokens[sig[i]].line;
        // Find the item's body: the first `{` before any `;`.
        let mut depth = 0u32;
        let mut end_line = start_line;
        while j < sig.len() {
            match text(j) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end_line = tokens[sig[j]].line;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end_line = tokens[sig[j]].line;
                    break;
                }
                _ => {}
            }
            end_line = tokens[sig[j]].line;
            j += 1;
        }
        for line in start_line..=end_line {
            if let Some(slot) = test_lines.get_mut(line as usize) {
                *slot = true;
            }
        }
        i = j + 1;
    }
}

/// Parse the attribute starting at significant index `i` (which holds
/// `#`). Returns `(index past the closing `]`, is-test-marker)`; a
/// test marker is `#[test]` or any `#[cfg(…)]` whose argument tokens
/// mention `test`.
fn parse_attribute(src: &str, tokens: &[Token], sig: &[usize], i: usize) -> Option<(usize, bool)> {
    let text = |k: usize| tokens[sig[k]].text(src);
    let mut j = i + 1;
    // `#![…]` inner attributes are never test markers for our purposes,
    // but still need skipping.
    if j < sig.len() && text(j) == "!" {
        j += 1;
    }
    if j >= sig.len() || text(j) != "[" {
        return None;
    }
    let mut depth = 0u32;
    let mut saw_cfg = false;
    let mut saw_test_word = false;
    let mut bare_test = false;
    let open = j;
    while j < sig.len() {
        match text(j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    let is_marker = bare_test || (saw_cfg && saw_test_word);
                    return Some((j + 1, is_marker));
                }
            }
            "cfg" => saw_cfg = true,
            "test" => {
                saw_test_word = true;
                // `#[test]` exactly: `[` `test` `]`.
                if j == open + 1 {
                    bare_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Collect every `.rs` file under `paths`, skipping build output, VCS
/// metadata, and the lint fixtures (which violate the rules on
/// purpose). Files are returned sorted for deterministic output.
///
/// # Errors
///
/// An I/O message naming the unreadable path.
pub fn collect_files(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for p in paths {
        walk(p, &mut files)?;
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if matches!(name, "target" | ".git") || path_str(path).contains("crates/lint/fixtures") {
        return Ok(());
    }
    if path.is_dir() {
        let mut children = Vec::new();
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", path.display()))?;
            children.push(entry.path());
        }
        children.sort();
        for child in children {
            walk(&child, out)?;
        }
    } else if name.ends_with(".rs") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// A path rendered with `/` separators and no leading `./`.
#[must_use]
pub fn path_str(path: &Path) -> String {
    let s = path.display().to_string().replace('\\', "/");
    s.strip_prefix("./").map_or_else(|| s.clone(), String::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = "pub fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { assert!(true); }\n\
                   }\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(6));
    }

    #[test]
    fn test_attribute_on_single_fn_scopes_just_that_item() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert!(f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn cfg_all_test_counts_as_test_marker() {
        let src = "#[cfg(all(test, unix))]\nmod helpers { pub fn h() {} }\nfn live() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashSet;\nfn live() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn files_under_tests_dirs_are_all_test() {
        let f = SourceFile::new("crates/x/tests/battery.rs".into(), "fn a() {}".into());
        assert!(f.is_test_line(1));
    }

    #[test]
    fn justification_lookup_checks_line_and_predecessor() {
        let src = "// lint: ordered (sorted below)\nmap.iter()\nother()\n";
        let f = SourceFile::new("x.rs".into(), src.into());
        assert!(f.line_has_justification(2, "lint: ordered"));
        assert!(!f.line_has_justification(3, "lint: ordered"));
    }
}
