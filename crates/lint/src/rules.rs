//! The six rules, each distilled from a bug or invariant this
//! workspace has already paid for once:
//!
//! | id | invariant | origin |
//! |----|-----------|--------|
//! | R1 | no unordered `HashMap`/`HashSet` iteration on result paths | PR 1/3: bit-identical answers at every thread count |
//! | R2 | no `partial_cmp(..).unwrap()`, no `sort_by` over `partial_cmp` | PR 5: NaN scores sorted *first* under descending order |
//! | R3 | no panics (unwrap/expect/panic!/indexing) in request handling | PR 4: a worker panic must never be reachable from input |
//! | R4 | every `unsafe` carries a `// SAFETY:` comment | PR 4: the `signal(2)` carve-out discipline |
//! | R5 | no clock reads in fingerprint/cache-key/codec modules | PR 4/8: cache identity is a pure function of request + generation |
//! | R6 | no bare `as` integer casts in codec / HTTP parse paths | PR 2: truncation must be a typed error, not silent wraparound |
//!
//! Every matcher works on the lexed significant-token stream (so
//! strings and comments can never false-positive) and is deliberately
//! heuristic where full type inference would be needed — with an
//! explicit, greppable escape hatch (`// lint: ordered`,
//! `// lint: cast-ok`) where the heuristic or the rule itself needs a
//! carve-out. R3 has none.

use crate::engine::{Diagnostic, SourceFile};

/// A rule: id, one-line summary, path scope, and the checker.
pub struct Rule {
    /// Stable id used in diagnostics and the `--json` counts.
    pub id: &'static str,
    /// One-line description (shown in `--json` summaries).
    pub summary: &'static str,
    /// Whether the rule runs on a given workspace-relative path.
    pub applies: fn(&str) -> bool,
    /// The checker. Called with paths already filtered by `applies`
    /// on workspace runs; fixture self-tests call it directly.
    pub check: fn(&SourceFile) -> Vec<Diagnostic>,
}

/// All rules, in id order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "R1",
        summary: "no HashMap/HashSet iteration in result-producing crates \
                  without a `// lint: ordered` justification",
        applies: r1_applies,
        check: check_r1,
    },
    Rule {
        id: "R2",
        summary: "no `partial_cmp(..).unwrap()` and no sort/min/max over bare \
                  `partial_cmp` (use total_cmp or desc_score_nan_last)",
        applies: |_| true,
        check: check_r2,
    },
    Rule {
        id: "R3",
        summary: "no unwrap/expect/panic!/indexing in server request paths \
                  outside tests (no escape hatch: restructure)",
        applies: r3_applies,
        check: check_r3,
    },
    Rule {
        id: "R4",
        summary: "every `unsafe` block/fn/impl preceded by a `// SAFETY:` comment",
        applies: |_| true,
        check: check_r4,
    },
    Rule {
        id: "R5",
        summary: "no Instant::now/SystemTime::now in fingerprint, cache-key, \
                  or codec modules",
        applies: r5_applies,
        check: check_r5,
    },
    Rule {
        id: "R6",
        summary: "no bare `as` integer casts in the binary codec or HTTP \
                  parse paths (use try_into with typed errors)",
        applies: r6_applies,
        check: check_r6,
    },
];

/// Look up a rule by id.
#[must_use]
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

// ---------------------------------------------------------------------
// R1: determinism — unordered-map iteration on result paths.
// ---------------------------------------------------------------------

/// The crates whose output feeds query answers; iteration order there
/// is observable as result order, doc ids, or serialized bytes.
fn r1_applies(path: &str) -> bool {
    [
        "crates/core/src/",
        "crates/index/src/",
        "crates/ranking/src/",
        "crates/stats/src/",
        "crates/store/src/",
    ]
    .iter()
    .any(|p| path.contains(p))
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

fn check_r1(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Pass A: names bound to HashMap/HashSet types in this file — via
    // type ascription (`name: HashMap<..>` on fields, lets, params,
    // possibly through `&`/`mut`) or `let name = HashMap::new()`-style
    // construction.
    let mut map_names: Vec<String> = Vec::new();
    for i in 0..f.sig_len() {
        let t = f.sig_text(i);
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        // Walk back over `&`, `mut`, and lifetimes to the `:`.
        let mut j = i;
        while j > 0 {
            let prev = f.sig_text(j - 1);
            if prev == "&"
                || prev == "mut"
                || f.sig_tok(j - 1).kind == crate::lexer::TokenKind::Lifetime
            {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && f.sig_text(j - 1) == ":" {
            let name = f.sig_text(j - 2);
            if is_plain_ident(f, j - 2) {
                map_names.push(name.to_string());
            }
        }
        // `let [mut] name = HashMap::…` / `let name;  name = HashMap::…`.
        if i >= 2 && f.sig_text(i - 1) == "=" {
            let mut k = i - 1;
            // Look a short distance back for `let`; the token after it
            // (skipping `mut`) is the binding name.
            let lo = k.saturating_sub(6);
            while k > lo {
                k -= 1;
                if f.sig_text(k) == "let" {
                    let mut n = k + 1;
                    if f.sig_text(n) == "mut" {
                        n += 1;
                    }
                    if is_plain_ident(f, n) {
                        map_names.push(f.sig_text(n).to_string());
                    }
                    break;
                }
            }
        }
    }
    map_names.sort();
    map_names.dedup();

    // Pass B: iteration over any such name.
    for i in 0..f.sig_len() {
        let line = f.sig_tok(i).line;
        if f.is_test_line(line) {
            continue;
        }
        let t = f.sig_text(i);
        // `name.iter()` / `self.name.into_iter()` / `name.drain(..)`.
        if map_names.iter().any(|n| n == t)
            && i + 3 < f.sig_len()
            && f.sig_text(i + 1) == "."
            && ITER_METHODS.contains(&f.sig_text(i + 2))
            && f.sig_text(i + 3) == "("
        {
            let at = i + 2;
            let m_line = f.sig_tok(at).line;
            if !f.line_has_justification(m_line, "lint: ordered") {
                diags.push(f.diag_at(
                    at,
                    "R1",
                    format!(
                        "iteration over unordered `{t}` observable on a result path; \
                         order must not depend on hash layout — sort the output or \
                         justify with `// lint: ordered (reason)`"
                    ),
                ));
            }
        }
        // `for x in [&[mut]] name … {`.
        if t == "for" {
            let mut j = i + 1;
            let mut saw_in = false;
            while j < f.sig_len() && f.sig_text(j) != "{" {
                if f.sig_text(j) == "in" {
                    saw_in = true;
                } else if saw_in && map_names.iter().any(|n| n == f.sig_text(j)) {
                    // Skip `name.method(..)` chains already handled (or
                    // benign lookups like `map.get(..)`); flag only when
                    // the map itself is the iterated expression — i.e.
                    // not immediately followed by `.`.
                    let next = if j + 1 < f.sig_len() {
                        f.sig_text(j + 1)
                    } else {
                        ""
                    };
                    if next != "." {
                        let m_line = f.sig_tok(j).line;
                        if !f.line_has_justification(m_line, "lint: ordered") {
                            diags.push(f.diag_at(
                                j,
                                "R1",
                                format!(
                                    "`for` loop over unordered `{}` on a result path; \
                                     iteration order depends on hash layout — sort first \
                                     or justify with `// lint: ordered (reason)`",
                                    f.sig_text(j)
                                ),
                            ));
                        }
                    }
                    break;
                }
                j += 1;
            }
        }
    }
    diags
}

fn is_plain_ident(f: &SourceFile, i: usize) -> bool {
    f.sig_tok(i).kind == crate::lexer::TokenKind::Ident
        && f.sig_text(i)
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
}

// ---------------------------------------------------------------------
// R2: float ordering — the frozen PR-5 NaN-sorts-first bug.
// ---------------------------------------------------------------------

const SORTERS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_cached_key",
    "max_by",
    "min_by",
    "binary_search_by",
];

fn check_r2(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for i in 0..f.sig_len() {
        let t = f.sig_text(i);
        // (a) `.partial_cmp(..).unwrap()` / `.expect(..)`.
        if t == "partial_cmp" && i > 0 && f.sig_text(i - 1) == "." {
            if let Some(close) = skip_balanced(f, i + 1, "(", ")") {
                if close + 2 < f.sig_len()
                    && f.sig_text(close + 1) == "."
                    && matches!(f.sig_text(close + 2), "unwrap" | "expect")
                {
                    diags.push(
                        f.diag_at(
                            i,
                            "R2",
                            "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp` \
                         (or `desc_score_nan_last` on score paths)"
                                .to_string(),
                        ),
                    );
                }
            }
        }
        // (b) a bare `partial_cmp` anywhere inside a comparator closure
        // passed to sort/min/max: NaN makes the comparison lie even
        // when unwrap is avoided (the PR-5 bug shape).
        if SORTERS.contains(&t) && i + 1 < f.sig_len() && f.sig_text(i + 1) == "(" {
            if let Some(close) = skip_balanced(f, i + 1, "(", ")") {
                for j in i + 2..close {
                    if f.sig_text(j) == "partial_cmp" {
                        diags.push(f.diag_at(
                            j,
                            "R2",
                            format!(
                                "`{t}` over `partial_cmp` mis-orders NaN (the PR-5 \
                                 NaN-sorts-first bug); use `total_cmp` or \
                                 `desc_score_nan_last`"
                            ),
                        ));
                    }
                }
            }
        }
    }
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags.dedup_by(|a, b| a.line == b.line && a.col == b.col && a.rule == b.rule);
    diags
}

/// Given `open` pointing at the opening delimiter, return the index of
/// its matching close.
fn skip_balanced(f: &SourceFile, open: usize, open_s: &str, close_s: &str) -> Option<usize> {
    if open >= f.sig_len() || f.sig_text(open) != open_s {
        return None;
    }
    let mut depth = 0usize;
    for j in open..f.sig_len() {
        let t = f.sig_text(j);
        if t == open_s {
            depth += 1;
        } else if t == close_s {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// R3: panic containment in the server request path.
// ---------------------------------------------------------------------

fn r3_applies(path: &str) -> bool {
    [
        "crates/server/src/conn.rs",
        "crates/server/src/api.rs",
        "crates/server/src/http.rs",
        "crates/server/src/pipeline.rs",
        "crates/server/src/server.rs",
        "crates/server/src/coordinator.rs",
        // Every untrusted body byte is lexed here before any of the
        // above sees it.
        "crates/core/src/json.rs",
    ]
    .iter()
    .any(|p| path.ends_with(p))
}

fn check_r3(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for i in 0..f.sig_len() {
        let tok = f.sig_tok(i);
        if f.is_test_line(tok.line) {
            continue;
        }
        let t = f.sig_text(i);
        // `.unwrap()` / `.expect(..)` method calls.
        if matches!(t, "unwrap" | "expect")
            && i > 0
            && f.sig_text(i - 1) == "."
            && i + 1 < f.sig_len()
            && f.sig_text(i + 1) == "("
        {
            diags.push(f.diag_at(
                i,
                "R3",
                format!(
                    "`.{t}()` in a request-path file can panic on hostile input; \
                     return a typed error response (or restructure so it cannot \
                     fail)"
                ),
            ));
        }
        // `panic!` family.
        if matches!(t, "panic" | "unreachable" | "todo" | "unimplemented")
            && i + 1 < f.sig_len()
            && f.sig_text(i + 1) == "!"
        {
            diags.push(f.diag_at(
                i,
                "R3",
                format!("`{t}!` in a request-path file; convert to a typed error"),
            ));
        }
        // Slice/array indexing: `[` in postfix position. Previous
        // significant token being an identifier, literal, `)` or `]`
        // means the bracket indexes a value; `#[attr]`, `vec![..]`,
        // types `&[u8]`, and array literals all have other predecessors.
        if t == "[" && i > 0 {
            let prev = f.sig_tok(i - 1);
            let prev_t = prev.text(&f.src);
            let postfix = matches!(
                prev.kind,
                crate::lexer::TokenKind::Ident
                    | crate::lexer::TokenKind::NumLit
                    | crate::lexer::TokenKind::StrLit
            ) || prev_t == ")"
                || prev_t == "]";
            // Keywords that precede array-literal or slice-pattern
            // brackets, not indexing.
            let keyword = matches!(
                prev_t,
                "return" | "in" | "if" | "else" | "match" | "mut" | "as" | "dyn"
            );
            if postfix && !keyword {
                diags.push(
                    f.diag_at(
                        i,
                        "R3",
                        "slice/array indexing in a request-path file can panic; use \
                     `.get(..)` or restructure (iterate, zip) instead"
                            .to_string(),
                    ),
                );
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------
// R4: unsafe hygiene.
// ---------------------------------------------------------------------

fn check_r4(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for i in 0..f.sig_len() {
        if f.sig_text(i) != "unsafe" {
            continue;
        }
        let line = f.sig_tok(i).line;
        // A `// SAFETY:` comment on the same line or within the three
        // lines above (comment blocks directly over the unsafe site).
        let lo = line.saturating_sub(3).max(1);
        let documented = (lo..=line).any(|l| f.line_text(l).contains("SAFETY:"));
        if !documented {
            diags.push(
                f.diag_at(
                    i,
                    "R4",
                    "`unsafe` without a `// SAFETY:` comment immediately above; \
                 state the invariant that makes this sound"
                        .to_string(),
                ),
            );
        }
    }
    diags
}

// ---------------------------------------------------------------------
// R5: clock discipline in identity-defining modules.
// ---------------------------------------------------------------------

/// Modules whose output *is* an identity — cache keys, fingerprints,
/// serialized bytes. A clock read here would make identity depend on
/// when, not what.
fn r5_applies(path: &str) -> bool {
    [
        "crates/server/src/api.rs",
        "crates/server/src/cache.rs",
        "crates/core/src/binary.rs",
        "crates/core/src/json.rs",
    ]
    .iter()
    .any(|p| path.ends_with(p))
        || path.contains("crates/hashing/src/")
}

fn check_r5(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for i in 0..f.sig_len() {
        let tok = f.sig_tok(i);
        if f.is_test_line(tok.line) {
            continue;
        }
        let t = f.sig_text(i);
        if (t == "Instant" || t == "SystemTime")
            && i + 3 < f.sig_len()
            && f.sig_text(i + 1) == ":"
            && f.sig_text(i + 2) == ":"
            && f.sig_text(i + 3) == "now"
        {
            diags.push(f.diag_at(
                i,
                "R5",
                format!(
                    "`{t}::now()` in a fingerprint/cache-key/codec module; cache \
                     identity must be a pure function of request + generation"
                ),
            ));
        }
    }
    diags
}

// ---------------------------------------------------------------------
// R6: lossy casts in codec and parse paths.
// ---------------------------------------------------------------------

fn r6_applies(path: &str) -> bool {
    [
        "crates/core/src/binary.rs",
        "crates/store/src/shard.rs",
        "crates/server/src/http.rs",
    ]
    .iter()
    .any(|p| path.ends_with(p))
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

fn check_r6(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for i in 0..f.sig_len() {
        let tok = f.sig_tok(i);
        if f.is_test_line(tok.line) {
            continue;
        }
        if f.sig_text(i) != "as" || i + 1 >= f.sig_len() {
            continue;
        }
        let target = f.sig_text(i + 1);
        if !INT_TYPES.contains(&target) {
            continue;
        }
        if f.line_has_justification(tok.line, "lint: cast-ok") {
            continue;
        }
        diags.push(f.diag_at(
            i,
            "R6",
            format!(
                "bare `as {target}` cast in a codec/parse path silently truncates \
                 or wraps; use `try_into`/`From` with a typed error (or justify \
                 with `// lint: cast-ok (reason)`)"
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_scopes_are_as_documented() {
        assert!(r1_applies("crates/index/src/engine.rs"));
        assert!(!r1_applies("crates/server/src/api.rs"));
        assert!(r3_applies("crates/server/src/http.rs"));
        assert!(r3_applies("crates/server/src/pipeline.rs"));
        assert!(r3_applies("crates/server/src/server.rs"));
        assert!(r3_applies("crates/core/src/json.rs"));
        assert!(!r3_applies("crates/core/src/binary.rs"));
        assert!(!r3_applies("crates/server/src/snapshot.rs"));
        assert!(r5_applies("crates/hashing/src/murmur3.rs"));
        assert!(!r5_applies("crates/server/src/server.rs"));
        assert!(r6_applies("crates/core/src/binary.rs"));
        assert!(!r6_applies("crates/core/src/builder.rs"));
    }

    #[test]
    fn rule_lookup_by_id() {
        assert_eq!(rule_by_id("R4").unwrap().id, "R4");
        assert!(rule_by_id("R9").is_none());
    }
}
