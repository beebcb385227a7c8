//! Differential and hostile-input battery for the one-pass request
//! decoder ([`QueryRequest::parse`], `api::parse_reports_request`,
//! [`api::extract_docs`]).
//!
//! The reference is the decoder this crate shipped before: build the
//! whole `json::Value` tree, then look each field up in it. It is kept
//! here verbatim, test-only, and every generated, mutated, truncated or
//! hand-written body must come out of both the same way: the same
//! `Ok`/`Err` split (the 200/400 split of the server), equal requests,
//! equal fingerprints. Where a body has one defect the two also word it
//! identically; where it has several they may name different ones — the
//! tree looked fields up in a fixed order, the one-pass decoder meets
//! them in document order.

use proptest::prelude::*;
use proptest::TestRng;
use sketch_index::{PlanMode, Scorer};
use sketch_stats::CorrelationEstimator;

use crate::api::{self, QueryParams, QueryRequest};

/// The tree-walking decoder, as it stood before the reader replaced it.
mod reference {
    use correlation_sketches::json;
    use sketch_index::DocId;

    use crate::api::{QueryBody, QueryParams, QueryRequest, MAX_SELECTION};

    fn bounded(v: &json::Value, field: &str) -> Result<usize, String> {
        let n = usize::try_from(v.as_u64(field).map_err(|e| e.to_string())?)
            .map_err(|e| format!("{field}: {e}"))?;
        if n > MAX_SELECTION {
            return Err(format!("{field} must be <= {MAX_SELECTION}, got {n}"));
        }
        Ok(n)
    }

    fn parse_params(obj: json::Obj<'_>, defaults: &QueryParams) -> Result<QueryParams, String> {
        let mut params = *defaults;
        if let Some(v) = obj.opt("k") {
            params.k = bounded(v, "k")?;
        }
        if let Some(v) = obj.opt("candidates") {
            params.candidates = bounded(v, "candidates")?;
        }
        if let Some(v) = obj.opt("estimator") {
            params.estimator = v
                .as_str("estimator")
                .map_err(|e| e.to_string())?
                .parse()
                .map_err(|e| format!("estimator: {e}"))?;
        }
        if let Some(v) = obj.opt("min_sample") {
            params.min_sample = usize::try_from(v.as_u64("min_sample").map_err(|e| e.to_string())?)
                .map_err(|e| format!("min_sample: {e}"))?;
        }
        if let Some(v) = obj.opt("alpha") {
            let alpha = v.as_f64("alpha").map_err(|e| e.to_string())?;
            if !(alpha > 0.0 && alpha < 1.0) {
                return Err(format!("alpha must be in (0, 1), got {alpha}"));
            }
            params.alpha = alpha;
        }
        if let Some(v) = obj.opt("scorer") {
            params.scorer = v
                .as_str("scorer")
                .map_err(|e| e.to_string())?
                .parse()
                .map_err(|e| format!("scorer: {e}"))?;
        }
        if let Some(v) = obj.opt("confidence") {
            let confidence = v.as_f64("confidence").map_err(|e| e.to_string())?;
            if !(confidence > 0.0 && confidence < 1.0) {
                return Err(format!("confidence must be in (0, 1), got {confidence}"));
            }
            params.confidence = confidence;
        }
        if let Some(v) = obj.opt("plan") {
            params.plan = v
                .as_str("plan")
                .map_err(|e| e.to_string())?
                .parse()
                .map_err(|e| format!("plan: {e}"))?;
        }
        Ok(params)
    }

    fn parse_trace(obj: json::Obj<'_>) -> Result<bool, String> {
        match obj.opt("trace") {
            Some(v) => v.as_bool("trace").map_err(|e| e.to_string()),
            None => Ok(false),
        }
    }

    fn parse_body(obj: json::Obj<'_>) -> Result<QueryBody, String> {
        let id = match obj.opt("id") {
            Some(v) => v.as_str("id").map_err(|e| e.to_string())?.to_string(),
            None => "query".to_string(),
        };
        let keys = obj
            .get("keys")
            .and_then(|v| v.as_array("keys"))
            .map_err(|e| e.to_string())?
            .iter()
            .map(|v| v.as_str("keys[]").map(str::to_string))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let values = obj
            .get("values")
            .and_then(|v| v.as_array("values"))
            .map_err(|e| e.to_string())?
            .iter()
            .map(|v| v.as_f64("values[]"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        if keys.len() != values.len() {
            return Err(format!(
                "keys ({}) and values ({}) must have equal length",
                keys.len(),
                values.len()
            ));
        }
        if keys.is_empty() {
            return Err("keys must be non-empty".into());
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(format!("values must be finite, got {bad}"));
        }
        Ok(QueryBody {
            id,
            keys: keys.into(),
            values,
        })
    }

    pub fn parse_query(body: &[u8], defaults: &QueryParams) -> Result<QueryRequest, String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("non-utf8 body: {e}"))?;
        let value = json::parse(text)?;
        let obj = value.as_object("request").map_err(|e| e.to_string())?;
        Ok(QueryRequest {
            body: parse_body(obj)?,
            params: parse_params(obj, defaults)?,
            trace: parse_trace(obj)?,
        })
    }

    pub fn extract_docs(body: &[u8]) -> Result<Vec<DocId>, String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("non-utf8 body: {e}"))?;
        let value = json::parse(text)?;
        let obj = value.as_object("request").map_err(|e| e.to_string())?;
        obj.get("docs")
            .and_then(|v| v.as_array("docs"))
            .map_err(|e| e.to_string())?
            .iter()
            .map(|v| {
                v.as_u64("docs[]")
                    .map_err(|e| e.to_string())
                    .and_then(|d| DocId::try_from(d).map_err(|e| format!("docs[]: {e}")))
            })
            .collect()
    }
}

/// Two sets of server defaults: absent fields must resolve against
/// whichever the server was started with.
fn defaults() -> [QueryParams; 2] {
    let hostile = QueryParams {
        k: 1,
        candidates: 7,
        estimator: CorrelationEstimator::Qn,
        min_sample: 9,
        alpha: 0.2,
        scorer: Scorer::S4,
        confidence: 0.5,
        plan: PlanMode::two_pass(),
    };
    [QueryParams::default(), hostile]
}

/// Both decoders accepted — then with equal values — or both refused.
fn same<T: PartialEq + std::fmt::Debug>(
    which: &str,
    body: &[u8],
    new: Result<T, String>,
    old: Result<T, String>,
) {
    let agreed = match (&new, &old) {
        (Ok(new), Ok(old)) => new == old,
        (Err(_), Err(_)) => true,
        _ => false,
    };
    let shown = body.get(..400).unwrap_or(body);
    assert!(
        agreed,
        "{which}: new {new:?} vs reference {old:?} on {}",
        String::from_utf8_lossy(shown)
    );
}

/// The differential check: `body` through every decoder and its
/// reference, under both sets of defaults. Requests are compared
/// together with their fingerprints.
fn agree(body: &[u8]) {
    for d in &defaults() {
        same(
            "/query",
            body,
            QueryRequest::parse(body, d).map(|req| (req.fingerprint(), req)),
            reference::parse_query(body, d).map(|req| (req.fingerprint(), req)),
        );
        // `/shard_reports`: one pass against the two the worker used to
        // make.
        let twice = reference::parse_query(body, d)
            .and_then(|req| reference::extract_docs(body).map(|docs| (req, docs)));
        same(
            "/shard_reports",
            body,
            api::parse_reports_request(body, d),
            twice,
        );
    }
    same(
        "extract_docs",
        body,
        api::extract_docs(body),
        reference::extract_docs(body),
    );
}

/// A seeded generator of request bodies: mostly valid, every part of
/// them occasionally hostile.
struct Gen(TestRng);

/// Number spellings the lexer takes whole: fine, odd-but-parseable,
/// unparseable, non-finite — and a few it stops in the middle of.
const NUMBERS: [&str; 24] = [
    "0",
    "-0",
    "1",
    "1.5",
    "-2.25",
    "1e3",
    "1E-3",
    "12345.678901234567",
    "01",
    "1.",
    "-.5",
    "1e",
    "1e+",
    "--1",
    "1-2",
    "1.2.3",
    "1e999",
    "-1e999",
    "-",
    "+1",
    "NaN",
    "0x10",
    "1f",
    ".5",
];

/// Spellings for the integer fields.
const INTEGERS: [&str; 12] = [
    "3",
    "0",
    "10",
    "100000",
    "100001",
    "1099511627776",
    "-1",
    "1.0",
    "1e2",
    "007",
    "18446744073709551616",
    "\"3\"",
];

/// Contents of generated strings: ASCII, two- and three-byte
/// characters, one outside the BMP (a surrogate pair when escaped), and
/// the characters JSON must escape.
const CHARS: [char; 14] = [
    'a', 'b', 'k', 'z', '0', ' ', '/', 'é', '✓', '😀', '"', '\\', '\n', '\u{1}',
];

/// String literals no decoder may accept.
const BAD_STRINGS: [&str; 8] = [
    r#""\ud83d""#,
    r#""\ud83dA""#,
    r#""\udc00""#,
    r#""\x41""#,
    r#""\u12""#,
    "\"tab\there\"",
    r#""open"#,
    r#""\u00zz""#,
];

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.below(n)
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    /// One of `from`: of its first `good` entries nine times in ten.
    fn mostly<T: Copy>(&mut self, from: &[T], good: usize) -> T {
        let upto = if self.chance(90) { good } else { from.len() };
        from[self.below(upto)]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\n", "\t \r\n"])
    }

    /// A string literal for `s`: each character as itself, its short
    /// escape, or `\uXXXX` (a surrogate pair outside the BMP).
    fn spell(&mut self, s: &str, escape_percent: usize) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            let must = matches!(c, '"' | '\\') || u32::from(c) < 0x20;
            if must || self.chance(escape_percent) {
                match c {
                    '"' | '\\' | '/' if self.chance(50) => {
                        out.push('\\');
                        out.push(c);
                    }
                    '\n' if self.chance(50) => out.push_str("\\n"),
                    _ => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            let hex = format!("{unit:04x}");
                            out.push_str("\\u");
                            out.push_str(&if self.chance(50) {
                                hex.to_uppercase()
                            } else {
                                hex
                            });
                        }
                    }
                }
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    fn text(&mut self) -> String {
        let len = self.below(7);
        (0..len).map(|_| self.pick(&CHARS)).collect()
    }

    /// A key as a data column holds one: up to 40 characters, mostly
    /// plain ASCII, so its escapes, control and non-ASCII characters
    /// fall anywhere — inside an eight-byte word of the body or across
    /// two.
    fn key(&mut self) -> String {
        let len = self.below(41);
        let text: String = (0..len)
            .map(|_| {
                if self.chance(85) {
                    self.pick(&['a', 'Z', '0', '9', '-', '_', ' ', '.'])
                } else {
                    self.pick(&CHARS)
                }
            })
            .collect();
        let escape = self.pick(&[0, 0, 2, 10]);
        let mut literal = self.spell(&text, escape);
        if self.chance(3) {
            // A raw control character, which no string may hold,
            // anywhere between the quotes.
            let mut at = 1 + self.below(literal.len() - 1);
            while !literal.is_char_boundary(at) {
                at += 1;
            }
            literal.insert(at, self.pick(&['\u{0}', '\t', '\u{1f}']));
        }
        literal
    }

    /// A number spelled from parts: a sign, leading zeros, digits, a
    /// fraction, an exponent with or without its sign — and now and
    /// then a part missing that the grammar needs (a lone `-`, `1.`,
    /// `1e+`).
    fn number(&mut self) -> String {
        let mut out = String::new();
        if self.chance(30) {
            out.push('-');
        }
        if self.chance(5) {
            return out; // a lone sign, or nothing
        }
        for _ in 0..self.pick(&[0, 0, 0, 1, 2]) {
            out.push('0');
        }
        for _ in 0..1 + self.below(6) {
            out.push(self.pick(&['0', '1', '5', '9']));
        }
        if self.chance(40) {
            out.push('.');
            for _ in 0..self.pick(&[0, 1, 3, 17]) {
                out.push(self.pick(&['0', '2', '7']));
            }
        }
        if self.chance(25) {
            out.push(self.pick(&['e', 'E']));
            if self.chance(60) {
                out.push(self.pick(&['+', '-']));
            }
            for _ in 0..self.pick(&[0, 1, 2, 3]) {
                out.push(self.pick(&['0', '3', '9']));
            }
        }
        out
    }

    /// A string value: usually fine, sometimes malformed, sometimes not
    /// a string at all.
    fn string(&mut self) -> String {
        match self.below(100) {
            0 => self.pick(&BAD_STRINGS).to_string(),
            1 => self.pick(&["7", "null", "true", "[]", "{}"]).to_string(),
            _ => {
                let text = self.text();
                self.spell(&text, 15)
            }
        }
    }

    /// Any value at all, nested up to `depth` — what an unknown field
    /// (or a repeated known one) may hold.
    fn junk(&mut self, depth: usize) -> String {
        let scalar = depth == 0 || self.chance(40);
        match self.below(if scalar { 4 } else { 7 }) {
            0 => self
                .mostly(&["null", "true", "false", "nul", "tru", "False"], 3)
                .to_string(),
            1 => self.mostly(&NUMBERS, 18).to_string(),
            2 | 3 => self.string(),
            4 => {
                let items: Vec<String> = (0..self.below(4)).map(|_| self.junk(depth - 1)).collect();
                format!("[{}{}]", self.ws(), items.join(","))
            }
            5 => {
                let fields = (0..self.below(4))
                    .map(|_| format!("{}:{}", self.string(), self.junk(depth - 1)))
                    .collect();
                self.object(fields)
            }
            // A tower around the nesting ceiling (64): under it, at it,
            // over it, depending on where this value sits.
            _ => {
                let height = 50 + self.below(16);
                let (open, close) = self.pick(&[("[", "]"), ("{\"a\":", "}")]);
                format!("{}1{}", open.repeat(height), close.repeat(height))
            }
        }
    }

    fn array(&mut self, items: Vec<String>) -> String {
        let mut out = format!("[{}", self.ws());
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(self.ws());
            out.push_str(item);
            out.push_str(self.ws());
        }
        // A trailing comma now and then.
        if self.below(200) == 0 {
            out.push(',');
        }
        out.push(']');
        out
    }

    /// An object of `fields` (`"name":value` each), in random order.
    fn object(&mut self, mut fields: Vec<String>) -> String {
        for i in (1..fields.len()).rev() {
            fields.swap(i, self.below(i + 1));
        }
        let mut out = format!("{{{}", self.ws());
        for (i, field) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(self.ws());
            out.push_str(field);
            out.push_str(self.ws());
        }
        out.push('}');
        out
    }

    /// `"name":value`, the name spelled with escapes now and then.
    fn field(&mut self, name: &str, value: &str) -> String {
        let escape = if self.chance(15) { 40 } else { 0 };
        format!(
            "{}{}:{}{}",
            self.spell(name, escape),
            self.ws(),
            self.ws(),
            value
        )
    }

    /// The fields of one query column: `keys` and `values` (equal
    /// lengths, mostly), `id` sometimes, any of them twice or of the
    /// wrong type sometimes, unknown fields beside them.
    fn column(&mut self) -> Vec<String> {
        let rows = if self.chance(2) { 0 } else { 1 + self.below(6) };
        let mut fields = Vec::new();
        let long = self.chance(50);
        if !self.chance(1) {
            let keys = (0..rows)
                .map(|_| if long { self.key() } else { self.string() })
                .collect();
            let keys = if self.chance(1) {
                self.junk(1)
            } else {
                self.array(keys)
            };
            fields.push(self.field("keys", &keys));
        }
        if self.chance(5) {
            // A second, well-formed `keys`: only the first counts.
            let keys = (0..1 + self.below(3)).map(|_| self.key()).collect();
            let keys = self.array(keys);
            fields.push(self.field("keys", &keys));
        }
        if !self.chance(1) {
            let rows = if self.chance(2) { rows + 1 } else { rows };
            let values = (0..rows)
                .map(|_| {
                    if long && self.chance(80) {
                        return self.number();
                    }
                    let upto = if self.chance(97) { 11 } else { NUMBERS.len() };
                    NUMBERS[self.below(upto)].to_string()
                })
                .collect();
            let values = if self.chance(1) {
                self.junk(1)
            } else {
                self.array(values)
            };
            fields.push(self.field("values", &values));
        }
        if self.chance(40) {
            let id = self.string();
            fields.push(self.field("id", &id));
        }
        self.extras(&mut fields, &["id", "keys", "values"]);
        fields
    }

    /// Repeats of `known` fields (holding anything) and unknown fields.
    fn extras(&mut self, fields: &mut Vec<String>, known: &[&str]) {
        while self.chance(25) {
            let name = if self.chance(50) {
                self.pick(known).to_string()
            } else {
                self.text()
            };
            let value = self.junk(3);
            fields.push(self.field(&name, &value));
        }
    }

    /// The shared parameter fields and `trace`, each present sometimes.
    fn shared(&mut self) -> Vec<String> {
        let mut fields = Vec::new();
        let quoted = |g: &mut Self, names: &[&str]| {
            let name = g.mostly(names, names.len() - 2);
            if g.chance(97) {
                g.spell(name, 5)
            } else {
                g.junk(1)
            }
        };
        for name in ["k", "candidates", "min_sample"] {
            if self.chance(25) {
                let n = self.mostly(&INTEGERS, 4);
                fields.push(self.field(name, n));
            }
        }
        for name in ["alpha", "confidence"] {
            if self.chance(25) {
                let p = self.mostly(
                    &[
                        "0.05", "0.9", "0.5", "1e-3", "0", "1", "1.5", "-0.1", "\"0.5\"",
                    ],
                    4,
                );
                fields.push(self.field(name, p));
            }
        }
        if self.chance(25) {
            let v = quoted(self, &["pearson", "spearman", "qn", "psychic", ""]);
            fields.push(self.field("estimator", &v));
        }
        if self.chance(25) {
            let v = quoted(self, &["s1", "s2", "s3", "s4", "rp*cih", "s9", "S1 "]);
            fields.push(self.field("scorer", &v));
        }
        if self.chance(25) {
            let v = quoted(
                self,
                &[
                    "exhaustive",
                    "two-pass",
                    "two-pass@0.995",
                    "two-pass@1.5",
                    "x",
                ],
            );
            fields.push(self.field("plan", &v));
        }
        if self.chance(30) {
            let v = self.mostly(&["true", "false", "true", "\"yes\"", "1", "null"], 3);
            fields.push(self.field("trace", v));
        }
        let known = [
            "k",
            "candidates",
            "estimator",
            "min_sample",
            "alpha",
            "scorer",
            "confidence",
            "plan",
            "trace",
            "docs",
        ];
        self.extras(&mut fields, &known);
        fields
    }

    /// A `/query`-shaped body, with a `docs` field (the `/shard_reports`
    /// form) half the time.
    fn single(&mut self) -> String {
        let mut fields = self.column();
        fields.extend(self.shared());
        if self.chance(50) {
            let docs = (0..self.below(4))
                .map(|_| {
                    let doc = ["0", "4", "17", "4294967295", "4294967296", "-1", "\"4\""];
                    self.mostly(&doc, 4).to_string()
                })
                .collect();
            let docs = self.array(docs);
            fields.push(self.field("docs", &docs));
        }
        self.object(fields)
    }

    /// A few byte-level edits: drop, overwrite, insert, repeat a
    /// stretch, cut short.
    fn mutate(&mut self, body: &mut Vec<u8>) {
        let alphabet = b"\"\\{}[],:01-.eE+ tu\x00\x80\xc3\xa9";
        let edits = if self.chance(70) {
            1
        } else {
            2 + self.below(2)
        };
        for _ in 0..edits {
            if body.is_empty() {
                return;
            }
            let at = self.below(body.len());
            match self.below(5) {
                0 => drop(body.remove(at)),
                1 => body[at] = self.pick(alphabet),
                2 => body.insert(at, self.pick(alphabet)),
                3 => {
                    let end = (at + 1 + self.below(12)).min(body.len());
                    let stretch = body[at..end].to_vec();
                    body.splice(at..at, stretch);
                }
                _ => body.truncate(at),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn generated_bodies_decode_as_the_tree_walk_did(seed in any::<u64>()) {
        let mut g = Gen(TestRng::new(seed));
        let body = g.single();
        agree(body.as_bytes());
    }

    #[test]
    fn mutated_bodies_decode_as_the_tree_walk_did(seed in any::<u64>()) {
        let mut g = Gen(TestRng::new(seed));
        let mut body = g.single().into_bytes();
        g.mutate(&mut body);
        agree(&body);
    }

    /// A body cut short inside its `keys` or `values` array: mid-key,
    /// mid-escape, mid-number, right after a comma or an element.
    #[test]
    fn bodies_cut_inside_an_array_decode_as_the_tree_walk_did(seed in any::<u64>()) {
        let mut g = Gen(TestRng::new(seed));
        let body = g.single();
        let arrays: Vec<usize> = ["\"keys\"", "\"values\""]
            .iter()
            .filter_map(|name| body.find(name))
            .collect();
        let from = arrays.get(g.below(arrays.len().max(1))).copied().unwrap_or(0);
        let cut = from + g.below(body.len() - from + 1);
        agree(&body.as_bytes()[..cut]);
    }

}

const SINGLE: &str = r#"{"id":"taxi 😀","keys":["a","café","\"q\""], "values":[1.5,-0,1e3],
    "k":3,"candidates":7,"estimator":"spearman","min_sample":5,"alpha":0.1,"scorer":"s4",
    "confidence":0.9,"plan":"two-pass@0.995","trace":true,"docs":[4,0,9],"extra":{"a":[1,{"b":null}]}}"#;
/// Nested objects and arrays in an unknown field, beside a valid column.
const NESTED: &str = r#"{"queries":[{"keys":["a"],"values":[1]},{"id":"q2","keys":["b","c"],"values":[2,-3e-2],"note":[[]]}],
    "k":5,"trace":true,"keys":["x"],"values":[1]}"#;

/// Cutting a request short anywhere is an error on every decoder (the
/// whole fixture, and the fixture with trailing garbage, bracket the
/// cuts).
#[test]
fn truncation_at_every_byte_of_a_fixture() {
    for fixture in [SINGLE, NESTED] {
        let bytes = fixture.as_bytes();
        let [d, _] = defaults();
        assert!(QueryRequest::parse(bytes, &d).is_ok());
        for cut in 0..bytes.len() {
            let head = &bytes[..cut];
            agree(head);
            assert!(QueryRequest::parse(head, &d).is_err(), "cut at {cut}");
            assert!(api::extract_docs(head).is_err(), "cut at {cut}");
        }
        agree(bytes);
        agree(format!("{fixture} x").as_bytes());
    }
}

/// Bodies with one defect (or none) are worded exactly as the tree walk
/// worded them.
#[test]
fn single_defects_keep_their_wording() {
    let [d, _] = defaults();
    for body in [
        r#"{"values":[1]}"#,
        r#"{"keys":["a"]}"#,
        r#"{"keys":["a"],"values":[]}"#,
        r#"{"keys":[],"values":[]}"#,
        r#"{"keys":"a","values":[1]}"#,
        r#"{"keys":[1],"values":[1]}"#,
        r#"{"keys":["a"],"values":["1"]}"#,
        r#"{"keys":["a"],"values":[1e]}"#,
        r#"{"keys":["a"],"values":[1e999]}"#,
        r#"{"keys":["a"],"values":[1],"id":7}"#,
        r#"{"keys":["a"],"values":[1],"alpha":2}"#,
        r#"{"keys":["a"],"values":[1],"alpha":"x"}"#,
        r#"{"keys":["a"],"values":[1],"confidence":0}"#,
        r#"{"keys":["a"],"values":[1],"estimator":"psychic"}"#,
        r#"{"keys":["a"],"values":[1],"estimator":3}"#,
        r#"{"keys":["a"],"values":[1],"scorer":"s9"}"#,
        r#"{"keys":["a"],"values":[1],"plan":"two-pass@1.5"}"#,
        r#"{"keys":["a"],"values":[1],"k":1099511627776}"#,
        r#"{"keys":["a"],"values":[1],"k":-1}"#,
        r#"{"keys":["a"],"values":[1],"k":"3"}"#,
        r#"{"keys":["a"],"values":[1],"candidates":100001}"#,
        r#"{"keys":["a"],"values":[1],"min_sample":1.5}"#,
        r#"{"queries":[{"keys":["a"],"values":[1]}],"keys":["a"],"values":[1],"trace":"yes"}"#,
        r#"{"keys":["a"],"values":[1],"docs":[4294967296]}"#,
        r#"{"keys":["a"],"values":[1],"docs":7}"#,
        r#"{"keys":["a"],"values":[1],"x":[1,]}"#,
        r#"{"keys":["a"],"values":[1],"x":"\q"}"#,
        r#"{"keys":["a"],"values":[1]} x"#,
        r#"{"keys":["a"],"values":[1],}"#,
        r#"{"keys":["a" "b"],"values":[1]}"#,
        r#"{"keys":["a"],"values":[1],"x":nope}"#,
        r#"not json"#,
        r#"[1,2]"#,
        r#""#,
        r#"{"queries":7}"#,
        r#"{"queries":[]}"#,
    ] {
        let bytes = body.as_bytes();
        agree(bytes);
        assert_eq!(
            QueryRequest::parse(bytes, &d).err(),
            reference::parse_query(bytes, &d).err(),
            "{body}"
        );
        assert_eq!(
            api::extract_docs(bytes).err(),
            reference::extract_docs(bytes).err(),
            "{body}"
        );
    }
    // Invalid UTF-8 never reaches the reader.
    agree(b"{\"keys\":[\"\xff\"],\"values\":[1]}");
}

/// A raw control character is refused wherever it sits in a long key —
/// inside an eight-byte word of the string or in its tail — and an
/// escaped one is decoded.
#[test]
fn a_raw_control_character_in_a_long_key_is_refused() {
    let [d, _] = defaults();
    let key = "key-0123456789-abcdefghij-klmnopqrst";
    for at in 0..=key.len() {
        for raw in ['\u{0}', '\t', '\u{1f}'] {
            let mut spelled = key.to_string();
            spelled.insert(at, raw);
            let body = format!(r#"{{"keys":["{spelled}"],"values":[1]}}"#);
            agree(body.as_bytes());
            assert!(QueryRequest::parse(body.as_bytes(), &d).is_err(), "{at}");
            let escaped = format!("{}\\u001f{}", &key[..at], &key[at..]);
            let body = format!(r#"{{"keys":["{escaped}"],"values":[1]}}"#);
            let req = QueryRequest::parse(body.as_bytes(), &d).unwrap();
            let want = format!("{}\u{1f}{}", &key[..at], &key[at..]);
            assert_eq!(req.body.keys.iter().collect::<Vec<_>>(), [want.as_str()]);
        }
    }
}

/// The attack the nesting ceiling exists for, aimed at a field the
/// decoder only skips: half a megabyte of `[` must come back as a typed
/// error, not a stack overflow.
#[test]
fn a_bracket_bomb_in_an_unknown_field_is_an_error() {
    let [d, _] = defaults();
    for bomb in ["[".repeat(512 * 1024), "{\"a\":".repeat(128 * 1024)] {
        let single = format!(r#"{{"keys":["a"],"values":[1],"docs":[1],"x":{bomb}"#);
        let nested = format!(r#"{{"queries":[{{"keys":["a"],"values":[1],"x":{bomb}"#);
        for body in [single, nested] {
            agree(body.as_bytes());
            let err = QueryRequest::parse(body.as_bytes(), &d).unwrap_err();
            assert!(err.contains("nesting") || err.contains("missing"), "{err}");
            assert!(api::extract_docs(body.as_bytes())
                .unwrap_err()
                .contains("nesting"));
        }
    }
}

/// First occurrence wins, wherever and however the repeat is spelled —
/// and the repeat need only be well-formed.
#[test]
fn a_repeated_field_counts_the_first_time_only() {
    let [d, _] = defaults();
    let body = br#"{"k":3,"keys":["a"],"k":"nine","values":[1],"keys":7,"trace":true,"trace":0}"#;
    agree(body);
    let req = QueryRequest::parse(body, &d).unwrap();
    assert_eq!((req.params.k, req.body.keys.len(), req.trace), (3, 1, true));
    // …but not if the first one is the bad one.
    let body = br#"{"k":"nine","keys":["a"],"k":3,"values":[1]}"#;
    agree(body);
    assert!(QueryRequest::parse(body, &d).is_err());
}
