//! A small dependency-free JSON toolkit shared by every layer that
//! speaks JSON: the CLI's machine-readable reports and the
//! `sketch-server` HTTP service.
//!
//! Reading is a pull [`Reader`] — one string lexer, one number lexer,
//! nesting bounded — that a decoder drives directly when it knows the
//! shape it expects (the server's request bodies: bytes to typed request
//! in one pass, no intermediate tree), and that [`parse`] drives to build
//! a [`Value`] tree for everyone else; numbers keep their raw text so
//! `u64` identifiers and counters survive without a round-trip through
//! `f64`. Every untrusted body byte the server accepts passes through
//! this file, so it is written without panicking operations. Writing is a
//! pair of append helpers ([`push_string`], [`push_f64`]) chosen so that
//! the output of a given value is deterministic byte for byte — the
//! property the server's response cache and the store equivalence tests
//! rely on.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};
use std::str::FromStr;

use crate::error::SketchError;

/// Append `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes, and control characters.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append the shortest decimal representation of `v` that round-trips
/// through `f64` parsing (Rust's `Debug` float formatting guarantees
/// this), formatted straight into `out`. The caller must ensure `v` is
/// finite — JSON has no inf/NaN.
pub fn push_f64(out: &mut String, v: f64) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{v:?}");
}

/// A parsed JSON value. Numbers keep their raw text so `u64` keys and
/// counters survive without a round-trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, unparsed.
    Num(String),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// View as an object; `what` names the value in the error message.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not an object.
    pub fn as_object(&self, what: &str) -> Result<Obj<'_>, SketchError> {
        match self {
            Value::Obj(fields) => Ok(Obj(fields)),
            _ => Err(SketchError::Corrupt(format!("{what}: expected object"))),
        }
    }

    /// View as an array.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not an array.
    pub fn as_array(&self, what: &str) -> Result<&[Value], SketchError> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(SketchError::Corrupt(format!("{what}: expected array"))),
        }
    }

    /// View as a string.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, SketchError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(SketchError::Corrupt(format!("{what}: expected string"))),
        }
    }

    /// View as a bool.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not a bool.
    pub fn as_bool(&self, what: &str) -> Result<bool, SketchError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(SketchError::Corrupt(format!("{what}: expected bool"))),
        }
    }

    /// Parse as `u64`.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not an unsigned
    /// integer.
    pub fn as_u64(&self, what: &str) -> Result<u64, SketchError> {
        match self {
            Value::Num(raw) => from_raw(raw, what),
            _ => Err(SketchError::Corrupt(format!("{what}: expected integer"))),
        }
    }

    /// Parse as `f64`.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the value is not a number.
    pub fn as_f64(&self, what: &str) -> Result<f64, SketchError> {
        match self {
            Value::Num(raw) => from_raw(raw, what),
            _ => Err(SketchError::Corrupt(format!("{what}: expected number"))),
        }
    }
}

/// Borrowed field list of a [`Value::Obj`], so lookups read as
/// `obj.get("field")?`.
#[derive(Clone, Copy)]
pub struct Obj<'a>(&'a [(String, Value)]);

impl<'a> Obj<'a> {
    /// Look up a required field.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] when the field is absent.
    pub fn get(&self, field: &str) -> Result<&'a Value, SketchError> {
        self.0
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v)
            .ok_or_else(|| SketchError::Corrupt(format!("missing field '{field}'")))
    }

    /// Look up an optional field (`None` when absent).
    #[must_use]
    pub fn opt(&self, field: &str) -> Option<&'a Value> {
        self.0.iter().find(|(k, _)| k == field).map(|(_, v)| v)
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else
/// after the value) into a [`Value`] tree.
///
/// # Errors
///
/// A human-readable description of the first malformed byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Maximum container nesting. Both the tree builder and
/// [`Reader::skip_value`] recurse per container, so without a ceiling a
/// few tens of KB of `[` bytes from an untrusted source would overflow
/// the thread stack; 64 is far beyond any document this workspace
/// exchanges.
const MAX_DEPTH: usize = 64;

/// What the next value is, judged by its first byte (and, for the three
/// literals, the whole word).
enum Kind {
    Null,
    Bool(bool),
    Num,
    Str,
    Arr,
    Obj,
}

/// A pull reader over one JSON document: the caller asks for the value
/// it expects at each position and gets it decoded straight out of the
/// input — strings borrowed unless they contain an escape, numbers as
/// their raw text — with no intermediate tree. [`parse`] is this reader
/// driven by a tree builder, so every document is lexed by the same
/// code whichever way it is consumed.
///
/// The reader always rests on the first byte of the next value (or on a
/// closing bracket); every method that reads a value leaves it just past
/// that value. The `what` argument of the typed readers names the value
/// in the error raised when something else is there, worded as the
/// [`Value`] accessors word it.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader resting on the first value of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        let mut r = Self {
            text,
            pos: 0,
            depth: 0,
        };
        r.skip_ws();
        r
    }

    /// End of document: only whitespace may follow the value read.
    ///
    /// # Errors
    ///
    /// Names the offset of the first trailing byte.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at offset {}", self.pos))
        }
    }

    /// Read an object, handing each field's name to `field` with the
    /// reader resting on that field's value; `field` must read or
    /// [skip](Self::skip_value) exactly that value.
    ///
    /// # Errors
    ///
    /// Malformed input, nesting deeper than the ceiling, a value that is
    /// not an object, or whatever `field` returns.
    pub fn object(
        &mut self,
        what: &str,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{', what, "object")?;
        if self.close(b'}') {
            return Ok(());
        }
        loop {
            self.skip_ws();
            let name = self.lex_string()?;
            self.skip_ws();
            self.require(b':')?;
            self.skip_ws();
            field(self, name)?;
            self.skip_ws();
            if self.close(b'}') {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or '}}' at offset {}", self.pos));
            }
        }
    }

    /// Read an array, calling `item` with the reader resting on each
    /// element; `item` must read or [skip](Self::skip_value) exactly
    /// that element.
    ///
    /// # Errors
    ///
    /// As [`object`](Self::object).
    pub fn array(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[', what, "array")?;
        if self.close(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            // The separator usually follows the element directly.
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => break,
                _ => {
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        break;
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected ',' or ']' at offset {}", self.pos));
                    }
                }
            }
            self.skip_ws();
        }
        self.close(b']');
        Ok(())
    }

    /// Read a string: borrowed from the input unless it contains an
    /// escape.
    ///
    /// # Errors
    ///
    /// A malformed string, or a value that is not a string.
    pub fn string(&mut self, what: &str) -> Result<Cow<'a, str>, String> {
        match self.peek() {
            Some(b'"') => self.lex_string(),
            _ => Err(self.mismatch(what, "string")),
        }
    }

    /// Read a number as `u64`.
    ///
    /// # Errors
    ///
    /// A value that is not an unsigned integer.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        self.number(what, "integer")
    }

    /// Read a number as `f64` (possibly non-finite: `1e999` lexes).
    ///
    /// # Errors
    ///
    /// A value that is not a number.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        self.number(what, "number")
    }

    /// Read `true` or `false`.
    ///
    /// # Errors
    ///
    /// A value that is not a bool.
    pub fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.kind()? {
            Kind::Bool(b) => {
                self.pos += if b { 4 } else { 5 };
                Ok(b)
            }
            _ => Err(self.mismatch(what, "bool")),
        }
    }

    /// Read past one value of any kind, checking it as strictly as
    /// [`parse`] would (escapes, nesting depth) but keeping nothing.
    ///
    /// # Errors
    ///
    /// Malformed input or nesting deeper than the ceiling.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.kind()? {
            Kind::Null => self.pos += 4,
            Kind::Bool(_) => drop(self.bool("")?),
            Kind::Num => drop(self.lex_number()?),
            Kind::Str => drop(self.lex_string()?),
            Kind::Arr => self.array("", Self::skip_value)?,
            Kind::Obj => self.object("", |r, _| r.skip_value())?,
        }
        Ok(())
    }

    fn number<T: FromStr>(&mut self, what: &str, expected: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.kind()? {
            Kind::Num => from_raw(self.lex_number()?, what).map_err(|e| e.to_string()),
            _ => Err(self.mismatch(what, expected)),
        }
    }

    /// Build the tree under the next value.
    fn value(&mut self) -> Result<Value, String> {
        Ok(match self.kind()? {
            Kind::Null => {
                self.pos += 4;
                Value::Null
            }
            Kind::Bool(_) => Value::Bool(self.bool("")?),
            Kind::Num => Value::Num(self.lex_number()?.to_string()),
            Kind::Str => Value::Str(self.lex_string()?.into_owned()),
            Kind::Arr => {
                let mut items = Vec::new();
                self.array("", |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            Kind::Obj => {
                let mut fields = Vec::new();
                self.object("", |r, name| {
                    fields.push((name.into_owned(), r.value()?));
                    Ok(())
                })?;
                Value::Obj(fields)
            }
        })
    }

    /// The unread input.
    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        // Compact JSON has no whitespace at most positions.
        if self.peek().is_some_and(is_ws) {
            self.pos += run(self.rest(), is_ws);
        }
    }

    /// Step over `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn kind(&self) -> Result<Kind, String> {
        let rest = self.rest();
        match rest.first() {
            Some(b'n') if rest.starts_with(b"null") => Ok(Kind::Null),
            Some(b't') if rest.starts_with(b"true") => Ok(Kind::Bool(true)),
            Some(b'f') if rest.starts_with(b"false") => Ok(Kind::Bool(false)),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(c) if *c == b'-' || c.is_ascii_digit() => Ok(Kind::Num),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    /// The error for a value that is not the `expected` kind: the syntax
    /// error when it is no value at all.
    fn mismatch(&self, what: &str, expected: &str) -> String {
        match self.kind() {
            Ok(_) => SketchError::Corrupt(format!("{what}: expected {expected}")).to_string(),
            Err(syntax) => syntax,
        }
    }

    /// Step into a container: past its opening bracket and any
    /// whitespace after it, one level deeper.
    fn open(&mut self, bracket: u8, what: &str, expected: &str) -> Result<(), String> {
        if self.peek() != Some(bracket) {
            return Err(self.mismatch(what, expected));
        }
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    /// Step out of a container if its closing bracket is next.
    fn close(&mut self, bracket: u8) -> bool {
        let closed = self.eat(bracket);
        self.depth -= usize::from(closed);
        closed
    }

    /// The input from `start` to the cursor. Both always sit next to an
    /// ASCII byte, hence on a character boundary.
    fn since(&self, start: usize) -> Result<&'a str, String> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| format!("invalid utf-8 in string at offset {start}"))
    }

    /// The one number lexer: an optional `-`, then the maximal run of
    /// number characters, unparsed — `01` and `1e` lex; whoever parses
    /// the text decides.
    fn lex_number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        self.eat(b'-');
        self.pos += run(self.rest(), |b| {
            b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
        });
        match self.since(start)? {
            "" | "-" => Err(format!("malformed number at offset {start}")),
            raw => Ok(raw),
        }
    }

    /// The one string lexer.
    fn lex_string(&mut self) -> Result<Cow<'a, str>, String> {
        self.require(b'"')?;
        let start = self.pos;
        self.pos += plain_run(self.rest());
        if self.peek() == Some(b'"') {
            let s = self.since(start)?;
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut out = self.since(start)?.to_string();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err("unterminated string".into()),
            }
            // Copy the maximal escape-free run in one go.
            let start = self.pos;
            self.pos += plain_run(self.rest());
            out.push_str(self.since(start)?);
        }
    }

    /// The character an escape stands for; the cursor is just past the
    /// backslash.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.hex4()?;
                let ch = if (0xd800..0xdc00).contains(&cp) {
                    // Surrogate pair.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err("lone high surrogate".into());
                    }
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err("bad low surrogate".into());
                    }
                    char::from_u32(0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00))
                } else {
                    char::from_u32(cp)
                };
                ch.ok_or_else(|| "bad \\u escape".to_string())?
            }
            other => return Err(format!("unknown escape '\\{}'", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.text.len());
        let end = end.ok_or_else(|| "truncated \\u escape".to_string())?;
        let hex = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| "bad \\u escape".to_string())?;
        self.pos = end;
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))
    }
}

/// Length of the longest prefix of `bytes` whose every byte satisfies
/// `keep`.
fn run(bytes: &[u8], keep: impl Fn(u8) -> bool) -> usize {
    bytes.iter().take_while(|&&b| keep(b)).count()
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// A byte a string may hold as itself: not `"`, not `\\`, not a control
/// character.
fn is_plain(b: u8) -> bool {
    b != b'"' && b != b'\\' && b >= 0x20
}

/// Length of the longest prefix of `bytes` that [`is_plain`] keeps:
/// eight bytes per step while no word holds a stop byte, then byte by
/// byte from the word that does.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    // A high bit in each byte of `w` that is zero. Borrows can also mark
    // a byte above a zero one, never one below it: a word with no zero
    // byte yields no mark.
    let zero = |w: u64| w.wrapping_sub(ONES) & !w & HIGHS;
    let mut skipped = 0;
    for word in bytes.chunks_exact(8) {
        let Ok(word) = <[u8; 8]>::try_from(word) else {
            break;
        };
        let w = u64::from_le_bytes(word);
        // `w - 0x20…` borrows through a byte below 0x20 the way `zero`
        // borrows through a zero byte; `& !w` keeps bytes >= 0x80 out.
        let control = w.wrapping_sub(ONES * 0x20) & !w & HIGHS;
        if zero(w ^ (ONES * u64::from(b'"'))) | zero(w ^ (ONES * u64::from(b'\\'))) | control != 0 {
            break;
        }
        skipped += 8;
    }
    skipped + run(bytes.get(skipped..).unwrap_or_default(), is_plain)
}

/// Parse a number's raw text, wording a failure like the [`Value`]
/// accessors.
fn from_raw<T: FromStr>(raw: &str, what: &str) -> Result<T, SketchError>
where
    T::Err: Display,
{
    raw.parse()
        .map_err(|e| SketchError::Corrupt(format!("{what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null}"#).unwrap();
        let obj = v.as_object("root").unwrap();
        let arr = obj.get("a").unwrap().as_array("a").unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64("a0").unwrap(), 1);
        assert_eq!(arr[1].as_f64("a1").unwrap(), 2.5);
        assert_eq!(arr[2].as_f64("a2").unwrap(), -300.0);
        assert_eq!(obj.get("b").unwrap().as_str("b").unwrap(), "x\ny");
        assert!(obj.get("c").unwrap().as_bool("c").unwrap());
        assert!(matches!(obj.get("d").unwrap(), Value::Null));
        assert!(obj.opt("missing").is_none());
        assert!(obj.get("missing").is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_type_confusion() {
        assert!(parse("{} junk").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        let v = parse("[1]").unwrap();
        assert!(v.as_object("v").is_err());
        assert!(v.as_str("v").is_err());
        assert!(v.as_u64("v").is_err());
        assert!(v.as_bool("v").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // At the limit: fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        // One past: typed error, not a stack overflow.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&over).unwrap_err().contains("nesting"));
        // The attack shape: a huge run of '[' must not crash the
        // process (pre-fix this overflowed a 2 MiB thread stack).
        let bomb = "[".repeat(512 * 1024);
        assert!(parse(&bomb).is_err());
        // Objects count toward the same depth, and mixed nesting too.
        let obj_bomb = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&obj_bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn reader_decodes_in_place_and_borrows_what_it_can() {
        let doc = r#" {"a":["x","y\n","\u00e9"],"n":[1,-2.5e3],"skip":{"d":[1,[2,{"k":null}]]},"b":true} "#;
        let mut r = Reader::new(doc);
        let (mut strings, mut numbers, mut flag, mut names) =
            (Vec::new(), Vec::new(), false, Vec::new());
        r.object("root", |r, name| {
            names.push(name.to_string());
            match &*name {
                "a" => r.array("a", |r| {
                    strings.push(r.string("a[]")?);
                    Ok(())
                }),
                "n" => r.array("n", |r| {
                    numbers.push(r.f64("n[]")?);
                    Ok(())
                }),
                "b" => {
                    flag = r.bool("b")?;
                    Ok(())
                }
                _ => r.skip_value(),
            }
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(names, ["a", "n", "skip", "b"]);
        assert_eq!(strings, ["x", "y\n", "é"]);
        // Only a string with an escape in it is copied.
        let borrowed: Vec<bool> = strings
            .iter()
            .map(|s| matches!(s, Cow::Borrowed(_)))
            .collect();
        assert_eq!(borrowed, [true, false, false]);
        assert_eq!(numbers, [1.0, -2500.0]);
        assert!(flag);
    }

    #[test]
    fn reader_words_mismatches_like_the_tree_accessors() {
        let tree = |doc: &str| parse(doc).unwrap();
        let corrupt = |e: SketchError| e.to_string();
        assert_eq!(
            Reader::new("[1]").string("v").unwrap_err(),
            corrupt(tree("[1]").as_str("v").unwrap_err())
        );
        assert_eq!(
            Reader::new("\"7\"").u64("v").unwrap_err(),
            corrupt(tree("\"7\"").as_u64("v").unwrap_err())
        );
        assert_eq!(
            Reader::new("-7").u64("v").unwrap_err(),
            corrupt(tree("-7").as_u64("v").unwrap_err())
        );
        assert_eq!(
            Reader::new("1e").f64("v").unwrap_err(),
            corrupt(tree("1e").as_f64("v").unwrap_err())
        );
        assert_eq!(
            Reader::new("null").bool("v").unwrap_err(),
            corrupt(tree("null").as_bool("v").unwrap_err())
        );
        assert_eq!(
            Reader::new("7")
                .object("v", |r, _| r.skip_value())
                .unwrap_err(),
            corrupt(tree("7").as_object("v").err().unwrap())
        );
        assert_eq!(
            Reader::new("{}")
                .array("v", Reader::skip_value)
                .unwrap_err(),
            corrupt(tree("{}").as_array("v").unwrap_err())
        );
        // No value at all is the syntax error, wherever it is asked for.
        for doc in ["", "nope", "+1", "]"] {
            let syntax = parse(doc).unwrap_err();
            assert_eq!(Reader::new(doc).string("v").unwrap_err(), syntax);
            assert_eq!(Reader::new(doc).f64("v").unwrap_err(), syntax);
            assert_eq!(Reader::new(doc).skip_value().unwrap_err(), syntax);
        }
        // Non-finite is the caller's to refuse: the lexer takes it.
        assert_eq!(Reader::new("1e999").f64("v"), Ok(f64::INFINITY));
    }

    #[test]
    fn skipping_is_as_strict_as_parsing_and_as_bounded() {
        for doc in [
            r#"{"a":"\q"}"#,
            r#"{"a":"\ud83d"}"#,
            r#"{"a":[1,]}"#,
            r#"{"a":tru}"#,
            r#"{"a":1 "b":2}"#,
            r#"{"a":-}"#,
            r#"{"a":"x"#,
        ] {
            let mut r = Reader::new(doc);
            assert_eq!(
                r.skip_value().unwrap_err(),
                parse(doc).unwrap_err(),
                "{doc}"
            );
        }
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = Reader::new(&over).skip_value().unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}")
        );
        assert_eq!(err, parse(&over).unwrap_err());
        assert!(Reader::new(&"[".repeat(512 * 1024)).skip_value().is_err());
        // A finished container gives its level back: 3 × 40 deep in a
        // row is fine.
        let tower = "[".repeat(40) + &"]".repeat(40);
        let mut r = Reader::new(&tower);
        r.skip_value().unwrap();
        r.finish().unwrap();
        let row = format!("[{tower},{tower},{tower}]");
        assert!(parse(&row).is_ok());
        // Trailing bytes are `finish`'s to find.
        let mut r = Reader::new("{} junk");
        r.skip_value().unwrap();
        assert_eq!(r.finish().unwrap_err(), "trailing bytes at offset 3");
    }

    /// The word-at-a-time scan stops exactly where the byte-at-a-time
    /// one does: every stop byte (and its non-stop neighbours) at every
    /// offset of strings spanning several words, alone and behind an
    /// earlier stop.
    #[test]
    fn plain_run_stops_where_the_bytewise_scan_stops() {
        let bytes = [
            b'"', b'\\', 0x00, 0x01, 0x1f, 0x20, 0x21, 0x5b, 0x7f, 0x80, 0xc3, 0xff,
        ];
        for len in 0..26 {
            for at in 0..len {
                for &b in &bytes {
                    let mut text = vec![b'a'; len];
                    text[at] = b;
                    assert_eq!(
                        plain_run(&text),
                        run(&text, is_plain),
                        "{b:#x} at {at} of {len}"
                    );
                    for &later in &bytes {
                        let mut two = text.clone();
                        if let Some(slot) = two.get_mut(at + 9) {
                            *slot = later;
                        }
                        assert_eq!(plain_run(&two), run(&two, is_plain), "{b:#x}, {later:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn string_writer_roundtrips_through_parser() {
        let nasty = "quote \" slash \\ nl \n tab \t bell \u{7} unicode ✓";
        let mut out = String::new();
        push_string(&mut out, nasty);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str("s").unwrap(), nasty);
    }

    #[test]
    fn f64_writer_roundtrips_exactly() {
        for v in [0.0, -0.0, 1.5, 1e-300, 123_456_789.123_456_78, f64::MIN] {
            let mut out = String::new();
            push_f64(&mut out, v);
            let back: f64 = out.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{out}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str("s").unwrap(),
            "\u{1f600}"
        );
        assert!(parse(r#""\ud83d""#).is_err());
    }
}
