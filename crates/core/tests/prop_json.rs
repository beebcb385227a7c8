//! Property tests for the JSON toolkit now that [`json::parse`] is the
//! pull [`Reader`] driving a tree builder: whatever the writers render,
//! the parser reads back unchanged, and the reader's skip accepts and
//! rejects exactly the documents the tree builder does, in the same
//! words.

use proptest::prelude::*;
use proptest::TestRng;

use correlation_sketches::json::{self, push_f64, push_string, Reader, Value};

/// Characters worth putting in strings: plain, multi-byte, outside the
/// BMP, and everything the writer must escape.
const CHARS: [char; 12] = [
    'a', 'Z', '7', ' ', 'é', '✓', '😀', '"', '\\', '\n', '\t', '\u{7}',
];

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(9))
        .map(|_| CHARS[rng.below(CHARS.len())])
        .collect()
}

/// A random tree at most `depth` containers deep.
fn tree(rng: &mut TestRng, depth: usize) -> Value {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => {
            let mut raw = String::new();
            match rng.below(3) {
                // Identifiers and counters travel as integers…
                0 => raw.push_str(&rng.next_u64().to_string()),
                // …everything else as the shortest round-tripping float.
                1 => push_f64(&mut raw, (rng.unit_f64() - 0.5) * 1e6),
                _ => push_f64(&mut raw, f64::from_bits(rng.next_u64() >> 2)),
            }
            Value::Num(raw)
        }
        3 => Value::Str(text(rng)),
        4 => Value::Arr((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Value::Obj(
            (0..rng.below(4))
                .map(|_| (text(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Render with the workspace's own writers, whitespace sprinkled where
/// JSON allows it.
fn render(v: &Value, rng: &mut TestRng, out: &mut String) {
    let mut gap = |out: &mut String| out.push_str(["", "", " ", "\n\t"][rng.below(4)]);
    gap(out);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(raw) => out.push_str(raw),
        Value::Str(s) => push_string(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (name, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_string(out, name);
                out.push(':');
                render(value, rng, out);
            }
            out.push('}');
        }
    }
    out.push_str(["", " ", "\r\n"][rng.below(3)]);
}

/// Read past the whole document without building anything.
fn skip(doc: &str) -> Result<(), String> {
    let mut r = Reader::new(doc);
    r.skip_value()?;
    r.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_then_parse_is_the_identity(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let v = tree(&mut rng, 4);
        let mut doc = String::new();
        render(&v, &mut rng, &mut doc);
        prop_assert_eq!(json::parse(&doc), Ok(v), "{}", doc);
        prop_assert_eq!(skip(&doc), Ok(()), "{}", doc);
    }

    /// One lexer: damage a rendered document anywhere and the skipping
    /// reader and the tree builder still agree — both accept, or both
    /// reject with the same message at the same offset.
    #[test]
    fn skip_and_parse_agree_on_damaged_documents(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let v = tree(&mut rng, 4);
        let mut doc = String::new();
        render(&v, &mut rng, &mut doc);
        let mut bytes = doc.into_bytes();
        for _ in 0..1 + rng.below(2) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len());
            match rng.below(4) {
                0 => drop(bytes.remove(at)),
                1 => bytes[at] = b"\"\\{}[],:0e-u x"[rng.below(14)],
                2 => bytes.insert(at, b"\"\\{}[],:0e-u x"[rng.below(14)]),
                _ => bytes.truncate(at),
            }
        }
        // The reader takes `&str`: damage that breaks the encoding is
        // rejected before it, by whoever owns the bytes.
        let doc = String::from_utf8(bytes);
        prop_assume!(doc.is_ok());
        let doc = doc.unwrap_or_default();
        prop_assert_eq!(skip(&doc).err(), json::parse(&doc).err(), "{}", doc);
    }
}
