//! Golden `/query` answers: the bytes a cache miss renders for sixteen
//! request bodies over a seeded open-data lake are pinned as constants,
//! so a change to request decoding, query sketching, retrieval, the
//! estimators or the renderer that moves any answer by one byte fails
//! here.
//!
//! The bodies span the four scorers, Pearson and PM1, and the
//! exhaustive and two-pass plans; one re-spells its twin's keys with
//! `\u` escapes and whitespace between the elements. Each answer runs
//! the path a server miss runs — `QueryRequest::parse`,
//! `IndexSnapshot::build_query`, `engine::execute`,
//! `render_query_response` — and is pinned as its length and a 128-bit
//! murmur3 of its bytes.

use correlation_sketches::json::{push_f64, push_string};
use correlation_sketches::{SketchBuilder, SketchConfig};
use sketch_datagen::{generate_open_data, split_corpus, OpenDataConfig};
use sketch_hashing::murmur3_x64_128;
use sketch_index::{engine, SketchIndex};
use sketch_obs::Trace;
use sketch_server::api::{self, QueryParams, QueryRequest};
use sketch_server::IndexSnapshot;
use sketch_table::ColumnPair;

const LAKE_SEED: u64 = 0x901d;

/// `(query column, extra request fields)` of each pinned body.
const CASES: [(usize, &str); 16] = [
    (0, r#""#),
    (1, r#","scorer":"s2""#),
    (2, r#","scorer":"s3","confidence":0.9"#),
    (3, r#","scorer":"s4""#),
    (4, r#","plan":"two-pass""#),
    (5, r#","scorer":"s4","plan":"two-pass@0.99""#),
    (6, r#","estimator":"pm1""#),
    (
        7,
        r#","estimator":"pm1","scorer":"s3","plan":"two-pass","k":5"#,
    ),
    (8, r#","estimator":"pm1","scorer":"s2","candidates":12"#),
    (9, r#","k":3,"candidates":40,"min_sample":5"#),
    (10, r#","scorer":"s1","alpha":0.1"#),
    (
        11,
        r#","estimator":"pm1","scorer":"s4","plan":"two-pass@0.95""#,
    ),
    (12, r#","scorer":"s2","plan":"two-pass","k":20"#),
    (13, r#","scorer":"s3""#),
    (
        14,
        r#","estimator":"pm1","scorer":"s1","k":4,"candidates":25"#,
    ),
    (
        14,
        r#","estimator":"pm1","scorer":"s1","k":4,"candidates":25,"escaped":true"#,
    ),
];

/// `(length, murmur3_x64_128)` of each case's rendered answer.
const PINNED: [(usize, u64, u64); 16] = [
    (1121, 0x1dce5c0c1d0d2009, 0x02756b21425746f9),
    (3520, 0x2564669202a02738, 0xd7ba8ede3833fa00),
    (764, 0xe1a5b7e617c860e5, 0x7f6f8a86160e99f5),
    (1100, 0xd84366a00954d448, 0xc362a457e7719001),
    (3559, 0x16a677210ed5e1be, 0xcdfdf4f4d4ab3137),
    (3570, 0x66a53fb02f197edd, 0x83a1334bf67e7da9),
    (1092, 0x8912663c6da760eb, 0xf001fe1f2e6a9e71),
    (1782, 0x069f169e2f59f28d, 0x225f1af412ed0f7f),
    (1109, 0x954d26933d7095fc, 0x93f746f1ac75e93b),
    (1102, 0x4022dc45dc4b003e, 0x3a317f99ec413e8f),
    (3534, 0x040fd808d8573741, 0x72ce1bee40f7888c),
    (3490, 0xa760526af64682bd, 0x7d76f82a88f88233),
    (3505, 0x128c0c3939ef2d93, 0x6284eb4a7e950f9a),
    (2836, 0x14a233d9a1446f97, 0x859dcc12426fbcf5),
    (1405, 0x5371e93bad20b679, 0xe7bdc417a4943ca7),
    (1405, 0x5371e93bad20b679, 0xe7bdc417a4943ca7),
];

/// A key spelled with every character as a `\u` escape.
fn push_escaped(out: &mut String, key: &str) {
    out.push('"');
    for unit in key.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
}

/// The `/query` body for `pair`, the extra fields appended. `escaped`
/// spells every key with escapes and puts whitespace around the array
/// elements.
fn body(pair: &ColumnPair, extra: &str) -> String {
    let escaped = extra.contains("\"escaped\"");
    let sep = if escaped { " ,\n " } else { "," };
    let mut out = String::from("{\"id\":");
    push_string(&mut out, &pair.id());
    out.push_str(",\"keys\":[");
    for (i, key) in pair.keys.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        if escaped {
            push_escaped(&mut out, key);
        } else {
            push_string(&mut out, key);
        }
    }
    out.push_str("],\"values\":[");
    for (i, v) in pair.values.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        push_f64(&mut out, *v);
    }
    out.push(']');
    out.push_str(extra);
    out.push('}');
    out
}

/// What a cache miss renders for `body`.
fn answer(snap: &IndexSnapshot, body: &str) -> String {
    let req = QueryRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
    let sketch = snap.build_query(&req.body.id, req.body.keys, req.body.values);
    let (opts, alpha) = (req.params.to_options(), Some(req.params.alpha));
    let out = engine::execute(snap.index(), &sketch, &opts, alpha, &mut Trace::disabled());
    api::render_query_response(snap.generation(), &req.params, &out.results)
}

#[test]
fn query_answers_are_pinned() {
    let tables = generate_open_data(&OpenDataConfig {
        tables: 80,
        ..OpenDataConfig::nyc(LAKE_SEED)
    });
    let split = split_corpus(&tables, 0.3, LAKE_SEED);
    let builder = SketchBuilder::new(SketchConfig::with_size(256));
    let sketches = split.corpus.iter().map(|p| builder.build(p));
    let snap = IndexSnapshot::new(SketchIndex::from_sketches(sketches).unwrap());
    assert!(split.queries.len() > 15, "{}", split.queries.len());

    let answers: Vec<String> = CASES
        .iter()
        .map(|&(query, extra)| answer(&snap, &body(&split.queries[query], extra)))
        .collect();
    let got: Vec<(usize, u64, u64)> = answers
        .iter()
        .map(|rendered| {
            let (h1, h2) = murmur3_x64_128(rendered.as_bytes(), 0);
            (rendered.len(), h1, h2)
        })
        .collect();
    for (i, g) in got.iter().enumerate() {
        println!("    ({}, {:#018x}, {:#018x}), // case {i}", g.0, g.1, g.2);
    }
    assert_eq!(got, PINNED);
    // The escaped spelling decodes to its plain twin's column.
    assert_eq!(got[15], got[14]);
    // A lake where nothing joined would pin empty answers.
    let ranked = answers
        .iter()
        .filter(|a| api::extract_u64(a, "count").unwrap() > 0)
        .count();
    assert!(ranked >= 12, "{ranked} of 16 answers rank a column");
}
