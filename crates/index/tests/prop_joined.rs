//! Oracle battery for retrieval that emits the join
//! ([`SketchIndex::retrieve_joined`]): postings carry the candidates'
//! values, so stage 1 hands stage 2 its samples. The oracle is the
//! pairwise merge join it replaced: for generated corpora and queries —
//! saturated and unsaturated sketches, empty sketches, zero-overlap docs,
//! `top_n` cutting through overlap tie groups, duplicate sketch ids, both
//! hash widths — and after every step of an arbitrary insert / remove /
//! `compact()` interleaving,
//!
//! * the hit list equals [`SketchIndex::overlap_candidates`];
//! * every hit's slices equal `join_sketches(query, index.get(doc))`'s
//!   `x`/`y` bit for bit, and their length equals the overlap and the
//!   `sample_size` the engine reports;
//! * an arena dirtied by earlier retrievals answers exactly as a fresh one.

use correlation_sketches::{join_sketches, CorrelationSketch, SketchBuilder, SketchConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use sketch_hashing::TupleHasher;
use sketch_index::{engine, JoinedHits, QueryOptions, SketchIndex};
use sketch_table::ColumnPair;

/// Keys come from a small domain so overlaps — and ties between them —
/// are the common case; values include both zeros, which only a
/// comparison by bits tells apart.
fn arb_column(min_rows: usize) -> impl Strategy<Value = (Vec<u16>, Vec<f64>)> {
    let value = prop_oneof![-1e3f64..1e3, Just(0.0f64), Just(-0.0f64)];
    (vec(0u16..300, min_rows..120), vec(value, 120..121))
}

fn pair_from(table: String, keys: &[u16], values: &[f64]) -> ColumnPair {
    ColumnPair::new(
        table,
        "k",
        "v",
        keys.iter().map(|k| format!("key-{k}")).collect(),
        values[..keys.len()].to_vec(),
    )
}

/// A generated corpus: columns (possibly empty), how many of them come
/// back a second time under another name with the same keys (exact
/// overlap ties for `top_n` to cut through), and the modulus table names
/// are taken under (below the table count, ids repeat).
#[derive(Debug, Clone)]
struct Lake {
    columns: Vec<(Vec<u16>, Vec<f64>)>,
    twins: usize,
    name_modulus: usize,
    sketch_size: usize,
    narrow_hash: bool,
}

fn arb_lake() -> impl Strategy<Value = Lake> {
    (
        vec(arb_column(0), 1..12),
        0usize..4,
        prop_oneof![Just(usize::MAX), Just(3usize)],
        // 8 saturates nearly every column, 512 none.
        prop_oneof![Just(8usize), Just(64usize), Just(512usize)],
        any::<bool>(),
    )
        .prop_map(
            |(columns, twins, name_modulus, sketch_size, narrow_hash)| Lake {
                columns,
                twins,
                name_modulus,
                sketch_size,
                narrow_hash,
            },
        )
}

impl Lake {
    fn builder(&self) -> SketchBuilder {
        let hasher = if self.narrow_hash {
            TupleHasher::paper_32(7)
        } else {
            TupleHasher::default()
        };
        SketchBuilder::new(SketchConfig::with_size(self.sketch_size).hasher(hasher))
    }

    fn sketches(&self, b: &SketchBuilder) -> Vec<CorrelationSketch> {
        let named = self.columns.iter().enumerate().map(|(i, (keys, values))| {
            b.build(&pair_from(
                format!("t{}", i % self.name_modulus),
                keys,
                values,
            ))
        });
        let twins = self
            .columns
            .iter()
            .take(self.twins)
            .enumerate()
            .map(|(i, (keys, values))| {
                let shifted: Vec<f64> = values.iter().map(|v| v * 0.5 + 1.0).collect();
                b.build(&pair_from(format!("twin{i}"), keys, &shifted))
            });
        // One doc no query key can reach, and one with no keys at all.
        let disjoint = b.build(&ColumnPair::new(
            "disjoint",
            "k",
            "v",
            (0..40).map(|i| format!("other-{i}")).collect(),
            (0..40).map(f64::from).collect(),
        ));
        let empty = b.build(&pair_from("empty".into(), &[], &[]));
        named.chain(twins).chain([disjoint, empty]).collect()
    }
}

/// The `n`-th sketch an interleaving appends: staggered ranges of the
/// corpus' key domain.
fn appended(b: &SketchBuilder, n: usize) -> CorrelationSketch {
    let lo = (n * 37) % 150;
    let rows = 40 + (n * 13) % 110;
    b.build(&ColumnPair::new(
        format!("a{n}"),
        "k",
        "v",
        (lo..lo + rows).map(|i| format!("key-{i}")).collect(),
        (lo..lo + rows)
            .map(|i| ((i as f64) * 0.17 + n as f64).sin() * ((n % 7) + 1) as f64)
            .collect(),
    ))
}

/// One step of a generated interleaving — the op strategy of
/// `prop_mutable`, applied to the in-memory index.
#[derive(Debug, Clone)]
enum Op {
    /// Insert this many fresh sketches.
    Append(usize),
    /// Remove one live sketch (index projected onto the live set).
    Remove(prop::sample::Index),
    /// Renumber slots densely.
    Compact,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            (1usize..4).prop_map(Op::Append),
            any::<prop::sample::Index>().prop_map(Op::Remove),
            Just(Op::Compact),
        ],
        0..8,
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Retrieve into the (dirty) `arena` and into a fresh one, and hold both
/// against the count-only retrieval, the pairwise join of every hit, and
/// the engine's own rows.
fn assert_joined(
    index: &SketchIndex,
    query: &CorrelationSketch,
    top_n: usize,
    arena: &mut JoinedHits,
    ctx: &str,
) -> Result<(), TestCaseError> {
    index.retrieve_joined(query, top_n, arena);
    let mut fresh = JoinedHits::default();
    index.retrieve_joined(query, top_n, &mut fresh);
    let hits = index.overlap_candidates(query, top_n);
    prop_assert_eq!(arena.hits(), &hits[..], "{}: hit list", ctx);
    prop_assert_eq!(fresh.hits(), &hits[..], "{}: hit list, fresh arena", ctx);

    let opts = QueryOptions {
        overlap_candidates: top_n,
        ..QueryOptions::default()
    };
    let rows = engine::shard_candidates(index, query, &opts);
    prop_assert_eq!(rows.len(), hits.len(), "{}: engine rows", ctx);

    for (i, &(doc, overlap)) in hits.iter().enumerate() {
        let sketch = index.get(doc).expect("retrieved docs are live");
        let oracle = join_sketches(query, sketch).expect("one hasher per lake");
        let (x, y) = arena.sample(i);
        prop_assert_eq!(bits(x), bits(&oracle.x), "{}: x of doc {}", ctx, doc);
        prop_assert_eq!(bits(y), bits(&oracle.y), "{}: y of doc {}", ctx, doc);
        prop_assert_eq!(x.len(), overlap, "{}: range length vs overlap", ctx);
        prop_assert!(overlap > 0, "{}: zero-overlap doc {} retrieved", ctx, doc);
        let (fx, fy) = fresh.sample(i);
        prop_assert_eq!(bits(fx), bits(x), "{}: dirty vs fresh x", ctx);
        prop_assert_eq!(bits(fy), bits(y), "{}: dirty vs fresh y", ctx);
        prop_assert_eq!(rows[i].doc, doc, "{}: engine row order", ctx);
        prop_assert_eq!(rows[i].overlap, overlap, "{}: engine overlap", ctx);
        prop_assert_eq!(rows[i].sample_size, overlap, "{}: sample_size", ctx);
    }
    Ok(())
}

proptest! {
    #[test]
    fn retrieval_emits_the_pairwise_join(
        lake in arb_lake(),
        queries in vec(arb_column(0), 1..4),
        top_n in 0usize..9,
        ops in arb_ops(),
    ) {
        let b = lake.builder();
        let mut index = SketchIndex::from_sketches(lake.sketches(&b)).unwrap();
        // The generated queries, and always the empty one.
        let queries: Vec<CorrelationSketch> = queries
            .iter()
            .chain([&(Vec::new(), Vec::new())])
            .enumerate()
            .map(|(i, (keys, values))| b.build(&pair_from(format!("q{i}"), keys, values)))
            .collect();
        // One arena for the whole case: every retrieval after the first
        // starts from whatever the previous one left behind.
        let mut arena = JoinedHits::default();
        let check = |index: &SketchIndex, arena: &mut JoinedHits, ctx: &str| {
            for q in &queries {
                // The generated cut, and one wide enough to keep everything.
                for n in [top_n, 1_000] {
                    assert_joined(index, q, n, arena, &format!("{ctx}, {}, top_n={n}", q.id()))?;
                }
            }
            Ok::<(), TestCaseError>(())
        };
        check(&index, &mut arena, "initial")?;

        let mut next = 0usize;
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Append(n) => {
                    for _ in 0..*n {
                        index.insert(appended(&b, next)).unwrap();
                        next += 1;
                    }
                }
                Op::Remove(pick) => {
                    if !index.is_empty() {
                        let doc = pick.index(index.len()) as u32;
                        let id = index.get(doc).unwrap().id().to_string();
                        // With duplicate ids only the latest insert is
                        // addressable; an id whose latest is already gone
                        // is a no-op remove.
                        index.remove(&id);
                    }
                }
                Op::Compact => index.compact(),
            }
            check(&index, &mut arena, &format!("after step {step} ({op:?})"))?;
        }
    }
}

/// The cut through a tie group, scripted: eight sketches over one key set
/// tie on overlap, `top_n = 3` keeps the three smallest ids, and the
/// arena — dirtied first by a wider retrieval of another query — holds
/// exactly their pairwise joins.
#[test]
fn cut_through_a_tie_group_keeps_the_pairwise_joins() {
    let b = SketchBuilder::new(SketchConfig::with_size(64));
    let column = |table: &str, scale: f64| {
        b.build(&ColumnPair::new(
            table,
            "k",
            "v",
            (0..60).map(|i| format!("key-{i}")).collect(),
            (0..60).map(|i| f64::from(i) * scale).collect(),
        ))
    };
    let index =
        SketchIndex::from_sketches((0..8).rev().map(|t| column(&format!("t{t}"), f64::from(t))))
            .unwrap();
    let mut arena = JoinedHits::default();
    index.retrieve_joined(&column("wide", 9.0), 1_000, &mut arena);
    assert_eq!(arena.hits().len(), 8);

    let query = column("q", -1.0);
    assert_joined(&index, &query, 3, &mut arena, "tie group").unwrap();
    let ids: Vec<&str> = arena
        .hits()
        .iter()
        .map(|&(doc, _)| index.get(doc).unwrap().id())
        .collect();
    assert_eq!(ids, ["t0/k/v", "t1/k/v", "t2/k/v"]);
}

/// A query sketched under another hasher shares no key space with the
/// index: its join with every doc is an error, so it retrieves nothing
/// and the engine answers with no rows — as it did when the error came
/// from the per-candidate join.
#[test]
fn a_query_under_another_hasher_retrieves_nothing() {
    let b = SketchBuilder::new(SketchConfig::with_size(64));
    let index = SketchIndex::from_sketches((0..4).map(|n| appended(&b, n))).unwrap();
    let other = SketchBuilder::new(SketchConfig::with_size(64).hasher(TupleHasher::new_64(9)));
    let query = appended(&other, 0);
    let mut arena = JoinedHits::default();
    index.retrieve_joined(&appended(&b, 0), 10, &mut arena);
    assert!(!arena.hits().is_empty());
    index.retrieve_joined(&query, 10, &mut arena);
    assert!(arena.hits().is_empty());
    let opts = QueryOptions::default();
    assert!(engine::top_k_with_reports(&index, &query, &opts, 0.05).is_empty());
    assert!(engine::shard_candidates(&index, &query, &opts).is_empty());
}
