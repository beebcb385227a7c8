//! The mutable-corpus equivalence battery — the headline guarantee of
//! the delta/tombstone machinery: after **any** interleaving of appends,
//! removes, and compactions, an incrementally maintained [`SketchIndex`]
//! answers every top-k query with reports **bit-identical** to an index
//! rebuilt from scratch over the store, at every thread count.
//!
//! Three independently maintained indices are compared after every
//! operation:
//!
//! 1. `inc` — maintained purely in memory via [`SketchIndex::apply_delta`]
//!    with the same records the store writes (never re-reads the store);
//! 2. `refreshed` — catches up via [`SketchIndex::refresh_from_store`]
//!    (delta shards only), rebuilding on the typed
//!    [`SketchError::StaleGeneration`] a compaction forces;
//! 3. a from-scratch [`SketchIndex::from_store`] rebuild.

use correlation_sketches::{
    CorrelationSketch, DeltaRecord, SketchBuilder, SketchConfig, SketchError,
};
use proptest::prelude::*;
use sketch_index::{engine, QueryOptions, Scorer, SketchIndex};
use sketch_store::{append_corpus, compact_corpus, pack_corpus, remove_from_corpus, PackOptions};
use sketch_table::ColumnPair;

/// Thread counts every comparison must hold at (tier-1 acceptance set).
const THREADS: [usize; 5] = [0, 1, 2, 7, 16];

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cskb-prop-mutable-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic sketch `n` of a shape family: staggered key ranges and
/// varied signals so overlaps, ties, and estimates all occur.
fn sketch(b: &SketchBuilder, n: usize) -> CorrelationSketch {
    let lo = (n * 37) % 150;
    let rows = 40 + (n * 13) % 110;
    b.build(&ColumnPair::new(
        format!("t{n}"),
        "k",
        "v",
        (lo..lo + rows).map(|i| format!("key-{i}")).collect(),
        (lo..lo + rows)
            .map(|i| ((i as f64) * 0.17 + n as f64).sin() * ((n % 7) + 1) as f64)
            .collect(),
    ))
}

fn queries(b: &SketchBuilder) -> Vec<CorrelationSketch> {
    [(0usize, 90usize), (60, 80), (140, 60)]
        .iter()
        .map(|&(lo, rows)| {
            b.build(&ColumnPair::new(
                format!("q{lo}"),
                "k",
                "v",
                (lo..lo + rows).map(|i| format!("key-{i}")).collect(),
                (lo..lo + rows)
                    .map(|i| ((i as f64) * 0.11).sin() * 4.0)
                    .collect(),
            ))
        })
        .collect()
}

/// One step of a generated interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Append this many fresh sketches.
    Append(usize),
    /// Remove one live sketch (index projected onto the live set), or a
    /// guaranteed-unknown id when the live set is empty.
    Remove(prop::sample::Index),
    /// Fold the delta log back into base shards.
    Compact,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..4).prop_map(Op::Append),
            any::<prop::sample::Index>().prop_map(Op::Remove),
            Just(Op::Compact),
        ],
        1..8,
    )
}

/// Assert the three indices answer identically (reports and all) at
/// every thread count in [`THREADS`] — under the default options for
/// every query, and under every `s1..s4` scorer for the first query
/// (the full scorer × query sweep runs once per case, at the end).
fn assert_equivalent(
    store_dir: &std::path::Path,
    inc: &SketchIndex,
    refreshed: &SketchIndex,
    queries: &[CorrelationSketch],
    ctx: &str,
) -> Result<(), TestCaseError> {
    for &threads in &THREADS {
        let rebuilt = SketchIndex::from_store(store_dir, threads)
            .map_err(|e| TestCaseError::fail(format!("{ctx}: rebuild failed: {e}")))?;
        prop_assert_eq!(
            inc.len(),
            rebuilt.len(),
            "{}: len (threads={})",
            ctx,
            threads
        );
        let mut variants: Vec<QueryOptions> = vec![QueryOptions {
            k: 8,
            threads,
            ..QueryOptions::default()
        }];
        variants.extend(Scorer::ALL.map(|scorer| QueryOptions {
            k: 8,
            threads,
            scorer,
            confidence: 0.9,
            ..QueryOptions::default()
        }));
        for (vi, opts) in variants.iter().enumerate() {
            // Default options run on every query; the per-scorer
            // variants cover the first query here and the whole set in
            // the end-of-case sweep.
            let queries = if vi == 0 { queries } else { &queries[..1] };
            for q in queries {
                let from_inc = engine::top_k_with_reports(inc, q, opts, 0.05);
                let from_rebuilt = engine::top_k_with_reports(&rebuilt, q, opts, 0.05);
                prop_assert_eq!(
                    &from_inc,
                    &from_rebuilt,
                    "{}: incremental vs rebuild, threads={}, scorer={}, query={}",
                    ctx,
                    threads,
                    opts.scorer,
                    q.id()
                );
                let from_refreshed = engine::top_k_with_reports(refreshed, q, opts, 0.05);
                prop_assert_eq!(
                    &from_inc,
                    &from_refreshed,
                    "{}: incremental vs refreshed, threads={}, scorer={}, query={}",
                    ctx,
                    threads,
                    opts.scorer,
                    q.id()
                );
            }
        }
    }
    Ok(())
}

/// The full scored sweep: every scorer × every query × every thread
/// count, incremental vs from-scratch rebuild. Run once per generated
/// case (after the final operation) and after every step of the
/// scripted interleaving.
fn assert_scored_equivalent(
    store_dir: &std::path::Path,
    inc: &SketchIndex,
    queries: &[CorrelationSketch],
    ctx: &str,
) -> Result<(), TestCaseError> {
    for &threads in &THREADS {
        let rebuilt = SketchIndex::from_store(store_dir, threads)
            .map_err(|e| TestCaseError::fail(format!("{ctx}: rebuild failed: {e}")))?;
        for scorer in Scorer::ALL {
            let opts = QueryOptions {
                k: 8,
                threads,
                scorer,
                confidence: 0.9,
                ..QueryOptions::default()
            };
            for q in queries {
                prop_assert_eq!(
                    engine::top_k_with_reports(inc, q, &opts, 0.05),
                    engine::top_k_with_reports(&rebuilt, q, &opts, 0.05),
                    "{}: scored sweep, threads={}, scorer={}, query={}",
                    ctx,
                    threads,
                    scorer,
                    q.id()
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// The headline property. Every generated case packs a base corpus,
    /// then walks an arbitrary interleaving of append / remove / compact,
    /// checking full bit-equivalence of the three maintenance strategies
    /// after every single operation.
    #[test]
    fn any_interleaving_matches_full_rebuild(
        base_n in 2usize..7,
        sketch_size in prop_oneof![Just(16usize), Just(64), Just(200)],
        shards in 1usize..4,
        ops in arb_ops(),
    ) {
        let b = SketchBuilder::new(SketchConfig::with_size(sketch_size));
        let dir = TempDir::new();
        let store = dir.0.as_path();
        let qs = queries(&b);

        let mut next_sketch = 0usize;
        let mut fresh = || {
            let s = sketch(&b, next_sketch);
            next_sketch += 1;
            s
        };

        let base: Vec<CorrelationSketch> = (0..base_n).map(|_| fresh()).collect();
        pack_corpus(store, &base, &PackOptions { shards, threads: 2 })
            .map_err(|e| TestCaseError::fail(format!("pack: {e}")))?;
        let mut live_ids: Vec<String> = base.iter().map(|s| s.id().to_string()).collect();
        let mut inc = SketchIndex::from_sketches(base).unwrap();
        let mut refreshed = SketchIndex::from_store(store, 1)
            .map_err(|e| TestCaseError::fail(format!("initial from_store: {e}")))?;

        for (step, op) in ops.iter().enumerate() {
            let ctx = format!("step {step} {op:?}");
            let mut compacted = false;
            match op {
                Op::Append(count) => {
                    let added: Vec<CorrelationSketch> = (0..*count).map(|_| fresh()).collect();
                    append_corpus(store, &added, 2)
                        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
                    live_ids.extend(added.iter().map(|s| s.id().to_string()));
                    let records: Vec<DeltaRecord> =
                        added.into_iter().map(DeltaRecord::Sketch).collect();
                    inc.apply_delta(records)
                        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
                }
                Op::Remove(which) => {
                    if live_ids.is_empty() {
                        // Nothing live: the typed error is the contract.
                        let err = remove_from_corpus(store, &["ghost/k/v".into()], 1)
                            .expect_err("removing from an empty corpus must fail");
                        prop_assert!(
                            matches!(
                                err.as_sketch_error(),
                                Some(SketchError::TombstoneForUnknownId(_))
                            ),
                            "{}: {}", ctx, err
                        );
                        continue;
                    }
                    let id = live_ids.remove(which.index(live_ids.len()));
                    remove_from_corpus(store, std::slice::from_ref(&id), 1)
                        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
                    inc.apply_delta([DeltaRecord::Tombstone(id)])
                        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
                }
                Op::Compact => {
                    let m = compact_corpus(store, &PackOptions { shards, threads: 2 })
                        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
                    prop_assert!(m.deltas.is_empty(), "{}: deltas must be folded", ctx);
                    prop_assert_eq!(m.total as usize, live_ids.len(), "{}", ctx);
                    compacted = true;
                }
            }

            // The refresh-based maintainer: incremental when possible,
            // typed StaleGeneration → rebuild after a compaction.
            match refreshed.refresh_from_store(store, 2) {
                Ok(_) => prop_assert!(
                    !compacted,
                    "{}: refresh across a compaction must not silently succeed", ctx
                ),
                Err(e) => {
                    prop_assert!(
                        matches!(
                            e.as_sketch_error(),
                            Some(SketchError::StaleGeneration { .. })
                        ),
                        "{}: refresh failed with non-generation error: {}", ctx, e
                    );
                    prop_assert!(compacted, "{}: spurious StaleGeneration", ctx);
                    refreshed = SketchIndex::from_store(store, 2)
                        .map_err(|e| TestCaseError::fail(format!("{ctx}: rebuild: {e}")))?;
                }
            }

            assert_equivalent(store, &inc, &refreshed, &qs, &ctx)?;
        }

        // Every scorer × every query × every thread count, once per
        // case at the final corpus state.
        assert_scored_equivalent(store, &inc, &qs, "final state")?;
    }
}

/// A deterministic scripted interleaving covering the tricky corners in
/// one readable sequence: remove-from-base, remove-just-appended,
/// re-append of a removed id, compaction mid-stream, and churn after
/// compaction.
#[test]
fn scripted_interleaving_matches_rebuild_everywhere() {
    let b = SketchBuilder::new(SketchConfig::with_size(64));
    let dir = TempDir::new();
    let store = dir.0.as_path();
    let qs = queries(&b);

    let base: Vec<CorrelationSketch> = (0..6).map(|n| sketch(&b, n)).collect();
    pack_corpus(
        store,
        &base,
        &PackOptions {
            shards: 3,
            threads: 2,
        },
    )
    .unwrap();
    let mut inc = SketchIndex::from_sketches(base.clone()).unwrap();

    let step = |inc: &SketchIndex, tag: &str| {
        for &threads in &THREADS {
            let rebuilt = SketchIndex::from_store(store, threads).unwrap();
            let opts = QueryOptions {
                k: 10,
                threads,
                ..QueryOptions::default()
            };
            for q in &qs {
                assert_eq!(
                    engine::top_k_with_reports(inc, q, &opts, 0.05),
                    engine::top_k_with_reports(&rebuilt, q, &opts, 0.05),
                    "{tag}: threads={threads} query={}",
                    q.id()
                );
            }
        }
        // Scored paths must hold the same equivalence after every step.
        assert_scored_equivalent(store, inc, &qs, tag).unwrap();
    };

    // Append two, remove one base + the first appended, re-append a
    // removed base id (as a different sketch shape), compact, then keep
    // mutating after the compaction.
    let added: Vec<CorrelationSketch> = (6..8).map(|n| sketch(&b, n)).collect();
    append_corpus(store, &added, 2).unwrap();
    inc.apply_delta(
        added
            .iter()
            .cloned()
            .map(DeltaRecord::Sketch)
            .collect::<Vec<_>>(),
    )
    .unwrap();
    step(&inc, "after append");

    let gone = vec![base[2].id().to_string(), added[0].id().to_string()];
    remove_from_corpus(store, &gone, 1).unwrap();
    inc.apply_delta(
        gone.iter()
            .cloned()
            .map(DeltaRecord::Tombstone)
            .collect::<Vec<_>>(),
    )
    .unwrap();
    step(&inc, "after removes");

    let revived = {
        let mut s = sketch(&b, 2);
        assert_eq!(s.id(), base[2].id(), "shape family reuses the id");
        // Different content under the same id: rebuild must see the new
        // bytes, proving the revival really lands at the end of the log.
        s = b.build(&ColumnPair::new(
            "t2",
            "k",
            "v",
            (0..70).map(|i| format!("key-{i}")).collect(),
            (0..70).map(|i| (i as f64) * 0.5).collect(),
        ));
        s
    };
    append_corpus(store, std::slice::from_ref(&revived), 1).unwrap();
    inc.apply_delta([DeltaRecord::Sketch(revived)]).unwrap();
    step(&inc, "after revival");

    compact_corpus(
        store,
        &PackOptions {
            shards: 2,
            threads: 2,
        },
    )
    .unwrap();
    step(&inc, "after compact");

    let late: Vec<CorrelationSketch> = (8..10).map(|n| sketch(&b, n)).collect();
    append_corpus(store, &late, 1).unwrap();
    inc.apply_delta(
        late.iter()
            .cloned()
            .map(DeltaRecord::Sketch)
            .collect::<Vec<_>>(),
    )
    .unwrap();
    remove_from_corpus(store, &[base[5].id().to_string()], 1).unwrap();
    inc.apply_delta([DeltaRecord::Tombstone(base[5].id().to_string())])
        .unwrap();
    step(&inc, "after post-compact churn");
}

/// `refresh_from_store` applies exactly the new generations — no
/// re-reads, no skips — and reports typed staleness across a compaction.
#[test]
fn refresh_applies_only_new_generations() {
    let b = SketchBuilder::new(SketchConfig::with_size(32));
    let dir = TempDir::new();
    let store = dir.0.as_path();

    let base: Vec<CorrelationSketch> = (0..4).map(|n| sketch(&b, n)).collect();
    pack_corpus(store, &base, &PackOptions::default()).unwrap();
    let mut idx = SketchIndex::from_store(store, 1).unwrap();
    assert_eq!(idx.generation(), 0);
    assert_eq!(
        idx.refresh_from_store(store, 1).unwrap(),
        0,
        "no-op refresh"
    );

    append_corpus(store, &[sketch(&b, 4), sketch(&b, 5)], 1).unwrap();
    remove_from_corpus(store, &[base[0].id().to_string()], 1).unwrap();
    assert_eq!(idx.refresh_from_store(store, 2).unwrap(), 3);
    assert_eq!(idx.generation(), 2);
    assert_eq!(idx.len(), 5);
    assert_eq!(
        idx.refresh_from_store(store, 1).unwrap(),
        0,
        "already current"
    );

    // A second, stale index refreshes across both generations at once.
    let mut stale = SketchIndex::from_sketches(base.clone()).unwrap();
    assert_eq!(stale.refresh_from_store(store, 1).unwrap(), 3);
    assert_eq!(stale.len(), idx.len());

    // Compaction invalidates incremental refresh with the typed error.
    compact_corpus(store, &PackOptions::default()).unwrap();
    let err = idx.refresh_from_store(store, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::StaleGeneration {
                found: 2,
                expected: 3
            })
        ),
        "{err}"
    );
    // And a rebuild lands on the compacted generation.
    let mut idx = SketchIndex::from_store(store, 1).unwrap();
    assert_eq!(idx.generation(), 3);
    assert_eq!(idx.len(), 5);

    // Re-packing the directory from scratch resets generations to 0 — a
    // different store lineage. The index (still at generation 3) must
    // get the typed staleness error, never a silent "already current".
    pack_corpus(store, &base, &PackOptions::default()).unwrap();
    let err = idx.refresh_from_store(store, 1).unwrap_err();
    assert!(
        matches!(
            err.as_sketch_error(),
            Some(SketchError::StaleGeneration { found: 3, .. })
        ),
        "{err}"
    );
}

/// The acceptance criterion's reclamation check, at the library level:
/// after compaction the on-disk record count equals the live count (no
/// tombstones or shadowed appends remain) and a full read round-trips.
#[test]
fn compaction_reclaims_all_tombstoned_records() {
    let b = SketchBuilder::new(SketchConfig::with_size(32));
    let dir = TempDir::new();
    let store = dir.0.as_path();

    let base: Vec<CorrelationSketch> = (0..8).map(|n| sketch(&b, n)).collect();
    pack_corpus(
        store,
        &base,
        &PackOptions {
            shards: 2,
            threads: 1,
        },
    )
    .unwrap();
    append_corpus(store, &[sketch(&b, 8)], 1).unwrap();
    let gone: Vec<String> = [1usize, 4, 8]
        .iter()
        .map(|&n| format!("t{n}/k/v"))
        .collect();
    remove_from_corpus(store, &gone, 1).unwrap();

    let before = sketch_store::read_corpus(store, 2).unwrap();
    assert_eq!(before.len(), 6);
    let m = compact_corpus(
        store,
        &PackOptions {
            shards: 3,
            threads: 2,
        },
    )
    .unwrap();
    // Manifest shard counts sum exactly to the live total: nothing
    // tombstoned survives on disk.
    let on_disk: u64 = m.shards.iter().map(|s| s.count).sum();
    assert_eq!(on_disk, 6);
    assert_eq!(m.total, 6);
    assert!(m.deltas.is_empty());
    assert_eq!(sketch_store::read_corpus(store, 2).unwrap(), before);

    // Not a single delta file is left behind.
    let leftovers: Vec<String> = std::fs::read_dir(store)
        .unwrap()
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| n.starts_with("delta-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}
