//! Coordinator-side merge for scatter-gather sharded serving: re-cut
//! the global candidate list from per-shard rows, score it, and use
//! per-row **score bounds** to early-terminate — all provably lossless
//! against a single-process query over the union corpus.
//!
//! # The equivalence chain
//!
//! A partitioned corpus is the concatenation of its shards' live views
//! (shard order), so the union index assigns global doc id
//! `offset(shard) + local_doc` where `offset` is the prefix sum of the
//! shards' live sketch counts. Each worker answers
//! [`engine::shard_candidates`]: its local top-`overlap_candidates` by
//! the retrieval order (overlap desc, sketch id asc, doc asc),
//! estimated **exhaustively** (shard-local pruning is unsound — see
//! [`engine::shard_candidates`]). The merge then reproduces the
//! single-process pipeline exactly:
//!
//! 1. **Re-cut.** The global top-`overlap_candidates` under the same
//!    retrieval order. Any row in the global top-C precedes fewer than
//!    C rows within its own shard, so it is in that shard's local
//!    top-C: the shard lists together cover the global cut, and the
//!    re-cut selects exactly the rows a union-index retrieval would.
//! 2. **Score.** [`sketch_ranking::score_estimates`] over the full
//!    merged list — the same list membership as single-process, so
//!    even `s4`'s list-level CI normalization is bit-identical.
//! 3. **Bound + terminate.** Each row gets a score interval: `(0, ∞)`
//!    under a non-prunable scorer, `(0, 0)` with no estimate (its
//!    score is exactly 0), else [`sketch_ranking::score_bounds`] of
//!    its own estimate, *clamped to contain the actual score*
//!    (`lb' = min(lb, score)`, `ub' = max(ub, score)`). With
//!    `τ = kth_largest(lb', k)`, at least `k` rows satisfy
//!    `score ≥ lb' ≥ τ`, while any row with `ub' < τ` has
//!    `score ≤ ub' < τ` **strictly** — it ranks below at least `k`
//!    rows by score alone, tie-breaks never reached. Dropping it
//!    cannot change the top-k. Unlike the two-pass planner's bound
//!    (sound at the pass-1 confidence level), the clamp makes this
//!    unconditional: the interval contains the realized score by
//!    construction, so termination is lossless deterministically.
//! 4. **Rank.** The survivors alone are ranked by the engine's result
//!    order (score desc NaN-last, overlap desc, id asc, doc asc) and
//!    truncated to `k` — identical to ranking the full list, by step 3.
//!
//! Only the `shipped` survivors ever need their full uncertainty
//! report fetched from their shard; the `terminated` rows never ship
//! one — that is the scatter-gather bandwidth win, gated by
//! `bound_terminates_rows_under_prunable_scorers` below and, over real
//! sockets, by `prop_shard`'s `early_termination_ships_strictly_fewer_rows`.

use sketch_ranking::{score_bounds, score_estimates};
use sketch_stats::ScoredEstimate;

use crate::engine::{self, QueryOptions, QueryResult, ShardCandidate};
use crate::inverted::DocId;
use crate::plan::kth_largest;

/// One shard's contribution to a merge: its candidate rows (in the
/// shard's retrieval order) plus the shard's live sketch count, which
/// fixes the shard's global doc-id offset.
#[derive(Debug, Clone, Copy)]
pub struct ShardRows<'a> {
    /// The shard's [`engine::shard_candidates`] rows.
    pub rows: &'a [ShardCandidate],
    /// Live sketches in the shard (its doc-id space, not the row
    /// count) — the union corpus is the concatenation of the shards'
    /// live views, so global doc ids are offset by the prefix sum of
    /// these.
    pub sketches: usize,
}

/// One globally ranked winner, with its provenance: which shard holds
/// it and under which shard-local doc id (for report fetches).
#[derive(Debug, Clone, PartialEq)]
pub struct MergedWinner {
    /// Index of the owning shard in the merge input.
    pub shard: usize,
    /// Doc id within the owning shard.
    pub local_doc: DocId,
    /// The ranked result, with `doc` in the union corpus's global
    /// doc-id space — bit-identical to the single-process answer.
    pub result: QueryResult,
}

/// What a merge concluded: the global top-k plus the early-termination
/// accounting the oracle battery replays.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The global top-k, ranked exactly as a single-process query over
    /// the union corpus would rank it.
    pub winners: Vec<MergedWinner>,
    /// Rows in the merged candidate list after the global re-cut.
    pub merged: usize,
    /// Rows whose score bound reached the termination threshold — the
    /// only rows that would ever need their full report shipped.
    pub shipped: usize,
    /// Rows early-terminated by the bound (`merged - shipped`); their
    /// reports never ship.
    pub terminated: usize,
    /// The termination threshold `τ` — the k-th best clamped score
    /// lower bound over the merged list (`0.0` when fewer than `k`
    /// rows exist, so nothing terminates).
    pub threshold: f64,
}

/// Score interval for one merged row, clamped to contain its realized
/// list-level score (making termination sound unconditionally — see
/// the module docs). Non-finite scores defensively widen to `(0, ∞)`:
/// no information, never terminate.
fn row_bounds(opts: &QueryOptions, est: Option<&ScoredEstimate>, score: f64) -> (f64, f64) {
    if !opts.scorer.prunable() {
        return (0.0, f64::INFINITY);
    }
    let (lb, ub) = match est {
        None => (0.0, 0.0),
        Some(e) => score_bounds(opts.scorer, e),
    };
    if score.is_finite() {
        (lb.min(score), ub.max(score))
    } else {
        (0.0, f64::INFINITY)
    }
}

/// Merge per-shard candidate rows into the global top-k with
/// early-termination accounting. Pure: a function of the rows, the
/// shard sketch counts, and `(overlap_candidates, k, scorer)` — the
/// replay half of the shard-merge oracle calls it directly on raw
/// `/shard_query` data to check the coordinator's `shipped` count.
///
/// `opts.estimator`, `opts.plan`, etc. are not consulted: estimation
/// already happened on the workers.
#[must_use]
pub fn merge_shard_candidates(shards: &[ShardRows<'_>], opts: &QueryOptions) -> MergeOutcome {
    struct Slot<'a> {
        shard: usize,
        global_doc: u64,
        row: &'a ShardCandidate,
    }
    let mut offset = 0u64;
    let slots = shards.iter().enumerate().flat_map(|(shard, s)| {
        let base = offset;
        offset += s.sketches as u64;
        s.rows.iter().map(move |row| Slot {
            shard,
            global_doc: base + u64::from(row.doc),
            row,
        })
    });
    // The global re-cut, under exactly the inverted index's retrieval
    // order: overlap desc, sketch id asc, doc asc (global). `top_k_by`
    // returns ascending comparator order = retrieval order.
    let merged = crate::select::top_k_by(slots, opts.overlap_candidates, |a, b| {
        b.row
            .overlap
            .cmp(&a.row.overlap)
            .then_with(|| a.row.id.cmp(&b.row.id))
            .then(a.global_doc.cmp(&b.global_doc))
    });

    // List-level scoring over the full merged list (s4 normalizes CI
    // lengths across it), then the termination bound per row.
    let estimates: Vec<Option<ScoredEstimate>> = merged.iter().map(|s| s.row.est).collect();
    let scores = score_estimates(opts.scorer, &estimates);
    let bounds: Vec<(f64, f64)> = merged
        .iter()
        .zip(&scores)
        .map(|(slot, &score)| row_bounds(opts, slot.row.est.as_ref(), score))
        .collect();
    let lbs: Vec<f64> = bounds.iter().map(|&(lb, _)| lb).collect();
    let threshold = kth_largest(&lbs, opts.k);
    let survivors: Vec<usize> = (0..merged.len())
        .filter(|&i| bounds[i].1 >= threshold)
        .collect();
    let shipped = survivors.len();

    let items = survivors.into_iter().map(|i| {
        let slot = &merged[i];
        MergedWinner {
            shard: slot.shard,
            local_doc: slot.row.doc,
            result: QueryResult {
                doc: DocId::try_from(slot.global_doc).unwrap_or(DocId::MAX),
                id: slot.row.id.clone(),
                overlap: slot.row.overlap,
                sample_size: slot.row.sample_size,
                estimate: slot.row.est.map(|e| e.estimate),
                ci_lo: slot.row.est.map(|e| e.ci_lo),
                ci_hi: slot.row.est.map(|e| e.ci_hi),
                score: scores[i],
            },
        }
    });
    let winners = crate::select::top_k_by(items, opts.k, |a, b| {
        engine::result_order(&a.result, &b.result)
    });

    MergeOutcome {
        winners,
        merged: merged.len(),
        shipped,
        terminated: merged.len() - shipped,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::SketchIndex;
    use crate::Scorer;
    use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    fn est(estimate: f64, ci_lo: f64, ci_hi: f64, n: usize) -> Option<ScoredEstimate> {
        Some(ScoredEstimate {
            estimate,
            ci_lo,
            ci_hi,
            sample_size: n,
        })
    }

    fn cand(doc: DocId, id: &str, overlap: usize, e: Option<ScoredEstimate>) -> ShardCandidate {
        ShardCandidate {
            doc,
            id: id.to_string(),
            overlap,
            sample_size: e.map_or(2, |e| e.sample_size),
            est: e,
        }
    }

    fn opts(k: usize, candidates: usize, scorer: Scorer) -> QueryOptions {
        QueryOptions {
            k,
            overlap_candidates: candidates,
            scorer,
            ..QueryOptions::default()
        }
    }

    /// A corpus of many tables with staggered key ranges, split into
    /// `shards` contiguous chunks — the in-memory model of
    /// `shard_corpus`.
    fn sharded_fixture(
        tables: usize,
        shards: usize,
    ) -> (SketchIndex, Vec<SketchIndex>, CorrelationSketch) {
        let b = SketchBuilder::new(SketchConfig::with_size(128));
        let n = 800usize;
        let query = b.build(&ColumnPair::new(
            "query",
            "k",
            "v",
            (0..n).map(|i| format!("key-{i}")).collect(),
            (0..n).map(|i| ((i as f64) * 0.11).sin() * 5.0).collect(),
        ));
        let sketches: Vec<CorrelationSketch> = (0..tables)
            .map(|t| {
                let lo = (t * 37) % 500;
                b.build(&ColumnPair::new(
                    format!("t{t}"),
                    "k",
                    "v",
                    (lo..lo + n).map(|i| format!("key-{i}")).collect(),
                    (lo..lo + n)
                        .map(|i| ((i as f64) * 0.11 + t as f64).sin() * (t + 1) as f64)
                        .collect(),
                ))
            })
            .collect();
        let union = SketchIndex::from_sketches(sketches.iter().cloned()).unwrap();
        let chunk = tables.div_ceil(shards);
        let parts = (0..shards)
            .map(|s| {
                let lo = (s * chunk).min(tables);
                let hi = ((s + 1) * chunk).min(tables);
                SketchIndex::from_sketches(sketches[lo..hi].iter().cloned()).unwrap()
            })
            .collect();
        (union, parts, query)
    }

    /// The headline identity on a real corpus: merged shard candidates
    /// answer bit-identically to a single-process query over the union
    /// index, for every scorer, at several shard counts — and under a
    /// prunable scorer the bound terminates some rows.
    #[test]
    fn merge_matches_single_process_over_the_union() {
        for shards in [1usize, 2, 3, 5] {
            let (union, parts, query) = sharded_fixture(40, shards);
            for scorer in Scorer::ALL {
                let o = opts(6, 30, scorer);
                let expected = engine::top_k_with_plan_stats(&union, &query, &o).0;
                let rows: Vec<Vec<ShardCandidate>> = parts
                    .iter()
                    .map(|p| engine::shard_candidates(p, &query, &o))
                    .collect();
                let input: Vec<ShardRows<'_>> = rows
                    .iter()
                    .zip(&parts)
                    .map(|(rows, p)| ShardRows {
                        rows,
                        sketches: p.len(),
                    })
                    .collect();
                let out = merge_shard_candidates(&input, &o);
                let got: Vec<QueryResult> = out.winners.iter().map(|w| w.result.clone()).collect();
                assert_eq!(got, expected, "shards={shards} scorer={scorer}");
                assert_eq!(out.merged - out.shipped, out.terminated);
                // Winners' provenance must resolve back to their rows.
                for w in &out.winners {
                    let row = rows[w.shard]
                        .iter()
                        .find(|r| r.doc == w.local_doc)
                        .expect("winner comes from a shipped shard row");
                    assert_eq!(row.id, w.result.id);
                }
            }
        }
    }

    /// The bound actually terminates on a corpus with clear winners and
    /// a tight-CI scorer — otherwise `shipped == merged` would trivially
    /// satisfy the identity and the bandwidth win would be imaginary.
    #[test]
    fn bound_terminates_rows_under_prunable_scorers() {
        let (union, parts, query) = sharded_fixture(40, 3);
        let o = opts(3, 40, Scorer::S2);
        let rows: Vec<Vec<ShardCandidate>> = parts
            .iter()
            .map(|p| engine::shard_candidates(p, &query, &o))
            .collect();
        let input: Vec<ShardRows<'_>> = rows
            .iter()
            .zip(&parts)
            .map(|(rows, p)| ShardRows {
                rows,
                sketches: p.len(),
            })
            .collect();
        let out = merge_shard_candidates(&input, &o);
        assert!(
            out.terminated > 0,
            "expected early termination, got {out:?}"
        );
        assert!(out.shipped >= o.k);
        assert!(out.threshold > 0.0);
        let expected = engine::top_k_with_plan_stats(&union, &query, &o).0;
        let got: Vec<QueryResult> = out.winners.iter().map(|w| w.result.clone()).collect();
        assert_eq!(got, expected);
    }

    /// `s4` is list-level, so no per-row bound exists: every merged row
    /// ships, mirroring the single-process planner's exhaustive
    /// fallback.
    #[test]
    fn s4_ships_every_merged_row() {
        let (_, parts, query) = sharded_fixture(30, 3);
        let o = opts(5, 25, Scorer::S4);
        let rows: Vec<Vec<ShardCandidate>> = parts
            .iter()
            .map(|p| engine::shard_candidates(p, &query, &o))
            .collect();
        let input: Vec<ShardRows<'_>> = rows
            .iter()
            .zip(&parts)
            .map(|(rows, p)| ShardRows {
                rows,
                sketches: p.len(),
            })
            .collect();
        let out = merge_shard_candidates(&input, &o);
        assert_eq!(out.shipped, out.merged);
        assert_eq!(out.terminated, 0);
    }

    /// The counterexample that makes shard-local pruning unsound (and
    /// coordinator-side termination necessary): a shard's local list
    /// holds two high-score/low-overlap rows that the global overlap
    /// re-cut drops, plus the low-score/high-overlap row that globally
    /// wins. A worker pruning on its local τ* would ship that winner
    /// unestimated; the merge, fed exhaustive rows, answers it.
    #[test]
    fn global_recut_wins_over_shard_local_score_order() {
        let a = vec![
            cand(0, "a1", 10, est(0.90, 0.88, 0.92, 200)),
            cand(1, "a2", 10, est(0.85, 0.83, 0.87, 200)),
            cand(2, "a3", 50, est(0.30, 0.25, 0.35, 400)),
        ];
        let b = vec![
            cand(0, "b1", 40, est(0.20, 0.15, 0.25, 300)),
            cand(1, "b2", 40, est(0.18, 0.13, 0.23, 300)),
        ];
        let o = opts(1, 3, Scorer::S1);
        let out = merge_shard_candidates(
            &[
                ShardRows {
                    rows: &a,
                    sketches: 3,
                },
                ShardRows {
                    rows: &b,
                    sketches: 2,
                },
            ],
            &o,
        );
        // Global top-3 by overlap: a3 (50), b1, b2 (40) — a1/a2 are cut.
        assert_eq!(out.merged, 3);
        assert_eq!(out.winners.len(), 1);
        assert_eq!(out.winners[0].result.id, "a3");
        assert_eq!(out.winners[0].shard, 0);
        assert_eq!(out.winners[0].local_doc, 2);
        // Global doc id: shard 0 offset 0 + local 2.
        assert_eq!(out.winners[0].result.doc, 2);
    }

    /// Cross-shard exact ties resolve by sketch id then global doc —
    /// the same total order the union index's retrieval applies.
    #[test]
    fn cross_shard_ties_resolve_by_id_then_global_doc() {
        let a = vec![cand(0, "ztable", 10, est(0.5, 0.45, 0.55, 100))];
        let b = vec![cand(0, "atable", 10, est(0.5, 0.45, 0.55, 100))];
        let o = opts(4, 4, Scorer::S1);
        let out = merge_shard_candidates(
            &[
                ShardRows {
                    rows: &a,
                    sketches: 1,
                },
                ShardRows {
                    rows: &b,
                    sketches: 1,
                },
            ],
            &o,
        );
        // Identical score and overlap: "atable" (shard 1) precedes
        // "ztable" (shard 0) by id, regardless of shard order.
        let ids: Vec<&str> = out.winners.iter().map(|w| w.result.id.as_str()).collect();
        assert_eq!(ids, ["atable", "ztable"]);
        assert_eq!(out.winners[0].result.doc, 1, "offset by shard 0's count");
        assert_eq!(out.winners[1].result.doc, 0);
    }

    /// Fewer merged rows than `k` (including empty shards): the
    /// threshold floors at 0, nothing terminates, everything ships.
    #[test]
    fn small_lists_and_empty_shards_ship_everything() {
        let a = vec![cand(0, "only", 5, est(0.4, 0.3, 0.5, 50))];
        let out = merge_shard_candidates(
            &[
                ShardRows {
                    rows: &a,
                    sketches: 1,
                },
                ShardRows {
                    rows: &[],
                    sketches: 0,
                },
            ],
            &opts(10, 100, Scorer::S2),
        );
        assert_eq!(out.merged, 1);
        assert_eq!(out.shipped, 1);
        assert_eq!(out.terminated, 0);
        assert_eq!(out.threshold, 0.0);
        assert_eq!(out.winners.len(), 1);

        let empty = merge_shard_candidates(
            &[ShardRows {
                rows: &[],
                sketches: 0,
            }],
            &opts(10, 100, Scorer::S1),
        );
        assert!(empty.winners.is_empty());
        assert_eq!(empty.merged, 0);
    }

    /// Rows without an estimate score exactly 0 and carry a `(0, 0)`
    /// bound: with `k` confidently positive rows ahead of them they
    /// terminate, but when the top-k needs them (k exceeds the scored
    /// rows) the threshold floors at 0 and they ship.
    #[test]
    fn unestimated_rows_terminate_only_when_outscored() {
        let rows = vec![
            cand(0, "strong-a", 30, est(0.9, 0.88, 0.92, 300)),
            cand(1, "strong-b", 30, est(0.8, 0.78, 0.82, 300)),
            cand(2, "dead", 30, None),
        ];
        let shard = [ShardRows {
            rows: &rows,
            sketches: 3,
        }];
        let tight = merge_shard_candidates(&shard, &opts(2, 10, Scorer::S1));
        assert_eq!(tight.shipped, 2, "{tight:?}");
        assert_eq!(tight.terminated, 1);
        assert!(tight.winners.iter().all(|w| w.result.id != "dead"));

        let loose = merge_shard_candidates(&shard, &opts(3, 10, Scorer::S1));
        assert_eq!(loose.shipped, 3);
        assert_eq!(loose.winners.len(), 3);
        assert_eq!(loose.winners[2].result.id, "dead");
        assert_eq!(loose.winners[2].result.score, 0.0);
    }
}
