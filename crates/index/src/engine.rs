//! The query engine for approximate top-k join-correlation queries
//! (paper Definition 3 + Section 4, evaluated in Section 5.5). There is
//! one way to run a query — [`execute`] — and it is one pipeline:
//!
//! **Stage 1 — retrieve + gather.** The top-N candidates by key overlap
//! come out of the inverted index (ties broken by sketch id, so the
//! candidate set is insertion-order independent) *with their join
//! samples*: postings carry the candidates' values, so the walk that
//! counts overlaps also emits each winner's `(x_query, y_candidate)` rows
//! (Theorem 1 sample) into one per-worker arena
//! ([`SketchIndex::retrieve_joined`]).
//!
//! **Stage 2 — estimate + rank.** Each candidate's after-join correlation
//! is estimated from its arena slices, with the estimator-matched
//! confidence interval ([`sketch_stats::scored_estimate`]: Fisher z for
//! Pearson, fixed-seed bootstrap for the robust estimators — per-worker
//! scratch, bit-identical across thread counts), exhaustively or under
//! the two-pass plan of [`crate::plan`]. No join happens here: every
//! pass of either plan reads the same slices. The list is then re-ranked
//! by the [`QueryOptions::scorer`] (`s1..s4` of `sketch-ranking`) and
//! truncated to `k` — NaN scores rank last deterministically, so a
//! degenerate candidate can never poison the selection.
//!
//! **Stage 3 — report (only when asked).** The Section 4 uncertainty
//! report of each of the `k` winners, from the slices stage 1 left.
//!
//! Stage 2 is structure-of-arrays end to end: the estimators consume the
//! arena's contiguous `x[]`/`y[]` columns directly through the chunked
//! kernels of `sketch_stats::kernel` — no per-candidate sample
//! allocation, no row-wise intermediary, and no merge walk.
//!
//! [`top_k_with_reports`], [`top_k_with_plan_stats`] and
//! [`shard_candidates`] are few-line projections of the same internals;
//! [`report_for_doc`] answers for one coordinator-chosen doc, which no
//! retrieval of its own selected, and so is the one place a pairwise
//! join remains.

use correlation_sketches::{join_sketches_into, CorrelationSketch, EstimateReport, JoinSample};
use sketch_obs::Trace;
use sketch_ranking::{desc_score_nan_last, score_bounds, score_estimates, Scorer};
use sketch_stats::{
    fisher_z_se, hfd_interval, hoeffding_interval, scored_estimate, BootstrapScratch,
    CorrelationEstimator, ScoredEstimate, ValueBounds,
};

use crate::inverted::{DocId, JoinedHits, SketchIndex};
use crate::plan::{kth_largest, PlanMode, PlanStats};

/// Options for a top-k join-correlation query.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Candidates retrieved by key overlap before re-ranking (paper
    /// Section 5.5 uses the top-100).
    pub overlap_candidates: usize,
    /// Number of results returned after re-ranking.
    pub k: usize,
    /// Correlation estimator applied to the join samples.
    pub estimator: CorrelationEstimator,
    /// Minimum join-sample size for a candidate to receive an estimate
    /// (below this the estimate is `None` and the candidate ranks last).
    pub min_sample: usize,
    /// Worker threads the query fans out over its candidates
    /// (estimation). `0` and `1` both mean serial; results are
    /// bit-identical for every value (the fan-out uses deterministic
    /// contiguous chunking, like
    /// `correlation_sketches::build_sketches_parallel`).
    pub threads: usize,
    /// Scoring function for the re-rank stage: `s1` ranks by the raw
    /// point estimate (the pre-Section-4 baseline), `s2`–`s4` penalize
    /// by the confidence interval (paper Section 4.4).
    pub scorer: Scorer,
    /// Confidence level of the per-candidate interval the scorers
    /// consume (e.g. `0.95`).
    pub confidence: f64,
    /// How estimator budget is spent: exhaustively, or via the two-pass
    /// planner that prunes candidates on cheap Pearson CIs and spends
    /// the requested estimator only on the contested band
    /// ([`crate::plan`] documents the losslessness contract).
    pub plan: PlanMode,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            overlap_candidates: 100,
            k: 10,
            estimator: CorrelationEstimator::Pearson,
            min_sample: 3,
            threads: 1,
            scorer: Scorer::S1,
            confidence: 0.95,
            plan: PlanMode::Exhaustive,
        }
    }
}

/// One ranked query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Document id in the index.
    pub doc: DocId,
    /// Sketch identifier (`table/key/value`).
    pub id: String,
    /// Sketch-key overlap with the query.
    pub overlap: usize,
    /// Join-sample size used for the estimate.
    pub sample_size: usize,
    /// Correlation estimate, if the sample was large enough and
    /// non-degenerate.
    pub estimate: Option<f64>,
    /// Lower endpoint of the estimator-matched confidence interval at
    /// [`QueryOptions::confidence`]; present whenever `estimate` is.
    pub ci_lo: Option<f64>,
    /// Upper endpoint of the confidence interval.
    pub ci_hi: Option<f64>,
    /// Final ranking score under [`QueryOptions::scorer`].
    pub score: f64,
}

/// A query result together with the full uncertainty report of
/// [`correlation_sketches::JoinSample::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportedResult {
    /// The ranked result.
    pub result: QueryResult,
    /// Estimate + Hoeffding CI + HFD length + Fisher SE; `None` when the
    /// join sample was too small or degenerate — and on every row of a
    /// query executed without reports.
    pub report: Option<EstimateReport>,
}

/// One query's answer from [`execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The top `k`, best first.
    pub results: Vec<ReportedResult>,
    /// What the plan spent: estimator invocations per pass, pruned
    /// candidates, promotion rounds.
    pub stats: PlanStats,
}

/// Per-thread scratch, reused across every query the thread answers: the
/// retrieval's counters and join-sample arena, and the bootstrap
/// resample buffers. Every candidate's output is a pure function of its
/// own join sample, so buffer reuse (and the thread count) never changes
/// a bit of it.
#[derive(Default)]
struct Scratch {
    joined: JoinedHits,
    ci: BootstrapScratch,
}

thread_local! {
    /// The calling thread's scratch. A server worker answers query after
    /// query on one thread; keeping the arena between them spares every
    /// query several hundred kB of freshly mapped pages.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// Run `f` on the calling thread's scratch. Nothing below re-enters: the
/// workers [`chunked`] spawns are other threads with scratch of their own.
fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Fan `run` out over contiguous chunks of `items` on up to `threads`
/// scoped threads, one fresh scratch per worker, and concatenate the
/// outputs in order — deterministic for every thread count (`0` is
/// treated as `1`; counts above the item count are capped). A serial
/// pass runs on the caller's `scratch` directly.
fn chunked<I: Sync, T: Send, S: Default>(
    items: &[I],
    threads: usize,
    scratch: &mut S,
    run: impl Fn(&[I], &mut S) -> Vec<T> + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return run(items, scratch);
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut out = Vec::with_capacity(items.len());
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || run(chunk, &mut S::default())))
            .collect();
        for h in handles {
            out.extend(h.join().expect("query workers do not panic"));
        }
    });
    out
}

/// One candidate's stage-2 output: its join-sample size and scored
/// estimate. Rows travel in lists aligned with the hits they were
/// estimated from.
#[derive(Debug, Clone, Copy)]
struct ScoredRow {
    sample_size: usize,
    est: Option<ScoredEstimate>,
}

/// The estimate + CI pass over the hits numbered `which` — the expensive,
/// embarrassingly parallel part: each worker estimates its chunk's
/// candidates straight from the retrieval arena's contiguous `x[]`/`y[]`
/// slices.
fn estimate_hits(
    joined: &JoinedHits,
    which: &[usize],
    opts: &QueryOptions,
    ci: &mut BootstrapScratch,
) -> Vec<ScoredRow> {
    // The admission gate folds in the estimator's honest minimum: a call
    // below it is guaranteed to error, so skipping it changes no output,
    // only spares the doomed invocation — which keeps the planner's
    // invocation accounting honest on both plans.
    let min_sample = opts.min_sample.max(opts.estimator.min_samples());
    chunked(which, opts.threads, ci, |chunk, ci| {
        chunk
            .iter()
            .map(|&hit| {
                let (x, y) = joined.sample(hit);
                let est = (x.len() >= min_sample)
                    .then(|| scored_estimate(opts.estimator, x, y, opts.confidence, ci).ok())
                    .flatten();
                ScoredRow {
                    sample_size: x.len(),
                    est,
                }
            })
            .collect()
    })
}

/// [`estimate_hits`] over every hit, in retrieval order.
fn estimate_all(
    joined: &JoinedHits,
    opts: &QueryOptions,
    ci: &mut BootstrapScratch,
) -> Vec<ScoredRow> {
    let all: Vec<usize> = (0..joined.hits().len()).collect();
    estimate_hits(joined, &all, opts, ci)
}

/// Stage 2 under the configured plan: either one exhaustive pass with
/// the requested estimator, or the two-pass prune-then-spend pipeline
/// of [`crate::plan`]. Returns one scored row per hit (in retrieval
/// order, exactly as the exhaustive pass would) plus the plan's
/// execution statistics.
///
/// Two-pass losslessness (module docs of [`crate::plan`] give the full
/// argument): survivors are re-estimated by the same pure function the
/// exhaustive plan runs, and a candidate stays pruned only while its
/// score upper bound is strictly below the k-th best *actual* band
/// score `τ*` — so its exhaustive score (bounded by `ub` at the plan's
/// confidence level) can never reach the top-k. Pruned rows surface
/// with `est: None`; their exhaustive scores lie in `[0, τ*)`, and
/// score 0 keeps them in that range, below every survivor.
fn plan_rows(
    joined: &JoinedHits,
    opts: &QueryOptions,
    ci: &mut BootstrapScratch,
    trace: &mut Trace,
) -> (Vec<ScoredRow>, PlanStats) {
    let effective_min = opts.min_sample.max(opts.estimator.min_samples());
    let exhaustive = |ci: &mut BootstrapScratch, trace: &mut Trace| {
        let guard = trace.begin("estimate");
        let rows = estimate_all(joined, opts, ci);
        trace.end(guard);
        let stats = PlanStats {
            candidates: rows.len(),
            expensive_invocations: rows
                .iter()
                .filter(|r| r.sample_size >= effective_min)
                .count(),
            ..PlanStats::default()
        };
        (rows, stats)
    };
    let Some(pass1_confidence) = opts.plan.pruning_confidence(opts.scorer, opts.estimator) else {
        return exhaustive(ci, trace);
    };
    // With every candidate in the top-k nothing can be pruned; skip the
    // cheap pass instead of paying for it.
    if joined.hits().len() <= opts.k {
        return exhaustive(ci, trace);
    }

    // Pass 1: Pearson + Fisher-z CI over every candidate, at the plan's
    // pruning confidence.
    let cheap_opts = QueryOptions {
        estimator: CorrelationEstimator::Pearson,
        confidence: pass1_confidence,
        ..*opts
    };
    let cheap_guard = trace.begin("cheap_pass");
    let cheap = estimate_all(joined, &cheap_opts, ci);
    trace.end(cheap_guard);
    let cheap_min = opts
        .min_sample
        .max(CorrelationEstimator::Pearson.min_samples());
    let cheap_invocations = cheap.iter().filter(|r| r.sample_size >= cheap_min).count();

    // Map each candidate's cheap CI through the scorer: `None` marks a
    // candidate below the expensive admission gate (its estimate is
    // `None` on both plans — settled, no bound needed); a candidate the
    // cheap estimator couldn't score gets `(0, ∞)` and stays contested,
    // so pass 2 treats it exactly as the exhaustive plan would.
    let score_bound = |row: &ScoredRow| -> Option<(f64, f64)> {
        if row.sample_size < effective_min {
            return None;
        }
        Some(
            row.est
                .map_or((0.0, f64::INFINITY), |e| score_bounds(opts.scorer, &e)),
        )
    };
    let bounds: Vec<Option<(f64, f64)>> = cheap.iter().map(score_bound).collect();

    // Seed the band with everyone whose upper bound reaches the k-th
    // best lower bound. Each row's ub ≥ its own lb, so the band starts
    // with at least k admissible candidates (or all of them).
    let lbs: Vec<f64> = bounds.iter().flatten().map(|&(lb, _)| lb).collect();
    let tau_seed = kth_largest(&lbs, opts.k);
    let mut in_band = vec![false; cheap.len()];
    let mut est: Vec<Option<ScoredEstimate>> = vec![None; cheap.len()];
    let mut to_estimate: Vec<usize> = bounds
        .iter()
        .enumerate()
        .filter(|(_, b)| b.is_some_and(|(_, ub)| ub >= tau_seed))
        .map(|(i, _)| i)
        .collect();

    // Pass 2 + promotion fixed point: estimate the band with the
    // requested estimator, recompute the k-th best actual band score
    // τ*, and promote every pruned candidate whose upper bound still
    // reaches it. τ* never decreases as the band grows, so the loop
    // terminates (each round promotes at least one candidate or stops).
    let band_guard = trace.begin("band_estimate");
    let mut rounds = 0usize;
    let tau = loop {
        if !to_estimate.is_empty() {
            let rows = estimate_hits(joined, &to_estimate, opts, ci);
            for (&hit, row) in to_estimate.iter().zip(rows) {
                est[hit] = row.est;
                in_band[hit] = true;
            }
            rounds += 1;
        }
        let band_est: Vec<Option<ScoredEstimate>> = in_band
            .iter()
            .zip(&est)
            .filter(|(&b, _)| b)
            .map(|(_, e)| *e)
            .collect();
        let band_scores = score_estimates(opts.scorer, &band_est);
        let tau = kth_largest(&band_scores, opts.k);
        to_estimate = bounds
            .iter()
            .enumerate()
            .filter(|&(i, b)| !in_band[i] && b.is_some_and(|(_, ub)| ub >= tau))
            .map(|(i, _)| i)
            .collect();
        if to_estimate.is_empty() {
            break tau;
        }
    };
    trace.end(band_guard);

    let band = in_band.iter().filter(|&&b| b).count();
    let admitted = bounds.iter().flatten().count();
    let stats = PlanStats {
        two_pass: true,
        candidates: cheap.len(),
        cheap_invocations,
        expensive_invocations: band,
        pruned: admitted - band,
        promotion_rounds: rounds,
        threshold: tau,
    };
    let rows = cheap
        .into_iter()
        .enumerate()
        .map(|(i, row)| ScoredRow {
            est: if in_band[i] { est[i] } else { None },
            ..row
        })
        .collect();
    (rows, stats)
}

/// What the ranking order reads of a candidate: score, overlap, sketch
/// id, doc.
type RankKey<'a> = (f64, usize, &'a str, DocId);

/// The ranking's total order: descending score with NaN ranked last —
/// a degenerate candidate (constant column → undefined correlation)
/// sorts deterministically to the bottom instead of poisoning the
/// selection heap — then descending overlap, then ascending sketch id
/// (insertion-order independent), then doc id (reachable only through
/// duplicate ids).
fn rank_order(a: RankKey<'_>, b: RankKey<'_>) -> std::cmp::Ordering {
    desc_score_nan_last(a.0, b.0)
        .then(b.1.cmp(&a.1))
        .then_with(|| a.2.cmp(b.2))
        .then(a.3.cmp(&b.3))
}

/// [`rank_order`] over finished results.
pub(crate) fn result_order(a: &QueryResult, b: &QueryResult) -> std::cmp::Ordering {
    rank_order(
        (a.score, a.overlap, &a.id, a.doc),
        (b.score, b.overlap, &b.id, b.doc),
    )
}

/// The re-rank stage: score the whole row list with the configured
/// scorer (list-level — `s4` normalizes CI lengths across the list) and
/// keep the top `opts.k` via bounded-heap selection on ids borrowed from
/// the index, so only the winners' ids are copied out. Each result comes
/// with its hit number (for its report).
fn rank_rows(
    index: &SketchIndex,
    joined: &JoinedHits,
    rows: &[ScoredRow],
    opts: &QueryOptions,
) -> Vec<(usize, QueryResult)> {
    let estimates: Vec<Option<ScoredEstimate>> = rows.iter().map(|r| r.est).collect();
    let scores = score_estimates(opts.scorer, &estimates);
    let keyed = joined.hits().iter().zip(scores).enumerate().map(
        |(hit, (&(doc, overlap), score))| -> (usize, RankKey<'_>) {
            (hit, (score, overlap, index.id_of(doc), doc))
        },
    );
    crate::select::top_k_by(keyed, opts.k, |a, b| rank_order(a.1, b.1))
        .into_iter()
        .map(|(hit, (score, overlap, id, doc))| {
            let row = rows[hit];
            let result = QueryResult {
                doc,
                id: id.to_string(),
                overlap,
                sample_size: row.sample_size,
                estimate: row.est.map(|e| e.estimate),
                ci_lo: row.est.map(|e| e.ci_lo),
                ci_hi: row.est.map(|e| e.ci_hi),
                score,
            };
            (hit, result)
        })
        .collect()
}

/// The Section 4 uncertainty report of one join sample — the one place
/// the report gate lives (`min_sample`; a sample too degenerate for the
/// estimator or an interval has no report), whether the columns are
/// arena slices or a pairwise re-join. `bounds` is the union of the two
/// sketches' full-column value ranges, `None` if either column was empty.
/// Field for field [`JoinSample::report`]. `estimate` is the point
/// estimate stage 2 already holds for this sample, if it has one — the
/// same pure function of `(estimator, x, y)` the report would evaluate,
/// which under PM1 is a bootstrap; only a sample without one (pruned,
/// interval failed, or a doc no stage 2 saw) is estimated here, in `ci`.
fn sample_report(
    x: &[f64],
    y: &[f64],
    bounds: Option<ValueBounds>,
    estimate: Option<f64>,
    opts: &QueryOptions,
    alpha: f64,
    ci: &mut BootstrapScratch,
) -> Option<EstimateReport> {
    if x.len() < opts.min_sample {
        return None;
    }
    let bounds = bounds?;
    let estimate = match estimate {
        Some(estimate) => estimate,
        None => opts.estimator.estimate_with_scratch(x, y, ci).ok()?,
    };
    Some(EstimateReport {
        estimate,
        estimator: opts.estimator,
        sample_size: x.len(),
        hoeffding: hoeffding_interval(x, y, bounds, alpha).ok()?,
        hfd_length: hfd_interval(x, y, bounds, alpha).ok()?.length(),
        fisher_se: fisher_z_se(x.len()),
    })
}

/// Execute one top-k join-correlation query — the engine's one entry
/// point. The answer is ranked by [`QueryOptions::scorer`] (by default
/// `s1`, the absolute correlation estimate — negative correlations count
/// as much as positive ones; `s2`–`s4` penalize uncertain estimates by
/// their confidence interval; candidates without an estimate score
/// zero), and always carries its [`PlanStats`]. With `alpha = Some(a)`
/// each result also carries the Section 4 uncertainty report (Hoeffding
/// interval at significance `a`, HFD length, Fisher SE); with `None` no
/// report work is done.
///
/// The query fans `opts.threads` out over its candidates and records its
/// stages into `trace` (`retrieval`, then `estimate` or
/// `cheap_pass`/`band_estimate` depending on the plan, `rank`,
/// `reports`), with the plan statistics as the trace's notes; a disabled
/// trace costs nothing. The answer is bit-identical for every thread
/// count and trace state — which is what lets a server answer traced and
/// untraced requests from one cache entry.
#[must_use]
pub fn execute(
    index: &SketchIndex,
    query: &CorrelationSketch,
    opts: &QueryOptions,
    alpha: Option<f64>,
    trace: &mut Trace,
) -> QueryOutput {
    let output = with_scratch(|scratch| {
        let guard = trace.begin("retrieval");
        index.retrieve_joined(query, opts.overlap_candidates, &mut scratch.joined);
        trace.end(guard);
        let Scratch { joined, ci } = scratch;
        let (rows, stats) = plan_rows(joined, opts, ci, trace);
        let guard = trace.begin("rank");
        let ranked = rank_rows(index, joined, &rows, opts);
        trace.end(guard);
        let guard = alpha.map(|_| trace.begin("reports"));
        let results = ranked
            .into_iter()
            .map(|(hit, result)| ReportedResult {
                report: alpha.and_then(|alpha| {
                    let (x, y) = joined.sample(hit);
                    let bounds = query
                        .value_bounds()
                        .zip(index.get(result.doc)?.value_bounds())
                        .map(|(q, d)| ValueBounds::union(q, d));
                    sample_report(x, y, bounds, result.estimate, opts, alpha, ci)
                }),
                result,
            })
            .collect();
        if let Some(guard) = guard {
            trace.end(guard);
        }
        QueryOutput { results, stats }
    });
    if trace.is_enabled() {
        let stats = &output.stats;
        trace.note("plan_two_pass", u64::from(stats.two_pass));
        trace.note("plan_candidates", stats.candidates as u64);
        trace.note("plan_cheap_invocations", stats.cheap_invocations as u64);
        trace.note(
            "plan_expensive_invocations",
            stats.expensive_invocations as u64,
        );
        trace.note("plan_pruned", stats.pruned as u64);
        trace.note("plan_promotion_rounds", stats.promotion_rounds as u64);
    }
    output
}

/// [`execute`] for one query with uncertainty reports and no trace.
#[must_use]
pub fn top_k_with_reports(
    index: &SketchIndex,
    query: &CorrelationSketch,
    opts: &QueryOptions,
    alpha: f64,
) -> Vec<ReportedResult> {
    execute(index, query, opts, Some(alpha), &mut Trace::disabled()).results
}

/// [`execute`] for one query without reports: the ranked results and
/// the plan's execution statistics — the observability hook behind
/// `rank_eval --assert`'s plan rows, the `prop_plan` lossless-pruning
/// oracle and the ledger's `lake_churn` reads.
#[must_use]
pub fn top_k_with_plan_stats(
    index: &SketchIndex,
    query: &CorrelationSketch,
    opts: &QueryOptions,
) -> (Vec<QueryResult>, PlanStats) {
    let out = execute(index, query, opts, None, &mut Trace::disabled());
    (
        out.results.into_iter().map(|r| r.result).collect(),
        out.stats,
    )
}

/// One shard-local candidate row for scatter-gather serving: stage-2
/// output (retrieval metadata + scored estimate) with the sketch id
/// resolved, in retrieval order — what a worker ships to the
/// coordinator so [`crate::merge`] can re-rank globally.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCandidate {
    /// Shard-local document id (positional in the shard's live view).
    pub doc: DocId,
    /// Sketch identifier (`table/key/value`), globally unique across a
    /// partitioned corpus.
    pub id: String,
    /// Sketch-key overlap with the query.
    pub overlap: usize,
    /// Join-sample size.
    pub sample_size: usize,
    /// The scored estimate (point estimate + matched CI), `None` below
    /// the admission gate or for a degenerate sample.
    pub est: Option<ScoredEstimate>,
}

/// The shard-local half of a scatter-gather query: retrieve this
/// shard's top `overlap_candidates` by overlap and estimate **every**
/// one of them with the requested estimator, returning rows in
/// retrieval order (overlap desc, sketch id asc, doc asc).
///
/// This path deliberately ignores [`QueryOptions::plan`] and always
/// estimates exhaustively: shard-local two-pass pruning is *unsound*.
/// Retrieval cuts by overlap but ranking cuts by score, so a shard's
/// candidate list can contain high-score rows that do not survive the
/// global overlap re-cut — those rows inflate the shard's local
/// pruning threshold `τ*` above the global one, and a row another
/// query needs (low score, but globally in the top-k after the re-cut
/// drops the inflated rows) would come back unestimated. Concretely:
/// with `overlap_candidates = 3, k = 1`, a shard holding two
/// high-score/low-overlap rows plus one low-score/high-overlap row
/// prunes the latter locally, yet the global overlap re-cut keeps
/// *only* that row from the shard — the coordinator would then score
/// it 0 and answer wrongly. Early termination instead happens on the
/// coordinator, from score bounds over the merged list
/// ([`crate::merge::merge_shard_candidates`]), where it is
/// unconditionally lossless.
#[must_use]
pub fn shard_candidates(
    index: &SketchIndex,
    query: &CorrelationSketch,
    opts: &QueryOptions,
) -> Vec<ShardCandidate> {
    with_scratch(|scratch| {
        index.retrieve_joined(query, opts.overlap_candidates, &mut scratch.joined);
        let joined = &scratch.joined;
        estimate_all(joined, opts, &mut scratch.ci)
            .into_iter()
            .zip(joined.hits())
            .map(|(row, &(doc, overlap))| ShardCandidate {
                doc,
                id: index.id_of(doc).to_string(),
                overlap,
                sample_size: row.sample_size,
                est: row.est,
            })
            .collect()
    })
}

/// The Section 4 uncertainty report for one document: join its sketch
/// with the query into the reused `sample` buffer and build the report
/// through the same gate [`execute`] uses, estimating in the calling
/// thread's scratch. Public so a sharded worker can
/// answer report fetches for coordinator-chosen winners — docs no
/// retrieval of its own selected, hence the pairwise join — with bytes
/// identical to what [`execute`] would attach single-process.
#[must_use]
pub fn report_for_doc(
    index: &SketchIndex,
    query: &CorrelationSketch,
    doc: DocId,
    opts: &QueryOptions,
    alpha: f64,
    sample: &mut JoinSample,
) -> Option<EstimateReport> {
    join_sketches_into(query, index.get(doc)?, sample).ok()?;
    with_scratch(|scratch| {
        let (x, y) = (&sample.x, &sample.y);
        sample_report(x, y, sample.bounds, None, opts, alpha, &mut scratch.ci)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use correlation_sketches::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    /// The ranked results alone.
    fn top_k(
        index: &SketchIndex,
        query: &CorrelationSketch,
        opts: &QueryOptions,
    ) -> Vec<QueryResult> {
        top_k_with_plan_stats(index, query, opts).0
    }

    /// Corpus with one strongly correlated, one anti-correlated, one
    /// noisy, and one non-joinable column.
    fn fixture() -> (SketchIndex, CorrelationSketch) {
        let b = SketchBuilder::new(SketchConfig::with_size(256));
        let n = 3_000usize;
        let keys: Vec<String> = (0..n).map(|i| format!("key-{i}")).collect();
        let signal: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.05).sin() * 10.0).collect();

        let query = b.build(&ColumnPair::new(
            "query",
            "k",
            "v",
            keys.clone(),
            signal.clone(),
        ));

        let mut idx = SketchIndex::new();
        idx.insert(b.build(&ColumnPair::new(
            "positive",
            "k",
            "v",
            keys.clone(),
            signal.iter().map(|v| 3.0 * v + 1.0).collect(),
        )))
        .unwrap();
        idx.insert(b.build(&ColumnPair::new(
            "negative",
            "k",
            "v",
            keys.clone(),
            signal.iter().map(|v| -2.0 * v).collect(),
        )))
        .unwrap();
        idx.insert(
            b.build(&ColumnPair::new(
                "noise",
                "k",
                "v",
                keys.clone(),
                (0..n)
                    .map(|i| ((i * 2_654_435_761) % 1_000) as f64)
                    .collect(),
            )),
        )
        .unwrap();
        idx.insert(b.build(&ColumnPair::new(
            "disjoint",
            "k",
            "v",
            (0..n).map(|i| format!("other-{i}")).collect(),
            signal.clone(),
        )))
        .unwrap();
        (idx, query)
    }

    #[test]
    fn correlated_columns_rank_above_noise() {
        let (idx, q) = fixture();
        let results = top_k(&idx, &q, &QueryOptions::default());
        assert_eq!(results.len(), 3, "disjoint table must not be retrieved");
        let names: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(names[2], "noise/k/v", "noise must rank last: {names:?}");
        assert!(results[0].estimate.unwrap().abs() > 0.95);
        assert!(results[1].estimate.unwrap().abs() > 0.95);
        assert!(results[2].estimate.unwrap().abs() < 0.3);
    }

    #[test]
    fn negative_correlation_ranks_high() {
        let (idx, q) = fixture();
        let results = top_k(&idx, &q, &QueryOptions::default());
        let neg = results.iter().find(|r| r.id == "negative/k/v").unwrap();
        assert!(neg.estimate.unwrap() < -0.95);
        assert!(neg.score > 0.9, "abs() scoring must rank it high");
    }

    #[test]
    fn k_truncation_and_candidate_limit() {
        let (idx, q) = fixture();
        let opts = QueryOptions {
            k: 1,
            ..Default::default()
        };
        assert_eq!(top_k(&idx, &q, &opts).len(), 1);

        let opts = QueryOptions {
            overlap_candidates: 2,
            ..Default::default()
        };
        assert_eq!(top_k(&idx, &q, &opts).len(), 2);
    }

    #[test]
    fn min_sample_gate_suppresses_estimates() {
        let (idx, q) = fixture();
        let opts = QueryOptions {
            min_sample: 10_000, // nothing can reach this
            ..Default::default()
        };
        for r in top_k(&idx, &q, &opts) {
            assert!(r.estimate.is_none());
            assert_eq!(r.score, 0.0);
        }
    }

    #[test]
    fn reports_accompany_results() {
        let (idx, q) = fixture();
        let reported = top_k_with_reports(&idx, &q, &QueryOptions::default(), 0.05);
        assert_eq!(reported.len(), 3);
        for r in &reported {
            let rep = r.report.as_ref().expect("large samples have reports");
            assert_eq!(rep.sample_size, r.result.sample_size);
            assert_eq!(Some(rep.estimate), r.result.estimate);
            assert!(rep.hoeffding.contains(rep.estimate));
            assert!(rep.fisher_se > 0.0);
        }
    }

    /// A larger corpus for the parallel-determinism tests: many tables
    /// with staggered key ranges and varied signals.
    fn wide_fixture(tables: usize) -> (SketchIndex, CorrelationSketch) {
        let b = SketchBuilder::new(SketchConfig::with_size(128));
        let n = 800usize;
        let query = b.build(&ColumnPair::new(
            "query",
            "k",
            "v",
            (0..n).map(|i| format!("key-{i}")).collect(),
            (0..n).map(|i| ((i as f64) * 0.11).sin() * 5.0).collect(),
        ));
        let mut idx = SketchIndex::new();
        for t in 0..tables {
            let lo = (t * 37) % 500;
            idx.insert(
                b.build(&ColumnPair::new(
                    format!("t{t}"),
                    "k",
                    "v",
                    (lo..lo + n).map(|i| format!("key-{i}")).collect(),
                    (lo..lo + n)
                        .map(|i| ((i as f64) * 0.11 + t as f64).sin() * (t + 1) as f64)
                        .collect(),
                )),
            )
            .unwrap();
        }
        (idx, query)
    }

    #[test]
    fn parallel_query_identical_to_serial_for_every_thread_count() {
        let (idx, q) = wide_fixture(40);
        let serial = QueryOptions {
            k: 15,
            threads: 1,
            ..Default::default()
        };
        let expected = top_k(&idx, &q, &serial);
        assert!(expected.len() >= 10);
        // 0 (treated as 1), several in-range counts, and counts far above
        // the candidate count must all be bit-identical.
        for threads in [0usize, 2, 3, 7, 16, 1000] {
            let opts = QueryOptions { threads, ..serial };
            assert_eq!(top_k(&idx, &q, &opts), expected, "threads={threads}");
            let reports = top_k_with_reports(&idx, &q, &opts, 0.05);
            let serial_reports = top_k_with_reports(&idx, &q, &serial, 0.05);
            assert_eq!(reports, serial_reports, "reports, threads={threads}");
        }
    }

    #[test]
    fn fused_reports_equal_prefusion_recomputation() {
        let (idx, q) = fixture();
        // Pearson, the bootstrap estimator (whose report estimate is now
        // the ranked row's, not a third bootstrap) and a robust one.
        for estimator in [
            CorrelationEstimator::Pearson,
            CorrelationEstimator::Pm1Bootstrap { seed: 0x5eed },
            CorrelationEstimator::Spearman,
        ] {
            let opts = QueryOptions {
                estimator,
                ..Default::default()
            };
            let fused = top_k_with_reports(&idx, &q, &opts, 0.05);
            assert!(fused.iter().any(|r| r.report.is_some()), "{estimator}");
            // The pre-fusion implementation ranked first, then re-joined
            // and re-estimated every winner; reproduce it literally.
            let prefusion: Vec<ReportedResult> = top_k(&idx, &q, &opts)
                .into_iter()
                .map(|result| {
                    let report = idx
                        .get(result.doc)
                        .and_then(|sketch| correlation_sketches::join_sketches(&q, sketch).ok())
                        .filter(|s| s.len() >= opts.min_sample)
                        .and_then(|s| s.report(opts.estimator, 0.05).ok());
                    ReportedResult { result, report }
                })
                .collect();
            assert_eq!(fused, prefusion, "{estimator}");
            // A coordinator-chosen doc has no ranked row to take the
            // estimate from: the fallback computes the same report.
            let mut sample = JoinSample::default();
            for r in &fused {
                let fetched = report_for_doc(&idx, &q, r.result.doc, &opts, 0.05, &mut sample);
                assert_eq!(fetched, r.report, "{estimator} {}", r.result.id);
            }
        }
    }

    #[test]
    fn queries_skip_removed_docs() {
        let (mut idx, q) = wide_fixture(12);
        // k above the corpus size so no truncation masks the removal.
        let opts = QueryOptions {
            k: 50,
            ..Default::default()
        };
        let full = top_k(&idx, &q, &opts);
        let removed_id = full[0].id.clone();
        assert!(idx.remove(&removed_id));
        let after = top_k(&idx, &q, &opts);
        assert!(after.iter().all(|r| r.id != removed_id));
        assert_eq!(after.len(), full.len() - 1);
        // The surviving results keep their relative order, with doc ids
        // renumbered exactly as a rebuild over the survivors would.
        let surviving: Vec<&str> = full.iter().skip(1).map(|r| r.id.as_str()).collect();
        let after_ids: Vec<&str> = after.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(after_ids, surviving);
    }

    #[test]
    fn empty_index_gives_empty_results() {
        let b = SketchBuilder::new(SketchConfig::with_size(16));
        let q = b.build(&ColumnPair::new("q", "k", "v", vec!["a".into()], vec![1.0]));
        let idx = SketchIndex::new();
        assert!(top_k(&idx, &q, &QueryOptions::default()).is_empty());
    }

    #[test]
    fn ci_fields_accompany_estimates() {
        let (idx, q) = fixture();
        let results = top_k(&idx, &q, &QueryOptions::default());
        assert!(!results.is_empty());
        for r in &results {
            let (est, lo, hi) = (r.estimate.unwrap(), r.ci_lo.unwrap(), r.ci_hi.unwrap());
            assert!(lo <= est && est <= hi, "{r:?}");
            assert!(lo >= -1.0 && hi <= 1.0, "{r:?}");
        }
        // Below min_sample the CI disappears along with the estimate.
        let opts = QueryOptions {
            min_sample: 10_000,
            ..QueryOptions::default()
        };
        for r in top_k(&idx, &q, &opts) {
            assert!(r.estimate.is_none() && r.ci_lo.is_none() && r.ci_hi.is_none());
        }
    }

    #[test]
    fn every_scorer_is_bit_identical_across_thread_counts() {
        let (idx, q) = wide_fixture(30);
        for scorer in Scorer::ALL {
            for estimator in [
                CorrelationEstimator::Pearson,
                CorrelationEstimator::Spearman,
            ] {
                let serial = QueryOptions {
                    k: 12,
                    scorer,
                    estimator,
                    confidence: 0.9,
                    threads: 1,
                    ..QueryOptions::default()
                };
                let expected = top_k_with_reports(&idx, &q, &serial, 0.05);
                assert!(!expected.is_empty());
                for threads in [0usize, 2, 7, 16, 1000] {
                    let opts = QueryOptions { threads, ..serial };
                    assert_eq!(
                        top_k_with_reports(&idx, &q, &opts, 0.05),
                        expected,
                        "scorer={scorer} estimator={estimator} threads={threads}"
                    );
                }
            }
        }
    }

    /// The Section 4 story at engine level: a candidate whose tiny join
    /// sample happens to look perfectly correlated outranks a genuinely
    /// correlated candidate under the raw point estimate (`s1`), and the
    /// CI-aware scorers demote it.
    #[test]
    fn ci_aware_scorers_demote_small_sample_flukes() {
        let b = SketchBuilder::new(SketchConfig::with_size(256));
        let n = 3_000usize;
        let keys: Vec<String> = (0..n).map(|i| format!("key-{i}")).collect();
        let signal: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.05).sin() * 10.0).collect();
        let query = b.build(&ColumnPair::new(
            "query",
            "k",
            "v",
            keys.clone(),
            signal.clone(),
        ));

        let mut idx = SketchIndex::new();
        // Genuine: strong but imperfect correlation, large overlap.
        idx.insert(
            b.build(&ColumnPair::new(
                "genuine",
                "k",
                "v",
                keys.clone(),
                signal
                    .iter()
                    .enumerate()
                    .map(|(i, v)| 2.0 * v + ((i as f64) * 1.7).cos() * 4.0)
                    .collect(),
            )),
        )
        .unwrap();
        // Fluke: joins on only 4 keys, and on those 4 the values happen
        // to be a perfect linear function of the query's. The keys are
        // picked among the smallest unit hashes so the query sketch is
        // guaranteed to have kept them (kmv keeps the m smallest).
        use sketch_hashing::KeyHasher as _;
        let hasher = SketchConfig::with_size(256).hasher;
        let mut by_unit: Vec<(f64, usize)> = (0..n)
            .map(|i| (hasher.g(keys[i].as_bytes()).1, i))
            .collect();
        by_unit.sort_by(|a, b| a.0.total_cmp(&b.0));
        let picked: Vec<usize> = by_unit[..4].iter().map(|&(_, i)| i).collect();
        let fluke_keys: Vec<String> = picked.iter().map(|&i| keys[i].clone()).collect();
        let fluke_vals: Vec<f64> = picked.iter().map(|&i| signal[i] * 5.0 + 1.0).collect();
        idx.insert(b.build(&ColumnPair::new("fluke", "k", "v", fluke_keys, fluke_vals)))
            .unwrap();

        let run = |scorer| {
            let opts = QueryOptions {
                scorer,
                ..QueryOptions::default()
            };
            top_k(&idx, &query, &opts)
                .first()
                .map(|r| r.id.clone())
                .unwrap()
        };
        assert_eq!(run(Scorer::S1), "fluke/k/v", "s1 falls for the fluke");
        for scorer in [Scorer::S2, Scorer::S3, Scorer::S4] {
            assert_eq!(run(scorer), "genuine/k/v", "{scorer} must demote the fluke");
        }
    }

    /// Regression for the NaN-poisoning bug class: constant-value
    /// columns (undefined correlation) and NaN scores must rank last
    /// deterministically — never first, never a panic.
    #[test]
    fn constant_columns_and_nan_scores_rank_last() {
        let b = SketchBuilder::new(SketchConfig::with_size(128));
        let n = 500usize;
        let keys: Vec<String> = (0..n).map(|i| format!("key-{i}")).collect();
        let signal: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).sin() * 3.0).collect();
        let query = b.build(&ColumnPair::new(
            "q",
            "k",
            "v",
            keys.clone(),
            signal.clone(),
        ));

        let mut idx = SketchIndex::new();
        idx.insert(b.build(&ColumnPair::new(
            "good",
            "k",
            "v",
            keys.clone(),
            signal.iter().map(|v| v * 2.0).collect(),
        )))
        .unwrap();
        // Two constant columns: join succeeds, correlation is undefined.
        for name in ["flat-a", "flat-b"] {
            idx.insert(b.build(&ColumnPair::new(name, "k", "v", keys.clone(), vec![7.0; n])))
                .unwrap();
        }

        for scorer in Scorer::ALL {
            let opts = QueryOptions {
                scorer,
                ..QueryOptions::default()
            };
            let results = top_k(&idx, &query, &opts);
            assert_eq!(results.len(), 3, "{scorer}");
            assert_eq!(results[0].id, "good/k/v", "{scorer}: {results:?}");
            for dead in &results[1..] {
                assert!(dead.estimate.is_none(), "{scorer}: {dead:?}");
                assert_eq!(dead.score, 0.0, "{scorer}: {dead:?}");
            }
            // Constant columns tie at score 0; the order among them must
            // be the deterministic id tie-break.
            assert_eq!(results[1].id, "flat-a/k/v");
            assert_eq!(results[2].id, "flat-b/k/v");
        }

        // A NaN score injected into otherwise healthy results: the
        // ranking order puts it below every real score — the -1.0 of a
        // candidate with nothing going for it included — and the
        // selection heap never panics, whatever the arrival order or `k`.
        let scored: Vec<QueryResult> = top_k(&idx, &query, &QueryOptions::default())
            .into_iter()
            .map(|r| QueryResult {
                score: if r.id.starts_with("good") {
                    f64::NAN
                } else {
                    r.estimate.map_or(-1.0, f64::abs)
                },
                ..r
            })
            .collect();
        for rot in 0..scored.len() {
            let mut arrival = scored.clone();
            arrival.rotate_left(rot);
            let results = crate::select::top_k_by(arrival.clone(), 3, result_order);
            assert_eq!(results.len(), 3);
            assert_eq!(
                results[2].id, "good/k/v",
                "NaN score must sort last: {results:?}"
            );
            assert!(results[2].score.is_nan());
            let best = crate::select::top_k_by(arrival, 1, result_order);
            assert_eq!(best[0].id, "flat-a/k/v", "NaN must never win: {best:?}");
        }
    }

    /// The planner's headline contract on a deterministic corpus:
    /// two-pass answers are bit-identical to exhaustive for every
    /// prunable scorer × surrogate estimator, while invoking the
    /// expensive estimator on strictly fewer candidates.
    #[test]
    fn two_pass_plan_is_lossless_and_cheaper() {
        let (idx, q) = wide_fixture(40);
        for scorer in [Scorer::S1, Scorer::S2, Scorer::S3] {
            for estimator in [
                CorrelationEstimator::Qn,
                CorrelationEstimator::Pm1Bootstrap { seed: 0x5eed },
            ] {
                let base = QueryOptions {
                    k: 5,
                    scorer,
                    estimator,
                    ..QueryOptions::default()
                };
                let (expected, ex_stats) = top_k_with_plan_stats(&idx, &q, &base);
                let two = QueryOptions {
                    plan: PlanMode::two_pass(),
                    ..base
                };
                let (got, stats) = top_k_with_plan_stats(&idx, &q, &two);
                assert_eq!(got, expected, "{scorer}/{estimator}");
                assert!(stats.two_pass, "{scorer}/{estimator}");
                assert!(
                    stats.expensive_invocations < ex_stats.expensive_invocations,
                    "{scorer}/{estimator}: {stats:?} vs exhaustive {ex_stats:?}"
                );
                assert_eq!(
                    stats.pruned + stats.expensive_invocations,
                    ex_stats.expensive_invocations,
                    "{scorer}/{estimator}: every admitted candidate is banded or pruned"
                );
                assert!(stats.threshold > 0.0, "{scorer}/{estimator}: {stats:?}");
                // Reports ride the same plan.
                assert_eq!(
                    top_k_with_reports(&idx, &q, &two, 0.05),
                    top_k_with_reports(&idx, &q, &base, 0.05),
                    "{scorer}/{estimator}: reports"
                );
            }
        }
    }

    /// The fallback cases run exhaustively — and say so in the stats.
    #[test]
    fn two_pass_falls_back_where_pruning_cannot_be_lossless() {
        let (idx, q) = wide_fixture(25);
        let cases = [
            (Scorer::S4, CorrelationEstimator::Qn), // list-level normalization
            (Scorer::S1, CorrelationEstimator::Pearson), // cheap == expensive
        ];
        for (scorer, estimator) in cases {
            let base = QueryOptions {
                k: 5,
                scorer,
                estimator,
                ..QueryOptions::default()
            };
            let two = QueryOptions {
                plan: PlanMode::two_pass(),
                ..base
            };
            let (got, stats) = top_k_with_plan_stats(&idx, &q, &two);
            assert_eq!(got, top_k(&idx, &q, &base), "{scorer}/{estimator}");
            assert!(!stats.two_pass, "{scorer}/{estimator}: {stats:?}");
            assert_eq!(stats.cheap_invocations, 0);
            assert_eq!(stats.pruned, 0);
        }
    }

    /// Thread-count invariance extends to the planner: the two-pass
    /// answer and its statistics are bit-identical for every thread
    /// count.
    #[test]
    fn two_pass_plan_is_thread_count_invariant() {
        let (idx, q) = wide_fixture(40);
        let serial = QueryOptions {
            k: 6,
            scorer: Scorer::S2,
            estimator: CorrelationEstimator::Qn,
            plan: PlanMode::two_pass(),
            threads: 1,
            ..QueryOptions::default()
        };
        let (expected, expected_stats) = top_k_with_plan_stats(&idx, &q, &serial);
        assert!(expected_stats.pruned > 0, "{expected_stats:?}");
        for threads in [0usize, 2, 7, 16, 1000] {
            let opts = QueryOptions { threads, ..serial };
            let (got, stats) = top_k_with_plan_stats(&idx, &q, &opts);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(stats, expected_stats, "threads={threads}");
        }
    }

    /// What only [`execute`] can show: reports appear exactly when asked
    /// for, a traced query is recorded stage by stage with its plan
    /// statistics as notes, and an untraced one records nothing.
    #[test]
    fn execute_attaches_reports_and_spans_only_as_asked() {
        let (idx, q) = wide_fixture(20);
        let opts = QueryOptions::default();
        let note = |t: &Trace, name| t.notes().iter().find(|n| n.0 == name).map(|n| n.1);
        let names = |t: &Trace| t.spans().iter().map(|s| s.name).collect::<Vec<_>>();

        let mut traced = Trace::enabled();
        let reported = execute(&idx, &q, &opts, Some(0.05), &mut traced);
        assert_eq!(names(&traced), ["retrieval", "estimate", "rank", "reports"]);
        assert_eq!(reported.results, top_k_with_reports(&idx, &q, &opts, 0.05));
        assert!(reported.results.iter().all(|r| r.report.is_some()));
        let candidates = reported.stats.candidates as u64;
        assert_eq!(note(&traced, "plan_candidates"), Some(candidates));

        let mut untraced = Trace::disabled();
        let plain = execute(&idx, &q, &opts, None, &mut untraced);
        assert!(names(&untraced).is_empty());
        assert_eq!(plain.stats, reported.stats);
        assert!(plain.results.iter().all(|r| r.report.is_none()));
        let results = plain.results.iter().map(|r| &r.result);
        assert!(results.eq(reported.results.iter().map(|r| &r.result)));
    }

    /// k at (or above) the candidate count leaves nothing to prune: the
    /// planner must skip the cheap pass instead of paying for it.
    #[test]
    fn two_pass_with_k_covering_all_candidates_skips_pass_one() {
        let (idx, q) = fixture();
        let opts = QueryOptions {
            k: 50,
            estimator: CorrelationEstimator::Qn,
            plan: PlanMode::two_pass(),
            ..QueryOptions::default()
        };
        let (got, stats) = top_k_with_plan_stats(&idx, &q, &opts);
        let base = QueryOptions {
            plan: PlanMode::Exhaustive,
            ..opts
        };
        assert_eq!(got, top_k(&idx, &q, &base));
        assert!(!stats.two_pass);
        assert_eq!(stats.cheap_invocations, 0);
    }

    /// The truncation-boundary permutation test, end to end: build the
    /// same corpus under several insertion orders, with more exact-tie
    /// candidates than `overlap_candidates` admits, and assert the
    /// ranked answers and reports are identical (doc ids are positional
    /// by design, so results are compared by sketch id).
    #[test]
    fn answers_are_insertion_order_independent_at_the_cutoff() {
        let b = SketchBuilder::new(SketchConfig::with_size(64));
        let n = 200usize;
        let keys: Vec<String> = (0..n).map(|i| format!("key-{i}")).collect();
        let query = b.build(&ColumnPair::new(
            "q",
            "k",
            "v",
            keys.clone(),
            (0..n).map(|i| ((i as f64) * 0.21).sin() * 4.0).collect(),
        ));
        // Ten sketches over the *same* key set (identical overlap with
        // the query), distinct signals; the candidate cutoff admits 6.
        let names: Vec<String> = (0..10).map(|t| format!("t{t}")).collect();
        let build_one = |name: &str| {
            let t: usize = name[1..].parse().unwrap();
            b.build(&ColumnPair::new(
                name,
                "k",
                "v",
                keys.clone(),
                (0..n)
                    .map(|i| ((i as f64) * 0.21 + t as f64).sin() * (t + 1) as f64)
                    .collect(),
            ))
        };
        let opts = QueryOptions {
            overlap_candidates: 6,
            k: 6,
            scorer: Scorer::S4,
            ..QueryOptions::default()
        };

        let project =
            |rep: Vec<ReportedResult>| -> Vec<(String, usize, usize, Option<f64>, f64, _)> {
                rep.into_iter()
                    .map(|r| {
                        (
                            r.result.id,
                            r.result.overlap,
                            r.result.sample_size,
                            r.result.estimate,
                            r.result.score,
                            r.report,
                        )
                    })
                    .collect()
            };

        let mut expected = None;
        for rot in 0..names.len() {
            let mut order = names.clone();
            order.rotate_left(rot);
            if rot % 3 == 1 {
                order.reverse();
            }
            let idx = SketchIndex::from_sketches(order.iter().map(|name| build_one(name))).unwrap();
            let got = project(top_k_with_reports(&idx, &query, &opts, 0.05));
            assert_eq!(got.len(), 6);
            match &expected {
                None => expected = Some(got),
                Some(want) => assert_eq!(&got, want, "insertion order {order:?}"),
            }
        }
    }
}
