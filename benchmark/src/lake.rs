//! The benchmark's inputs: one lake of column pairs (corpus + query
//! pool) made from the lake seed, and the traffic over it — which
//! columns are asked for, in what order — made from `--seed`. Plus the
//! serialized request bodies and the exact-join ground truth.
//!
//! The lake is the same for every `--seed` on purpose. The benchmark is
//! accepted, and a later change judged, by the spread of each metric
//! over runs with *different* seeds; a lake per seed puts the lake's own
//! variation into that spread (over ten lakes the quartiles of
//! `recall_at_k` lay 23% of the median apart on the served workloads
//! and 86% on `lake_churn`, those of `store_bytes_per_sketch` 2%), and
//! no bound this benchmark is allowed could then tell a regression
//! from a draw. So `--seed` draws the traffic, and `--lake-seed` —
//! which the driver never passes — draws another lake, for the
//! holdout (README: seeds).
//!
//! Generating these is input generation: none of it is part of
//! `setup_s`, and the product sees only what is generated here.

use sketch_datagen::dist::Zipf;
use sketch_datagen::{generate_open_data, split_corpus, Dist, OpenDataConfig};
use sketch_stats::pearson;
use sketch_table::{exact_join, Aggregation, ColumnPair};

/// The lake every run measures unless told otherwise, and the first
/// traffic seed of the checked-in run sets.
pub const DEFAULT_SEED: u64 = 0x55_5eed;
/// A lake kept aside: no size or bound was chosen while looking at it,
/// and the smoke test runs on it (README: seeds).
#[cfg(test)]
pub const HOLDOUT_SEED: u64 = 0x5_eed2;

/// Worker threads for building, packing and loading. Fixed, not taken
/// from the machine, so two machines run the same program.
pub const THREADS: usize = 2;

/// Sketch size of every corpus sketch (paper Section 5.5).
pub const SKETCH_SIZE: usize = 1024;

/// A ground-truth column needs at least this many exactly joined rows.
const MIN_EXACT_ROWS: usize = 50;

/// How large a run is. `full` is what `BENCHMARK.json` describes;
/// `smoke` exists so a test can run every workload in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Tables generated. 1600 gives about 2800 corpus sketches and a
    /// pool of about 1200 query columns — larger than the 1024-entry
    /// caches, and small enough that generating it in every run fits
    /// the time a run is allowed (README: the lake).
    pub tables: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Entries in every response cache of a cold workload's system. A
    /// caller's cycle is at least twice this (checked before timing), so
    /// whatever pace the callers keep, an entry is evicted long before
    /// its body comes round again.
    pub cold_cache: usize,
    /// Pool bodies verified byte-for-byte before timing.
    pub verify_sample: usize,
    /// Queries with exact-join ground truth (a prefix of the sample).
    pub truth_queries: usize,
    /// Working set of `serve_hot`.
    pub hot_set: usize,
    /// Ops replayed by the traced run — more than a cold cache holds,
    /// so a cold workload's trace sees evictions too.
    pub traced_ops: usize,
    /// Cap on timed ops per client (`None`: the clock decides).
    pub op_cap: Option<usize>,
}

impl Sizes {
    pub const fn full() -> Self {
        Self {
            tables: 1600,
            setup_reps: 9,
            cold_cache: 256,
            verify_sample: 256,
            truth_queries: 32,
            hot_set: 512,
            traced_ops: 1024,
            op_cap: None,
        }
    }

    pub const fn smoke() -> Self {
        Self {
            tables: 200,
            setup_reps: 2,
            cold_cache: 16,
            verify_sample: 24,
            truth_queries: 8,
            hot_set: 32,
            traced_ops: 48,
            op_cap: Some(300),
        }
    }
}

/// The generated lake.
pub struct Lake {
    /// Column pairs that are sketched and indexed.
    pub corpus: Vec<ColumnPair>,
    /// Column pairs held out as queries (and, on `lake_churn`, as the
    /// columns appended to the lake).
    pub pool: Vec<ColumnPair>,
    /// A permutation of pool indices. Its first `truth_queries` entries
    /// are the lake's own (the queries with ground truth are the same
    /// for every traffic seed, so `recall_at_k` is one number per
    /// commit); the rest is shuffled by `--seed`. A prefix of it is the
    /// verified sample, `serve_hot` takes its first `hot_set` entries
    /// as working set, the round-robin clients share all of it, and
    /// `lake_churn` appends from its tail.
    pub order: Vec<usize>,
}

impl Lake {
    pub fn generate(lake_seed: u64, seed: u64, sizes: &Sizes) -> Self {
        let generated = generate_open_data(&OpenDataConfig {
            tables: sizes.tables,
            ..OpenDataConfig::nyc(lake_seed)
        });
        let split = split_corpus(&generated, 0.3, lake_seed);
        let mut order: Vec<usize> = (0..split.queries.len()).collect();
        Dist::seeded(lake_seed ^ 0x0bde_0bde).shuffle(&mut order);
        let fixed = sizes.truth_queries.min(order.len());
        Dist::seeded(seed ^ 0x7a_ff1c).shuffle(&mut order[fixed..]);
        Self {
            corpus: split.corpus,
            pool: split.queries,
            order,
        }
    }
}

/// Every served workload asks for the paper's Section 5.5 query: the top
/// 100 columns by key overlap, re-ranked, the best 10 returned.
pub const SERVED_K: usize = 10;
pub const SERVED_CANDIDATES: usize = 100;

/// The `POST /query` body for one pool column.
pub fn query_body(pair: &ColumnPair) -> String {
    use correlation_sketches::json::{push_f64, push_string};
    let mut out = String::with_capacity(32 * pair.len() + 96);
    out.push_str("{\"id\":");
    push_string(&mut out, &pair.id());
    out.push_str(&format!(
        ",\"k\":{SERVED_K},\"candidates\":{SERVED_CANDIDATES},\"keys\":["
    ));
    for (i, key) in pair.keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(&mut out, key);
    }
    out.push_str("],\"values\":[");
    for (i, v) in pair.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(&mut out, *v);
    }
    out.push_str("]}");
    out
}

/// The same body asking for a span tree: `{"trace":true,` spliced in
/// front (tracing is not part of the cache fingerprint).
pub fn traced_body(body: &str) -> String {
    format!("{{\"trace\":true,{}", &body[1..])
}

/// A deterministic, endless sequence of pool indices for one client.
pub enum OpSeq<'a> {
    /// The client walks its own share of the permutation — client `c`
    /// of `n` owns the `c`-th of `n` equal slices — and wraps. Shares
    /// are disjoint, so no client ever asks for a body another client
    /// put in the cache, and a client's own cycle is longer than the
    /// cache (`Sizes::cold_cache`), so its own entries are evicted
    /// before it comes round again: every request misses whatever pace
    /// the clients keep. (If both walked the whole pool half a lap
    /// apart, the client that gains on the other starts hitting what
    /// the other just inserted.)
    RoundRobin { share: &'a [usize], next: usize },
    /// Zipf(s = 1) popularity over a working set: a few columns are
    /// asked for constantly, the tail rarely, so LRU order keeps
    /// churning while everything stays cached.
    Zipf {
        set: &'a [usize],
        zipf: Zipf,
        dist: Dist,
    },
}

impl<'a> OpSeq<'a> {
    pub fn round_robin(order: &'a [usize], client: usize, clients: usize) -> Self {
        let at = |c: usize| c * order.len() / clients;
        Self::RoundRobin {
            share: &order[at(client)..at(client + 1)],
            next: 0,
        }
    }

    pub fn zipf(set: &'a [usize], seed: u64, client: usize) -> Self {
        Self::Zipf {
            set,
            zipf: Zipf::new(set.len(), 1.0),
            dist: Dist::seeded(seed ^ (0x21bf_0000 + client as u64)),
        }
    }

    /// Distinct bodies before the sequence repeats one.
    pub fn cycle_len(&self) -> usize {
        match self {
            Self::RoundRobin { share, .. } => share.len(),
            Self::Zipf { set, .. } => set.len(),
        }
    }
}

impl Iterator for OpSeq<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some(match self {
            Self::RoundRobin { share, next } => {
                let at = *next % share.len();
                *next += 1;
                share[at]
            }
            Self::Zipf { set, zipf, dist } => set[zipf.sample(dist)],
        })
    }
}

/// Exact answer for one pool query: the ids of the corpus columns with
/// the largest `|r|` over the *full* join — computed with
/// `sketch_table::exact_join` and `sketch_stats::pearson`, never with
/// the engine under test.
pub struct Truth {
    /// Pool index of the query.
    pub query: usize,
    /// Corpus column ids by descending exact `|r|` (ties by id).
    pub ranked: Vec<String>,
}

/// A column's key domain: keys are spelled `<domain>-<n>`, and columns
/// of different domains share no key, so only same-domain columns can
/// join at all.
fn domain(pair: &ColumnPair) -> &str {
    pair.keys
        .first()
        .map_or("", |k| k.rsplit_once('-').map_or(k.as_str(), |(d, _)| d))
}

fn truth_for(lake: &Lake, query: usize) -> Truth {
    let q = &lake.pool[query];
    let dom = domain(q);
    let mut scored: Vec<(f64, String)> = lake
        .corpus
        .iter()
        .filter(|c| domain(c) == dom)
        .filter_map(|c| {
            let joined = exact_join(q, c, Aggregation::Mean);
            if joined.len() < MIN_EXACT_ROWS {
                return None;
            }
            let r = pearson(&joined.x, &joined.y).ok()?;
            r.is_finite().then(|| (r.abs(), c.id()))
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    Truth {
        query,
        ranked: scored.into_iter().map(|(_, id)| id).collect(),
    }
}

/// Ground truth for the first `n` queries of the permutation.
pub fn ground_truth(lake: &Lake, n: usize) -> Vec<Truth> {
    let queries = &lake.order[..n.min(lake.order.len())];
    let chunk = queries.len().div_ceil(THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(|&q| truth_for(lake, q)).collect()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| -> Vec<Truth> { h.join().expect("ground-truth threads do not panic") })
            .collect()
    })
}

/// `|answer ∩ exact top-k| ÷ k` averaged over the queries that have an
/// exact answer at all; `k` is capped by how many exact columns exist.
pub fn recall_at_k(truths: &[Truth], answers: &[Vec<String>], k: usize) -> f64 {
    let mut sum = 0.0;
    let mut counted = 0usize;
    for (truth, answer) in truths.iter().zip(answers) {
        let exact = &truth.ranked[..k.min(truth.ranked.len())];
        if exact.is_empty() {
            continue;
        }
        let hits = answer
            .iter()
            .take(k)
            .filter(|id| exact.contains(id))
            .count();
        sum += hits as f64 / exact.len() as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        sum / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequences_repeat_per_seed_and_differ_across_seeds() {
        let order: Vec<usize> = (0..97).collect();
        let take = |seq: OpSeq<'_>| seq.take(500).collect::<Vec<_>>();
        assert_eq!(
            take(OpSeq::zipf(&order, 11, 0)),
            take(OpSeq::zipf(&order, 11, 0))
        );
        assert_ne!(
            take(OpSeq::zipf(&order, 11, 0)),
            take(OpSeq::zipf(&order, 12, 0))
        );
        assert_ne!(
            take(OpSeq::zipf(&order, 11, 0)),
            take(OpSeq::zipf(&order, 11, 1))
        );
        // Round-robin is a pure function of the permutation, which is
        // what the seed shuffles.
        let mut a: Vec<usize> = (0..97).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        Dist::seeded(5).shuffle(&mut a);
        Dist::seeded(5).shuffle(&mut b);
        Dist::seeded(6).shuffle(&mut c);
        assert_eq!(
            take(OpSeq::round_robin(&a, 1, 2)),
            take(OpSeq::round_robin(&b, 1, 2))
        );
        assert_ne!(
            take(OpSeq::round_robin(&a, 1, 2)),
            take(OpSeq::round_robin(&c, 1, 2))
        );
    }

    #[test]
    fn round_robin_clients_walk_disjoint_shares_that_cover_the_pool() {
        let order: Vec<usize> = (0..11).rev().collect();
        let mut seen = Vec::new();
        for client in 0..2 {
            let seq = OpSeq::round_robin(&order, client, 2);
            let cycle = seq.cycle_len();
            let lap: Vec<usize> = seq.take(2 * cycle).collect();
            // …and wraps.
            assert_eq!(lap[..cycle], lap[cycle..]);
            seen.extend_from_slice(&lap[..cycle]);
        }
        assert_eq!(seen, order);
        assert_eq!(OpSeq::round_robin(&order, 0, 1).cycle_len(), 11);
    }

    #[test]
    fn zipf_favours_the_head_of_the_working_set() {
        let set: Vec<usize> = (100..164).collect();
        let draws: Vec<usize> = OpSeq::zipf(&set, 3, 0).take(4000).collect();
        let head = draws.iter().filter(|&&i| i == 100).count();
        let tail = draws.iter().filter(|&&i| i == 163).count();
        assert!(head > 10 * tail.max(1), "head {head} tail {tail}");
        assert!(draws.iter().all(|i| set.contains(i)));
    }

    #[test]
    fn recall_counts_overlap_with_the_exact_top_k() {
        let truths = vec![
            Truth {
                query: 0,
                ranked: vec!["a".into(), "b".into(), "c".into()],
            },
            Truth {
                query: 1,
                ranked: vec![],
            },
            Truth {
                query: 2,
                ranked: vec!["x".into()],
            },
        ];
        let answers = vec![
            vec!["b".to_string(), "z".to_string()],
            vec!["q".to_string()],
            vec!["x".to_string(), "y".to_string()],
        ];
        // Query 0: 1 of 2; query 1 has no exact answer; query 2: 1 of 1.
        assert_eq!(recall_at_k(&truths, &answers, 2), 0.75);
    }

    #[test]
    fn bodies_parse_back_and_trace_splices_in_front() {
        let pair = ColumnPair::new(
            "t",
            "key",
            "v0",
            vec!["zip1-3".to_string(), "zip1-9".to_string()],
            vec![1.5, -2.0],
        );
        let body = query_body(&pair);
        assert_eq!(
            body,
            "{\"id\":\"t/key/v0\",\"k\":10,\"candidates\":100,\
             \"keys\":[\"zip1-3\",\"zip1-9\"],\"values\":[1.5,-2.0]}"
        );
        assert!(traced_body(&body).starts_with("{\"trace\":true,\"id\":"));
        assert_eq!(domain(&pair), "zip1");
    }
}
