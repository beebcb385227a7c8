//! **Section 5.5 (Query Evaluation)** — end-to-end latency of top-k
//! join-correlation queries against the inverted index.
//!
//! Protocol from the paper: extract all column pairs, split into query
//! and corpus sets, build an index over the corpus set with maximum
//! sketch size 1024, then issue every query: retrieve the top-100
//! columns by key overlap, join sketches, estimate correlations, re-sort
//! by estimate. Reported: latency percentiles and the fraction of
//! queries under 100 ms / 200 ms.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin query_latency -- \
//!     --tables 400 --sketch-size 1024 [--query-threads 1] [--json true] \
//!     [--store /tmp/qlat-store]
//! ```
//!
//! Paper reference points: 94% of queries under 100 ms, ~98.5% under
//! 200 ms on the full NYC snapshot.
//!
//! With `--json true` the summary is emitted as a single JSON object on
//! stdout (human-readable progress stays on stderr), so the perf
//! trajectory can be tracked mechanically across PRs.
//!
//! With `--store <dir>` the corpus is additionally persisted twice —
//! newline-delimited JSON and the sharded binary store — and both cold
//! loads are timed and reported (`json_load_ms`, `store_load_ms`,
//! `load_speedup`), after asserting that each load returns exactly the
//! sketches that were built.
//!
//! With `--churn <N>` (N > 0) the run becomes a mutable-corpus workload:
//! every N queries the oldest live sketch is removed from the index and
//! the previously removed one is re-inserted (a steady remove/re-insert
//! cycle), so queries execute against an index under live maintenance.
//! Update costs are timed separately from query latencies, and at the
//! end the churned index is asserted bit-identical (full reports) to an
//! index rebuilt from scratch over the surviving sketches — the same
//! equivalence contract the `prop_mutable` battery proves.

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_bench::{artifact, time_ms, Args, LatencySummary};
use sketch_datagen::{generate_open_data, split_corpus, OpenDataConfig};
use sketch_index::{engine, QueryOptions, SketchIndex};
use sketch_obs::Trace;

fn main() {
    let args = Args::from_env();
    let tables = args.get_or("tables", 400usize);
    let sketch_size = args.get_or("sketch-size", 1024usize);
    let candidates = args.get_or("candidates", 100usize);
    let k = args.get_or("k", 10usize);
    let max_queries = args.get_or("max-queries", 500usize);
    let seed = args.get_or("seed", 0x55_5eedu64);

    eprintln!(
        "query_latency: tables={tables} sketch_size={sketch_size} candidates={candidates} k={k}"
    );

    let corpus_tables = generate_open_data(&OpenDataConfig {
        tables,
        ..OpenDataConfig::nyc(seed)
    });
    let mut split = split_corpus(&corpus_tables, 0.3, seed);
    split.queries.truncate(max_queries);

    let threads = args.get_or("threads", 4usize);
    let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size));
    let (sketches, t_sketch) = time_ms(|| {
        correlation_sketches::build_sketches_parallel(&split.corpus, *builder.config(), threads)
    });

    // --store <dir>: persist the corpus as JSON and as a sharded binary
    // store, then time a cold load of each. Loads are verified
    // bit-identical to the in-memory sketches before timings are trusted.
    let mut extra = String::new();
    let mut load_lines: Vec<String> = Vec::new();
    if let Some(dir) = args.get("store") {
        let dirp = std::path::Path::new(dir);
        std::fs::create_dir_all(dirp).expect("create store dir");
        let shards = args.get_or("shards", 8usize);

        let json_path = dirp.join("corpus.jsonl");
        let mut text = String::with_capacity(64 * sketches.len());
        for s in &sketches {
            text.push_str(&s.to_json().expect("built sketches are finite"));
            text.push('\n');
        }
        std::fs::write(&json_path, &text).expect("write JSON corpus");

        let (_, t_pack) = time_ms(|| {
            sketch_store::pack_corpus(
                dirp,
                &sketches,
                &sketch_store::PackOptions { shards, threads },
            )
            .expect("pack corpus")
        });

        let (json_loaded, t_json_load) = time_ms(|| {
            let text = std::fs::read_to_string(&json_path).expect("read JSON corpus");
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| CorrelationSketch::from_json(l).expect("valid sketch line"))
                .collect::<Vec<_>>()
        });
        let (store_loaded, t_store_load) =
            time_ms(|| sketch_store::read_corpus(dirp, threads).expect("read store"));
        let (_, t_store_serial) =
            time_ms(|| sketch_store::read_corpus(dirp, 1).expect("read store"));
        assert_eq!(json_loaded, sketches, "JSON load must round-trip");
        assert_eq!(store_loaded, sketches, "store load must round-trip");

        let speedup = t_json_load / t_store_load;
        load_lines.push(format!(
            "corpus load ({} sketches): json {t_json_load:.1} ms, \
             store {t_store_load:.1} ms ({threads} threads; serial {t_store_serial:.1} ms), \
             pack {t_pack:.1} ms -> {speedup:.1}x faster",
            sketches.len()
        ));
        extra = format!(
            ",\"store_shards\":{shards},\"pack_ms\":{t_pack:.3},\
             \"json_load_ms\":{t_json_load:.3},\"store_load_ms\":{t_store_load:.3},\
             \"store_load_serial_ms\":{t_store_serial:.3},\"load_speedup\":{speedup:.2}"
        );
    }

    let churn_every = args.get_or("churn", 0usize);
    // The churn workload needs the corpus again: as the live mirror that
    // drives remove/re-insert cycles and as the input of the final
    // rebuild-equivalence check.
    let mut live_order: Vec<CorrelationSketch> = if churn_every > 0 {
        sketches.clone()
    } else {
        Vec::new()
    };

    let (mut index, t_insert) = time_ms(|| {
        let mut idx = SketchIndex::new();
        for sketch in sketches {
            idx.insert(sketch).expect("uniform hasher");
        }
        idx
    });
    let t_index = t_sketch + t_insert;
    eprintln!(
        "indexed {} sketches over {} distinct keys in {:.1} ms",
        index.len(),
        index.distinct_keys(),
        t_index
    );
    for line in &load_lines {
        eprintln!("{line}");
    }
    let index = &mut index;

    let query_threads = args.get_or("query-threads", 1usize);
    let json = args.get_or("json", false);
    let with_reports = args.get_or("with-reports", false);
    let opts = QueryOptions {
        overlap_candidates: candidates,
        k,
        threads: query_threads,
        ..QueryOptions::default()
    };

    let mut latencies = Vec::with_capacity(split.queries.len());
    let mut total_results = 0usize;
    let mut churn_ops = 0usize;
    let mut churn_ms: Vec<f64> = Vec::new();
    // The sketch removed by the previous churn step, re-inserted by the
    // next one, so the live corpus size stays steady under churn.
    let mut parked: Option<CorrelationSketch> = None;
    for (qi, q) in split.queries.iter().enumerate() {
        if churn_every > 0 && qi > 0 && qi % churn_every == 0 && !live_order.is_empty() {
            let (_, t) = time_ms(|| {
                let victim = live_order.remove(0);
                assert!(index.remove(victim.id()), "victim must be live");
                churn_ops += 1;
                if let Some(back) = parked.take() {
                    index.insert(back.clone()).expect("uniform hasher");
                    live_order.push(back);
                    churn_ops += 1;
                }
                parked = Some(victim);
            });
            churn_ms.push(t);
        }
        // Query-sketch construction is part of the online path here (the
        // user's table is not pre-indexed), matching the paper's setup of
        // issuing column pairs from the query set.
        let (n_results, t) = time_ms(|| {
            let qs = builder.build(q);
            if with_reports {
                engine::top_k_with_reports(index, &qs, &opts, 0.05).len()
            } else {
                engine::top_k_with_plan_stats(index, &qs, &opts).0.len()
            }
        });
        total_results += n_results;
        latencies.push(t);
    }

    // After interleaved updates + queries, the churned index must answer
    // exactly like an index rebuilt from scratch over the survivors —
    // doc ids, tie-breaks, uncertainty reports and all.
    if churn_every > 0 {
        let (rebuilt, t_rebuild) = time_ms(|| {
            SketchIndex::from_sketches(live_order.iter().cloned()).expect("uniform hasher")
        });
        for q in split.queries.iter().take(50) {
            let qs = builder.build(q);
            assert_eq!(
                engine::top_k_with_reports(index, &qs, &opts, 0.05),
                engine::top_k_with_reports(&rebuilt, &qs, &opts, 0.05),
                "churned index must be bit-identical to a rebuild"
            );
        }
        let mean_churn = churn_ms.iter().sum::<f64>() / churn_ms.len().max(1) as f64;
        load_lines.push(format!(
            "churn: {churn_ops} update ops (every {churn_every} queries, \
             mean {mean_churn:.3} ms/cycle), verified bit-identical to a \
             from-scratch rebuild ({t_rebuild:.1} ms)"
        ));
        extra.push_str(&format!(
            ",\"churn_every\":{churn_every},\"churn_ops\":{churn_ops},\
             \"churn_cycle_mean_ms\":{mean_churn:.4},\"churn_verified\":true"
        ));
    }

    // --batch true: run the same workload again through the amortized
    // batch API (pre-built query sketches, one call) and report the
    // whole-batch wall time and throughput. Under churn the loop above
    // answered against a moving index, so the equality check (and hence
    // the batch pass) only runs for the static workload.
    if churn_every > 0 && args.get_or("batch", false) {
        load_lines
            .push("batch: skipped under --churn (the loop answered a moving index)".to_string());
    }
    if churn_every == 0 && args.get_or("batch", false) {
        let query_sketches: Vec<_> = split.queries.iter().map(|q| builder.build(q)).collect();
        let (batch_results, t_batch) = time_ms(|| {
            engine::execute(index, &query_sketches, &opts, None, &mut Trace::disabled())
        });
        let n: usize = batch_results.iter().map(|out| out.results.len()).sum();
        assert_eq!(n, total_results, "batch must answer like the loop");
        let qps = query_sketches.len() as f64 / (t_batch / 1000.0);
        load_lines.push(format!(
            "batch: {} queries in {t_batch:.1} ms ({qps:.0} queries/s, {query_threads} threads)",
            query_sketches.len()
        ));
        extra.push_str(&format!(
            ",\"batch_total_ms\":{t_batch:.3},\"batch_queries_per_sec\":{qps:.1}"
        ));
    }

    let s = LatencySummary::of(&latencies);
    let under = |ms: f64| {
        latencies.iter().filter(|&&t| t < ms).count() as f64 / latencies.len() as f64 * 100.0
    };
    let mean_results = total_results as f64 / latencies.len().max(1) as f64;

    // One machine-readable object: printed on stdout under `--json true`
    // and/or written as a `BENCH_query_latency.json` artifact under
    // `--out`, so CI / scripts can diff the perf trajectory across PRs.
    let obj = format!(
        "{{\"bench\":\"query_latency\",\"tables\":{tables},\
         \"sketches\":{},\"distinct_keys\":{},\"sketch_size\":{sketch_size},\
         \"candidates\":{candidates},\"k\":{k},\"query_threads\":{query_threads},\
         \"with_reports\":{with_reports},\"queries\":{},\
         \"index_build_ms\":{t_index:.3},\"mean_ms\":{:.4},\"p50_ms\":{:.4},\
         \"p75_ms\":{:.4},\"p90_ms\":{:.4},\"p95_ms\":{:.4},\"p99_ms\":{:.4},\
         \"p999_ms\":{:.4},\
         \"under_100ms_pct\":{:.2},\"under_200ms_pct\":{:.2},\
         \"mean_results_per_query\":{mean_results:.2}{extra}}}",
        index.len(),
        index.distinct_keys(),
        latencies.len(),
        s.mean,
        s.p50,
        s.p75,
        s.p90,
        s.p95,
        s.p99,
        s.p999,
        under(100.0),
        under(200.0),
    );
    if let Some(out) = args.get("out") {
        let path = artifact::write_artifact(out, "query_latency", &obj).expect("write artifact");
        eprintln!("query_latency: wrote {}", path.display());
    }
    if json {
        println!("{obj}");
        return;
    }

    println!(
        "\nSection 5.5 — query evaluation latency ({} queries)",
        latencies.len()
    );
    println!("mean      : {:>10.3} ms", s.mean);
    println!("p50       : {:>10.3} ms", s.p50);
    println!("p75       : {:>10.3} ms", s.p75);
    println!("p90       : {:>10.3} ms", s.p90);
    println!("p95       : {:>10.3} ms", s.p95);
    println!("p99       : {:>10.3} ms", s.p99);
    println!("p99.9     : {:>10.3} ms", s.p999);
    println!("< 100 ms  : {:>9.1}%  (paper: 94%)", under(100.0));
    println!("< 200 ms  : {:>9.1}%  (paper: ~98.5%)", under(200.0));
    println!("mean results per query: {mean_results:.1}");
    for line in &load_lines {
        println!("{line}");
    }
}
