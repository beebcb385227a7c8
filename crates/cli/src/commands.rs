//! The subcommands. Each returns its rendered report as a `String` so
//! the binary stays a thin printing shell and the integration tests can
//! assert on outputs directly.

use std::fmt::Write as _;
use std::path::Path;

use correlation_sketches::{join_sketches, CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_stats::CorrelationEstimator;
use sketch_table::{Aggregation, Table};

use crate::cli::{CliArgs, CliError};

fn load_table(path: &str) -> Result<Table, CliError> {
    let text = std::fs::read_to_string(path)?;
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string();
    Table::from_csv(name, &text).map_err(|e| CliError::Data(format!("{path}: {e}")))
}

/// Render a store-layer failure (I/O with path, or a typed corruption
/// reason) as a data error.
fn store_err(e: sketch_store::StoreError) -> CliError {
    CliError::Data(e.to_string())
}

/// Sketch every `⟨categorical, numeric⟩` column pair of every `.csv`
/// file in a directory, in sorted path order. Returns the sketches plus
/// the table count.
fn sketch_csv_dir(
    dir: &str,
    builder: &SketchBuilder,
) -> Result<(Vec<CorrelationSketch>, usize), CliError> {
    let mut csvs: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("csv"))
        .collect();
    csvs.sort();
    if csvs.is_empty() {
        return Err(CliError::Data(format!("no .csv files in {dir}")));
    }
    let mut sketches = Vec::new();
    for path in &csvs {
        let table = load_table(path.to_str().expect("utf-8 path"))?;
        for pair in table.column_pairs() {
            sketches.push(builder.build(&pair));
        }
    }
    Ok((sketches, csvs.len()))
}

fn sketch_config(args: &mut CliArgs, default_size: usize) -> Result<SketchConfig, CliError> {
    let size = args.parse_or("sketch-size", default_size)?;
    let aggregation = args.parse_or("aggregation", Aggregation::Mean)?;
    let seed = args.parse_or("seed", 0u64)?;
    Ok(SketchConfig::with_size(size)
        .aggregation(aggregation)
        .hasher(sketch_hashing::TupleHasher::new_64(seed)))
}

/// The non-empty items of a comma-separated flag value.
fn comma_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// `--confidence`, when given: a level strictly inside `(0, 1)`.
fn confidence_flag(args: &mut CliArgs) -> Result<Option<f64>, CliError> {
    match args.parse_opt::<f64>("confidence")? {
        Some(c) if !(c > 0.0 && c < 1.0) => Err(CliError::Usage(format!(
            "--confidence must be in (0, 1), got {c}"
        ))),
        other => Ok(other),
    }
}

/// `corrsketch corpus` — manage packed binary corpus stores (sharded
/// `.cskb` files + manifest; the `sketch-store` crate's format),
/// including live mutation: `append` and `rm` write delta shards,
/// `compact` folds them back into base shards.
pub mod corpus {
    use super::*;
    use correlation_sketches::DeltaHead;
    use sketch_store::shard::{decode_delta_heads, decode_shard_heads};
    use sketch_store::{
        append_corpus, compact_corpus, pack_corpus, remove_from_corpus, DirectoryState, Manifest,
        PackOptions, FORMAT_VERSION,
    };

    /// `corrsketch corpus pack` — sketch every `⟨categorical, numeric⟩`
    /// column pair of every `.csv` file in a directory and pack the
    /// sketches into a sharded binary store.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing or unknown flags, unreadable inputs, or
    /// store write failures.
    pub fn pack(mut args: CliArgs) -> Result<String, CliError> {
        let dir = args.required("dir")?;
        let out = args.required("out")?;
        let shards = args.parse_or("shards", 8usize)?;
        let threads = args.parse_or("threads", 1usize)?;
        let builder = SketchBuilder::new(sketch_config(&mut args, 256)?);
        args.finish("corpus pack")?;

        let (sketches, tables) = sketch_csv_dir(&dir, &builder)?;
        let manifest = pack_corpus(Path::new(&out), &sketches, &PackOptions { shards, threads })
            .map_err(store_err)?;
        Ok(format!(
            "packed {} sketches from {tables} tables in {dir} into {} shards under {out}",
            manifest.total,
            manifest.shards.len()
        ))
    }

    /// `corrsketch corpus info` — validate a packed store (every
    /// checksum is verified by the full load, delta shards included) and
    /// report its shape, generations, and pending delta records. With
    /// `--json true` the same metadata is emitted as one machine-readable
    /// JSON object (the schema the query server's `GET /corpus` endpoint
    /// nests under `"store"`), for scripts and tooling.
    ///
    /// # Errors
    ///
    /// [`CliError`] on unreadable or corrupt stores.
    pub fn info(mut args: CliArgs) -> Result<String, CliError> {
        let dir = args.required("store")?;
        let threads = args.parse_or("threads", 1usize)?;
        let json = args.parse_or("json", false)?;
        args.finish("corpus info")?;
        let dir = dir.as_str();
        // The full load verifies every checksum; the stat re-read (the
        // manifest, the id directory and the delta heads) gives the shape.
        let sketches = sketch_store::read_corpus(Path::new(dir), threads).map_err(store_err)?;
        let tuples: usize = sketches.iter().map(CorrelationSketch::len).sum();
        let mem: usize = sketches.iter().map(CorrelationSketch::memory_bytes).sum();
        let info = sketch_store::stat_corpus(Path::new(dir)).map_err(store_err)?;
        if json {
            let mut out = String::new();
            out.push_str("{\"store\":");
            correlation_sketches::json::push_string(&mut out, dir);
            let _ = write!(
                out,
                ",\"format_version\":{FORMAT_VERSION},\"integrity\":\"ok\",\
                 \"tuples\":{tuples},\"memory_bytes\":{mem},\"layout\":{}}}",
                info.to_json()
            );
            return Ok(out);
        }
        let kib = |bytes: u64| bytes as f64 / 1024.0;
        let mut out = String::new();
        let _ = writeln!(out, "store {dir} (format v{FORMAT_VERSION}):");
        let _ = writeln!(out, "  sketches (live) : {}", info.live);
        let _ = writeln!(
            out,
            "  generation      : {} (base at {})",
            info.generation, info.base_generation
        );
        let _ = writeln!(out, "  base records    : {}", info.base_records());
        let _ = writeln!(out, "  shards          : {}", info.shards.len());
        for s in &info.shards {
            let _ = writeln!(
                out,
                "    {:<20} records={:<6} {:.1} KiB",
                s.file,
                s.records,
                kib(s.bytes)
            );
        }
        let _ = writeln!(out, "  delta shards    : {}", info.deltas.len());
        for d in &info.deltas {
            let _ = writeln!(
                out,
                "    {:<20} records={:<6} tombstones={:<4} gen={:<4} {:.1} KiB",
                d.file,
                d.records,
                d.tombstones,
                d.generation,
                kib(d.bytes)
            );
        }
        if !info.deltas.is_empty() {
            let _ = writeln!(
                out,
                "  pending         : {} appends, {} tombstones \
                 (reclaimable by `corpus compact`)",
                info.pending_appends(),
                info.pending_tombstones()
            );
        }
        let _ = writeln!(
            out,
            "  id directory    : {} ({:.1} KiB; {})",
            info.directory.as_str(),
            kib(info.directory_bytes),
            match info.directory {
                DirectoryState::Ok => "a write costs the delta",
                DirectoryState::Absent | DirectoryState::Stale =>
                    "a write re-validates every base shard until `corpus compact`",
            }
        );
        let _ = writeln!(out, "  tuples          : {tuples}");
        let _ = writeln!(out, "  on disk         : {:.1} KiB", kib(info.disk_bytes()));
        let _ = writeln!(out, "  memory (loaded) : {:.1} KiB", mem as f64 / 1024.0);
        let _ = writeln!(
            out,
            "  integrity       : ok (all record checksums verified)"
        );
        Ok(out)
    }

    /// The sketch configuration of the store's first record, from record
    /// *heads* alone: those of the first populated base shard, else of
    /// the pending deltas in log order. `corpus append` needs just the
    /// configuration up front, and `append_corpus` opens no base shard,
    /// so decoding sketches here would be most of the command's cost.
    fn store_config(dir: &Path) -> Result<Option<SketchConfig>, CliError> {
        let manifest = Manifest::load(dir).map_err(store_err)?;
        let read = |file: &str| {
            let path = dir.join(file);
            std::fs::read(&path).map_err(|e| CliError::Data(format!("{}: {e}", path.display())))
        };
        if let Some(s) = manifest.shards.iter().find(|s| s.count > 0) {
            let bytes = read(&s.file)?;
            let heads = decode_shard_heads(&bytes).map_err(|e| store_err(e.into()))?;
            if let Some(head) = heads.first() {
                return Ok(Some(head.config()));
            }
        }
        for d in &manifest.deltas {
            let bytes = read(&d.file)?;
            let heads = decode_delta_heads(&bytes).map_err(|e| store_err(e.into()))?;
            for head in heads {
                if let DeltaHead::Sketch(head) = head {
                    return Ok(Some(head.config()));
                }
            }
        }
        Ok(None)
    }

    /// `corrsketch corpus append` — sketch the columns of more CSVs and
    /// append them to a live store as one delta shard, without
    /// re-packing. The new sketches reuse the store's sketch configuration
    /// so old and new stay joinable (the store layer additionally rejects
    /// hasher-incompatible appends); the sketch-config flags apply only
    /// to a store that holds no sketch yet.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing or unknown flags, unreadable inputs, id
    /// collisions with the live corpus, or store write failures.
    pub fn append(mut args: CliArgs) -> Result<String, CliError> {
        let store = args.required("store")?;
        let dir = args.required("dir")?;
        let threads = args.parse_or("threads", 1usize)?;
        let fallback = sketch_config(&mut args, 256)?;
        args.finish("corpus append")?;

        let config = store_config(Path::new(&store))?.unwrap_or(fallback);
        let (sketches, tables) = sketch_csv_dir(&dir, &SketchBuilder::new(config))?;
        let manifest = append_corpus(Path::new(&store), &sketches, threads).map_err(store_err)?;
        Ok(format!(
            "appended {} sketches from {tables} tables in {dir} to {store} \
             (generation {}, {} live sketches)",
            sketches.len(),
            manifest.generation,
            manifest.total
        ))
    }

    /// `corrsketch corpus rm` — tombstone live sketches by id
    /// (comma-separated `--ids`) as one delta shard. The records stay on
    /// disk until `corpus compact` reclaims them.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing flags, ids that are not live, or store
    /// write failures.
    pub fn rm(mut args: CliArgs) -> Result<String, CliError> {
        let store = args.required("store")?;
        let threads = args.parse_or("threads", 1usize)?;
        let ids = comma_list(&args.required("ids")?);
        args.finish("corpus rm")?;
        if ids.is_empty() {
            return Err(CliError::Usage(
                "corpus rm needs --ids <id>[,<id>…] (sketch ids like table/key/value)".into(),
            ));
        }
        let manifest = remove_from_corpus(Path::new(&store), &ids, threads).map_err(store_err)?;
        Ok(format!(
            "tombstoned {} sketches in {store} (generation {}, {} live sketches)",
            ids.len(),
            manifest.generation,
            manifest.total
        ))
    }

    /// `corrsketch corpus shard` — partition a packed store's live view
    /// into `--workers` per-worker stores (deterministic contiguous
    /// slices, in live-view order) plus a `partition.cskp` manifest, for
    /// scatter-gather serving: boot one `corrsketch serve` per worker
    /// directory, then a `serve --coordinator` over them. Worker order
    /// in the manifest is the shard order the coordinator must use.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing flags, a zero worker count, unreadable
    /// stores, or write failures.
    pub fn shard(mut args: CliArgs) -> Result<String, CliError> {
        let store = args.required("store")?;
        let out = args.required("out")?;
        let workers: usize = args
            .required("workers")?
            .parse()
            .map_err(|e| CliError::Usage(format!("--workers: {e}")))?;
        let threads = args.parse_or("threads", 1usize)?;
        args.finish("corpus shard")?;
        if workers == 0 {
            return Err(CliError::Usage("--workers must be at least 1".into()));
        }
        let manifest =
            sketch_store::shard_corpus(Path::new(&store), Path::new(&out), workers, threads)
                .map_err(store_err)?;
        let mut report = format!(
            "partitioned {} live sketches of {store} (generation {}) into {} worker stores under {out}:\n",
            manifest.total,
            manifest.source_generation,
            manifest.shards.len()
        );
        for (i, s) in manifest.shards.iter().enumerate() {
            let _ = writeln!(
                report,
                "  shard {i}: {}/{} ({} sketches)",
                out, s.dir, s.count
            );
        }
        Ok(report)
    }

    /// `corrsketch corpus compact` — fold every delta shard back into
    /// freshly packed base shards, reclaiming tombstoned records. Query
    /// results over the store are unchanged; only the layout is.
    ///
    /// # Errors
    ///
    /// [`CliError`] on unreadable/corrupt stores or write failures.
    pub fn compact(mut args: CliArgs) -> Result<String, CliError> {
        let store = args.required("store")?;
        let shards = args.parse_or("shards", 8usize)?;
        let threads = args.parse_or("threads", 1usize)?;
        args.finish("corpus compact")?;
        let before = Manifest::load(Path::new(&store)).map_err(store_err)?;
        let before_records: u64 = before.shards.iter().map(|s| s.count).sum::<u64>()
            + before.deltas.iter().map(|d| d.records).sum::<u64>();
        let manifest = compact_corpus(Path::new(&store), &PackOptions { shards, threads })
            .map_err(store_err)?;
        Ok(format!(
            "compacted {store}: {} records across {} base + {} delta shards -> \
             {} live sketches in {} shards (reclaimed {} records, generation {})",
            before_records,
            before.shards.len(),
            before.deltas.len(),
            manifest.total,
            manifest.shards.len(),
            before_records - manifest.total,
            manifest.generation
        ))
    }
}

/// `corrsketch query` — top-k join-correlation query against a packed
/// store, ranked by one of the confidence-aware `s1..s4` scorers through
/// the same engine path the server uses.
pub mod query {
    use super::*;
    use sketch_index::{engine, PlanMode, QueryOptions, Scorer, SketchIndex};

    /// Run the subcommand.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing or unknown flags, an unreadable or empty
    /// store, or missing query columns.
    pub fn run(mut args: CliArgs) -> Result<String, CliError> {
        let store = args.required("store")?;
        let table_path = args.required("table")?;
        let key = args.required("key")?;
        let value = args.required("value")?;
        let threads = args.parse_or("threads", 1usize)?;
        let opts = QueryOptions {
            overlap_candidates: args.parse_or("candidates", 100usize)?,
            k: args.parse_or("k", 10usize)?,
            estimator: args.parse_or("estimator", CorrelationEstimator::Pearson)?,
            threads,
            // Default to s2 (Fisher-z penalization): s4 normalizes CI
            // lengths *within the candidate list*, which is meaningful
            // for the ~100-candidate lists of the evaluation but
            // degenerate for tiny result sets (the longest-CI candidate
            // is always zeroed). s2 penalizes by sample size alone and
            // behaves well at any list size.
            scorer: args.parse_or("scorer", Scorer::S2)?,
            confidence: confidence_flag(&mut args)?.unwrap_or(0.95),
            // `--plan two-pass[@conf]` prunes on cheap Pearson CIs and
            // spends --estimator only on the contested band; results are
            // identical to exhaustive (the engine's losslessness
            // contract).
            plan: args.parse_or("plan", PlanMode::Exhaustive)?,
            ..QueryOptions::default()
        };
        args.finish("query")?;
        let (key, value) = (key.as_str(), value.as_str());

        let sketches = sketch_store::read_corpus(Path::new(&store), threads).map_err(store_err)?;
        let Some(first) = sketches.first() else {
            return Err(CliError::Data(format!("{store} contains no sketches")));
        };
        // Reuse the store's full configuration so the query sketch is
        // joinable and comparably sized.
        let config = first.head().config();
        let index =
            SketchIndex::from_sketches(sketches).map_err(|e| CliError::Data(e.to_string()))?;

        let table = load_table(&table_path)?;
        let pair = table.column_pair(key, value).ok_or_else(|| {
            CliError::Data(format!(
                "{table_path}: need categorical '{key}' and numeric '{value}' columns \
                 (categorical: {:?}, numeric: {:?})",
                table.categorical_names(),
                table.numeric_names()
            ))
        })?;
        let q_sketch = SketchBuilder::new(config).build(&pair);

        // The live engine path: retrieve, fused estimate + CI (fanned
        // out over --threads workers), re-rank by the scorer.
        let (results, stats) = engine::top_k_with_plan_stats(&index, &q_sketch, &opts);

        let mut out = String::new();
        let _ = writeln!(
            out,
            "query {}/{}/{} against {} sketches (scorer {}, estimator {}, confidence {:.0}%, plan {})",
            pair.table,
            key,
            value,
            index.len(),
            opts.scorer.name(),
            opts.estimator.name(),
            opts.confidence * 100.0,
            opts.plan
        );
        if stats.two_pass {
            let _ = writeln!(
                out,
                "plan: {} candidates, {} cheap CIs, {} pruned, {} {} calls, {} promotion round(s)",
                stats.candidates,
                stats.cheap_invocations,
                stats.pruned,
                stats.expensive_invocations,
                opts.estimator.name(),
                stats.promotion_rounds
            );
        }
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>6} {:>9} {:>17} {:>8}",
            "column", "overlap", "n", "estimate", "ci", "score"
        );
        for r in &results {
            let est = r
                .estimate
                .map_or_else(|| "-".to_string(), |e| format!("{e:+.3}"));
            let ci = match (r.ci_lo, r.ci_hi) {
                (Some(lo), Some(hi)) => format!("[{lo:+.3}, {hi:+.3}]"),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<40} {:>8} {:>6} {:>9} {:>17} {:>8.3}",
                r.id, r.overlap, r.sample_size, est, ci, r.score
            );
        }
        if results.is_empty() {
            let _ = writeln!(out, "(no joinable columns found)");
        }
        Ok(out)
    }
}

/// `corrsketch estimate` — one-off estimate between two CSV columns,
/// showing every estimator plus the confidence intervals.
pub mod estimate {
    use super::*;

    /// Run the subcommand.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing flags/columns or degenerate samples.
    pub fn run(mut args: CliArgs) -> Result<String, CliError> {
        let config = sketch_config(&mut args, 1024)?;
        let builder = SketchBuilder::new(config);
        let mut sides = Vec::new();
        for side in ["left", "right"] {
            sides.push((
                args.required(side)?,
                args.required(&format!("{side}-key"))?,
                args.required(&format!("{side}-value"))?,
            ));
        }
        args.finish("estimate")?;

        let mut pairs = Vec::new();
        for (path, key, value) in &sides {
            let table = load_table(path)?;
            let pair = table.column_pair(key, value).ok_or_else(|| {
                CliError::Data(format!(
                    "{path}: need categorical '{key}' and numeric '{value}' columns"
                ))
            })?;
            pairs.push(pair);
        }
        let (left, right) = (&pairs[0], &pairs[1]);

        let sample = join_sketches(&builder.build(left), &builder.build(right))
            .map_err(|e| CliError::Data(e.to_string()))?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} ({} rows)  ⨝  {} ({} rows): sketch join sample = {} rows",
            left.id(),
            left.len(),
            right.id(),
            right.len(),
            sample.len()
        );
        if sample.len() < 3 {
            let _ = writeln!(out, "join sample too small for estimation");
            return Ok(out);
        }
        for est in CorrelationEstimator::EXTENDED {
            let _ = writeln!(
                out,
                "  {:<10} {}",
                est.name(),
                sample
                    .estimate(est)
                    .map_or_else(|e| format!("({e})"), |r| format!("{r:+.4}"))
            );
        }
        if let Ok(ci) = sample.hoeffding_ci(0.05) {
            let _ = writeln!(out, "  hoeffding 95% CI: [{:+.3}, {:+.3}]", ci.low, ci.high);
        }
        let _ = writeln!(out, "  fisher-z SE: {:.4}", sample.fisher_se());
        Ok(out)
    }
}

/// `corrsketch serve` — boot the `sketch-server` HTTP query service
/// over a packed corpus store and run until `SIGTERM`/`SIGINT`, then
/// shut down gracefully (in-flight requests finish, workers join, exit
/// code 0).
pub mod serve {
    use super::*;
    use std::time::Duration;

    /// What `serve` reads the same way whether it serves a store or
    /// coordinates workers.
    struct FrontFlags {
        addr: String,
        threads: usize,
        cache_capacity: usize,
        poll_interval: Duration,
        request_timeout: Duration,
        slow_query: Option<Duration>,
        defaults: sketch_server::QueryParams,
    }

    /// A duration flag given in milliseconds.
    fn millis(args: &mut CliArgs, key: &str, default: u64) -> Result<Duration, CliError> {
        args.parse_or(key, default).map(Duration::from_millis)
    }

    fn front_flags(args: &mut CliArgs) -> Result<FrontFlags, CliError> {
        let host = args.optional("host");
        let addr = format!(
            "{}:{}",
            host.as_deref().unwrap_or("127.0.0.1"),
            args.parse_or("port", 0u16)?
        );
        // Corpus-level ranking defaults: requests that omit "scorer" /
        // "confidence" / "plan" resolve to these (and they participate in
        // the cache fingerprint exactly like spelled-out values).
        let mut defaults = sketch_server::QueryParams::default();
        defaults.scorer = args.parse_or("scorer", defaults.scorer)?;
        defaults.confidence = confidence_flag(args)?.unwrap_or(defaults.confidence);
        defaults.plan = args.parse_or("plan", defaults.plan)?;
        Ok(FrontFlags {
            addr,
            threads: args.parse_or("threads", 4usize)?,
            cache_capacity: args.parse_or("cache", 1024usize)?,
            poll_interval: millis(args, "poll-ms", 200)?,
            request_timeout: millis(args, "request-timeout-ms", 10_000)?,
            // 0 keeps the slow-query log off (the default); any other
            // value arms always-on internal tracing plus one structured
            // stderr line per request at or over the threshold.
            slow_query: Some(millis(args, "slow-query-ms", 0)?).filter(|d| !d.is_zero()),
            defaults,
        })
    }

    /// Print the readiness line *now* — the final report string is only
    /// printed at shutdown, and launch scripts poll for this — then block
    /// until a termination signal.
    fn serve_until_terminated(ready: &str) {
        println!("{ready}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        while !sketch_server::signal::termination_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Run the subcommand. Blocks until a termination signal; the bound
    /// address is printed to stdout immediately so scripts can wait for
    /// readiness. With `--workers` (or `--coordinator true`) it boots
    /// the scatter-gather coordinator over already-running worker
    /// servers instead of serving a store directly.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing or unknown flags, unreadable stores,
    /// unreachable workers, or unbindable addresses.
    pub fn run(mut args: CliArgs) -> Result<String, CliError> {
        let workers = args.optional("workers");
        if args.parse_or("coordinator", false)? || workers.is_some() {
            return run_coordinator(args, workers);
        }
        let store = args.required("store")?;
        let front = front_flags(&mut args)?;
        let load_threads = args.parse_or("load-threads", front.threads)?;
        args.finish("serve")?;
        let config = sketch_server::ServerConfig {
            addr: front.addr,
            threads: front.threads,
            load_threads,
            cache_capacity: front.cache_capacity,
            poll_interval: front.poll_interval,
            request_timeout: front.request_timeout,
            slow_query: front.slow_query,
            defaults: front.defaults,
            ..sketch_server::ServerConfig::new(&store)
        };

        // Handlers must be in place before the (possibly slow) store
        // load: a supervisor's SIGTERM during startup should still take
        // the graceful exit path, not the default disposition.
        sketch_server::signal::install();
        let handle = sketch_server::start(config).map_err(|e| CliError::Data(e.to_string()))?;
        serve_until_terminated(&format!(
            "serving {store} at http://{} ({} sketches, generation {})",
            handle.addr(),
            handle.sketches(),
            handle.generation()
        ));
        let summary = handle.shutdown();
        Ok(format!("graceful shutdown; final stats: {summary}"))
    }

    /// The coordinator mode: fan `/query` and `/query_batch` out over
    /// `--workers` (comma-separated `host:port`, **in partition order**
    /// — the order `corpus shard` wrote them) and merge losslessly.
    fn run_coordinator(mut args: CliArgs, workers: Option<String>) -> Result<String, CliError> {
        // `--coordinator true` alone lands here without the flag.
        let workers = comma_list(&workers.map_or_else(|| args.required("workers"), Ok)?);
        let front = front_flags(&mut args)?;
        let worker_timeout = millis(&mut args, "worker-timeout-ms", 2_000)?;
        let startup_timeout = millis(&mut args, "startup-timeout-ms", 10_000)?;
        args.finish("serve --coordinator")?;
        if workers.is_empty() {
            return Err(CliError::Usage(
                "--workers needs at least one host:port address".into(),
            ));
        }
        let worker_count = workers.len();
        let config = sketch_server::CoordinatorConfig {
            addr: front.addr,
            threads: front.threads,
            cache_capacity: front.cache_capacity,
            poll_interval: front.poll_interval,
            request_timeout: front.request_timeout,
            worker_timeout,
            startup_timeout,
            slow_query: front.slow_query,
            defaults: front.defaults,
            ..sketch_server::CoordinatorConfig::new(workers)
        };

        sketch_server::signal::install();
        let handle =
            sketch_server::start_coordinator(config).map_err(|e| CliError::Data(e.to_string()))?;
        serve_until_terminated(&format!(
            "coordinating {worker_count} workers at http://{} (generations {:?})",
            handle.addr(),
            handle.generations()
        ));
        let summary = handle.shutdown();
        Ok(format!("graceful shutdown; final stats: {summary}"))
    }
}

/// `corrsketch inspect` — summary statistics of a packed store's live
/// sketches.
pub mod inspect {
    use super::*;
    use correlation_sketches::distinct_value_estimate;

    /// Run the subcommand.
    ///
    /// # Errors
    ///
    /// [`CliError`] on missing or unknown flags, or an unreadable or
    /// corrupt store.
    pub fn run(mut args: CliArgs) -> Result<String, CliError> {
        let store = args.required("store")?;
        args.finish("inspect")?;
        let sketches = sketch_store::read_corpus(Path::new(&store), 1).map_err(store_err)?;
        let total_entries: usize = sketches.iter().map(CorrelationSketch::len).sum();
        let bytes: usize = sketches.iter().map(CorrelationSketch::memory_bytes).sum();
        let saturated = sketches.iter().filter(|s| s.is_saturated()).count();
        let mut out = String::new();
        let _ = writeln!(out, "store {store}:");
        let _ = writeln!(out, "  sketches        : {}", sketches.len());
        let _ = writeln!(out, "  tuples          : {total_entries}");
        let _ = writeln!(out, "  memory (tuples) : {:.1} KiB", bytes as f64 / 1024.0);
        let _ = writeln!(out, "  saturated       : {saturated}");
        for s in sketches.iter().take(20) {
            let _ = writeln!(
                out,
                "  {:<40} n={:<6} rows={:<8} distinct≈{:.0}",
                s.id(),
                s.len(),
                s.rows_scanned(),
                distinct_value_estimate(s)
            );
        }
        if sketches.len() > 20 {
            let _ = writeln!(out, "  … and {} more", sketches.len() - 20);
        }
        Ok(out)
    }
}
