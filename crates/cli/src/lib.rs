//! `corrsketch` — a command-line front end for the Correlation Sketches
//! library: sketch a directory of CSV files into a packed corpus store
//! once, then answer join-correlation queries against it — from the
//! command line or as a long-running HTTP service.
//!
//! ```text
//! corrsketch corpus pack --dir data/ --out lake-store [--sketch-size 256]
//! corrsketch query    --store lake-store --table q.csv --key day --value pickups
//! corrsketch inspect  --store lake-store
//! corrsketch serve    --store lake-store --port 7351
//! corrsketch estimate --left a.csv --left-key k --left-value x \
//!                     --right b.csv --right-key k --right-value y
//! ```
//!
//! The store (`sketch-store`'s checksummed `.cskb` shards + manifest) is
//! the one on-disk corpus format: `corpus append` / `rm` / `compact`
//! mutate it in place, `corpus shard` partitions it for sharded serving,
//! and the server and the CLI read the same files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod commands;

pub use cli::{CliArgs, CliError};
pub use commands::{corpus, estimate, inspect, query, serve};

/// Entry point shared by `main` and the integration tests: dispatch a
/// subcommand and return its rendered report.
///
/// # Errors
///
/// [`CliError`] on unknown subcommands, bad flags, I/O failures, or
/// malformed inputs.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (command, rest) = argv
        .split_first()
        .ok_or_else(|| CliError::Usage(USAGE.into()))?;
    // `corpus` is a command group: its subcommand precedes the flags.
    if command == "corpus" {
        let (sub, rest) = rest.split_first().ok_or_else(|| {
            CliError::Usage(
                "corpus needs a subcommand: pack | info | append | rm | compact | shard".into(),
            )
        })?;
        let args = CliArgs::parse(rest)?;
        return match sub.as_str() {
            "pack" => corpus::pack(args),
            "info" => corpus::info(args),
            "append" => corpus::append(args),
            "rm" => corpus::rm(args),
            "compact" => corpus::compact(args),
            "shard" => corpus::shard(args),
            other => Err(CliError::Usage(format!(
                "unknown corpus subcommand '{other}' \
                 (expected pack | info | append | rm | compact | shard)\n{USAGE}"
            ))),
        };
    }
    let args = CliArgs::parse(rest)?;
    match command.as_str() {
        "query" => query::run(args),
        "serve" => serve::run(args),
        "estimate" => estimate::run(args),
        "inspect" => inspect::run(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
corrsketch — join-correlation queries over CSV collections

USAGE:
  corrsketch corpus pack --dir <csv-dir> --out <store-dir>
                      [--shards 8] [--threads 1]
                      [--sketch-size 256] [--aggregation mean] [--seed 0]
                      (sketches every <categorical, numeric> column pair
                       of every .csv into a sharded binary store)
  corrsketch corpus info --store <store-dir> [--threads 1] [--json true]
  corrsketch corpus append --store <store-dir> --dir <csv-dir> [--threads 1]
                      (writes a delta shard; reuses the store's sketch
                       configuration — [--sketch-size] [--aggregation]
                       [--seed] apply only while the store is empty)
  corrsketch corpus rm --store <store-dir> --ids <id>[,<id>...]
                      [--threads 1]                     (tombstones live ids)
  corrsketch corpus compact --store <store-dir> [--shards 8] [--threads 1]
                      (folds deltas + tombstones back into base shards)
  corrsketch corpus shard --store <store-dir> --out <dir> --workers <n>
                      [--threads 1]  (partitions the live view into n
                       worker stores + partition.cskp, for sharded serving)
  corrsketch query    --store <store-dir>
                      --table <csv> --key <col> --value <col>
                      [--k 10] [--candidates 100] [--estimator pearson]
                      [--scorer s1|s2|s3|s4] [--confidence 0.95] [--threads 1]
                      [--plan exhaustive|two-pass[@0.99]]
                      (s1 = raw point estimate; s2..s4 penalize by the
                       confidence interval; paper aliases rp, rp*sez,
                       rb*cib, rp*cih accepted. two-pass prunes on cheap
                       Pearson intervals and spends --estimator on the
                       contested band only; same answer. The
                       jc/jc_est/random joinability baselines live in the
                       sketch-ranking evaluation harness, not the query
                       path)
  corrsketch serve    --store <store-dir> [--host 127.0.0.1] [--port 0]
                      [--threads 4] [--load-threads <threads>]
                      [--cache 1024] [--poll-ms 200]
                      [--scorer s1] [--confidence 0.95] [--plan exhaustive]
                                                        (request defaults)
                      [--request-timeout-ms 10000]      (0 disables)
                      [--slow-query-ms 0]  (0 off; else trace internally
                       and log requests at/over the threshold to stderr)
                      (HTTP: POST /query, POST /query_batch, GET /corpus,
                       GET /healthz, GET /stats, GET /metrics — Prometheus
                       text; graceful stop on SIGTERM)
  corrsketch serve    --coordinator true --workers <host:port>[,<host:port>…]
                      [--worker-timeout-ms 2000] [--startup-timeout-ms 10000]
                      (plus every serve flag above except --store and
                       --load-threads. Scatter-gather over worker servers,
                       one per `corpus shard` partition in manifest order;
                       merged answers are bit-identical to a single server
                       over the union corpus, minus degraded shards)
  corrsketch estimate --left <csv> --left-key <col> --left-value <col>
                      --right <csv> --right-key <col> --right-value <col>
                      [--sketch-size 1024] [--aggregation mean] [--seed 0]
  corrsketch inspect  --store <store-dir>
  corrsketch help";
