//! Dump a synthetic open-data corpus to a directory of CSV files — the
//! companion to the `corrsketch` CLI, so the full pipeline can be
//! exercised without any external data:
//!
//! ```text
//! cargo run --release -p sketch-datagen --bin gen_corpus -- \
//!     --style nyc --tables 50 --out /tmp/lake
//! corrsketch corpus pack --dir /tmp/lake --out /tmp/lake-store
//! corrsketch query --store /tmp/lake-store --table /tmp/lake/nyc_0.csv \
//!     --key key --value v0
//! ```
//!
//! With `--pack <store-dir>` the corpus is additionally sketched and
//! emitted as a packed binary store (`sketch-store` shards + manifest),
//! ready for `corrsketch query --store` / `corrsketch corpus info`:
//!
//! ```text
//! gen_corpus --style nyc --tables 50 --out /tmp/lake \
//!     --pack /tmp/lake-store --sketch-size 256 --shards 8
//! ```

use correlation_sketches::{build_sketches_parallel, SketchConfig};
use sketch_datagen::{generate_open_data, CorpusStyle, OpenDataConfig};
use sketch_table::Table;

fn usage() -> ! {
    eprintln!(
        "usage: gen_corpus --out <dir> [--style nyc|wbf] [--tables N] \
         [--seed N] [--min-rows N] [--max-rows N] \
         [--pack <store-dir>] [--sketch-size N] [--shards N] [--threads N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut out: Option<String> = None;
    let mut style = CorpusStyle::Nyc;
    let mut tables: Option<usize> = None;
    let mut seed = 42u64;
    let mut min_rows: Option<usize> = None;
    let mut max_rows: Option<usize> = None;
    let mut pack: Option<String> = None;
    let mut sketch_size = 256usize;
    let mut shards = 8usize;
    let mut threads = 1usize;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--out" => out = Some(value),
            "--style" => {
                style = match value.as_str() {
                    "nyc" => CorpusStyle::Nyc,
                    "wbf" => CorpusStyle::Wbf,
                    _ => usage(),
                }
            }
            "--tables" => tables = value.parse().ok().or_else(|| usage()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--min-rows" => min_rows = value.parse().ok().or_else(|| usage()),
            "--max-rows" => max_rows = value.parse().ok().or_else(|| usage()),
            "--pack" => pack = Some(value),
            "--sketch-size" => sketch_size = value.parse().unwrap_or_else(|_| usage()),
            "--shards" => shards = value.parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let Some(out) = out else { usage() };

    let mut cfg = match style {
        CorpusStyle::Nyc => OpenDataConfig::nyc(seed),
        CorpusStyle::Wbf => OpenDataConfig::wbf(seed),
    };
    if let Some(t) = tables {
        cfg.tables = t;
    }
    if let Some(m) = min_rows {
        cfg.min_rows = m;
    }
    if let Some(m) = max_rows {
        cfg.max_rows = m;
    }

    std::fs::create_dir_all(&out).expect("create output directory");
    let corpus = generate_open_data(&cfg);
    let mut rows = 0usize;
    for table in &corpus {
        let path = std::path::Path::new(&out).join(format!("{}.csv", table.name));
        std::fs::write(&path, table.to_csv()).expect("write CSV");
        rows += table.num_rows();
    }
    println!(
        "wrote {} tables ({} rows total) to {out} (style {:?}, seed {seed})",
        corpus.len(),
        rows,
        cfg.style
    );

    if let Some(store_dir) = pack {
        let pairs: Vec<_> = corpus.iter().flat_map(Table::column_pairs).collect();
        let sketches =
            build_sketches_parallel(&pairs, SketchConfig::with_size(sketch_size), threads);
        let manifest = sketch_store::pack_corpus(
            std::path::Path::new(&store_dir),
            &sketches,
            &sketch_store::PackOptions { shards, threads },
        )
        .expect("pack corpus store");
        println!(
            "packed {} sketches (size {sketch_size}) into {} shards under {store_dir}",
            manifest.total,
            manifest.shards.len()
        );
    }
}
