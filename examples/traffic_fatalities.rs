//! Example 1 of the paper: *explaining traffic fatalities*.
//!
//! An analyst has a table of daily traffic incidents per zip code and
//! wants to discover, inside an open-data portal of hundreds of datasets,
//! which other datasets (a) join with theirs and (b) contain a column
//! correlated with the incident counts — a **join-correlation query**
//! (Definition 1).
//!
//! ```text
//! cargo run --release --example traffic_fatalities
//! ```

use join_correlation::datagen::{generate_open_data, OpenDataConfig};
use join_correlation::index::{engine, QueryOptions, SketchIndex};
use join_correlation::sketches::{SketchBuilder, SketchConfig};
use join_correlation::table::{ColumnPair, Table};

fn main() {
    // A simulated open-data portal (the paper uses a 2019 crawl of NYC
    // Open Data; see DESIGN.md for the substitution rationale).
    let portal = generate_open_data(&OpenDataConfig {
        tables: 150,
        ..OpenDataConfig::nyc(2021)
    });
    println!("portal: {} datasets", portal.len());

    // Index every ⟨key, numeric⟩ column pair of every dataset. This is
    // the offline step: one sketch per column pair, one pass per table.
    let builder = SketchBuilder::new(SketchConfig::with_size(256));
    let mut index = SketchIndex::new();
    let mut indexed_pairs = 0usize;
    for table in &portal {
        for pair in table.column_pairs() {
            index.insert(builder.build(&pair)).expect("uniform hasher");
            indexed_pairs += 1;
        }
    }
    println!(
        "indexed {indexed_pairs} column pairs ({} distinct keys)",
        index.distinct_keys()
    );

    // The analyst's own table: we pick a portal dataset to play the role
    // of the fatalities table so that joinable candidates exist.
    let query_table: &Table = &portal[7];
    let query_pair: ColumnPair = query_table
        .column_pairs()
        .into_iter()
        .next()
        .expect("query table has a column pair");
    println!(
        "\nquery: column '{}' of '{}' joined on '{}'",
        query_pair.value_name, query_pair.table, query_pair.key_name
    );

    // Online: one sketch build + one index query.
    let query_sketch = builder.build(&query_pair);
    let results = engine::top_k_with_plan_stats(
        &index,
        &query_sketch,
        &QueryOptions {
            overlap_candidates: 100,
            k: 10,
            ..QueryOptions::default()
        },
    )
    .0;

    println!("\ntop-10 candidate columns by |estimated correlation|:");
    println!(
        "{:<28} {:>8} {:>8} {:>10}",
        "column", "overlap", "n", "estimate"
    );
    for r in &results {
        println!(
            "{:<28} {:>8} {:>8} {:>10}",
            r.id,
            r.overlap,
            r.sample_size,
            r.estimate
                .map_or_else(|| "-".to_string(), |e| format!("{e:+.3}")),
        );
    }
    println!(
        "\nEvery number above was computed from sketches alone — none of \
         the {} candidate joins was executed.",
        indexed_pairs
    );
}
