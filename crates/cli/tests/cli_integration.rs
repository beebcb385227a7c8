//! End-to-end CLI tests: write CSV files to a temp dir, pack them into a
//! corpus store, query the store, and check the reports.

use std::path::PathBuf;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("corrsketch-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_lake(dir: &TempDir) {
    // Three tables over a shared day key; pickups ~ 2·demand,
    // rain ~ −demand, noise independent.
    let days: Vec<String> = (0..300).map(|i| format!("d{i:03}")).collect();
    let demand: Vec<f64> = (0..300)
        .map(|i| ((i as f64) * 0.21).sin() * 10.0 + 20.0)
        .collect();

    let mut taxi = String::from("day,pickups\n");
    let mut weather = String::from("day,rain\n");
    let mut noise = String::from("day,reading\n");
    for (i, d) in days.iter().enumerate() {
        taxi.push_str(&format!("{d},{}\n", 2.0 * demand[i]));
        weather.push_str(&format!("{d},{}\n", 30.0 - demand[i]));
        noise.push_str(&format!("{d},{}\n", ((i * 7919) % 100) as f64));
    }
    std::fs::write(dir.path("taxi.csv"), taxi).unwrap();
    std::fs::write(dir.path("weather.csv"), weather).unwrap();
    std::fs::write(dir.path("noise.csv"), noise).unwrap();
}

/// `corpus pack` the lake under `dir` into `dir/store` (plus `extra`
/// flags) and return the store path.
fn pack_lake(dir: &TempDir, extra: &[&str]) -> String {
    let store = dir.path("store");
    let mut cmd = argv(&["corpus", "pack", "--dir", &dir.path(""), "--out", &store]);
    cmd.extend(argv(extra));
    sketch_cli::run(&cmd).unwrap();
    store
}

/// Write `more/events.csv` — a fourth table correlated with the lake's
/// demand signal — and return the sub-directory.
fn write_events(dir: &TempDir) -> String {
    let sub = dir.path("more");
    std::fs::create_dir_all(&sub).unwrap();
    let mut extra = String::from("day,events\n");
    for i in 0..300 {
        extra.push_str(&format!(
            "d{i:03},{}\n",
            ((i as f64) * 0.21).sin() * 10.0 + 20.0
        ));
    }
    std::fs::write(format!("{sub}/events.csv"), extra).unwrap();
    sub
}

#[test]
fn pack_query_roundtrip() {
    let dir = TempDir::new("roundtrip");
    write_lake(&dir);
    let store = dir.path("store");

    let report = sketch_cli::run(&argv(&[
        "corpus",
        "pack",
        "--dir",
        &dir.path(""),
        "--out",
        &store,
        "--sketch-size",
        "128",
    ]))
    .unwrap();
    assert!(
        report.contains("packed 3 sketches from 3 tables"),
        "{report}"
    );

    let report = sketch_cli::run(&argv(&[
        "query",
        "--store",
        &store,
        "--table",
        &dir.path("taxi.csv"),
        "--key",
        "day",
        "--value",
        "pickups",
        "--k",
        "3",
    ]))
    .unwrap();
    // The query column finds itself (r = 1) and the anti-correlated
    // weather column; the noise column must rank last.
    let taxi_pos = report.find("taxi/day/pickups").expect("self match");
    let weather_pos = report.find("weather/day/rain").expect("weather match");
    let noise_pos = report.find("noise/day/reading").expect("noise present");
    assert!(taxi_pos < weather_pos, "{report}");
    assert!(weather_pos < noise_pos, "{report}");
}

#[test]
fn query_scorer_and_confidence_flags() {
    let dir = TempDir::new("scored-query");
    write_lake(&dir);
    let store = pack_lake(&dir, &["--sketch-size", "128"]);

    let table = dir.path("taxi.csv");
    let query_with = |extra: &[&str]| {
        let mut a = vec![
            "query", "--store", &store, "--table", &table, "--key", "day", "--value", "pickups",
        ];
        a.extend_from_slice(extra);
        sketch_cli::run(&argv(&a))
    };

    // Every scorer answers, reports its name, and renders CI columns;
    // the self-match stays on top for all of them (it has both the
    // strongest estimate and the largest sample).
    for scorer in ["s1", "s2", "s3", "s4"] {
        let report = query_with(&["--scorer", scorer, "--confidence", "0.9"]).unwrap();
        assert!(
            report.contains(&format!("scorer {scorer}")),
            "{scorer}: {report}"
        );
        assert!(report.contains("confidence 90%"), "{report}");
        assert!(report.contains("ci"), "{report}");
        let self_pos = report.find("taxi/day/pickups").expect("self match");
        let noise_pos = report.find("noise/day/reading").expect("noise");
        assert!(self_pos < noise_pos, "{scorer}: {report}");
        // CI endpoints render as a bracketed pair.
        assert!(report.contains('['), "{report}");
    }
    // Paper alias accepted.
    let report = query_with(&["--scorer", "rp*cih"]).unwrap();
    assert!(report.contains("scorer s4"), "{report}");

    // Bad values are usage errors, not panics.
    let err = query_with(&["--scorer", "s9"]).unwrap_err();
    assert!(err.to_string().contains("scorer"), "{err}");
    let err = query_with(&["--confidence", "1.5"]).unwrap_err();
    assert!(err.to_string().contains("confidence"), "{err}");
    // A retired estimator name is refused, not mapped to another one.
    let err = query_with(&["--estimator", "tau"]).unwrap_err();
    assert!(matches!(err, sketch_cli::CliError::Usage(_)), "{err:?}");
    assert!(
        err.to_string()
            .contains("--estimator tau: unknown estimator 'tau'"),
        "{err}"
    );
}

#[test]
fn estimate_between_two_files() {
    let dir = TempDir::new("estimate");
    write_lake(&dir);
    let report = sketch_cli::run(&argv(&[
        "estimate",
        "--left",
        &dir.path("taxi.csv"),
        "--left-key",
        "day",
        "--left-value",
        "pickups",
        "--right",
        &dir.path("weather.csv"),
        "--right-key",
        "day",
        "--right-value",
        "rain",
    ]))
    .unwrap();
    assert!(report.contains("join sample = 300 rows"), "{report}");
    // pickups = 2·demand, rain = 30 − demand: perfectly anti-correlated.
    assert!(report.contains("pearson    -1.0000"), "{report}");
    assert!(report.contains("hoeffding 95% CI"), "{report}");
    assert!(report.contains("qn"), "{report}");
}

/// `inspect --store` lists the live view: what was packed, plus what
/// was appended, minus what was tombstoned — before any compaction.
#[test]
fn inspect_lists_the_live_view() {
    let dir = TempDir::new("inspect");
    write_lake(&dir);
    let store = pack_lake(&dir, &[]);
    let report = sketch_cli::run(&argv(&["inspect", "--store", &store])).unwrap();
    assert!(report.contains("sketches        : 3"), "{report}");
    assert!(report.contains("taxi/day/pickups"), "{report}");

    let sub = write_events(&dir);
    sketch_cli::run(&argv(&[
        "corpus", "append", "--store", &store, "--dir", &sub,
    ]))
    .unwrap();
    sketch_cli::run(&argv(&[
        "corpus",
        "rm",
        "--store",
        &store,
        "--ids",
        "noise/day/reading",
    ]))
    .unwrap();
    let report = sketch_cli::run(&argv(&["inspect", "--store", &store])).unwrap();
    assert!(report.contains("sketches        : 3"), "{report}");
    assert!(report.contains("events/day/events"), "{report}");
    assert!(!report.contains("noise/day/reading"), "{report}");
}

/// `corpus append` sketches the new CSVs under the *store's*
/// configuration, whatever the defaults are, so old and new sketches
/// join.
#[test]
fn corpus_append_keeps_the_store_configuration() {
    let dir = TempDir::new("append");
    write_lake(&dir);
    let store = pack_lake(
        &dir,
        &["--seed", "7", "--sketch-size", "64", "--aggregation", "max"],
    );
    let sub = write_events(&dir);

    let report = sketch_cli::run(&argv(&[
        "corpus", "append", "--store", &store, "--dir", &sub,
    ]))
    .unwrap();
    assert!(report.contains("appended 1 sketches"), "{report}");
    assert!(report.contains("4 live sketches"), "{report}");

    let sketches = sketch_store::read_corpus(std::path::Path::new(&store), 1).unwrap();
    assert_eq!(sketches.len(), 4);
    for s in &sketches {
        assert_eq!(
            s.hasher(),
            sketch_hashing::TupleHasher::new_64(7),
            "{}",
            s.id()
        );
        assert_eq!(
            s.aggregation(),
            sketch_table::Aggregation::Max,
            "{}",
            s.id()
        );
        assert_eq!(s.size(), 64, "{}", s.id());
    }

    // The appended sketch must be joinable with the originals: querying
    // taxi must now surface the new events column with a real estimate.
    let report = sketch_cli::run(&argv(&[
        "query",
        "--store",
        &store,
        "--table",
        &dir.path("taxi.csv"),
        "--key",
        "day",
        "--value",
        "pickups",
        "--k",
        "4",
    ]))
    .unwrap();
    let events = report
        .lines()
        .find(|l| l.starts_with("events/day/events"))
        .unwrap_or_else(|| panic!("{report}"));
    assert!(events.contains("+1.000"), "{events}");
}

#[test]
fn helpful_errors() {
    assert!(sketch_cli::run(&argv(&["frobnicate"])).is_err());
    assert!(sketch_cli::run(&[]).is_err());
    let help = sketch_cli::run(&argv(&["help"])).unwrap();
    assert!(help.contains("USAGE"));

    // Missing flags.
    let err = sketch_cli::run(&argv(&["corpus", "pack", "--dir", "/nonexistent"]))
        .unwrap_err()
        .to_string();
    assert!(err.contains("--out"), "{err}");

    // Nonexistent directory.
    let err = sketch_cli::run(&argv(&[
        "corpus",
        "pack",
        "--dir",
        "/nonexistent-dir-xyz",
        "--out",
        "/tmp/x",
    ]))
    .unwrap_err()
    .to_string();
    assert!(err.contains("I/O"), "{err}");

    // A flag the command does not read is refused by name, with the
    // command named too, before any work: nothing is packed, and the
    // query never opens its (nonexistent) store.
    let dir = TempDir::new("typos");
    write_lake(&dir);
    let store = dir.path("store");
    let err = sketch_cli::run(&argv(&[
        "corpus",
        "pack",
        "--dir",
        &dir.path(""),
        "--out",
        &store,
        "--shrads",
        "2",
    ]))
    .unwrap_err();
    assert!(matches!(err, sketch_cli::CliError::Usage(_)), "{err:?}");
    let err = err.to_string();
    assert!(
        err.contains("--shrads") && err.contains("corpus pack"),
        "{err}"
    );
    assert!(
        !std::path::Path::new(&store).exists(),
        "packed despite the typo"
    );

    let err = sketch_cli::run(&argv(&[
        "query",
        "--store",
        &store,
        "--table",
        &dir.path("taxi.csv"),
        "--key",
        "day",
        "--value",
        "pickups",
        "--candidate",
        "1",
        "--kk",
        "1",
    ]))
    .unwrap_err();
    assert!(matches!(err, sketch_cli::CliError::Usage(_)), "{err:?}");
    let err = err.to_string();
    assert!(err.contains("--candidate") && err.contains("--kk"), "{err}");
    assert!(err.contains("corrsketch query"), "{err}");

    // Another command's flag is just as unknown: a coordinator has no
    // store, and refuses one before contacting any worker.
    let err = sketch_cli::run(&argv(&[
        "serve",
        "--workers",
        "127.0.0.1:1",
        "--store",
        &store,
    ]))
    .unwrap_err()
    .to_string();
    assert!(
        err.contains("--store") && err.contains("serve --workers"),
        "{err}"
    );
    // `--workers` alone selects the coordinator; the retired
    // `--coordinator` switch is an unknown flag like any other.
    let err = sketch_cli::run(&argv(&[
        "serve",
        "--coordinator",
        "true",
        "--store",
        &store,
    ]))
    .unwrap_err()
    .to_string();
    assert!(err.contains("--coordinator"), "{err}");
}

#[test]
fn query_rejects_wrong_columns() {
    let dir = TempDir::new("wrongcols");
    write_lake(&dir);
    let store = pack_lake(&dir, &[]);
    let err = sketch_cli::run(&argv(&[
        "query",
        "--store",
        &store,
        "--table",
        &dir.path("taxi.csv"),
        "--key",
        "pickups", // numeric, not categorical
        "--value",
        "day",
    ]))
    .unwrap_err()
    .to_string();
    assert!(err.contains("categorical"), "{err}");
}

#[test]
fn corpus_pack_info_query_roundtrip() {
    let dir = TempDir::new("corpus-pack");
    write_lake(&dir);
    let store_dir = dir.path("store");

    // Pack straight from the CSV directory.
    let report = sketch_cli::run(&argv(&[
        "corpus",
        "pack",
        "--dir",
        &dir.path(""),
        "--out",
        &store_dir,
        "--shards",
        "2",
        "--threads",
        "2",
        "--sketch-size",
        "128",
    ]))
    .unwrap();
    assert!(report.contains("packed 3 sketches"), "{report}");
    assert!(report.contains("2 shards"), "{report}");

    // Info validates every checksum and reports the shape.
    let info = sketch_cli::run(&argv(&["corpus", "info", "--store", &store_dir])).unwrap();
    assert!(info.contains("sketches (live) : 3"), "{info}");
    assert!(info.contains("shard-0000.cskb"), "{info}");
    assert!(info.contains("generation      : 0"), "{info}");
    assert!(info.contains("integrity       : ok"), "{info}");

    // --json true: the same metadata, machine-readable.
    let json = sketch_cli::run(&argv(&[
        "corpus", "info", "--store", &store_dir, "--json", "true",
    ]))
    .unwrap();
    let v = correlation_sketches::json::parse(&json).unwrap();
    let obj = v.as_object("info").unwrap();
    assert_eq!(
        obj.get("integrity").unwrap().as_str("i").unwrap(),
        "ok",
        "{json}"
    );
    assert!(obj.get("tuples").unwrap().as_u64("t").unwrap() > 0);
    let layout = obj.get("layout").unwrap().as_object("layout").unwrap();
    assert_eq!(layout.get("generation").unwrap().as_u64("g").unwrap(), 0);
    assert_eq!(layout.get("live").unwrap().as_u64("live").unwrap(), 3);
    assert_eq!(
        layout
            .get("shards")
            .unwrap()
            .as_array("shards")
            .unwrap()
            .len(),
        2
    );

    // Query the packed store.
    let from_store = sketch_cli::run(&argv(&[
        "query",
        "--store",
        &store_dir,
        "--table",
        &dir.path("taxi.csv"),
        "--key",
        "day",
        "--value",
        "pickups",
        "--k",
        "3",
    ]))
    .unwrap();
    let taxi = from_store.find("taxi/day/pickups").expect("self match");
    let weather = from_store.find("weather/day/rain").expect("weather");
    let noise = from_store.find("noise/day/reading").expect("noise");
    assert!(taxi < weather && weather < noise, "{from_store}");
}

/// pack → `query --store` prints exactly what the engine answers in
/// process over sketches that never touched a disk: same rows, same
/// order, same rendered numbers — for every scorer, and under the
/// two-pass plan with a bootstrap estimator.
#[test]
fn query_store_matches_in_process_engine() {
    use correlation_sketches::{SketchBuilder, SketchConfig};
    use sketch_index::{engine, PlanMode, QueryOptions, SketchIndex};

    let dir = TempDir::new("corpus-equivalence");
    write_lake(&dir);
    let store = pack_lake(&dir, &["--sketch-size", "128", "--shards", "2"]);

    // `corpus pack` sketches the CSVs in sorted path order.
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    let mut pairs = Vec::new();
    for name in ["noise", "taxi", "weather"] {
        let text = std::fs::read_to_string(dir.path(&format!("{name}.csv"))).unwrap();
        let table = sketch_table::Table::from_csv(name.to_string(), &text).unwrap();
        pairs.extend(table.column_pairs());
    }
    let index = SketchIndex::from_sketches(pairs.iter().map(|p| builder.build(p))).unwrap();
    let query = builder.build(pairs.iter().find(|p| p.id() == "taxi/day/pickups").unwrap());

    for (scorer, estimator, plan) in [
        ("s1", "pearson", "exhaustive"),
        ("s2", "pearson", "exhaustive"),
        ("s3", "spearman", "exhaustive"),
        ("s4", "pearson", "exhaustive"),
        ("s3", "pm1", "two-pass"),
    ] {
        let report = sketch_cli::run(&argv(&[
            "query",
            "--store",
            &store,
            "--table",
            &dir.path("taxi.csv"),
            "--key",
            "day",
            "--value",
            "pickups",
            "--scorer",
            scorer,
            "--estimator",
            estimator,
            "--plan",
            plan,
        ]))
        .unwrap();
        let opts = QueryOptions {
            scorer: scorer.parse().unwrap(),
            estimator: estimator.parse().unwrap(),
            plan: plan.parse::<PlanMode>().unwrap(),
            ..QueryOptions::default()
        };
        let expected: Vec<String> = engine::top_k_with_plan_stats(&index, &query, &opts)
            .0
            .iter()
            .map(|r| {
                format!(
                    "{} {} {} {:+.3} [{:+.3}, {:+.3}] {:.3}",
                    r.id,
                    r.overlap,
                    r.sample_size,
                    r.estimate.unwrap(),
                    r.ci_lo.unwrap(),
                    r.ci_hi.unwrap(),
                    r.score
                )
            })
            .collect();
        assert_eq!(expected.len(), 3);
        // The rows follow the column header; collapse the column padding.
        let printed: Vec<String> = report
            .lines()
            .skip_while(|l| !l.starts_with("column"))
            .skip(1)
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(printed, expected, "{scorer}/{estimator}/{plan}:\n{report}");
    }
}

/// The mutable-corpus round trip: append → query --store → rm → compact,
/// with query reports asserted byte-identical before and after the
/// compaction, and the compaction reclaiming every tombstoned record.
#[test]
fn corpus_append_rm_compact_roundtrip() {
    let dir = TempDir::new("corpus-mutate");
    write_lake(&dir);
    let store_dir = dir.path("store");
    sketch_cli::run(&argv(&[
        "corpus",
        "pack",
        "--dir",
        &dir.path(""),
        "--out",
        &store_dir,
        "--shards",
        "2",
        "--sketch-size",
        "128",
    ]))
    .unwrap();

    // Append a fourth, correlated table from a sub-directory. The
    // sketch configuration is inherited from the store, so no
    // --sketch-size is needed.
    let sub = write_events(&dir);
    let report = sketch_cli::run(&argv(&[
        "corpus", "append", "--store", &store_dir, "--dir", &sub,
    ]))
    .unwrap();
    assert!(report.contains("appended 1 sketches"), "{report}");
    assert!(report.contains("generation 1"), "{report}");
    assert!(report.contains("4 live sketches"), "{report}");

    let query = || {
        sketch_cli::run(&argv(&[
            "query",
            "--store",
            &store_dir,
            "--table",
            &dir.path("taxi.csv"),
            "--key",
            "day",
            "--value",
            "pickups",
            "--k",
            "5",
        ]))
        .unwrap()
    };
    // The appended column is queryable immediately, no re-pack needed.
    assert!(query().contains("events/day/events"), "{}", query());

    // Tombstone the noise column; it must vanish from results while the
    // record still sits in the store (reclaimed only by compact).
    let report = sketch_cli::run(&argv(&[
        "corpus",
        "rm",
        "--store",
        &store_dir,
        "--ids",
        "noise/day/reading",
    ]))
    .unwrap();
    assert!(report.contains("tombstoned 1 sketches"), "{report}");
    assert!(report.contains("3 live sketches"), "{report}");
    let after_rm = query();
    assert!(!after_rm.contains("noise/day/reading"), "{after_rm}");

    // Info shows the pending delta records before compaction.
    let info = sketch_cli::run(&argv(&["corpus", "info", "--store", &store_dir])).unwrap();
    assert!(info.contains("sketches (live) : 3"), "{info}");
    assert!(info.contains("generation      : 2"), "{info}");
    assert!(info.contains("delta shards    : 2"), "{info}");
    assert!(
        info.contains("pending         : 1 appends, 1 tombstones"),
        "{info}"
    );

    // The JSON view carries the same generation/tombstone metadata.
    let json = sketch_cli::run(&argv(&[
        "corpus", "info", "--store", &store_dir, "--json", "true",
    ]))
    .unwrap();
    let v = correlation_sketches::json::parse(&json).unwrap();
    let layout = v
        .as_object("info")
        .unwrap()
        .get("layout")
        .unwrap()
        .as_object("layout")
        .unwrap();
    assert_eq!(layout.get("generation").unwrap().as_u64("g").unwrap(), 2);
    assert_eq!(
        layout
            .get("pending_tombstones")
            .unwrap()
            .as_u64("t")
            .unwrap(),
        1
    );
    assert_eq!(
        layout.get("pending_appends").unwrap().as_u64("a").unwrap(),
        1
    );
    assert_eq!(
        layout
            .get("deltas")
            .unwrap()
            .as_array("deltas")
            .unwrap()
            .len(),
        2
    );

    // Compact: the report is byte-identical before and after, and info
    // shows every tombstoned record reclaimed.
    let report = sketch_cli::run(&argv(&["corpus", "compact", "--store", &store_dir])).unwrap();
    assert!(report.contains("reclaimed 2 records"), "{report}");
    let after_compact = query();
    assert_eq!(
        after_rm, after_compact,
        "compaction must not change reports"
    );
    let info = sketch_cli::run(&argv(&["corpus", "info", "--store", &store_dir])).unwrap();
    assert!(info.contains("sketches (live) : 3"), "{info}");
    assert!(info.contains("base records    : 3"), "{info}");
    assert!(info.contains("delta shards    : 0"), "{info}");
    assert!(info.contains("generation      : 3 (base at 3)"), "{info}");
    assert!(!info.contains("pending"), "{info}");
}

/// Mutation error paths stay typed and readable at the CLI surface.
#[test]
fn corpus_mutation_errors_are_usable() {
    let dir = TempDir::new("corpus-mutate-errs");
    write_lake(&dir);
    let store_dir = dir.path("store");
    sketch_cli::run(&argv(&[
        "corpus",
        "pack",
        "--dir",
        &dir.path(""),
        "--out",
        &store_dir,
    ]))
    .unwrap();

    // Appending a column that is already live names the duplicate id.
    let err = sketch_cli::run(&argv(&[
        "corpus",
        "append",
        "--store",
        &store_dir,
        "--dir",
        &dir.path(""),
    ]))
    .unwrap_err()
    .to_string();
    assert!(err.contains("duplicate sketch id"), "{err}");

    // Removing an unknown id names it.
    let err = sketch_cli::run(&argv(&[
        "corpus",
        "rm",
        "--store",
        &store_dir,
        "--ids",
        "ghost/day/x",
    ]))
    .unwrap_err()
    .to_string();
    assert!(err.contains("tombstone for unknown sketch id"), "{err}");
    assert!(err.contains("ghost/day/x"), "{err}");

    // A store whose manifest references a deleted shard file reports the
    // typed missing-shard reason, not a bare I/O error.
    std::fs::remove_file(std::path::Path::new(&store_dir).join("shard-0000.cskb")).unwrap();
    let err = sketch_cli::run(&argv(&["corpus", "info", "--store", &store_dir]))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("shard-0000.cskb") && err.contains("missing"),
        "{err}"
    );
}

#[test]
fn corpus_command_errors_are_usable() {
    // Missing subcommand.
    let err = sketch_cli::run(&argv(&["corpus"])).unwrap_err().to_string();
    assert!(err.contains("pack | info"), "{err}");
    // Unknown subcommand.
    let err = sketch_cli::run(&argv(&["corpus", "shrink"]))
        .unwrap_err()
        .to_string();
    assert!(err.contains("shrink"), "{err}");
    // pack needs its source.
    let err = sketch_cli::run(&argv(&["corpus", "pack", "--out", "/tmp/x"]))
        .unwrap_err()
        .to_string();
    assert!(err.contains("--dir"), "{err}");
    // The store is the only corpus a query reads.
    let err = sketch_cli::run(&argv(&[
        "query", "--table", "t.csv", "--key", "k", "--value", "v",
    ]))
    .unwrap_err()
    .to_string();
    assert!(err.contains("--store"), "{err}");
}

#[test]
fn corrupt_store_fails_with_typed_reason() {
    let dir = TempDir::new("corpus-corrupt");
    write_lake(&dir);
    let store_dir = dir.path("store");
    sketch_cli::run(&argv(&[
        "corpus",
        "pack",
        "--dir",
        &dir.path(""),
        "--out",
        &store_dir,
        "--shards",
        "1",
    ]))
    .unwrap();
    // Flip a byte inside the shard; info must fail with the checksum
    // diagnosis, not a panic or a silent partial load.
    let shard = std::path::Path::new(&store_dir).join("shard-0000.cskb");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&shard, bytes).unwrap();
    let err = sketch_cli::run(&argv(&["corpus", "info", "--store", &store_dir]))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("checksum") || err.contains("truncated") || err.contains("corrupt"),
        "{err}"
    );
}

/// `query --store` against a directory that is not a store must exit
/// with the typed "not a packed store" message, never a raw
/// `No such file or directory` I/O string.
#[test]
fn query_missing_or_empty_store_is_typed() {
    let dir = TempDir::new("missing-store");
    write_lake(&dir);
    let query_against = |store: &str| {
        sketch_cli::run(&argv(&[
            "query",
            "--store",
            store,
            "--table",
            &dir.path("taxi.csv"),
            "--key",
            "day",
            "--value",
            "pickups",
        ]))
        .unwrap_err()
        .to_string()
    };

    // A directory that does not exist at all.
    let err = query_against(&dir.path("never-created"));
    assert!(err.contains("manifest.cskm"), "{err}");
    assert!(err.contains("not a packed store"), "{err}");
    assert!(!err.contains("os error"), "{err}");

    // An existing but empty directory.
    let empty = dir.path("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let err = query_against(&empty);
    assert!(err.contains("not a packed store"), "{err}");
    assert!(!err.contains("os error"), "{err}");

    // `corpus info` reports the same typed reason.
    let err = sketch_cli::run(&argv(&["corpus", "info", "--store", &empty]))
        .unwrap_err()
        .to_string();
    assert!(err.contains("not a packed store"), "{err}");
}
