//! Corpus selection shared by the experiment binaries.

use correlation_sketches::{join_sketches, JoinSample, SketchBuilder};
use sketch_datagen::{generate_open_data, generate_sbn, OpenDataConfig, SbnConfig};
use sketch_stats::pearson;
use sketch_table::{exact_join, ColumnPair, Table};

/// Which of the paper's three data collections to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusChoice {
    /// Synthetic Bivariate Normal (paper Section 5.1).
    Sbn,
    /// World-Bank-Finances-like simulation.
    Wbf,
    /// NYC-Open-Data-like simulation.
    Nyc,
}

impl std::str::FromStr for CorpusChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sbn" => Ok(Self::Sbn),
            "wbf" => Ok(Self::Wbf),
            "nyc" => Ok(Self::Nyc),
            other => Err(format!("unknown dataset '{other}' (expected sbn|wbf|nyc)")),
        }
    }
}

impl std::fmt::Display for CorpusChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Sbn => "sbn",
            Self::Wbf => "wbf",
            Self::Nyc => "nyc",
        })
    }
}

/// Materialize a corpus as pre-paired `(left, right)` column pairs to
/// evaluate, capped at `max_pairs` pairs of column pairs.
///
/// * For SBN the pairing is intrinsic (each generated pair has a ground
///   truth `rho`).
/// * For WBF/NYC we enumerate cross-table 2-combinations of column pairs
///   (the paper's "all possible unique 2-combinations"), in a
///   deterministic order.
#[must_use]
pub fn corpus_pairs(
    choice: CorpusChoice,
    scale: usize,
    seed: u64,
    max_pairs: usize,
) -> Vec<(ColumnPair, ColumnPair)> {
    match choice {
        CorpusChoice::Sbn => {
            let cfg = SbnConfig {
                pairs: scale,
                min_rows: 20,
                max_rows: 50_000,
                seed,
            };
            generate_sbn(&cfg)
                .into_iter()
                .take(max_pairs)
                .map(|p| (p.tx, p.ty))
                .collect()
        }
        CorpusChoice::Wbf | CorpusChoice::Nyc => {
            let cfg = match choice {
                CorpusChoice::Wbf => OpenDataConfig {
                    tables: scale.max(2),
                    ..OpenDataConfig::wbf(seed)
                },
                _ => OpenDataConfig {
                    tables: scale.max(2),
                    ..OpenDataConfig::nyc(seed)
                },
            };
            let tables = generate_open_data(&cfg);
            cross_table_pairs(&tables, max_pairs)
        }
    }
}

/// The `pairs` both of whose joins have at least `min_rows` rows — the
/// exact join under `builder`'s aggregation and the join of the sketches
/// `builder` makes — and a full-data Pearson correlation, as
/// `(that correlation, the sketch join)`.
pub fn evaluable_pairs<'a>(
    pairs: &'a [(ColumnPair, ColumnPair)],
    builder: &'a SketchBuilder,
    min_rows: usize,
) -> impl Iterator<Item = (f64, JoinSample)> + 'a {
    pairs.iter().filter_map(move |(a, b)| {
        let joined = exact_join(a, b, builder.config().aggregation);
        if joined.len() < min_rows {
            return None;
        }
        let truth = pearson(&joined.x, &joined.y).ok()?;
        let sample = join_sketches(&builder.build(a), &builder.build(b)).ok()?;
        (sample.len() >= min_rows).then_some((truth, sample))
    })
}

/// Deterministic enumeration of cross-table column-pair 2-combinations.
///
/// When the full combination count exceeds `max_pairs`, combinations are
/// sampled with a deterministic LCG so the subset covers the whole corpus
/// (a head-truncated enumeration would only ever exercise the first few
/// tables).
#[must_use]
pub fn cross_table_pairs(tables: &[Table], max_pairs: usize) -> Vec<(ColumnPair, ColumnPair)> {
    let pairs: Vec<ColumnPair> = tables.iter().flat_map(Table::column_pairs).collect();
    let p = pairs.len();
    if p < 2 || max_pairs == 0 {
        return Vec::new();
    }
    let total = p * (p - 1) / 2;
    let mut out = Vec::new();
    if total <= max_pairs {
        for i in 0..p {
            for j in (i + 1)..p {
                if pairs[i].table != pairs[j].table {
                    out.push((pairs[i].clone(), pairs[j].clone()));
                }
            }
        }
        return out;
    }

    // Deterministic LCG sampling without replacement over index pairs.
    let mut seen = std::collections::HashSet::with_capacity(max_pairs * 2);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut attempts = 0usize;
    let max_attempts = max_pairs.saturating_mul(20);
    while out.len() < max_pairs && attempts < max_attempts {
        attempts += 1;
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (state >> 33) as usize % p;
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % p;
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        if i == j || pairs[i].table == pairs[j].table || !seen.insert((i, j)) {
            continue;
        }
        out.push((pairs[i].clone(), pairs[j].clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parses() {
        assert_eq!("nyc".parse::<CorpusChoice>().unwrap(), CorpusChoice::Nyc);
        assert_eq!("SBN".parse::<CorpusChoice>().unwrap(), CorpusChoice::Sbn);
        assert!("other".parse::<CorpusChoice>().is_err());
    }

    #[test]
    fn sbn_pairs_have_shared_key_space() {
        let pairs = corpus_pairs(CorpusChoice::Sbn, 3, 1, 10);
        assert_eq!(pairs.len(), 3);
        for (a, b) in &pairs {
            assert!(sketch_table::key_overlap(a, b) > 0);
        }
    }

    #[test]
    fn nyc_pairs_are_cross_table() {
        let pairs = corpus_pairs(CorpusChoice::Nyc, 10, 1, 50);
        assert!(!pairs.is_empty());
        for (a, b) in &pairs {
            assert_ne!(a.table, b.table);
        }
    }

    #[test]
    fn max_pairs_caps_output() {
        let pairs = corpus_pairs(CorpusChoice::Nyc, 10, 1, 7);
        assert_eq!(pairs.len(), 7);
    }
}
