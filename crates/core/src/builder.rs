//! Single-pass sketch construction (paper Sections 3.1 and 3.4).
//!
//! The builder performs one pass over the key/value rows while maintaining
//! the `n` tuples with minimum `g(k) = h_u(h(k))` — the paper's "tree-based
//! algorithm similar to the one described in [Beyer et al.]", realized here
//! as a hash map for streaming repeated-key aggregation, plus a max-heap
//! over unit hashes that is built only once the sketch is full and must
//! evict (an unsaturated sketch never builds it). The size `n` is fixed,
//! the paper's choice (Section 3.3): predictable space and query latency.

use std::cmp::Ordering;

use sketch_hashing::{KeyHash, TupleHasher};
use sketch_table::{Aggregation, ColumnPair};

use crate::sketch::CorrelationSketch;

/// Full configuration of a sketch build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Sketch size `n`: the number of tuples with smallest unit hash kept.
    pub size: usize,
    /// Hash functions `h` and `h_u` (must be identical corpus-wide).
    pub hasher: TupleHasher,
    /// Aggregation applied to repeated keys (paper Figure 1 uses mean).
    pub aggregation: Aggregation,
}

impl SketchConfig {
    /// The paper's default setup: sketch size `n`, mean aggregation,
    /// 64-bit hashing with seed 0.
    #[must_use]
    pub fn with_size(n: usize) -> Self {
        Self {
            size: n,
            hasher: TupleHasher::default(),
            aggregation: Aggregation::Mean,
        }
    }

    /// Replace the aggregation.
    #[must_use]
    pub fn aggregation(mut self, agg: Aggregation) -> Self {
        self.aggregation = agg;
        self
    }

    /// Replace the hasher.
    #[must_use]
    pub fn hasher(mut self, hasher: TupleHasher) -> Self {
        self.hasher = hasher;
        self
    }
}

/// Heap entry ordered by `(unit hash, key hash)` — a strict total order,
/// so eviction decisions are unambiguous and a once-evicted key can never
/// re-enter (its unit hash can only compare `≥` the shrinking heap
/// maximum). This is what makes the streaming build equivalent to
/// aggregate-then-sketch (tested below).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeapKey {
    pub(crate) unit: f64,
    pub(crate) key: KeyHash,
}

impl Eq for HeapKey {}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.unit
            .total_cmp(&other.unit)
            .then(self.key.cmp(&other.key))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Builds [`CorrelationSketch`]es from key/value streams in a single pass.
#[derive(Debug, Clone)]
pub struct SketchBuilder {
    config: SketchConfig,
}

impl SketchBuilder {
    /// Create a builder with the given configuration.
    #[must_use]
    pub fn new(config: SketchConfig) -> Self {
        Self { config }
    }

    /// The builder's configuration.
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Build a sketch for a table's `⟨K, X⟩` column pair.
    #[must_use]
    pub fn build(&self, pair: &ColumnPair) -> CorrelationSketch {
        self.build_from_rows(pair.id(), pair.rows())
    }

    /// Build a sketch from an arbitrary stream of `(key, value)` rows.
    ///
    /// One pass, `O(sketch size)` memory: repeated keys are aggregated
    /// in-stream (`x_k^t = f(x_k, x_k^{t−1})`, Section 3.1).
    #[must_use]
    fn build_from_rows<'a>(
        &self,
        id: String,
        rows: impl Iterator<Item = (&'a str, f64)>,
    ) -> CorrelationSketch {
        let mut streaming = crate::stream::StreamingSketchBuilder::new(id, self.config);
        for (key, value) in rows {
            streaming.push(key, value);
        }
        streaming.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_hashing::KeyHasher as _;
    use std::collections::HashSet;

    fn pair(keys: Vec<&str>, values: Vec<f64>) -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            keys.into_iter().map(String::from).collect(),
            values,
        )
    }

    fn range_pair(n: usize) -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            (0..n).map(|i| format!("key-{i}")).collect(),
            (0..n).map(|i| i as f64).collect(),
        )
    }

    #[test]
    fn sketch_keeps_n_smallest_unit_hashes() {
        let n = 50;
        let p = range_pair(2000);
        let cfg = SketchConfig::with_size(n);
        let s = SketchBuilder::new(cfg).build(&p);
        assert_eq!(s.len(), n);

        // Brute-force the n smallest unit hashes.
        let hasher = cfg.hasher;
        let mut all: Vec<(f64, KeyHash)> = p
            .keys
            .iter()
            .map(|k| {
                let (kh, u) = hasher.g(k.as_bytes());
                (u, kh)
            })
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let expected: HashSet<KeyHash> = all[..n].iter().map(|(_, kh)| *kh).collect();
        let got: HashSet<KeyHash> = s.entries().iter().map(|e| e.key).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn streaming_aggregation_equals_aggregate_then_sketch() {
        // Repeated keys interleaved arbitrarily: the streaming build must
        // match pre-aggregating with the same function, for every
        // aggregation.
        let keys = vec![
            "a", "b", "a", "c", "b", "a", "d", "e", "c", "f", "a", "g", "b",
        ];
        let values = vec![
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0,
        ];
        for agg in Aggregation::ALL {
            let cfg = SketchConfig::with_size(4).aggregation(agg);
            let streamed = SketchBuilder::new(cfg).build(&pair(keys.clone(), values.clone()));

            // Pre-aggregate per distinct key (stream order), then sketch
            // the deduplicated pairs.
            let mut order: Vec<&str> = Vec::new();
            let mut groups: std::collections::HashMap<&str, Vec<f64>> = Default::default();
            for (k, v) in keys.iter().zip(&values) {
                if !groups.contains_key(*k) {
                    order.push(k);
                }
                groups.entry(k).or_default().push(*v);
            }
            let agg_keys: Vec<&str> = order.clone();
            let agg_vals: Vec<f64> = order
                .iter()
                .map(|k| agg.aggregate_slice(&groups[*k]).unwrap())
                .collect();
            // Keys are distinct after pre-aggregation, so build the
            // reference sketch with an identity aggregation (re-applying
            // e.g. Count would re-collapse the already-aggregated values).
            let ref_cfg = SketchConfig::with_size(4).aggregation(Aggregation::First);
            let preagg = SketchBuilder::new(ref_cfg).build(&pair(agg_keys, agg_vals));

            assert_eq!(streamed.entries(), preagg.entries(), "agg={agg}");
        }
    }

    #[test]
    fn evicted_key_cannot_resurface_with_fresh_state() {
        // Adversarial order: a key appears, gets evicted by smaller hashes,
        // then reappears — it must stay out (otherwise its aggregate would
        // be wrong). We synthesize this by replaying a large key set twice.
        let n = 8;
        let keys: Vec<String> = (0..200).map(|i| format!("key-{i}")).collect();
        let twice: Vec<&str> = keys
            .iter()
            .map(String::as_str)
            .chain(keys.iter().map(String::as_str))
            .collect();
        let values: Vec<f64> = (0..400).map(f64::from).collect();
        let cfg = SketchConfig::with_size(n).aggregation(Aggregation::Count);
        let s = SketchBuilder::new(cfg).build(&pair(twice, values));
        assert_eq!(s.len(), n);
        // Every retained key was seen exactly twice.
        for e in s.entries() {
            assert_eq!(e.value, 2.0, "key {:?} has wrong count", e.key);
        }
    }

    #[test]
    fn row_order_does_not_change_the_sketch_for_order_free_aggregations() {
        let p = range_pair(500);
        let mut rev_keys = p.keys.clone();
        rev_keys.reverse();
        let mut rev_vals = p.values.clone();
        rev_vals.reverse();
        let p_rev = ColumnPair::new("t", "k", "v", rev_keys, rev_vals);
        for agg in [
            Aggregation::Mean,
            Aggregation::Sum,
            Aggregation::Min,
            Aggregation::Max,
        ] {
            let cfg = SketchConfig::with_size(32).aggregation(agg);
            let a = SketchBuilder::new(cfg).build(&p);
            let b = SketchBuilder::new(cfg).build(&p_rev);
            assert_eq!(a.entries(), b.entries(), "agg={agg}");
        }
    }

    #[test]
    fn zero_size_sketch_is_empty() {
        let s = SketchBuilder::new(SketchConfig::with_size(0)).build(&range_pair(10));
        assert!(s.is_empty());
        assert!(s.is_saturated());
        assert_eq!(s.rows_scanned(), 10);
    }

    #[test]
    fn different_seeds_select_different_keys() {
        let p = range_pair(1000);
        let a = SketchBuilder::new(SketchConfig::with_size(32).hasher(TupleHasher::new_64(1)))
            .build(&p);
        let b = SketchBuilder::new(SketchConfig::with_size(32).hasher(TupleHasher::new_64(2)))
            .build(&p);
        let ka: HashSet<KeyHash> = a.entries().iter().map(|e| e.key).collect();
        let kb: HashSet<KeyHash> = b.entries().iter().map(|e| e.key).collect();
        assert_ne!(ka, kb);
    }
}
