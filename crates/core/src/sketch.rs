//! The correlation sketch data structure `L_⟨K,X⟩` (paper Section 3.1).

use sketch_hashing::{KeyHash, KeyHasher, TupleHasher};
use sketch_stats::ValueBounds;
use sketch_table::Aggregation;

/// One sketch tuple `⟨h(k), x_k⟩`.
///
/// The unit-interval hash `h_u(h(k))` is *not* stored — exactly as the
/// paper notes for Figure 2, it "does not need to be stored as it can be
/// easily computed from h(k)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchEntry {
    /// Hashed key identifier `h(k)`.
    pub key: KeyHash,
    /// Aggregated numeric value `x_k`.
    pub value: f64,
}

/// A correlation sketch: the `n` tuples `⟨h(k), x_k⟩` whose keys have the
/// smallest unit hashes `g(k) = h_u(h(k))`, plus the column metadata
/// needed at estimation time (full-column value bounds for the Hoeffding
/// CI, hasher configuration, aggregation).
///
/// Entries are kept sorted by ascending `(g(k), h(k))`.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationSketch {
    pub(crate) id: String,
    pub(crate) hasher: TupleHasher,
    pub(crate) aggregation: Aggregation,
    pub(crate) size: usize,
    pub(crate) entries: Vec<SketchEntry>,
    /// Cached unit hashes `g(k)`, aligned with `entries`. Derived state:
    /// never serialized (the paper's Figure 2 note — `h_u(h(k))` "can be
    /// easily computed from h(k)"), recomputed once at construction/load
    /// time so the query path never rehashes inside comparison loops.
    pub(crate) units: Vec<f64>,
    /// Full-column value range; `None` when the column was empty.
    pub(crate) bounds: Option<ValueBounds>,
    pub(crate) rows_scanned: u64,
    /// True when at least one key was excluded (the sketch is a proper
    /// subset of the column's distinct keys).
    pub(crate) saturated: bool,
}

impl CorrelationSketch {
    /// Identifier of the column pair this sketch summarizes
    /// (`table/key/value`).
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of tuples stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the sketch holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored tuples, ascending by unit hash.
    #[must_use]
    pub fn entries(&self) -> &[SketchEntry] {
        &self.entries
    }

    /// Hasher configuration the sketch was built with.
    #[must_use]
    pub fn hasher(&self) -> TupleHasher {
        self.hasher
    }

    /// Aggregation applied to repeated keys.
    #[must_use]
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Sketch size `n` the sketch was built with: the most tuples it
    /// keeps (it holds fewer when the column has fewer distinct keys).
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Full-column value bounds (`C_low`, `C_high` ingredients of the
    /// Section 4.3 Hoeffding interval); `None` for an empty column.
    #[must_use]
    pub fn value_bounds(&self) -> Option<ValueBounds> {
        self.bounds
    }

    /// Total rows consumed while building (including nulls dropped
    /// upstream this is the count of key/value rows seen).
    #[must_use]
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Whether any key was excluded from the sketch. When `false` the
    /// sketch contains *every* distinct key of the column and KMV
    /// statistics are exact.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Unit hash `g(k)` of an entry under this sketch's hasher.
    #[must_use]
    pub fn unit_hash(&self, entry: &SketchEntry) -> f64 {
        self.hasher.unit_hash(entry.key)
    }

    /// Cached unit hashes, aligned with [`Self::entries`] and ascending.
    /// Computed once at construction/load time.
    #[must_use]
    pub fn units(&self) -> &[f64] {
        &self.units
    }

    /// The k-th smallest unit hash `U(k)` — i.e. the largest unit hash
    /// retained. `None` for an empty sketch.
    #[must_use]
    pub(crate) fn kth_unit_hash(&self) -> Option<f64> {
        self.units.last().copied()
    }

    /// Approximate heap memory footprint in bytes — the space-accuracy
    /// trade-off axis of Figure 4. Counts the entries *and* the cached
    /// unit hashes (the serialized form stores only the entries; the
    /// cache is rebuilt on load).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<SketchEntry>()
            + self.units.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    fn pair(n: usize) -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            (0..n).map(|i| format!("key-{i}")).collect(),
            (0..n).map(|i| i as f64).collect(),
        )
    }

    #[test]
    fn entries_sorted_by_unit_hash() {
        let s = SketchBuilder::new(SketchConfig::with_size(64)).build(&pair(1000));
        assert_eq!(s.len(), 64);
        let units: Vec<f64> = s.entries().iter().map(|e| s.unit_hash(e)).collect();
        for w in units.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn units_cache_matches_hasher_recomputation() {
        let s = SketchBuilder::new(SketchConfig::with_size(64)).build(&pair(1000));
        assert_eq!(s.units().len(), s.len());
        for (u, e) in s.units().iter().zip(s.entries()) {
            assert_eq!(*u, s.unit_hash(e));
        }
    }

    #[test]
    fn kth_unit_hash_is_max_retained() {
        let s = SketchBuilder::new(SketchConfig::with_size(32)).build(&pair(500));
        let max = s
            .entries()
            .iter()
            .map(|e| s.unit_hash(e))
            .fold(0.0f64, f64::max);
        assert_eq!(s.kth_unit_hash().unwrap(), max);
    }

    #[test]
    fn unsaturated_sketch_keeps_everything() {
        let s = SketchBuilder::new(SketchConfig::with_size(256)).build(&pair(100));
        assert_eq!(s.len(), 100);
        assert!(!s.is_saturated());
        assert_eq!(s.rows_scanned(), 100);
    }

    #[test]
    fn empty_column_gives_empty_sketch() {
        let s = SketchBuilder::new(SketchConfig::with_size(16)).build(&pair(0));
        assert!(s.is_empty());
        assert!(s.value_bounds().is_none());
        assert!(s.kth_unit_hash().is_none());
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    fn bounds_cover_full_column_not_just_sketch() {
        // Even values excluded from the sketch must influence the bounds.
        let s = SketchBuilder::new(SketchConfig::with_size(4)).build(&pair(1000));
        let b = s.value_bounds().unwrap();
        assert_eq!(b.c_low, 0.0);
        assert_eq!(b.c_high, 999.0);
        assert!(s.is_saturated());
    }
}
