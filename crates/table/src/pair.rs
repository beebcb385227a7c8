//! The `⟨K, X⟩` column pair — the unit the paper sketches and indexes.

use sketch_stats::{Moments, ValueBounds};

/// A key/value column pair extracted from a table: a categorical join-key
/// column aligned with a numeric column, with rows containing a null in
/// either column dropped.
///
/// This is the input to both sketch construction and the exact-join ground
/// truth. `keys[i]` is paired with `values[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPair {
    /// Name of the table this pair came from.
    pub table: String,
    /// Name of the key column.
    pub key_name: String,
    /// Name of the numeric column.
    pub value_name: String,
    /// Join-key values (may repeat; see `Aggregation`).
    pub keys: Vec<String>,
    /// Numeric values aligned with `keys`.
    pub values: Vec<f64>,
}

impl ColumnPair {
    /// Build a pair directly from aligned key/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `values` lengths differ (programmer error).
    #[must_use]
    pub fn new(
        table: impl Into<String>,
        key_name: impl Into<String>,
        value_name: impl Into<String>,
        keys: Vec<String>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            keys.len(),
            values.len(),
            "column pair requires aligned keys/values"
        );
        Self {
            table: table.into(),
            key_name: key_name.into(),
            value_name: value_name.into(),
            keys,
            values,
        }
    }

    /// Stable identifier `table/key/value` used in indexes and reports.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.table, self.key_name, self.value_name)
    }

    /// Number of (non-null) rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the pair has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        let mut ks: Vec<&str> = self.keys.iter().map(String::as_str).collect();
        ks.sort_unstable();
        ks.dedup();
        ks.len()
    }

    /// Value range of the numeric column (`C_low`/`C_high` ingredient for
    /// the Hoeffding bounds of paper Section 4.3). `None` when empty.
    #[must_use]
    pub fn value_bounds(&self) -> Option<ValueBounds> {
        let m: Moments = self.values.iter().copied().collect();
        Some(ValueBounds::new(m.min()?, m.max()?))
    }

    /// Iterate aligned `(key, value)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.keys
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            vec!["a".into(), "b".into(), "a".into()],
            vec![1.0, 2.0, 3.0],
        )
    }

    #[test]
    fn id_and_len() {
        let p = sample();
        assert_eq!(p.id(), "t/k/v");
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.distinct_keys(), 2);
    }

    #[test]
    fn value_bounds_span_the_column() {
        let p = sample();
        let b = p.value_bounds().unwrap();
        assert_eq!(b.c_low, 1.0);
        assert_eq!(b.c_high, 3.0);
    }

    #[test]
    fn rows_iterate_aligned() {
        let p = sample();
        let rows: Vec<(&str, f64)> = p.rows().collect();
        assert_eq!(rows, vec![("a", 1.0), ("b", 2.0), ("a", 3.0)]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn mismatched_lengths_panic() {
        let _ = ColumnPair::new("t", "k", "v", vec!["a".into()], vec![]);
    }

    #[test]
    fn empty_pair_has_no_bounds() {
        let p = ColumnPair::new("t", "k", "v", vec![], vec![]);
        assert!(p.value_bounds().is_none());
        assert!(p.is_empty());
    }
}
