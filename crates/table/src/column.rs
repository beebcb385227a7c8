//! Nullable column storage: categorical (join-key candidates) and numeric
//! (correlation candidates).

/// Column payload. Missing values are represented as `None`, mirroring the
/// missing data the paper reports in the World Bank Finances collection.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Categorical values — join-key candidates.
    Categorical(Vec<Option<String>>),
    /// Numeric values — correlation candidates.
    Numeric(Vec<Option<f64>>),
}

impl ColumnData {
    /// Number of rows (including nulls).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Categorical(v) => v.len(),
            Self::Numeric(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null entries.
    #[must_use]
    pub fn null_count(&self) -> usize {
        match self {
            Self::Categorical(v) => v.iter().filter(|e| e.is_none()).count(),
            Self::Numeric(v) => v.iter().filter(|e| e.is_none()).count(),
        }
    }

    /// Is this a categorical column?
    #[must_use]
    pub(crate) fn is_categorical(&self) -> bool {
        matches!(self, Self::Categorical(_))
    }

    /// Is this a numeric column?
    #[must_use]
    pub(crate) fn is_numeric(&self) -> bool {
        matches!(self, Self::Numeric(_))
    }
}

/// A named column inside a [`crate::Table`].
#[derive(Debug, Clone, PartialEq)]
pub struct NamedColumn {
    /// Column name (unique within its table).
    pub name: String,
    /// Column payload.
    pub data: ColumnData,
}

impl NamedColumn {
    /// Construct a categorical column from optional strings.
    #[must_use]
    pub fn categorical(name: impl Into<String>, values: Vec<Option<String>>) -> Self {
        Self {
            name: name.into(),
            data: ColumnData::Categorical(values),
        }
    }

    /// Construct a numeric column from optional values.
    #[must_use]
    pub fn numeric(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        Self {
            name: name.into(),
            data: ColumnData::Numeric(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_nulls() {
        let c = NamedColumn::categorical("k", vec![Some("a".into()), None, Some("b".into())]);
        assert_eq!(c.data.len(), 3);
        assert_eq!(c.data.null_count(), 1);
        assert!(c.data.is_categorical());
        assert!(!c.data.is_numeric());
        assert!(!c.data.is_empty());
    }

    #[test]
    fn dense_constructors() {
        let n = NamedColumn::numeric("v", vec![Some(1.0), Some(2.0)]);
        assert_eq!(n.data.len(), 2);
        assert!(n.data.is_numeric());
    }
}
