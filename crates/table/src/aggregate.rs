//! Aggregate functions for repeated join keys (paper Section 3.1,
//! "Handling Repeated Keys").
//!
//! When a key occurs several times, its numeric values must be collapsed
//! into one number before a correlation is defined. The paper requires the
//! aggregation to be computable *in streaming fashion* — `x_k^t =
//! f(x_k, x_k^{t−1})` — so that sketches are built in a single pass;
//! [`AggState`] is exactly that streaming state.

/// The aggregate functions supported for repeated keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggregation {
    /// Arithmetic mean of the values (Figure 1's example).
    #[default]
    Mean,
    /// Sum of the values.
    Sum,
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
    /// First value encountered in stream order.
    First,
    /// Last value encountered in stream order.
    Last,
    /// Number of occurrences of the key (ignores the values).
    Count,
}

impl Aggregation {
    /// Every supported aggregation, for exhaustive tests and ablations.
    pub const ALL: [Self; 7] = [
        Self::Mean,
        Self::Sum,
        Self::Min,
        Self::Max,
        Self::First,
        Self::Last,
        Self::Count,
    ];

    /// Short name used in CLI flags and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Mean => "mean",
            Self::Sum => "sum",
            Self::Min => "min",
            Self::Max => "max",
            Self::First => "first",
            Self::Last => "last",
            Self::Count => "count",
        }
    }

    /// Start the streaming state from the first value of a key group.
    #[must_use]
    pub fn start(&self, first_value: f64) -> AggState {
        AggState::new(*self, first_value)
    }

    /// Aggregate a full slice at once (reference semantics for tests).
    ///
    /// Returns `None` for an empty slice.
    #[must_use]
    pub fn aggregate_slice(&self, values: &[f64]) -> Option<f64> {
        let (&first, rest) = values.split_first()?;
        let mut state = self.start(first);
        for &v in rest {
            state.update(v);
        }
        Some(state.value())
    }
}

impl std::fmt::Display for Aggregation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Aggregation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "mean" | "avg" => Ok(Self::Mean),
            "sum" => Ok(Self::Sum),
            "min" => Ok(Self::Min),
            "max" => Ok(Self::Max),
            "first" => Ok(Self::First),
            "last" => Ok(Self::Last),
            "count" => Ok(Self::Count),
            other => Err(format!(
                "unknown aggregation '{other}' (expected mean|sum|min|max|first|last|count)"
            )),
        }
    }
}

/// Streaming aggregation state for one key group: O(1) memory per key,
/// single pass over the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggState {
    agg: Aggregation,
    acc: f64,
    count: u64,
}

impl AggState {
    /// Initialize from the first observed value of the key.
    #[must_use]
    pub fn new(agg: Aggregation, first_value: f64) -> Self {
        let acc = match agg {
            Aggregation::Count => 1.0,
            _ => first_value,
        };
        Self { agg, acc, count: 1 }
    }

    /// Fold in another occurrence of the key.
    pub fn update(&mut self, v: f64) {
        self.count += 1;
        match self.agg {
            Aggregation::Mean | Aggregation::Sum => self.acc += v,
            Aggregation::Min => self.acc = self.acc.min(v),
            Aggregation::Max => self.acc = self.acc.max(v),
            Aggregation::First => {}
            Aggregation::Last => self.acc = v,
            Aggregation::Count => self.acc += 1.0,
        }
    }

    /// Current aggregated value.
    #[must_use]
    pub fn value(&self) -> f64 {
        match self.agg {
            Aggregation::Mean => self.acc / self.count as f64,
            _ => self.acc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_slice_semantics() {
        let values = [3.0, -1.0, 4.0, 1.0, 5.0, -9.0, 2.0];
        let expected = [
            (Aggregation::Mean, values.iter().sum::<f64>() / 7.0),
            (Aggregation::Sum, values.iter().sum::<f64>()),
            (Aggregation::Min, -9.0),
            (Aggregation::Max, 5.0),
            (Aggregation::First, 3.0),
            (Aggregation::Last, 2.0),
            (Aggregation::Count, 7.0),
        ];
        for (agg, want) in expected {
            let got = agg.aggregate_slice(&values).unwrap();
            assert!((got - want).abs() < 1e-12, "{agg}: {got} vs {want}");
        }
    }

    #[test]
    fn single_value_groups() {
        for agg in Aggregation::ALL {
            let want = if agg == Aggregation::Count { 1.0 } else { 7.5 };
            assert_eq!(agg.aggregate_slice(&[7.5]), Some(want), "{agg}");
        }
    }

    #[test]
    fn empty_slice_is_none() {
        assert_eq!(Aggregation::Mean.aggregate_slice(&[]), None);
    }

    #[test]
    fn figure_one_mean_example() {
        // Key "2021-01" in T_Y has values {5.5, 4.5} → mean 5.0.
        assert_eq!(Aggregation::Mean.aggregate_slice(&[5.5, 4.5]), Some(5.0));
        // Key "2021-02": {3.9, 2.0} → mean 2.95 (paper shows 3.0 rounded).
        let v = Aggregation::Mean.aggregate_slice(&[3.9, 2.0]).unwrap();
        assert!((v - 2.95).abs() < 1e-12);
    }

    #[test]
    fn names_roundtrip() {
        for agg in Aggregation::ALL {
            assert_eq!(agg.name().parse::<Aggregation>().unwrap(), agg);
        }
        assert!("median".parse::<Aggregation>().is_err());
        assert_eq!("avg".parse::<Aggregation>().unwrap(), Aggregation::Mean);
    }

    #[test]
    fn update_order_only_matters_for_first_last() {
        let fwd = [1.0, 2.0, 3.0];
        let rev = [3.0, 2.0, 1.0];
        for agg in [
            Aggregation::Mean,
            Aggregation::Sum,
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Count,
        ] {
            assert_eq!(
                agg.aggregate_slice(&fwd),
                agg.aggregate_slice(&rev),
                "{agg}"
            );
        }
        assert_ne!(
            Aggregation::First.aggregate_slice(&fwd),
            Aggregation::First.aggregate_slice(&rev)
        );
    }
}
