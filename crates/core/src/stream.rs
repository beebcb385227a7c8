//! Incremental (push-based) sketch construction.
//!
//! [`StreamingSketchBuilder`] is the stateful core behind
//! [`crate::builder::SketchBuilder`]: rows are `push`ed one at a time and
//! the sketch is extracted with [`StreamingSketchBuilder::finish`]. This
//! is the shape a production ingestion pipeline needs — the paper's
//! synopses "can be pre-computed" online as data arrives, one pass,
//! `O(sketch size)` memory.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hasher};

use sketch_hashing::{KeyHash, KeyHasher};
use sketch_stats::ValueBounds;
use sketch_table::AggState;

use crate::builder::{HeapKey, SelectionStrategy, SketchConfig};
use crate::sketch::{CorrelationSketch, SketchEntry};

/// Incremental builder for one column pair's sketch.
///
/// Each retained key's unit hash is stored next to its aggregation state,
/// so [`StreamingSketchBuilder::finish`] never rehashes retained keys —
/// `g(k)` is computed exactly once per pushed row, in
/// [`StreamingSketchBuilder::push`].
#[derive(Debug, Clone)]
pub struct StreamingSketchBuilder {
    id: String,
    config: SketchConfig,
    /// Retained key → (unit hash, aggregation state). Grows until a
    /// fixed-size sketch holds `n` keys, then stays at `n`.
    members: HashMap<KeyHash, (f64, AggState), FoldedMultiply>,
    /// Max-heap over the retained `(unit hash, key)`s, built once from
    /// `members` when a fixed-size sketch first meets a new key while
    /// full, and kept in step with it from then on. Empty before that,
    /// and always for threshold sketches: an unsaturated sketch never
    /// pays for it.
    heap: BinaryHeap<HeapKey>,
    bounds_min: f64,
    bounds_max: f64,
    rows_scanned: u64,
    saturated: bool,
}

impl StreamingSketchBuilder {
    /// Start building a sketch identified by `id`.
    #[must_use]
    pub fn new(id: impl Into<String>, config: SketchConfig) -> Self {
        let cap = match config.strategy {
            SelectionStrategy::FixedSize(n) => n.min(1 << 16),
            SelectionStrategy::Threshold(_) => 16,
        };
        Self {
            id: id.into(),
            config,
            members: HashMap::with_capacity_and_hasher(cap, FoldedMultiply::new()),
            heap: BinaryHeap::new(),
            bounds_min: f64::INFINITY,
            bounds_max: f64::NEG_INFINITY,
            rows_scanned: 0,
            saturated: false,
        }
    }

    /// Number of tuples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when nothing has been retained yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Rows consumed so far.
    #[must_use]
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Feed one `(key, value)` row.
    pub fn push(&mut self, key: &str, value: f64) {
        self.rows_scanned += 1;
        self.bounds_min = self.bounds_min.min(value);
        self.bounds_max = self.bounds_max.max(value);

        let agg = self.config.aggregation;
        let (kh, unit) = self.config.hasher.g(key.as_bytes());
        match self.config.strategy {
            SelectionStrategy::FixedSize(n) => {
                let full = self.members.len() >= n;
                match self.members.entry(kh) {
                    Entry::Occupied(mut e) => e.get_mut().1.update(value),
                    Entry::Vacant(e) if !full => {
                        e.insert((unit, agg.start(value)));
                    }
                    Entry::Vacant(_) => self.offer(HeapKey { unit, key: kh }, value),
                }
            }
            SelectionStrategy::Threshold(t) => {
                if unit <= t {
                    match self.members.entry(kh) {
                        Entry::Occupied(mut e) => e.get_mut().1.update(value),
                        Entry::Vacant(e) => {
                            e.insert((unit, agg.start(value)));
                        }
                    }
                } else {
                    self.saturated = true;
                }
            }
        }
    }

    /// A new key meets a full fixed-size sketch: it replaces the retained
    /// maximum when it sorts below it, and is dropped otherwise. Either
    /// way the sketch is now saturated. `HeapKey` is a strict total order,
    /// so the evicted key is the unique maximum whatever the heap's
    /// layout, and a key evicted once can never re-enter (it compares
    /// above the shrinking maximum).
    fn offer(&mut self, hk: HeapKey, value: f64) {
        self.saturated = true;
        if self.members.is_empty() {
            return; // n == 0 keeps nothing
        }
        if self.heap.is_empty() {
            self.heap = self
                .members
                .iter() // lint: ordered (heapified: the heap's layout decides no output, see above)
                .map(|(&key, &(unit, _))| HeapKey { unit, key })
                .collect();
        }
        let mut max = self
            .heap
            .peek_mut()
            .expect("the heap holds the n > 0 retained keys");
        if hk < *max {
            let evicted = std::mem::replace(&mut *max, hk);
            drop(max);
            self.members.remove(&evicted.key);
            let agg = self.config.aggregation;
            self.members.insert(hk.key, (hk.unit, agg.start(value)));
        }
    }

    /// Finalize into an immutable [`CorrelationSketch`].
    #[must_use]
    pub fn finish(self) -> CorrelationSketch {
        // Units were captured at push time; no key is rehashed here. Keys
        // are distinct, so an unstable sort on the integer image of
        // `HeapKey`'s order is the same order.
        let mut tagged: Vec<(u64, KeyHash, f64, f64)> = self
            .members
            .into_iter() // lint: ordered (sorted by (unit, key) before any output below)
            .map(|(kh, (unit, state))| (total_order_bits(unit), kh, unit, state.value()))
            .collect();
        tagged.sort_unstable_by_key(|&(bits, kh, _, _)| (bits, kh));
        let mut entries = Vec::with_capacity(tagged.len());
        let mut units = Vec::with_capacity(tagged.len());
        for (_, key, unit, value) in tagged {
            entries.push(SketchEntry { key, value });
            units.push(unit);
        }
        CorrelationSketch {
            id: self.id,
            hasher: self.config.hasher,
            aggregation: self.config.aggregation,
            strategy: self.config.strategy,
            entries,
            units,
            bounds: (self.rows_scanned > 0)
                .then(|| ValueBounds::new(self.bounds_min, self.bounds_max)),
            rows_scanned: self.rows_scanned,
            saturated: self.saturated,
        }
    }
}

/// `x`'s bits as an unsigned integer that orders exactly as
/// [`f64::total_cmp`] orders floats: the sign-folded bits `total_cmp`
/// compares as `i64`, shifted into unsigned range by flipping the sign bit.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    let folded = bits ^ ((((bits as i64) >> 63) as u64) >> 1);
    folded ^ (1 << 63)
}

/// Hasher of the members map: a folded multiply (the 128-bit product of
/// the key, xored with one secret, and another secret, its halves xored
/// together). A [`KeyHash`] is already a murmur3 output, so this is
/// enough mixing at a fraction of SipHash's cost; the secrets, drawn per
/// builder from [`RandomState`], keep it keyed: the server sketches
/// untrusted query keys, and an unkeyed multiply would let a client
/// grind murmur3 outputs into one bucket.
#[derive(Debug, Clone, Copy)]
struct FoldedMultiply {
    xor: u64,
    mul: u64,
}

impl FoldedMultiply {
    fn new() -> Self {
        let secrets = RandomState::new();
        Self {
            xor: secrets.hash_one(0u64),
            mul: secrets.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for FoldedMultiply {
    type Hasher = FoldedMultiplyHasher;

    fn build_hasher(&self) -> FoldedMultiplyHasher {
        FoldedMultiplyHasher {
            keys: *self,
            state: 0,
        }
    }
}

#[derive(Debug)]
struct FoldedMultiplyHasher {
    keys: FoldedMultiply,
    state: u64,
}

impl Hasher for FoldedMultiplyHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.state ^ n ^ self.keys.xor) * u128::from(self.keys.mul);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    /// `KeyHash` hashes through `write_u64`; this keeps the trait total.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SketchBuilder;
    use sketch_table::ColumnPair;

    fn pair(n: usize) -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            (0..n).map(|i| format!("key-{}", i % 700)).collect(),
            (0..n).map(|i| (i as f64 * 0.7).sin() * 50.0).collect(),
        )
    }

    #[test]
    fn push_by_push_equals_batch_build() {
        let p = pair(3_000);
        let cfg = SketchConfig::with_size(64);
        let batch = SketchBuilder::new(cfg).build(&p);

        let mut s = StreamingSketchBuilder::new(p.id(), cfg);
        for (k, v) in p.rows() {
            s.push(k, v);
        }
        assert_eq!(s.rows_scanned(), 3_000);
        assert_eq!(s.finish(), batch);
    }

    #[test]
    fn threshold_streaming_matches_batch() {
        let p = pair(2_000);
        let cfg = SketchConfig::with_threshold(0.05);
        let batch = SketchBuilder::new(cfg).build(&p);
        let mut s = StreamingSketchBuilder::new(p.id(), cfg);
        for (k, v) in p.rows() {
            s.push(k, v);
        }
        assert_eq!(s.finish(), batch);
    }

    #[test]
    fn incremental_state_inspection() {
        let cfg = SketchConfig::with_size(4);
        let mut s = StreamingSketchBuilder::new("inc", cfg);
        assert!(s.is_empty());
        s.push("a", 1.0);
        s.push("b", 2.0);
        assert_eq!(s.len(), 2);
        s.push("a", 3.0); // repeated key: aggregated, not re-added
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows_scanned(), 3);
        let sketch = s.finish();
        assert_eq!(sketch.len(), 2);
    }

    #[test]
    fn total_order_bits_order_as_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.25,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn empty_finish_is_empty_sketch() {
        let s = StreamingSketchBuilder::new("e", SketchConfig::with_size(8));
        let sketch = s.finish();
        assert!(sketch.is_empty());
        assert!(sketch.value_bounds().is_none());
    }
}
