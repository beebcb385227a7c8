//! Compact binary sketch codec — the record payload of the
//! `sketch-store` shard format.
//!
//! Sketches are precomputed offline and loaded into an index at query
//! time (paper Section 1: synopses "can be pre-computed and indexed"), so
//! they need a stable storage format; this codec is the only one. A
//! payload encodes one [`CorrelationSketch`] as fixed-width little-endian
//! fields (layout below). It stores only the entries — the cached unit
//! hashes are recomputed once at decode time (the paper's Figure 2 note:
//! `h_u(h(k))` "can be easily computed from h(k)") — and decoding
//! re-validates the in-memory invariants: strict ascending
//! `(unit hash, key)` order and finite values.
//!
//! ## Payload layout (all integers little-endian)
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | `id_len` (`u32`) |
//! | 4      | `id_len` | sketch id, UTF-8 |
//! | +0     | 1    | hasher bits: `0` = 32-bit, `1` = 64-bit |
//! | +1     | 8    | hasher seed (`u64`) |
//! | +9     | 1    | aggregation code (see [`agg_code`]) |
//! | +10    | 1    | strategy tag: `0` = fixed-size, `1` = threshold |
//! | +11    | 8    | strategy argument: size as `u64`, or threshold `f64` bits |
//! | +19    | 1    | bounds flag: `0` = none, `1` = present |
//! | +20    | 16   | `c_low`, `c_high` (`f64` each; only when flag = 1) |
//! | +…     | 8    | `rows_scanned` (`u64`) |
//! | +…     | 1    | `saturated`: `0` or `1` |
//! | +…     | 4    | entry count `n` (`u32`) |
//! | +…     | 16·n | entries: `⟨h(k)⟩` as `u64`, then `x_k` as `f64` bits |
//!
//! The fields through the strategy argument are the payload's **head**
//! ([`SketchHead`]): which sketch the record holds and whether it joins
//! with a corpus, readable without touching an entry.
//!
//! Every byte is significant: decoding rejects trailing bytes, unknown
//! enum codes, non-canonical flag bytes, and out-of-order entries, so a
//! payload that decodes is exactly one that [`CorrelationSketch::to_bytes`]
//! could have produced. Floats round-trip bit-identically (the codec
//! moves raw `f64` bits, never decimal text).

use sketch_hashing::{HashBits, KeyHash, KeyHasher, TupleHasher};
use sketch_stats::ValueBounds;
use sketch_table::Aggregation;

use crate::builder::{SelectionStrategy, SketchConfig};
use crate::error::SketchError;
use crate::sketch::{CorrelationSketch, SketchEntry};

/// Stable wire code of an aggregation (order of [`Aggregation::ALL`]).
fn agg_code(agg: Aggregation) -> u8 {
    match agg {
        Aggregation::Mean => 0,
        Aggregation::Sum => 1,
        Aggregation::Min => 2,
        Aggregation::Max => 3,
        Aggregation::First => 4,
        Aggregation::Last => 5,
        Aggregation::Count => 6,
    }
}

fn agg_from_code(code: u8) -> Result<Aggregation, SketchError> {
    Aggregation::ALL
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| SketchError::Corrupt(format!("unknown aggregation code {code}")))
}

/// Widen a `u32` wire-format length/count into a `usize`, failing as
/// [`SketchError::Corrupt`] on targets whose `usize` cannot hold it
/// (instead of silently wrapping the way a bare `as` cast would).
fn wire_len(field: u32, context: &str) -> Result<usize, SketchError> {
    usize::try_from(field)
        .map_err(|_| SketchError::Corrupt(format!("{context} {field} exceeds this target's usize")))
}

/// Byte-slice cursor with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SketchError> {
        let available = self.bytes.len() - self.pos;
        if n > available {
            return Err(SketchError::Truncated {
                context,
                needed: n,
                available,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, SketchError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, SketchError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, SketchError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, SketchError> {
        Ok(f64::from_bits(self.u64(context)?))
    }
}

/// The leading fields of a sketch payload — its id and the configuration
/// it was built under — borrowed from the encoded bytes. Everything a
/// reader needs that asks *which* sketch a record holds and whether it
/// joins with a corpus, at the cost of a few dozen bytes: no entry is
/// touched, so a head costs the same for a sketch of 8 tuples or 8192.
///
/// A head is a prefix decode: it vouches for the fields it carries, not
/// for the entries behind them (that is [`CorrelationSketch::from_bytes`],
/// which reads its own head through this type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchHead<'a> {
    /// Sketch id (`table/key/value`).
    pub id: &'a str,
    /// Hash functions the sketch was built with.
    pub hasher: TupleHasher,
    /// Aggregation applied to repeated keys.
    pub aggregation: Aggregation,
    /// Tuple selection strategy.
    pub strategy: SelectionStrategy,
}

impl<'a> SketchHead<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Self, SketchError> {
        let id_len = wire_len(r.u32("id length")?, "id length")?;
        let id = std::str::from_utf8(r.take(id_len, "sketch id")?)
            .map_err(|e| SketchError::Corrupt(format!("sketch id is not UTF-8: {e}")))?;

        let hasher = match r.u8("hasher bits")? {
            0 => TupleHasher::paper_32(
                u32::try_from(r.u64("hasher seed")?)
                    .map_err(|_| SketchError::Corrupt("b32 hasher seed exceeds u32".into()))?,
            ),
            1 => TupleHasher::new_64(r.u64("hasher seed")?),
            other => {
                return Err(SketchError::Corrupt(format!(
                    "unknown hasher bits code {other}"
                )))
            }
        };

        let aggregation = agg_from_code(r.u8("aggregation code")?)?;

        let strategy = match r.u8("strategy tag")? {
            0 => SelectionStrategy::FixedSize(
                usize::try_from(r.u64("fixed-size argument")?)
                    .map_err(|_| SketchError::Corrupt("fixed_size exceeds usize".into()))?,
            ),
            1 => {
                let t = r.f64("threshold argument")?;
                if !t.is_finite() {
                    return Err(SketchError::Corrupt("non-finite threshold".into()));
                }
                SelectionStrategy::Threshold(t)
            }
            other => {
                return Err(SketchError::Corrupt(format!(
                    "unknown strategy tag {other}"
                )))
            }
        };
        Ok(Self {
            id,
            hasher,
            aggregation,
            strategy,
        })
    }

    /// Decode the head of a payload produced by
    /// [`CorrelationSketch::write_bytes`], reading no further than the
    /// strategy argument.
    ///
    /// # Errors
    ///
    /// [`SketchError::Truncated`] when the bytes end inside the head,
    /// [`SketchError::Corrupt`] on a non-UTF-8 id or an unknown code.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, SketchError> {
        Self::read(&mut Reader { bytes, pos: 0 })
    }

    /// The configuration to build under so that the result joins with,
    /// and is sized like, the sketch this head describes.
    #[must_use]
    pub fn config(&self) -> SketchConfig {
        SketchConfig {
            strategy: self.strategy,
            hasher: self.hasher,
            aggregation: self.aggregation,
        }
    }
}

impl CorrelationSketch {
    /// This sketch's head: what [`SketchHead::from_bytes`] reads back
    /// from its encoding.
    #[must_use]
    pub fn head(&self) -> SketchHead<'_> {
        SketchHead {
            id: &self.id,
            hasher: self.hasher,
            aggregation: self.aggregation,
            strategy: self.strategy,
        }
    }

    /// Encode to the compact binary payload documented in the module
    /// docs. Appends to `out` (so shard writers can frame many records
    /// into one buffer without copies).
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] if the sketch holds non-finite values —
    /// the same write-time validation as [`Self::to_json`], so the two
    /// formats accept exactly the same sketches.
    pub fn write_bytes(&self, out: &mut Vec<u8>) -> Result<(), SketchError> {
        if self.entries.iter().any(|e| !e.value.is_finite()) {
            return Err(SketchError::Corrupt("non-finite entry value".into()));
        }
        if self
            .bounds
            .is_some_and(|b| !b.c_low.is_finite() || !b.c_high.is_finite())
        {
            return Err(SketchError::Corrupt("non-finite value bounds".into()));
        }
        if let SelectionStrategy::Threshold(t) = self.strategy {
            if !t.is_finite() {
                return Err(SketchError::Corrupt("non-finite threshold".into()));
            }
        }
        let id_len = u32::try_from(self.id.len())
            .map_err(|_| SketchError::Corrupt("sketch id exceeds u32 length".into()))?;
        let n = u32::try_from(self.entries.len())
            .map_err(|_| SketchError::Corrupt("entry count exceeds u32".into()))?;

        out.reserve(42 + self.id.len() + 16 * self.entries.len());
        out.extend_from_slice(&id_len.to_le_bytes());
        out.extend_from_slice(self.id.as_bytes());
        out.push(match self.hasher.bits() {
            HashBits::B32 => 0,
            HashBits::B64 => 1,
        });
        out.extend_from_slice(&self.hasher.seed().to_le_bytes());
        out.push(agg_code(self.aggregation));
        match self.strategy {
            SelectionStrategy::FixedSize(size) => {
                out.push(0);
                let size = u64::try_from(size).map_err(|_| {
                    SketchError::Corrupt("fixed-size selection budget exceeds u64".into())
                })?;
                out.extend_from_slice(&size.to_le_bytes());
            }
            SelectionStrategy::Threshold(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_bits().to_le_bytes());
            }
        }
        match self.bounds {
            None => out.push(0),
            Some(b) => {
                out.push(1);
                out.extend_from_slice(&b.c_low.to_bits().to_le_bytes());
                out.extend_from_slice(&b.c_high.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&self.rows_scanned.to_le_bytes());
        out.push(u8::from(self.saturated));
        out.extend_from_slice(&n.to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.key.value().to_le_bytes());
            out.extend_from_slice(&e.value.to_bits().to_le_bytes());
        }
        Ok(())
    }

    /// Encode to a fresh byte vector; see [`Self::write_bytes`].
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] if the sketch holds non-finite values.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SketchError> {
        let mut out = Vec::new();
        self.write_bytes(&mut out)?;
        Ok(out)
    }

    /// Decode a payload produced by [`Self::write_bytes`], rebuilding the
    /// cached unit hashes and re-validating every in-memory invariant.
    ///
    /// # Errors
    ///
    /// [`SketchError::Truncated`] when the bytes end mid-field,
    /// [`SketchError::Corrupt`] on unknown codes, non-canonical flag
    /// bytes, trailing bytes, or violated sketch invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        let mut r = Reader { bytes, pos: 0 };
        let SketchHead {
            id,
            hasher,
            aggregation,
            strategy,
        } = SketchHead::read(&mut r)?;
        let id = id.to_string();

        let bounds = match r.u8("bounds flag")? {
            0 => None,
            1 => {
                let c_low = r.f64("bounds low")?;
                let c_high = r.f64("bounds high")?;
                if !c_low.is_finite() || !c_high.is_finite() {
                    return Err(SketchError::Corrupt("non-finite value bounds".into()));
                }
                if c_low > c_high {
                    return Err(SketchError::Corrupt("inverted value bounds".into()));
                }
                Some(ValueBounds::new(c_low, c_high))
            }
            other => return Err(SketchError::Corrupt(format!("unknown bounds flag {other}"))),
        };

        let rows_scanned = r.u64("rows scanned")?;
        let saturated = match r.u8("saturated flag")? {
            0 => false,
            1 => true,
            other => {
                return Err(SketchError::Corrupt(format!(
                    "non-canonical saturated flag {other}"
                )))
            }
        };

        let n = wire_len(r.u32("entry count")?, "entry count")?;
        // Bound the allocation by the bytes actually present: a corrupted
        // count must fail with Truncated, not attempt a 64 GiB reserve.
        let available = bytes.len() - r.pos;
        if n.checked_mul(16).is_none_or(|need| need > available) {
            return Err(SketchError::Truncated {
                context: "sketch entries",
                needed: n.saturating_mul(16),
                available,
            });
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let key = KeyHash(r.u64("entry key")?);
            let value = r.f64("entry value")?;
            entries.push(SketchEntry { key, value });
        }
        if r.pos != bytes.len() {
            return Err(SketchError::Corrupt(format!(
                "{} trailing bytes after sketch payload",
                bytes.len() - r.pos
            )));
        }

        // Rebuild the unit-hash cache, then validate the invariants
        // against it — identical to the JSON load path.
        let units: Vec<f64> = entries.iter().map(|e| hasher.unit_hash(e.key)).collect();
        for i in 1..entries.len() {
            if units[i - 1]
                .total_cmp(&units[i])
                .then(entries[i - 1].key.cmp(&entries[i].key))
                != std::cmp::Ordering::Less
            {
                return Err(SketchError::Corrupt(
                    "entries not sorted by (unit hash, key)".into(),
                ));
            }
        }
        if entries.iter().any(|e| !e.value.is_finite()) {
            return Err(SketchError::Corrupt("non-finite entry value".into()));
        }

        Ok(Self {
            id,
            hasher,
            aggregation,
            strategy,
            entries,
            units,
            bounds,
            rows_scanned,
            saturated,
        })
    }
}

/// Record tag opening every *delta-shard* record payload: the record is a
/// full sketch (its [`CorrelationSketch::write_bytes`] payload follows).
pub const DELTA_TAG_SKETCH: u8 = 0;

/// Record tag opening every *delta-shard* record payload: the record is a
/// tombstone deleting one sketch id (see [`encode_tombstone`]).
pub const DELTA_TAG_TOMBSTONE: u8 = 1;

/// One record of a corpus delta: either a sketch appended to the corpus
/// or a tombstone retiring a live sketch id. Delta shards are an ordered
/// log of these.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaRecord {
    /// Append this sketch to the live corpus.
    Sketch(CorrelationSketch),
    /// Retire the live sketch with this id.
    Tombstone(String),
}

/// Encode a tombstone payload: `[DELTA_TAG_TOMBSTONE] [id_len u32 LE]
/// [id bytes, UTF-8]`. The sibling of a tagged sketch payload
/// ([`DeltaRecord::write_bytes`]), sized so a delete costs a few dozen
/// bytes instead of a re-pack.
///
/// # Errors
///
/// [`SketchError::Corrupt`] on an empty id or one exceeding `u32` bytes.
pub fn encode_tombstone(id: &str) -> Result<Vec<u8>, SketchError> {
    if id.is_empty() {
        return Err(SketchError::Corrupt("empty tombstone id".into()));
    }
    let id_len = u32::try_from(id.len())
        .map_err(|_| SketchError::Corrupt("tombstone id exceeds u32 length".into()))?;
    let mut out = Vec::with_capacity(5 + id.len());
    out.push(DELTA_TAG_TOMBSTONE);
    out.extend_from_slice(&id_len.to_le_bytes());
    out.extend_from_slice(id.as_bytes());
    Ok(out)
}

/// Decode a tombstone payload produced by [`encode_tombstone`],
/// validating the tag, the declared length against the actual bytes, and
/// UTF-8.
///
/// # Errors
///
/// [`SketchError::Truncated`] when bytes end mid-field,
/// [`SketchError::Corrupt`] on a wrong tag, trailing bytes, an empty id,
/// or non-UTF-8 id bytes.
pub fn decode_tombstone(payload: &[u8]) -> Result<String, SketchError> {
    tombstone_id(payload).map(str::to_string)
}

/// [`decode_tombstone`], with the id borrowed from the payload.
fn tombstone_id(payload: &[u8]) -> Result<&str, SketchError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let tag = r.u8("tombstone tag")?;
    if tag != DELTA_TAG_TOMBSTONE {
        return Err(SketchError::Corrupt(format!(
            "record tag {tag} where a tombstone ({DELTA_TAG_TOMBSTONE}) was expected"
        )));
    }
    let id_len = wire_len(r.u32("tombstone id length")?, "tombstone id length")?;
    let id = std::str::from_utf8(r.take(id_len, "tombstone id")?)
        .map_err(|e| SketchError::Corrupt(format!("tombstone id is not UTF-8: {e}")))?;
    if r.pos != payload.len() {
        return Err(SketchError::Corrupt(format!(
            "{} trailing bytes after tombstone",
            payload.len() - r.pos
        )));
    }
    if id.is_empty() {
        return Err(SketchError::Corrupt("empty tombstone id".into()));
    }
    Ok(id)
}

/// The tag byte opening a delta payload, if it is one this build knows.
fn delta_tag(payload: &[u8]) -> Result<u8, SketchError> {
    match payload.first() {
        Some(&tag @ (DELTA_TAG_SKETCH | DELTA_TAG_TOMBSTONE)) => Ok(tag),
        Some(&other) => Err(SketchError::Corrupt(format!(
            "unknown delta record tag {other}"
        ))),
        None => Err(SketchError::Truncated {
            context: "delta record tag",
            needed: 1,
            available: 0,
        }),
    }
}

/// The head of one delta record, borrowed from its payload: which id it
/// appends (and under which configuration) or retires. What replaying a
/// delta log for its *ids* needs — the store's write path and its
/// append/tombstone tallies — without decoding a single entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaHead<'a> {
    /// The record appends the sketch with this head.
    Sketch(SketchHead<'a>),
    /// The record retires the live sketch with this id (a tombstone is
    /// all head: it is validated in full).
    Tombstone(&'a str),
}

impl<'a> DeltaHead<'a> {
    /// Decode the head of a tagged delta payload produced by
    /// [`DeltaRecord::write_bytes`].
    ///
    /// # Errors
    ///
    /// As [`DeltaRecord::from_bytes`] for the tag and for tombstones; as
    /// [`SketchHead::from_bytes`] for appends.
    pub fn from_bytes(payload: &'a [u8]) -> Result<Self, SketchError> {
        match delta_tag(payload)? {
            DELTA_TAG_SKETCH => SketchHead::from_bytes(&payload[1..]).map(Self::Sketch),
            _ => tombstone_id(payload).map(Self::Tombstone),
        }
    }
}

impl DeltaRecord {
    /// The sketch id this record is about (appended id or retired id).
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Self::Sketch(s) => s.id(),
            Self::Tombstone(id) => id,
        }
    }

    /// Encode as a tagged delta payload, appending to `out`: one tag
    /// byte ([`DELTA_TAG_SKETCH`] or [`DELTA_TAG_TOMBSTONE`]) followed by
    /// the sketch payload or the tombstone body.
    ///
    /// # Errors
    ///
    /// [`SketchError::Corrupt`] on unencodable sketches or empty/oversize
    /// tombstone ids.
    pub fn write_bytes(&self, out: &mut Vec<u8>) -> Result<(), SketchError> {
        match self {
            Self::Sketch(s) => {
                out.push(DELTA_TAG_SKETCH);
                s.write_bytes(out)
            }
            Self::Tombstone(id) => {
                out.extend_from_slice(&encode_tombstone(id)?);
                Ok(())
            }
        }
    }

    /// Decode a tagged delta payload produced by [`Self::write_bytes`].
    ///
    /// # Errors
    ///
    /// [`SketchError::Truncated`] / [`SketchError::Corrupt`] with the
    /// same validation as [`CorrelationSketch::from_bytes`] and
    /// [`decode_tombstone`].
    pub fn from_bytes(payload: &[u8]) -> Result<Self, SketchError> {
        match delta_tag(payload)? {
            DELTA_TAG_SKETCH => CorrelationSketch::from_bytes(&payload[1..]).map(Self::Sketch),
            _ => decode_tombstone(payload).map(Self::Tombstone),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    fn pair(n: usize) -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            (0..n).map(|i| format!("key-{i}")).collect(),
            (0..n).map(|i| i as f64 * 1.5).collect(),
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = SketchBuilder::new(SketchConfig::with_size(64)).build(&pair(1000));
        let back = CorrelationSketch::from_bytes(&s.to_bytes().unwrap()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.units(), back.units());
    }

    #[test]
    fn every_config_roundtrips() {
        for cfg in [
            SketchConfig::with_size(32),
            SketchConfig::with_threshold(0.07),
            SketchConfig::with_size(16).hasher(TupleHasher::paper_32(7)),
            SketchConfig::with_size(8).aggregation(Aggregation::Count),
        ] {
            let s = SketchBuilder::new(cfg).build(&pair(700));
            let bytes = s.to_bytes().unwrap();
            let via_bin = CorrelationSketch::from_bytes(&bytes).unwrap();
            assert_eq!(via_bin, s);
            // The head is the same fields, read without the entries.
            let head = SketchHead::from_bytes(&bytes).unwrap();
            assert_eq!(head, s.head());
            assert_eq!(head.config(), cfg);
            assert_eq!(
                SketchHead::from_bytes(&bytes[..head.id.len() + 23]),
                Ok(head)
            );
            for cut in 0..head.id.len() + 23 {
                assert!(SketchHead::from_bytes(&bytes[..cut]).is_err(), "{cut}");
            }
        }
    }

    #[test]
    fn empty_sketch_roundtrips() {
        let s = SketchBuilder::new(SketchConfig::with_size(8)).build(&pair(0));
        let back = CorrelationSketch::from_bytes(&s.to_bytes().unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let s = SketchBuilder::new(SketchConfig::with_size(16)).build(&pair(200));
        let bytes = s.to_bytes().unwrap();
        for cut in 0..bytes.len() {
            let err = CorrelationSketch::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SketchError::Truncated { .. } | SketchError::Corrupt(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let s = SketchBuilder::new(SketchConfig::with_size(8)).build(&pair(50));
        let mut bytes = s.to_bytes().unwrap();
        bytes.push(0);
        assert!(matches!(
            CorrelationSketch::from_bytes(&bytes),
            Err(SketchError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_entry_count_fails_without_allocating() {
        let s = SketchBuilder::new(SketchConfig::with_size(4)).build(&pair(50));
        let mut bytes = s.to_bytes().unwrap();
        let count_off = bytes.len() - 4 * 16 - 4;
        bytes[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            CorrelationSketch::from_bytes(&bytes),
            Err(SketchError::Truncated { .. })
        ));
    }

    #[test]
    fn tampered_order_is_rejected() {
        let s = SketchBuilder::new(SketchConfig::with_size(8)).build(&pair(100));
        let mut bytes = s.to_bytes().unwrap();
        // Swap the first two 16-byte entry records (tail of the payload).
        let entries_off = bytes.len() - 8 * 16;
        let (a, b) = (entries_off, entries_off + 16);
        let tmp: Vec<u8> = bytes[a..a + 16].to_vec();
        bytes.copy_within(b..b + 16, a);
        bytes[b..b + 16].copy_from_slice(&tmp);
        assert!(matches!(
            CorrelationSketch::from_bytes(&bytes),
            Err(SketchError::Corrupt(_))
        ));
    }

    #[test]
    fn non_finite_values_refused_at_write_time() {
        use crate::stream::StreamingSketchBuilder;
        let cfg = SketchConfig::with_size(8).aggregation(Aggregation::Min);
        let mut b = StreamingSketchBuilder::new("t/k/v", cfg);
        b.push("a", f64::INFINITY);
        b.push("a", 1.0);
        let s = b.finish();
        assert!(matches!(s.to_bytes(), Err(SketchError::Corrupt(_))));
    }

    #[test]
    fn tombstone_roundtrip_and_validation() {
        let bytes = encode_tombstone("taxi/day/pickups").unwrap();
        assert_eq!(bytes[0], DELTA_TAG_TOMBSTONE);
        assert_eq!(decode_tombstone(&bytes).unwrap(), "taxi/day/pickups");

        // Empty ids are refused at both ends.
        assert!(matches!(encode_tombstone(""), Err(SketchError::Corrupt(_))));

        // Trailing bytes, truncation, wrong tag.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            decode_tombstone(&bad),
            Err(SketchError::Corrupt(_))
        ));
        for cut in 0..bytes.len() {
            assert!(
                decode_tombstone(&bytes[..cut]).is_err(),
                "tombstone cut at {cut} undetected"
            );
        }
        let mut bad = bytes;
        bad[0] = DELTA_TAG_SKETCH;
        assert!(matches!(
            decode_tombstone(&bad),
            Err(SketchError::Corrupt(_))
        ));
    }

    #[test]
    fn delta_record_roundtrip_both_variants() {
        let s = SketchBuilder::new(SketchConfig::with_size(32)).build(&pair(120));
        for record in [
            DeltaRecord::Sketch(s.clone()),
            DeltaRecord::Tombstone("t/k/v".into()),
        ] {
            let mut payload = Vec::new();
            record.write_bytes(&mut payload).unwrap();
            assert_eq!(DeltaRecord::from_bytes(&payload).unwrap(), record);
            let head = match &record {
                DeltaRecord::Sketch(s) => DeltaHead::Sketch(s.head()),
                DeltaRecord::Tombstone(id) => DeltaHead::Tombstone(id),
            };
            assert_eq!(DeltaHead::from_bytes(&payload).unwrap(), head);
        }
        assert_eq!(DeltaRecord::Sketch(s.clone()).id(), s.id());
        assert_eq!(DeltaRecord::Tombstone("x/y/z".into()).id(), "x/y/z");

        // Unknown tags and empty payloads are typed errors.
        assert!(matches!(
            DeltaRecord::from_bytes(&[9, 0, 0]),
            Err(SketchError::Corrupt(_))
        ));
        assert!(matches!(
            DeltaRecord::from_bytes(&[]),
            Err(SketchError::Truncated { .. })
        ));
        assert_eq!(
            DeltaHead::from_bytes(&[9, 0, 0]).unwrap_err(),
            DeltaRecord::from_bytes(&[9, 0, 0]).unwrap_err()
        );
        assert_eq!(
            DeltaHead::from_bytes(&[]).unwrap_err(),
            DeltaRecord::from_bytes(&[]).unwrap_err()
        );
    }
}
